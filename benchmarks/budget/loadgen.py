"""Seeded operation scripts and the two generators that play them.

The program under test receives only the generated operations: every random
draw (operator, key, class, arrival time) is made here from ``--seed``
before the timed window opens.

* :func:`closed_loop` — each client keeps one operation outstanding; a slow
  cluster therefore receives less load.  Bounded by a count (warm-up) or by
  a deadline (the timed window).
* :func:`open_loop` — operations are submitted at precomputed due times
  whatever the cluster does.  The dispatcher sleeps *until* each due time
  (not for a gap after the previous submit), latency is timed from the due
  time, and how late the dispatcher ran is recorded per operation.
  ``repro.net.driver``'s open loop sleeps a gap after each submit and times
  from the send, which hides every stall; it is not used here.
"""

from __future__ import annotations

import asyncio
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.common import OperationId
from repro.datatypes.base import Operator
from repro.net.runtime import NetCluster, OperationFailed
from repro.service.keyed import KeyedStore
from repro.sim.workload import zipfian_cdf


@dataclass
class Planned:
    """One scripted operation: what to submit and (open loop) when."""

    client: str
    operator: Operator
    strict: bool = False
    #: ``prev`` = the same client's previously submitted operation.
    chain: bool = False
    #: Seconds after the window opens (open loop only).
    due: float = 0.0


@dataclass
class Outcome:
    planned: Planned
    #: Loop time the operation was due (closed loop: submitted).
    due_at: float
    #: Seconds the dispatcher ran behind the schedule for this operation.
    lag: float = 0.0
    #: Due -> response in seconds; ``None`` = failed or timed out.
    latency: Optional[float] = None


@dataclass
class LoadResult:
    outcomes: List[Outcome] = field(default_factory=list)
    #: Loop time the generator started.
    started: float = 0.0

    @property
    def answered(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.latency is not None]

    @property
    def failed(self) -> int:
        return len(self.outcomes) - len(self.answered)


# --------------------------------------------------------------------------- #
# Scripts                                                                     #
# --------------------------------------------------------------------------- #


def client_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1009 + index)


def counter_adds(client: str, rng: random.Random) -> Iterator[Planned]:
    """An endless non-strict ``add(k)`` stream (k in 1..9: one wire byte, a
    final counter value that depends on the seed)."""
    while True:
        yield Planned(client, Operator("add", (rng.randint(1, 9),)))


def keyed_mix(client: str, rng: random.Random, num_keys: int = 64) -> Iterator[Planned]:
    """The ``mem_open_mixed`` stream: zipf(1.1) over *num_keys* keys, 70 %
    ``add`` / 30 % ``read``; 60 % non-strict, 30 % non-strict chained on the
    client's previous operation, 10 % strict."""
    cdf = zipfian_cdf(num_keys, 1.1)
    while True:
        key = f"k{min(bisect_left(cdf, rng.random()), num_keys - 1)}"
        inner = Operator("add", (rng.randint(1, 9),)) if rng.random() < 0.7 else Operator("read")
        draw = rng.random()
        yield Planned(
            client,
            KeyedStore.at(key, inner),
            strict=draw >= 0.9,
            chain=0.6 <= draw < 0.9,
        )


def poisson_plan(
    streams: Dict[str, Iterator[Planned]], rate: float, seconds: float, rng: random.Random
) -> List[Planned]:
    """``round(rate * seconds)`` arrivals with exponential gaps, rescaled so
    the last one is due at *seconds* (a Poisson process conditioned on its
    count: every seed offers exactly the same load).  Each arrival is
    assigned to a uniformly drawn client stream."""
    count = max(1, round(rate * seconds))
    clients = sorted(streams)
    clock, dues = 0.0, []
    for _ in range(count):
        clock += rng.expovariate(rate)
        dues.append(clock)
    stretch = seconds / clock
    plan = []
    for due in dues:
        planned = next(streams[rng.choice(clients)])
        planned.due = due * stretch
        plan.append(planned)
    return plan


# --------------------------------------------------------------------------- #
# Generators                                                                  #
# --------------------------------------------------------------------------- #


class _Player:
    """Submits planned operations on a started cluster and records outcomes."""

    def __init__(self, cluster: NetCluster, timeout: float) -> None:
        self.cluster = cluster
        self.timeout = timeout
        self.loop = asyncio.get_running_loop()
        self.result = LoadResult(started=self.loop.time())
        self._last: Dict[str, OperationId] = {}

    async def play(self, planned: Planned, due_at: float) -> None:
        prev = ()
        if planned.chain and planned.client in self._last:
            prev = (self._last[planned.client],)
        operation = self.cluster.make_operation(
            planned.client, planned.operator, prev, planned.strict
        )
        self._last[planned.client] = operation.id
        outcome = Outcome(planned, due_at, lag=self.loop.time() - due_at)
        self.result.outcomes.append(outcome)
        try:
            await self.cluster.execute(operation, timeout=self.timeout)
        except (OperationFailed, asyncio.TimeoutError):
            pass
        else:
            outcome.latency = self.loop.time() - due_at


async def closed_loop(
    cluster: NetCluster,
    streams: Dict[str, Iterator[Planned]],
    seconds: Optional[float] = None,
    ops_per_client: Optional[int] = None,
    timeout: float = 30.0,
) -> LoadResult:
    """One outstanding operation per client, until *seconds* have passed or
    each client has completed *ops_per_client* operations."""
    player = _Player(cluster, timeout)
    deadline = None if seconds is None else player.result.started + seconds

    async def client(stream: Iterator[Planned]) -> None:
        done = 0
        while (deadline is None or player.loop.time() < deadline) and (
            ops_per_client is None or done < ops_per_client
        ):
            await player.play(next(stream), player.loop.time())
            done += 1

    await asyncio.gather(*(client(stream) for stream in streams.values()))
    return player.result


async def open_loop(
    cluster: NetCluster, plan: Sequence[Planned], timeout: float = 30.0
) -> LoadResult:
    """Submit each planned operation at ``started + due``, never waiting for
    a response.  When behind, the sleep of zero still yields to the loop, so
    a late dispatcher cannot starve the cluster it is loading."""
    player = _Player(cluster, timeout)
    tasks = []
    for planned in plan:
        due_at = player.result.started + planned.due
        await asyncio.sleep(max(0.0, due_at - player.loop.time()))
        tasks.append(player.loop.create_task(player.play(planned, due_at)))
    await asyncio.gather(*tasks)
    return player.result
