"""Concurrent multi-client load driver for the asyncio runtime.

Drives a :class:`~repro.net.runtime.NetCluster` with one coroutine per
client, in either loop discipline:

* **closed loop** — each client keeps exactly one operation outstanding
  (submit, await the value, optionally think, repeat): the classic
  saturation-throughput shape;
* **open loop** — arrivals follow a Poisson process with the configured mean
  interarrival time, regardless of completions: the latency-under-offered-
  load shape.

Keys are drawn zipfian over a :class:`~repro.service.keyed.KeyedStore` (the
same ``zipfian_cdf`` the simulator workloads use) when ``num_keys`` is set;
otherwise operations hit the flat data type directly.  The report carries
ops/s, latency percentiles from per-operation wall-clock timing, and the
**actual bytes sent per message kind** out of the cluster's traffic stats.

Runnable as a module (see the README quick-start)::

    PYTHONPATH=src python -m repro.net.driver --replicas 4 --clients 8 \\
        --ops 200 --transport tcp --gossip delta --fast-core
"""

from __future__ import annotations

import argparse
import asyncio
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.algorithm.checkpoint import CompactionPolicy
from repro.common import percentile
from repro.config import ReplicaConfig
from repro.datatypes.base import Operator
from repro.net.runtime import NetCluster, NetParams, OperationFailed
from repro.sim.workload import CLIENT_SEED_STRIDE, zipfian_cdf

#: Builds one operator given the per-client RNG and the operation index.
OperatorFactory = Callable[[random.Random, int], Operator]


def _default_factory(rng: random.Random, index: int) -> Operator:
    return Operator("add", (1,))


def keyed_factory(
    num_keys: int,
    zipf_exponent: float = 1.1,
    inner: Optional[OperatorFactory] = None,
) -> OperatorFactory:
    """Zipfian-keyed operators over a :class:`~repro.service.keyed.KeyedStore`
    (rank-to-key assignment is identity; spread clients via seeds)."""
    from repro.service.keyed import KeyedStore

    cdf = zipfian_cdf(num_keys, zipf_exponent)
    base = inner or _default_factory

    def factory(rng: random.Random, index: int) -> Operator:
        from bisect import bisect_left

        rank = bisect_left(cdf, rng.random())
        return KeyedStore.at(f"k{min(rank, num_keys - 1)}", base(rng, index))

    return factory


@dataclass
class LoadSpec:
    """What each client does.  ``mode`` is ``"closed"`` or ``"open"``."""

    operations_per_client: int = 100
    mode: str = "closed"
    #: Open loop: mean interarrival time (s) of the Poisson process.
    mean_interarrival: float = 0.01
    #: Closed loop: think time (s) between completion and next submit.
    think_time: float = 0.0
    #: Fraction of operations submitted strict (block until stable).
    strict_fraction: float = 0.0
    #: Zipfian keyed access when set (requires a KeyedStore data type).
    num_keys: Optional[int] = None
    zipf_exponent: float = 1.1
    operator_factory: Optional[OperatorFactory] = None
    seed: int = 0
    #: Per-operation response timeout (s).
    timeout: float = 30.0

    def resolve_factory(self) -> OperatorFactory:
        if self.operator_factory is not None:
            return self.operator_factory
        if self.num_keys is not None:
            return keyed_factory(self.num_keys, self.zipf_exponent)
        return _default_factory


@dataclass
class DriverReport:
    """What the run measured."""

    operations: int = 0
    failures: int = 0
    duration: float = 0.0
    ops_per_sec: float = 0.0
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_per_op: float = 0.0
    payload_bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    messages_by_kind: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"operations      {self.operations}  (failures {self.failures})",
            f"duration        {self.duration:.3f} s",
            f"throughput      {self.ops_per_sec:,.0f} ops/s",
            "latency         mean {:.2f} ms   p50 {:.2f}   p95 {:.2f}   p99 {:.2f}".format(
                self.latency_mean * 1e3,
                self.latency_p50 * 1e3,
                self.latency_p95 * 1e3,
                self.latency_p99 * 1e3,
            ),
            f"bytes on wire   sent {self.bytes_sent:,}  received {self.bytes_received:,}"
            f"  ({self.bytes_per_op:,.0f} B/op sent)",
        ]
        for kind in sorted(self.payload_bytes_by_kind):
            count = self.messages_by_kind.get(kind, 0)
            total = self.payload_bytes_by_kind[kind]
            mean = total / count if count else 0.0
            lines.append(f"  {kind:<9} {count:>8} msgs  {total:>12,} B  ({mean:,.0f} B/msg)")
        return "\n".join(lines)


async def run_load(cluster: NetCluster, spec: LoadSpec) -> DriverReport:
    """Run *spec* against a started *cluster* and report.  The byte counters
    are deltas over the run (gossip idling before/after is excluded)."""
    if spec.mode not in ("closed", "open"):
        raise ValueError(f"unknown load mode {spec.mode!r}")
    factory = spec.resolve_factory()
    latencies: List[float] = []
    failures = [0]
    loop = asyncio.get_running_loop()

    async def one_op(
        client: str, rng: random.Random, index: int, due: Optional[float] = None
    ) -> None:
        """One submission, timed from *due* (open loop) or from now."""
        operator = factory(rng, index)
        strict = spec.strict_fraction > 0 and rng.random() < spec.strict_fraction
        begin = loop.time() if due is None else due
        try:
            await cluster.submit(client, operator, strict=strict, timeout=spec.timeout)
        except (OperationFailed, asyncio.TimeoutError):
            failures[0] += 1
            return
        latencies.append(loop.time() - begin)

    async def closed_client(client: str, rng: random.Random) -> None:
        for index in range(spec.operations_per_client):
            await one_op(client, rng, index)
            if spec.think_time > 0:
                await asyncio.sleep(spec.think_time)

    async def open_client(client: str, rng: random.Random) -> None:
        # Due times are cumulative exponential gaps from the start, and each
        # operation is timed from its due time: an event-loop stall delays
        # every arrival due during it, and their latencies count the wait.
        pending: List[asyncio.Task] = []
        due = loop.time()
        for index in range(spec.operations_per_client):
            await asyncio.sleep(due - loop.time())
            pending.append(loop.create_task(one_op(client, rng, index, due)))
            due += rng.expovariate(1.0 / spec.mean_interarrival)
        await asyncio.gather(*pending)

    runner = closed_client if spec.mode == "closed" else open_client
    sent_before = cluster.stats.bytes_sent
    received_before = cluster.stats.bytes_received
    payload_before = dict(cluster.stats.payload_bytes_by_kind)
    messages_before = dict(cluster.stats.messages_by_kind)

    start = loop.time()
    await asyncio.gather(
        *(
            runner(cid, random.Random(spec.seed + i * CLIENT_SEED_STRIDE))
            for i, cid in enumerate(cluster.client_ids)
        )
    )
    duration = loop.time() - start

    latencies.sort()
    report = DriverReport(
        operations=len(latencies),
        failures=failures[0],
        duration=duration,
        ops_per_sec=len(latencies) / duration if duration > 0 else 0.0,
        latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_p50=percentile(latencies, 0.50),
        latency_p95=percentile(latencies, 0.95),
        latency_p99=percentile(latencies, 0.99),
        bytes_sent=cluster.stats.bytes_sent - sent_before,
        bytes_received=cluster.stats.bytes_received - received_before,
        payload_bytes_by_kind={
            kind: cluster.stats.payload_bytes_by_kind[kind] - payload_before.get(kind, 0)
            for kind in cluster.stats.payload_bytes_by_kind
        },
        messages_by_kind={
            kind: cluster.stats.messages_by_kind[kind] - messages_before.get(kind, 0)
            for kind in cluster.stats.messages_by_kind
        },
    )
    if report.operations:
        report.bytes_per_op = report.bytes_sent / report.operations
    return report


# --------------------------------------------------------------------------- #
# CLI                                                                         #
# --------------------------------------------------------------------------- #

def _build_cluster(args: argparse.Namespace) -> NetCluster:
    from repro.datatypes.counter import CounterType
    from repro.service.keyed import KeyedStore

    params = NetParams(
        gossip_period=args.gossip_period,
        replica=ReplicaConfig(
            delta_gossip=args.gossip in ("delta", "advert"),
            advert_gossip=args.gossip == "advert",
            compaction=CompactionPolicy() if args.gossip == "advert" else None,
            fast_core=args.fast_core,
            incremental_replay=True,
        ),
    )
    data_type: Any = KeyedStore(CounterType()) if args.keys else CounterType()
    return NetCluster(
        data_type,
        num_replicas=args.replicas,
        client_ids=tuple(f"c{i}" for i in range(args.clients)),
        params=params,
        transport=args.transport,
    )


async def _main_async(args: argparse.Namespace) -> DriverReport:
    cluster = _build_cluster(args)
    spec = LoadSpec(
        operations_per_client=args.ops,
        mode=args.mode,
        mean_interarrival=args.interarrival,
        num_keys=args.keys if args.keys else None,
        seed=args.seed,
    )
    async with cluster:
        report = await run_load(cluster, spec)
        await cluster.quiesce(timeout=10.0)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.driver",
        description="Load a NetCluster and report throughput, latency and bytes on the wire.",
    )
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--ops", type=int, default=200, help="operations per client")
    parser.add_argument("--transport", choices=("memory", "tcp"), default="tcp")
    parser.add_argument("--gossip", choices=("full", "delta", "advert"), default="delta")
    parser.add_argument("--gossip-period", type=float, default=0.05)
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--interarrival", type=float, default=0.01,
                        help="open-loop mean interarrival (s)")
    parser.add_argument("--keys", type=int, default=0,
                        help="zipfian keyed access over this many keys (0 = flat counter)")
    parser.add_argument("--fast-core", action="store_true",
                        help="production replica core (default: the reference automaton)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = asyncio.run(_main_async(args))
    print(report.format())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
