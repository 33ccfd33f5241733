"""The five workloads.  Names and shapes are fixed; the README says why each
exists.

Each workload is a function of a :class:`Run` returning a
:class:`Measured`: set-up time(s), the timed window, the deltas of the public
counters over that window, workload-specific rows, and the names of the
correctness checks that passed.  Warm-up, quiescing and checking all happen
outside the window.  Set-ups and the window are timed by a reference clock
(``refclock.py``), which is what makes the readings repeat on a shared host.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable, Dict, Iterator, List, Optional, Sequence

import checks
import loadgen
import refclock
import tracing
from repro.algorithm.batchcore import core_factory
from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.messages import RequestMessage
from repro.common import OperationIdGenerator
from repro.config import ReplicaConfig
from repro.conformance import oracles
from repro.core.operations import make_operation
from repro.datatypes.base import Operator
from repro.datatypes.counter import CounterType
from repro.net.runtime import NetCluster, NetParams, NetStats
from repro.service.keyed import KeyedStore
from repro.sim.cluster import SimulatedCluster, SimulationParams

#: The configuration under test (the production path), on every workload.
CONFIG = ReplicaConfig(
    fast_core=True,
    batch_replay=True,
    delta_gossip=True,
    incremental_replay=True,
    advert_gossip=True,
    compaction=CompactionPolicy(),
)
REPLICAS = 4
CLIENTS = tuple(f"c{i}" for i in range(16))
#: Closed-loop operations before the window opens: enough to fill the
#: 1 024-value retention ledger so compaction runs as it will for ever after.
WARMUP_OPS = 1600
#: ``tcp_closed`` answers as many operations as the host's speed allows, and
#: every one of them stays in the cluster's records, so memory is read when
#: this many per window second have been answered: a pace every run exceeds.
RSS_MARK_OPS_PER_SECOND = 350
#: Open-loop offered rates (operations per second, all clients together).
MIXED_RATE = 200.0
CRASH_RATE = 300.0
CRASH_VICTIM = "r3"
#: ``sim_steady``: operations per client per ``--seconds`` second, sized so
#: the run takes about ``--seconds`` of wall time on the seed host.  The
#: simulator cannot be cut at a wall deadline without making its counts
#: depend on host speed, so the size is fixed from the arguments instead.
SIM_OPS_PER_CLIENT_SECOND = 100
SIM_INTERARRIVAL = 0.75
#: Simulated time between two ticks of the reference clock (about 50 ms).
SIM_STEP = 5.0
SIM_STRICT_FRACTION = 0.02
#: ``core_catchup``: the recorded stream (the E14b shape).
CATCHUP_OPS = 24_000
CATCHUP_WRITERS = 4
CATCHUP_ROUND_OPS = 25
#: Batches a reader ingests between two ticks of the reference clock (35 ms).
CATCHUP_TICK_BATCHES = 20
#: Set-ups per run where it is not three.  Recording ``core_catchup``'s stream
#: takes as long as the three set-ups of any other workload together and is
#: one CPU-bound loop, so a single sample of it is already steady;
#: ``sim_steady``'s takes half a second, so five cost little.
SETUPS = {"core_catchup": 1, "sim_steady": 5}


@dataclass
class Run:
    """What one child process was asked to do."""

    workload: str
    seed: int
    seconds: float
    scale: float = 1.0
    tracer: Optional[tracing.Tracer] = None

    @property
    def setups(self) -> int:
        """Set-ups performed: the last one is measured on, the median is
        reported."""
        return SETUPS.get(self.workload, 3)

    @property
    def window_s(self) -> float:
        """Length of the timed window."""
        return self.seconds * self.scale

    def scaled(self, count: int) -> int:
        return max(1, math.ceil(count * min(1.0, self.scale)))


@dataclass
class Measured:
    #: One per set-up, in reference seconds.
    setup_s: List[float]
    #: Operations submitted (ingested, for ``core_catchup``) in the window.
    attempted: int
    failed: int
    window: "Window"
    #: The schedule, not the processor, sets the pace of the window.
    open_loop: bool = False
    #: Rates are taken over the fast intervals of the window only.
    fast_only: bool = False
    #: Public counters, as deltas over the window.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Workload-specific rows, by metric name.
    rows: Dict[str, float] = field(default_factory=dict)
    checks: List[str] = field(default_factory=list)


class Window:
    """The timed window: whatever runs while its clock is :func:`_timed` or
    :func:`_ticking` — the sum of the parts when that happens more than once
    (``core_catchup`` times each reader and collects the garbage of the one
    before in between).  *progress* returns the operations completed so far;
    *rss_mark*, when given, is the number of them after which memory is read."""

    def __init__(self, progress: Callable[[], int], rss_mark: Optional[int] = None) -> None:
        gc.collect()
        # Everything alive now stays alive through the window; without the
        # freeze a gen-2 pass mid-run stalls the loop for hundreds of ms.
        gc.freeze()
        self.clock = refclock.RefClock(progress)
        self._rss_mark = None if rss_mark is None else progress() + rss_mark

    def reading(self) -> refclock.Reading:
        return self.clock.reading()

    def peak_rss_mb(self) -> float:
        return self.clock.peak_rss_mb(self._rss_mark)


@contextlib.contextmanager
def _timed(clock: refclock.RefClock) -> Iterator[None]:
    """Count what runs inside towards *clock*; the caller ticks in between."""
    clock.tick(resume=True)
    try:
        yield
    finally:
        clock.tick()


@contextlib.asynccontextmanager
async def _ticking(clock: refclock.RefClock):
    """The same on an event loop, where a task does the ticking."""
    ticker = asyncio.get_running_loop().create_task(clock.keep_ticking())
    try:
        with _timed(clock):
            yield
    finally:
        ticker.cancel()
        await asyncio.gather(ticker, return_exceptions=True)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 when there is no sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))]


def _ms(outcomes: Sequence[loadgen.Outcome]) -> List[float]:
    return [o.latency * 1e3 for o in outcomes if o.latency is not None]


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def replica_counters(replicas) -> Dict[str, float]:
    names = (
        "gossip_sent",
        "value_applications",
        "done_order_sorts",
        "compactions",
        "compacted_operations",
    )
    return {name: sum(getattr(core.stats, name) for core in replicas.values()) for name in names}


def net_counters(cluster: NetCluster) -> Dict[str, float]:
    stats = cluster.stats
    counters = {
        "frames": stats.frames_sent,
        "bytes": stats.bytes_sent,
        "gossip_skipped": stats.gossip_skipped,
        **replica_counters(cluster.replicas),
    }
    for kind in NetStats.KINDS:
        counters[f"msgs.{kind}"] = stats.messages_by_kind[kind]
        counters[f"payload.{kind}"] = stats.payload_bytes_by_kind[kind]
    return counters


# --------------------------------------------------------------------------- #
# NetCluster workloads                                                        #
# --------------------------------------------------------------------------- #

Streams = Dict[str, Iterator[loadgen.Planned]]
StreamFactory = Callable[[str, random.Random], Iterator[loadgen.Planned]]


def _plan_rng(run: Run) -> random.Random:
    """Arrival times and client assignment: a stream of their own, so they do
    not shift the per-client operator draws."""
    return random.Random(run.seed * 1009 + len(CLIENTS))


async def _net_setup(run: Run, transport: str, data_type, stream_of: StreamFactory):
    """Construct, start and warm up; returns the cluster and what is left of
    the client streams."""
    cluster = NetCluster(
        data_type, REPLICAS, CLIENTS, params=NetParams(), transport=transport, config=CONFIG
    )
    await cluster.start()
    streams = {
        cid: stream_of(cid, loadgen.client_rng(run.seed, index))
        for index, cid in enumerate(CLIENTS)
    }
    warmup = await loadgen.closed_loop(
        cluster, streams, ops_per_client=run.scaled(WARMUP_OPS) // len(CLIENTS) + 1
    )
    checks.require(warmup.failed == 0, f"{warmup.failed} warm-up operations failed")
    return cluster, streams


async def _net_run(
    run: Run,
    transport: str,
    data_type_of: Callable[[], Any],
    stream_of: StreamFactory,
    play: Callable[[NetCluster, Streams], Awaitable[loadgen.LoadResult]],
    rows_of: Callable[[loadgen.LoadResult], Awaitable[Dict[str, float]]],
    open_loop: bool,
) -> Measured:
    """The common course of a NetCluster workload: *run.setups* set-ups (all
    but the last torn down), the timed window around *play*, then the
    workload's own rows, quiesce and check."""
    setup_s = []
    for attempt in range(run.setups):
        clock = refclock.RefClock()
        async with _ticking(clock):
            cluster, streams = await _net_setup(run, transport, data_type_of(), stream_of)
        setup_s.append(clock.reading().whole.wall_s)
        if attempt < run.setups - 1:
            await cluster.stop()
    try:
        if run.tracer is not None:
            tracing.trace_cluster(run.tracer, cluster)
            tracing.trace_codec(run.tracer)
            run.tracer.reset()
        before = net_counters(cluster)
        window = Window(
            lambda: len(cluster.responded),
            None if open_loop else round(RSS_MARK_OPS_PER_SECOND * run.window_s),
        )
        async with _ticking(window.clock):
            result = await play(cluster, streams)
        counters = _delta(net_counters(cluster), before)
        rows = await rows_of(result)
        begin = time.perf_counter()
        converged, casualties = await checks.quiesce_net(cluster)
        checks.require(converged, "the cluster did not quiesce")
        rows["load.converge_ms"] = (time.perf_counter() - begin) * 1e3
        rows["load.lost_acked_ops"] = len(casualties)
        rows["failed_frac"] = result.failed / len(result.outcomes)
        rows["bytes_per_op"] = counters["bytes"] / len(result.outcomes)
        return Measured(
            setup_s=setup_s,
            attempted=len(result.outcomes),
            failed=result.failed,
            window=window,
            open_loop=open_loop,
            # A live cluster at saturation falls further behind than the host
            # slows down (refclock.py).
            fast_only=not open_loop,
            counters=counters,
            rows=rows,
            checks=checks.check_cluster(cluster, result.failed, casualties),
        )
    finally:
        await cluster.stop()


def tcp_closed(run: Run) -> Measured:
    async def play(cluster, streams):
        return await loadgen.closed_loop(cluster, streams, seconds=run.window_s)

    async def rows_of(result):
        latencies = _ms(result.answered)
        return {
            "load.closed_p50_ms": percentile(latencies, 0.50),
            "load.closed_p99_ms": percentile(latencies, 0.99),
        }

    return asyncio.run(
        _net_run(run, "tcp", CounterType, loadgen.counter_adds, play, rows_of, open_loop=False)
    )


def _lag_p99_ms(result: loadgen.LoadResult) -> float:
    return percentile([o.lag * 1e3 for o in result.outcomes], 0.99)


def mem_open_mixed(run: Run) -> Measured:
    async def play(cluster, streams):
        plan = loadgen.poisson_plan(streams, MIXED_RATE, run.window_s, _plan_rng(run))
        return await loadgen.open_loop(cluster, plan)

    async def rows_of(result):
        strict = _ms([o for o in result.answered if o.planned.strict])
        nonstrict = _ms([o for o in result.answered if not o.planned.strict])
        return {
            "nonstrict_p50_ms": percentile(nonstrict, 0.50),
            "strict_p50_ms": percentile(strict, 0.50),
            "strict_p95_ms": percentile(strict, 0.95),
            "load.nonstrict_p99_ms": percentile(nonstrict, 0.99),
            "load.sched_lag_p99_ms": _lag_p99_ms(result),
        }

    return asyncio.run(
        _net_run(
            run,
            "memory",
            lambda: KeyedStore(CounterType()),
            loadgen.keyed_mix,
            play,
            rows_of,
            open_loop=True,
        )
    )


def _stable_count(core) -> int:
    return core.checkpoint.count + len(core.stable_here())


def tcp_crash(run: Run) -> Measured:
    """Crash r3 (volatile memory) a sixth of the way in, recover it at three
    eighths: the 4 s / 9 s of a 24 s run, kept in proportion."""
    crash_at, recover_at = run.window_s / 6, run.window_s * 3 / 8
    fault_task: List[asyncio.Task] = []

    async def faults(cluster, started: float) -> float:
        """Run the fault schedule; returns seconds from the recovery until
        the victim knows stable everything r0 knew stable at that moment."""
        loop = asyncio.get_running_loop()
        await asyncio.sleep(started + crash_at - loop.time())
        await cluster.crash_replica(CRASH_VICTIM, volatile_memory=True)
        await asyncio.sleep(started + recover_at - loop.time())
        target = _stable_count(cluster.replicas["r0"])
        await cluster.recover_replica(CRASH_VICTIM)
        recovered = loop.time()
        while _stable_count(cluster.replicas[CRASH_VICTIM]) < target:
            await asyncio.sleep(cluster.params.gossip_period / 2)
        return loop.time() - recovered

    async def play(cluster, streams):
        loop = asyncio.get_running_loop()
        plan = loadgen.poisson_plan(streams, CRASH_RATE, run.window_s, _plan_rng(run))
        fault_task.append(loop.create_task(faults(cluster, loop.time())))
        return await loadgen.open_loop(cluster, plan)

    async def rows_of(result):
        try:
            recover_s = await asyncio.wait_for(fault_task[0], timeout=30.0)
        except asyncio.TimeoutError:
            raise checks.CheckFailed(f"{CRASH_VICTIM} did not catch up once recovered") from None
        homed = {cid for i, cid in enumerate(CLIENTS) if f"r{i % REPLICAS}" == CRASH_VICTIM}
        in_outage = [o for o in result.answered if crash_at <= o.planned.due < recover_at]
        baseline = percentile(_ms([o for o in result.answered if o.planned.due < crash_at]), 0.5)
        # Whole seconds after the recovery, by due time: the first whose
        # median is back within 10x the pre-crash median.
        restore_s = run.window_s - recover_at
        for second in range(int(run.window_s - recover_at)):
            low = recover_at + second
            bucket = _ms([o for o in result.answered if low <= o.planned.due < low + 1])
            if bucket and percentile(bucket, 0.50) <= 10 * baseline:
                restore_s = float(second)
                break
        return {
            "failover_p50_ms": percentile(
                _ms([o for o in in_outage if o.planned.client in homed]), 0.50
            ),
            "load.outage_others_p50_ms": percentile(
                _ms([o for o in in_outage if o.planned.client not in homed]), 0.50
            ),
            "load.sched_lag_p99_ms": _lag_p99_ms(result),
            "load.restore_s": restore_s,
            "load.recover_s": recover_s,
        }

    return asyncio.run(
        _net_run(run, "tcp", CounterType, loadgen.counter_adds, play, rows_of, open_loop=True)
    )


# --------------------------------------------------------------------------- #
# sim_steady                                                                  #
# --------------------------------------------------------------------------- #


def sim_counters(cluster: SimulatedCluster) -> Dict[str, float]:
    sent = cluster.network.counters
    return {
        "messages": sent.total(),
        "msgs.pull": sent.pull,
        "msgs.transfer": sent.transfer,
        "op_refs": sent.gossip_payload,
        **replica_counters(cluster.replicas),
    }


def _sim_setup(run: Run, clock: refclock.RefClock) -> SimulatedCluster:
    """Construct the cluster and schedule the whole seeded script on it."""
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0, replica=replace(CONFIG, batch_gossip=True)
    )
    cluster = SimulatedCluster(CounterType(), REPLICAS, CLIENTS, params=params, seed=run.seed)
    per_client = max(1, round(SIM_OPS_PER_CLIENT_SECOND * run.window_s))
    for index, cid in enumerate(CLIENTS):
        rng = loadgen.client_rng(run.seed, index)
        stream = loadgen.counter_adds(cid, rng)
        due = 0.0
        for _ in range(per_client):
            due += rng.expovariate(1.0 / SIM_INTERARRIVAL)
            strict = rng.random() < SIM_STRICT_FRACTION
            cluster.submit(cid, next(stream).operator, strict=strict, at=due)
        clock.tick()
    return cluster


def sim_steady(run: Run) -> Measured:
    setup_s = []
    for _ in range(run.setups):
        clock = refclock.RefClock()
        with _timed(clock):
            cluster = _sim_setup(run, clock)
        setup_s.append(clock.reading().whole.wall_s)
    if run.tracer is not None:
        tracing.trace_cluster(run.tracer, cluster)
        run.tracer.reset()
    attempted = len(cluster.requested)
    before = sim_counters(cluster)
    window = Window(lambda: len(cluster.responded))
    with _timed(window.clock):
        for _ in range(math.ceil(attempted / len(CLIENTS) * SIM_INTERARRIVAL / SIM_STEP)):
            cluster.run(SIM_STEP)
            window.clock.tick()
        cluster.run_until_idle()
    counters = _delta(sim_counters(cluster), before)
    failed = attempted - len(cluster.responded)
    checks.require(oracles.quiesce(cluster), "the simulated cluster did not quiesce")
    return Measured(
        setup_s=setup_s,
        attempted=attempted,
        failed=failed,
        window=window,
        counters=counters,
        rows={"failed_frac": failed / attempted},
        checks=checks.check_cluster(cluster, failed),
    )


# --------------------------------------------------------------------------- #
# core_catchup                                                                #
# --------------------------------------------------------------------------- #

_CATCHUP_CONFIG = ReplicaConfig(
    fast_core=True,
    batch_replay=True,
    delta_gossip=True,
    # No periodic full-state fallback: the stream is pure deltas (E14b).
    full_state_interval=1 << 30,
    incremental_replay=True,
)


def _catchup_core(replica_id: str, ids: Sequence[str]):
    core = core_factory(_CATCHUP_CONFIG)(replica_id, ids, CounterType())
    _CATCHUP_CONFIG.configure_core(core)
    return core


def _record_stream(run: Run, clock: refclock.RefClock):
    """Drive the writers once and record, per round, the coalesced batch of
    delta-gossip messages a reader ingests — the shape the net runtime's
    frame handler hands to ``receive_gossip_batch``.  A reader runs during
    recording so the writers' delta bases advance off its acknowledgements;
    the recorded stream itself does not depend on it."""
    ids = ["reader"] + [f"w{i}" for i in range(CATCHUP_WRITERS)]
    reader = _catchup_core("reader", ids)
    writers = [_catchup_core(f"w{i}", ids) for i in range(CATCHUP_WRITERS)]
    generators = [OperationIdGenerator(f"c{i}") for i in range(CATCHUP_WRITERS)]
    rng = random.Random(run.seed)
    stream, total = [], 0
    for _round in range(max(1, run.scaled(CATCHUP_OPS) // (CATCHUP_WRITERS * CATCHUP_ROUND_OPS))):
        batch = []
        for writer, generator in zip(writers, generators):
            for _ in range(CATCHUP_ROUND_OPS):
                amount = rng.randint(1, 9)
                total += amount
                operation = make_operation(Operator("add", (amount,)), generator.fresh())
                writer.receive_request(RequestMessage(operation=operation))
            writer.do_all_ready()
            message = writer.make_gossip("reader")
            # The sender-side delta basis never travels (the wire codec drops
            # it too); keeping it would pin a full snapshot per message.
            message.basis = None
            batch.append(message)
        stream.append(batch)
        reader.receive_gossip_batch(batch)
        reader.do_all_ready()
        for writer in writers:
            writer.receive_gossip(reader.make_gossip(writer.replica_id))
        clock.tick()
    return ids, stream, total


def core_catchup(run: Run) -> Measured:
    setup_s = []
    for _ in range(run.setups):
        clock = refclock.RefClock()
        with _timed(clock):
            ids, stream, total = _record_stream(run, clock)
        setup_s.append(clock.reading().whole.wall_s)
    batch_ops = CATCHUP_WRITERS * CATCHUP_ROUND_OPS
    stream_ops = len(stream) * batch_ops
    if run.tracer is not None:
        run.tracer.reset()
    readers, first_order, ingested = 0, None, 0
    window = Window(lambda: ingested)
    deadline = time.perf_counter() + run.window_s
    while not readers or time.perf_counter() < deadline:
        reader = _catchup_core("reader", ids)
        if run.tracer is not None:
            tracing.trace_replica(run.tracer, reader)
        with _timed(window.clock):
            for index, batch in enumerate(stream, start=1):
                reader.receive_gossip_batch(batch)
                reader.do_all_ready()
                ingested += batch_ops
                if index % CATCHUP_TICK_BATCHES == 0:
                    window.clock.tick()
            order = reader.done_order()
            value = reader.compute_value(order[-1])
        readers += 1
        order_ids = [x.id for x in order]
        first_order = first_order or order_ids
        checks.require(order_ids == first_order, "two readers ordered the stream differently")
        checks.require(value == total, f"a reader computed {value}, not the implied {total}")
        counters = replica_counters({"reader": reader})
        del reader, order
        gc.collect()
    checks.require(len(first_order) == stream_ops, "a reader did not ingest the whole stream")
    return Measured(
        setup_s=setup_s,
        attempted=stream_ops * readers,
        failed=0,
        window=window,
        # Per-reader counters (every reader does the same work), scaled.
        counters={name: value * readers for name, value in counters.items()},
        rows={"failed_frac": 0.0},
        checks=["ingested_all", "orders_equal", "values_equal_script"],
    )


WORKLOADS: Dict[str, Callable[[Run], Measured]] = {
    "tcp_closed": tcp_closed,
    "mem_open_mixed": mem_open_mixed,
    "sim_steady": sim_steady,
    "core_catchup": core_catchup,
    "tcp_crash": tcp_crash,
}
