"""E14 — the batch replay kernel: raw-speed headroom, measured.

E7/E13 established the fast core's win over the base core; E14 measures
what the struct-of-arrays batch kernel (:class:`BatchReplicaCore`,
``batch_replay=True``) adds on top of it — and re-checks, inside the
benchmark itself, that the speed never comes from a different execution.

Three parts:

* **E14a** — seeded sim twins, fast vs batch, on the full-feature
  configuration (delta + incremental + compaction + advert/pull): the
  responses, witness order and replica states must be identical; the
  stats record how much replay work each core performed.
* **E14b** — the 50k long-run replay arm: a recorded gossip stream
  (4 writers, delta gossip, coalesced 4-message batches — the same shape
  the net runtime's frame handler feeds ``receive_gossip_batch``) is
  ingested by a cold reader on each core and the wall clock compared.
  The kernel's deferred order splices must make catch-up ingestion at
  least **1.5x** faster than the fast core's per-message splicing.
* **E14c** — sustained closed-loop throughput over real TCP loopback
  sockets (the E13c shape) on the fast vs the batch core, plus the
  headline gate: the post-PR net hot path (zero-copy decode, pooled
  encoder, TCP_NODELAY) must sustain at least **2x** the prior release's
  E13c throughput.  The prior number was latency-bound (Nagle + delayed
  ACK), not CPU-bound, so the bar is meaningful on uncalibrated machines
  too; the in-run fast-vs-batch ratio is machine-relative by
  construction.

Wall-clock asserts are skipped when ``E14_TIMING_ASSERTS=0``; the
execution-identity asserts hold everywhere.  Environment knobs:
``E14_SIM_OPS`` (E14a ops, default 400), ``E14_LONG_OPS`` (E14b stream
length, default 50000), ``E14_NET_OPS`` (E14c ops per client, default
200), ``E14_TIMING_ASSERTS`` (default on).
"""

import asyncio
import gc
import os
import time

from repro.algorithm.batchcore import BatchReplicaCore
from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.messages import RequestMessage
from repro.common import OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.net.driver import LoadSpec, run_load
from repro.net.runtime import NetCluster, NetParams
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, print_table

SIM_OPS = int(os.environ.get("E14_SIM_OPS", "400"))
LONG_OPS = int(os.environ.get("E14_LONG_OPS", "50000"))
NET_OPS = int(os.environ.get("E14_NET_OPS", "200"))
TIMING_ASSERTS = os.environ.get("E14_TIMING_ASSERTS", "1") != "0"
CLIENTS = [f"c{i}" for i in range(4)]

#: E13c fast-core TCP throughput at the previous release (ops/s), before
#: the zero-copy decode path, the pooled encoder and TCP_NODELAY.  The
#: number was latency-bound — Nagle plus the peer's delayed ACK stalled
#: every sub-MSS frame ~40ms — so it is stable across machine speeds.
PRIOR_E13_TCP_OPS = 487.0

#: The acceptance bars (see docs/benchmarks.md, E14).
MIN_LONG_REPLAY_SPEEDUP = 1.5
MIN_NET_OVER_PRIOR_E13 = 2.0


# --------------------------------------------------------------------------- #
# E14a: seeded sim twins, fast vs batch                                       #
# --------------------------------------------------------------------------- #

def run_sim(batch: bool, total_ops: int = SIM_OPS, seed: int = 3):
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            batch_gossip=True,
            delta_gossip=True,
            full_state_interval=8,
            incremental_replay=True,
            compaction=CompactionPolicy(min_batch=8, value_retention=64),
            compaction_interval=10.0,
            advert_gossip=True,
            fast_core=True,
            batch_replay=batch,
        ),
    )
    cluster = SimulatedCluster(CounterType(), 3, CLIENTS, params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=0.5, strict_fraction=0.05)
    begin = time.perf_counter()
    run_workload(cluster, spec, seed=seed + 1)
    cluster.run_until_idle()
    elapsed = time.perf_counter() - begin
    stats = {
        "value_applications": sum(
            r.stats.value_applications for r in cluster.replicas.values()
        ),
        "done_order_sorts": sum(
            r.stats.done_order_sorts for r in cluster.replicas.values()
        ),
    }
    return cluster, elapsed, stats


_E14A_METRICS = {}
_E14B_METRICS = {}
_E14C_METRICS = {}


def merged_metrics():
    return {**_E14A_METRICS, **_E14B_METRICS, **_E14C_METRICS}


def test_e14a_batch_kernel_is_execution_identical_in_sim():
    fast, fast_s, fast_stats = run_sim(batch=False)
    batch, batch_s, batch_stats = run_sim(batch=True)

    assert all(isinstance(r, BatchReplicaCore) for r in batch.replicas.values())
    assert not any(isinstance(r, BatchReplicaCore) for r in fast.replicas.values())
    # The kernel is an optimization, not a semantic change.
    assert fast.responded == batch.responded
    assert fast.failed == batch.failed
    assert fast.eventual_order() == batch.eventual_order()
    assert (
        {rid: r.replayed_state() for rid, r in fast.replicas.items()}
        == {rid: r.replayed_state() for rid, r in batch.replicas.items()}
    )
    # Batching defers work; it must never *add* replay work.
    assert batch_stats["value_applications"] <= fast_stats["value_applications"]

    print_table(
        f"E14a: sim twins on the full-feature config ({SIM_OPS} ops)",
        ["core", "wall s", "value applications", "full re-sorts"],
        [
            ("fast", f"{fast_s:.3f}", f"{fast_stats['value_applications']:,}",
             fast_stats["done_order_sorts"]),
            ("batch", f"{batch_s:.3f}", f"{batch_stats['value_applications']:,}",
             batch_stats["done_order_sorts"]),
        ],
    )
    _E14A_METRICS.update({
        "sim_ops": SIM_OPS,
        "sim_identical": True,
        "sim_value_applications_fast": fast_stats["value_applications"],
        "sim_value_applications_batch": batch_stats["value_applications"],
        "sim_value_applications_ratio": (
            batch_stats["value_applications"]
            / max(fast_stats["value_applications"], 1)
        ),
    })
    emit_bench_json("E14", merged_metrics())


# --------------------------------------------------------------------------- #
# E14b: the 50k long-run replay arm                                           #
# --------------------------------------------------------------------------- #

WRITERS = 4
ROUND_OPS = 25  # ops per writer per recorded gossip message


def _make_core(cls, replica_id, replica_ids):
    core = cls(replica_id, replica_ids, CounterType())
    core.configure_delta_gossip(True, 1 << 30)
    core.enable_incremental_replay()
    return core


def record_stream(total_ops: int):
    """Drive the writers once and record, per round, the coalesced batch of
    delta-gossip messages the reader ingests — the exact shape the net
    runtime's frame handler hands to ``receive_gossip_batch``.  The reader
    runs during recording so the writers' delta bases advance off its acks;
    the recorded stream itself is reader-independent."""
    ids = ["reader"] + [f"w{i}" for i in range(WRITERS)]
    reader = _make_core(FastReplicaCore, "reader", ids)
    writers = [_make_core(FastReplicaCore, f"w{i}", ids) for i in range(WRITERS)]
    gens = [OperationIdGenerator(f"c{i}") for i in range(WRITERS)]
    stream = []
    for _round in range(total_ops // (WRITERS * ROUND_OPS)):
        batch = []
        for writer, gen in zip(writers, gens):
            for _ in range(ROUND_OPS):
                op = make_operation(CounterType.increment(), gen.fresh())
                writer.receive_request(RequestMessage(operation=op))
            writer.do_all_ready()
            batch.append(writer.make_gossip("reader"))
        stream.append(batch)
        reader.receive_gossip_batch(batch)
        reader.do_all_ready()
        for writer in writers:
            writer.receive_gossip(reader.make_gossip(writer.replica_id))
    return ids, stream


def replay_stream(cls, ids, stream):
    """Cold-reader catch-up: ingest the recorded stream batch by batch,
    then compute the final replayed value.  Returns (seconds, order ids,
    final value)."""
    reader = _make_core(cls, "reader", ids)
    begin = time.perf_counter()
    for batch in stream:
        reader.receive_gossip_batch(batch)
        reader.do_all_ready()
    order = reader.done_order()
    value = reader.compute_value(order[-1])
    elapsed = time.perf_counter() - begin
    return elapsed, [x.id for x in order], value


def test_e14b_long_run_replay_arm():
    ids, stream = record_stream(LONG_OPS)
    total = sum(len(batch) for batch in stream) * ROUND_OPS
    gc.collect()  # keep the prior arm's garbage out of this arm's clock
    fast_s, fast_order, fast_value = replay_stream(FastReplicaCore, ids, stream)
    gc.collect()
    batch_s, batch_order, batch_value = replay_stream(BatchReplicaCore, ids, stream)

    # Same stream, same execution: the kernel only changes the wall clock.
    assert batch_order == fast_order
    assert batch_value == fast_value
    assert len(fast_order) == total

    speedup = fast_s / max(batch_s, 1e-9)
    print_table(
        f"E14b: cold-reader catch-up over a recorded {total}-op gossip stream",
        ["core", "wall s", "ingest ops/s"],
        [
            ("fast", f"{fast_s:.3f}", f"{total / fast_s:,.0f}"),
            ("batch", f"{batch_s:.3f}", f"{total / batch_s:,.0f}"),
            ("speedup", f"{speedup:.2f}x", ""),
        ],
    )
    if TIMING_ASSERTS:
        assert speedup >= MIN_LONG_REPLAY_SPEEDUP, (
            f"batch kernel only {speedup:.2f}x faster on the {total}-op "
            f"catch-up arm (need >= {MIN_LONG_REPLAY_SPEEDUP}x)"
        )
    _E14B_METRICS.update({
        "long_ops": total,
        "long_replay_speedup": speedup,
        "long_replay_ops_per_sec_fast": total / fast_s,
        "long_replay_ops_per_sec_batch": total / batch_s,
    })
    emit_bench_json("E14", merged_metrics())


# --------------------------------------------------------------------------- #
# E14c: TCP loopback throughput, fast vs batch, vs the prior release         #
# --------------------------------------------------------------------------- #

async def _tcp_run(batch_replay: bool):
    params = NetParams(
        gossip_period=0.5,
        replica=ReplicaConfig(
            delta_gossip=True,
            incremental_replay=True,
            fast_core=True,
            batch_replay=batch_replay,
        ),
    )
    cluster = NetCluster(CounterType(), num_replicas=4,
                         client_ids=tuple(f"c{i}" for i in range(16)),
                         params=params, transport="tcp")
    async with cluster:
        report = await run_load(cluster, LoadSpec(operations_per_client=NET_OPS, seed=0))
        converged = await cluster.quiesce(timeout=120.0)
    return report, converged


def test_e14c_tcp_loopback_beats_prior_release():
    results = {}
    for batch in (True, False):
        # Collect the previous arm's cyclic garbage now: a gen-2 pass
        # landing mid-run stalls the event loop for hundreds of ms and
        # poisons the slower arm's latency tail.
        gc.collect()
        report, converged = asyncio.run(_tcp_run(batch))
        assert converged, "cluster failed to converge after the load"
        assert report.failures == 0
        results["batch" if batch else "fast"] = report
    over_prior = results["batch"].ops_per_sec / PRIOR_E13_TCP_OPS
    batch_over_fast = (
        results["batch"].ops_per_sec / max(results["fast"].ops_per_sec, 1e-9)
    )
    print_table(
        f"E14c: closed-loop TCP throughput, n=4, 16 clients x {NET_OPS} ops",
        ["core", "ops/s", "p50 ms", "p99 ms", "B/op sent", "vs prior E13"],
        [
            (
                label,
                f"{report.ops_per_sec:,.0f}",
                f"{report.latency_p50 * 1e3:.2f}",
                f"{report.latency_p99 * 1e3:.2f}",
                f"{report.bytes_per_op:,.0f}",
                f"{report.ops_per_sec / PRIOR_E13_TCP_OPS:.1f}x",
            )
            for label, report in results.items()
        ],
    )
    if TIMING_ASSERTS:
        assert over_prior >= MIN_NET_OVER_PRIOR_E13, (
            f"net hot path sustained only {results['batch'].ops_per_sec:.0f} ops/s "
            f"= {over_prior:.2f}x the prior E13c number "
            f"(need >= {MIN_NET_OVER_PRIOR_E13}x of {PRIOR_E13_TCP_OPS:.0f})"
        )
    _E14C_METRICS.update({
        "tcp_ops_per_sec_batch": results["batch"].ops_per_sec,
        "tcp_ops_per_sec_fast": results["fast"].ops_per_sec,
        "net_ops_over_prior_e13": over_prior,
        "batch_over_fast_tcp": batch_over_fast,
        "tcp_p99_ms_batch": results["batch"].latency_p99 * 1e3,
        "tcp_bytes_per_op_batch": results["batch"].bytes_per_op,
    })
    emit_bench_json("E14", merged_metrics())
