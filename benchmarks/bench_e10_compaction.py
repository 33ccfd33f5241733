"""E10 — bounded-memory replicas via stability-driven checkpoint compaction.

The base algorithm keeps ``rcvd`` / ``done[i]`` / ``stable[i]`` / label
records for every operation ever seen, so per-gossip set work and replica
memory grow with the *total history*: a long-running deployment degrades
quadratically in wall-clock terms even when the offered load is constant.
Checkpoint compaction (:mod:`repro.algorithm.checkpoint`) folds the
stable-everywhere prefix into a base state and drops those records, bounding
the tracked state by the *unstable suffix* — whose size depends on the
gossip period and offered load, not on how long the service has been up.

Two tables:

* **E10a** runs the same seeded workload on the reference core without
  compaction and on the production core with it (and with delta gossip, the
  production path) at growing history lengths: responses and the witness
  order are identical operation for operation, the uncompacted baseline's
  peak tracked state equals the total history and its wall-clock time grows
  superlinearly, while the compacted run's peak state stays flat and its
  wall-clock time stays proportional to the load.
* **E10b** is the long-run demonstration (50k operations by default; set
  ``E10_LONG_OPS`` to resize): sustained throughput with a peak tracked
  state hundreds of times smaller than the history.
"""

import os
import time
from functools import partial

from repro.algorithm.checkpoint import CompactionPolicy
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, print_table

NUM_REPLICAS = 3
CLIENTS = [f"c{i}" for i in range(4)]
INTERARRIVAL = 0.25
STRICT_FRACTION = 0.05
#: Compaction settings for the compacted arm: amortize folds over batches of
#: 32, force a sweep every 16 time units (8 gossip periods), and retain only
#: the newest 256 compacted values — the retransmit-answering window.  A
#: finite retention is what keeps the checkpoint itself (and the periodic
#: full-state catch-up messages that carry it) bounded; ``None`` would grow
#: the value ledger with the history.
POLICY = CompactionPolicy(min_batch=32, value_retention=256)
COMPACTION_INTERVAL = 16.0

LONG_RUN_OPS = int(os.environ.get("E10_LONG_OPS", "50000"))
#: Wall-clock comparisons are meaningful on a quiet machine but flaky on
#: noisy shared CI runners; set E10_TIMING_ASSERTS=0 to keep only the
#: deterministic assertions (peak tracked state, identical responses).
TIMING_ASSERTS = os.environ.get("E10_TIMING_ASSERTS", "1") == "1"


def run_history(total_ops: int, compaction: bool, seed: int = 1):
    """One seeded run with batched gossip: the production core with
    compaction and delta gossip, or (without *compaction*) the reference
    core with neither.  The extensions induce the same execution
    (responses, witness), so only memory and the wall clock move."""
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            fast_core=True,
            delta_gossip=True,
            batch_gossip=True,
            compaction=POLICY,
            compaction_interval=COMPACTION_INTERVAL,
        ) if compaction else ReplicaConfig(batch_gossip=True),
    )
    cluster = SimulatedCluster(CounterType(), NUM_REPLICAS, CLIENTS,
                               params=params, seed=seed)
    ledger_peak = {"entries": 0, "footprint": 0, "fold": 0}
    for core in cluster.replicas.values():
        core.on_compact = partial(_watch_ledger, ledger_peak, core.on_compact)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=INTERARRIVAL,
                        strict_fraction=STRICT_FRACTION)
    started = time.perf_counter()
    result = run_workload(cluster, spec, seed=seed + 1)
    wall = time.perf_counter() - started
    counters = cluster.network.counters
    return {
        "cluster": cluster,
        "result": result,
        "wall": wall,
        "wall_ops_per_sec": result.metrics.completed / wall,
        "peak_tracked": cluster.metrics.peak_tracked_ops(),
        "compacted": len(cluster.compacted_prefix),
        "messages": counters.total(),
        "gossip_payload": counters.gossip_payload,
        "value_applications": cluster.total_value_applications(),
        "ledger_peak": ledger_peak,
    }


def _watch_ledger(peak, record, prefix, checkpoint):
    """Chain a replica's fold hook, keeping the peak retained-value ledger
    size after any fold (live entries and entries in storage) and the
    largest fold batch."""
    record(prefix, checkpoint)
    peak["entries"] = max(peak["entries"], len(checkpoint.values))
    peak["footprint"] = max(peak["footprint"], checkpoint.values.footprint)
    peak["fold"] = max(peak["fold"], len(prefix))


def test_e10_compaction_bounds_state_and_sustains_throughput():
    sizes = [1000, 2000, 4000]
    outcomes = {}
    rows = []
    for total in sizes:
        plain = run_history(total, compaction=False)
        compacted = run_history(total, compaction=True)
        outcomes[total] = (plain, compacted)
        rows.append((
            total,
            plain["peak_tracked"],
            compacted["peak_tracked"],
            f"{plain['wall']:.2f}s",
            f"{compacted['wall']:.2f}s",
            f"{compacted['wall_ops_per_sec']:.0f}",
        ))
    print_table(
        "E10a: peak tracked ops and wall-clock, reference core uncompacted vs "
        f"production core compacted ({NUM_REPLICAS} replicas, identical seeded load)",
        ["history", "peak tracked (plain)", "peak tracked (compacted)",
         "wall (plain)", "wall (compacted)", "ops/s (compacted)"],
        rows,
    )

    for total, (plain, compacted) in outcomes.items():
        # Identical responses and witness order, operation for operation —
        # compaction and the production core are optimizations, not
        # semantic changes.
        assert plain["cluster"].responded == compacted["cluster"].responded
        assert plain["cluster"].eventual_order() == compacted["cluster"].eventual_order()
        assert plain["result"].metrics.completed == total
        # The baseline tracks the whole history; the compacted run must not.
        assert plain["peak_tracked"] == total
        assert compacted["compacted"] > 0

    # Bounded memory: the compacted peak is set by the unstable-suffix
    # window, so it must NOT grow with the history length (allow jitter).
    peaks = [outcomes[total][1]["peak_tracked"] for total in sizes]
    assert max(peaks) < sizes[0] // 2, f"compacted peak {peaks} is not bounded"
    assert max(peaks) <= min(peaks) * 2, f"compacted peak {peaks} grows with history"

    # Equal or better throughput: at every size the compacted run finishes
    # the same simulated workload in no more wall-clock time (the margin is
    # several-fold by the largest size; 1.0x would already pass the bar).
    # Skippable via E10_TIMING_ASSERTS=0 for noisy shared runners.
    largest = sizes[-1]
    plain, compacted = outcomes[largest]
    if TIMING_ASSERTS:
        assert compacted["wall"] <= plain["wall"], (
            f"compaction slowed the run down: {compacted['wall']:.2f}s vs "
            f"{plain['wall']:.2f}s at {largest} ops"
        )
        # And the baseline actually degrades: its per-op cost at 4x history
        # is clearly superlinear while the compacted run stays ~linear.
        plain_cost_small = outcomes[sizes[0]][0]["wall"] / sizes[0]
        plain_cost_large = plain["wall"] / largest
        compacted_cost_small = outcomes[sizes[0]][1]["wall"] / sizes[0]
        compacted_cost_large = compacted["wall"] / largest
        assert plain_cost_large > 1.5 * plain_cost_small
        assert compacted_cost_large < 2.0 * compacted_cost_small

    emit_bench_json("E10", {
        "history_sizes": sizes,
        "peak_tracked_plain": {t: outcomes[t][0]["peak_tracked"] for t in sizes},
        "peak_tracked_compacted": {t: outcomes[t][1]["peak_tracked"] for t in sizes},
        "wall_seconds_plain": {t: outcomes[t][0]["wall"] for t in sizes},
        "wall_seconds_compacted": {t: outcomes[t][1]["wall"] for t in sizes},
        # The compacted arm runs on the production core, so the "fast"
        # keys (one of them banded) read it too.
        "wall_seconds_fast": {t: outcomes[t][1]["wall"] for t in sizes},
        "ops_per_sec_plain": {t: outcomes[t][0]["wall_ops_per_sec"] for t in sizes},
        "ops_per_sec_compacted": {t: outcomes[t][1]["wall_ops_per_sec"] for t in sizes},
        "ops_per_sec_fast": {t: outcomes[t][1]["wall_ops_per_sec"] for t in sizes},
        "messages": {t: outcomes[t][1]["messages"] for t in sizes},
        "gossip_payload": {t: outcomes[t][1]["gossip_payload"] for t in sizes},
    })


def test_e10_long_run_keeps_memory_flat(benchmark):
    """The headline long run on the production core: ≥50k operations (the
    uncompacted reference is two orders of magnitude slower here and is not
    run), peak tracked state bounded by the unstable-suffix window — under
    1% of the history."""
    outcome = run_history(LONG_RUN_OPS, compaction=True, seed=5)
    cluster = outcome["cluster"]
    assert outcome["result"].metrics.completed == LONG_RUN_OPS

    per_replica_peak = dict(cluster.metrics.tracked_ops_peak)
    print_table(
        f"E10b: long run, {LONG_RUN_OPS} operations with compaction",
        ["measurement", "value"],
        [
            ("operations completed", outcome["result"].metrics.completed),
            ("wall-clock ops/s", f"{outcome['wall_ops_per_sec']:.0f}"),
            ("peak tracked ops (worst replica)", outcome["peak_tracked"]),
            ("operations folded into checkpoints", outcome["compacted"]),
            ("checkpoint id-summary intervals",
             max(r.checkpoint.ids.interval_count for r in cluster.replicas.values())),
            ("per-replica peaks", per_replica_peak),
        ],
    )

    # Bounded memory at scale: the peak tracked state is a tiny fraction of
    # the history (the bound is the suffix window, not the run length).
    assert outcome["peak_tracked"] < max(LONG_RUN_OPS // 100, 500)
    # Nearly everything was eventually folded, into a summary whose size is
    # per-client intervals, not per-operation records.  Per-shard-contiguous
    # minting keeps the summary at O(clients) intervals.
    assert outcome["compacted"] > 0.95 * LONG_RUN_OPS
    for replica in cluster.replicas.values():
        assert replica.checkpoint.ids.interval_count <= 4 * len(CLIENTS)
    # The retained-value ledger is bounded too, after every fold: at most
    # value_retention live entries, and no more in storage than that plus
    # one fold batch (folds share the ledger, never copy it).
    peak = outcome["ledger_peak"]
    assert 0 < peak["entries"] <= POLICY.value_retention
    assert peak["footprint"] <= POLICY.value_retention + peak["fold"]

    emit_bench_json("E10_LONG", {
        "operations": LONG_RUN_OPS,
        # One run, on the production core: both keys read it.
        "wall_ops_per_sec": outcome["wall_ops_per_sec"],
        "wall_ops_per_sec_fast": outcome["wall_ops_per_sec"],
        "peak_tracked_ops": outcome["peak_tracked"],
        "per_replica_peaks": per_replica_peak,
        "compacted_operations": outcome["compacted"],
        "messages": outcome["messages"],
        "gossip_payload": outcome["gossip_payload"],
    })

    # Wall-clock measurement of a small representative slice.
    benchmark(run_history, 500, True, 9)
