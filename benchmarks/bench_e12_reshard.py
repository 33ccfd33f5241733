"""E12 — live elastic resharding under traffic (throughput dip + recovery).

The service layer can change its consistent-hash ring **while serving
requests** (`ShardedCluster.reshard`): moving key ranges are frozen,
shipped as one digest-verified slice message, replayed at the
destination, and dual-routed during the handoff window.  This experiment
quantifies what that costs the client:

* **E12a** — a sustained zipfian closed-ish load over a 4-shard ring; one
  third of the way in, the ring grows live to 8 shards.  We measure the
  committed-ops throughput time series around the reshard (steady / handoff
  window / after), the response-latency shift inside the window, the
  sim-time length of the whole handoff, and how many operations physically
  migrated.  The acceptance shape: no operation is lost or reordered
  (per-shard Section 7/8 invariants plus the reshard handoff audit), the
  window-average throughput stays above half the steady rate (dual-routing
  keeps the slow path narrow), and throughput recovers to the steady band
  once the last leg completes.
* **E12b** — the response-equivalence oracle: the identical deterministic
  operation script (same clients, same zipfian key sequence, same per-key
  ``prev`` chains) replayed on a *statically* 8-sharded twin built from the
  final ring must return exactly the same value for every operation
  (Theorem 5.8 lifted across the reshard: the live ring change is
  observationally equivalent to having deployed the final ring from the
  start).

All measurements are in simulated time, so the emitted metrics are
deterministic for a given seed and machine-independent; the CI regression
gate (``baselines/BASELINE_E12.json``) bands them tightly.

Environment knobs: ``E12_OPS`` (total operations, default 480),
``E12_KEYS`` (keyspace size, default 48), ``E12_ZIPF`` (zipf exponent,
default 1.2).
"""

import os
import random
from bisect import bisect_left

from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulationParams
from repro.sim.sharded import ShardedCluster

from conftest import emit_bench_json, print_table

OPS = int(os.environ.get("E12_OPS", "480"))
NUM_KEYS = int(os.environ.get("E12_KEYS", "48"))
ZIPF_S = float(os.environ.get("E12_ZIPF", "1.2"))

CLIENTS = tuple(f"c{i}" for i in range(4))
KEYS = tuple(f"k{i:03d}" for i in range(NUM_KEYS))
INTERARRIVAL = 0.25          # sim-time between consecutive submissions
RESHARD_AT_OP = OPS // 3     # the ring change lands mid-load
BUCKET = 8.0                 # throughput time-series resolution
READ_FRACTION = 0.3


def make_params() -> SimulationParams:
    return SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(batch_gossip=True),
    )


def zipf_cdf(n: int, s: float):
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def script(seed: int = 11):
    """The deterministic operation script both twins replay: a zipfian key
    pick and an increment-or-read flip per step.  Values are pinned by
    per-key ``prev`` chains, so they cannot depend on cross-shard timing."""
    rng = random.Random(seed)
    cdf = zipf_cdf(NUM_KEYS, ZIPF_S)
    steps = []
    for i in range(OPS):
        key = KEYS[bisect_left(cdf, rng.random())]
        steps.append((CLIENTS[i % len(CLIENTS)], key, rng.random() < READ_FRACTION))
    return steps


def drive(cluster: ShardedCluster, reshard_to=None):
    """Replay the script against *cluster*, optionally growing the ring to
    *reshard_to* shards at ``RESHARD_AT_OP``; returns per-op bookkeeping."""
    submit_time, ops, handle = {}, [], None
    for i, (client, key, is_read) in enumerate(script()):
        if reshard_to is not None and i == RESHARD_AT_OP:
            target = cluster.router
            for n in range(len(target.shard_ids), reshard_to):
                target = target.add_shard(f"s{n}")
            handle = cluster.reshard(target)
        prev = cluster.last_operation_on(key)
        operator = CounterType.read() if is_read else CounterType.increment()
        op = cluster.submit(client, key, operator,
                            prev=(prev,) if prev else ())
        submit_time[op.id] = cluster.now
        ops.append(op)
        cluster.run(INTERARRIVAL)
    load_end = cluster.now
    cluster.run_until_idle()
    assert cluster.outstanding_operations() == 0
    if handle is not None:
        assert handle.done, "reshard never completed"
    return ops, submit_time, load_end, handle


def completion_times(cluster: ShardedCluster):
    """Per-operation response time as the client saw it: the minting
    shard's record wins (the destination's re-answer of an injected chain
    is bookkeeping, not a client response)."""
    times = {}
    for sid, shard in cluster.shards.items():
        for record in shard.metrics.records:
            op_id = record.operation.id
            if cluster.directory.shard_of_operation(op_id) == sid:
                times[op_id] = record.response_time
            else:
                times.setdefault(op_id, record.response_time)
    return times


def throughput_in(times, start: float, end: float) -> float:
    if end <= start:
        return 0.0
    done = sum(1 for t in times.values() if start <= t < end)
    return done / (end - start)


def test_e12a_live_4_to_8_reshard_under_zipfian_load():
    cluster = ShardedCluster(
        CounterType(), num_shards=4, replicas_per_shard=3,
        client_ids=CLIENTS, params=make_params(), seed=3,
    )
    ops, submit_time, load_end, handle = drive(cluster, reshard_to=8)
    cluster.check_invariants()     # Section 7/8 per shard + handoff audit
    cluster.check_traces()         # Theorem 5.8 per shard

    times = completion_times(cluster)
    t0, t1 = handle.started_at, handle.completed_at
    window = (t0, min(t1, load_end))
    steady = throughput_in(times, max(0.0, t0 - 4 * BUCKET), t0)
    during = throughput_in(times, *window)
    after = throughput_in(times, t1, load_end) if t1 < load_end else during

    buckets = []
    edge = 0.0
    while edge < load_end:
        buckets.append((edge, throughput_in(times, edge, edge + BUCKET)))
        edge += BUCKET
    dip = min((rate for edge, rate in buckets
               if t0 - BUCKET <= edge < window[1]), default=during)

    latency = {
        phase: sorted(
            times[op.id] - submit_time[op.id]
            for op in ops if op.id in times and pred(submit_time[op.id])
        )
        for phase, pred in (
            ("before", lambda t: t < t0),
            ("during", lambda t: t0 <= t < window[1]),
            ("after", lambda t: t >= window[1]),
        )
    }

    def p99(series):
        return series[int(0.99 * (len(series) - 1))] if series else 0.0

    print_table(
        f"E12a: live 4->8 reshard at t={t0:.0f} under zipfian load "
        f"({OPS} ops, {NUM_KEYS} keys, s={ZIPF_S})",
        ["phase", "ops/time", "p99 latency"],
        [
            ("steady (pre)", f"{steady:.2f}", f"{p99(latency['before']):.1f}"),
            ("handoff window", f"{during:.2f}", f"{p99(latency['during']):.1f}"),
            ("after", f"{after:.2f}", f"{p99(latency['after']):.1f}"),
        ],
    )
    summary = handle.summary()
    print(f"handoff: {t1 - t0:.1f} time units, {summary['legs']} legs, "
          f"{summary['moved_ranges']} ranges, "
          f"{summary['moved_operations']} operations migrated, "
          f"worst bucket {dip:.2f} ops/time")

    # Acceptance shape: every op answered (asserted in drive); the handoff
    # window keeps at least half the steady throughput (dual-routing), and
    # the post-window rate recovers into the steady band.
    assert len(times) == len(ops)
    assert during >= 0.5 * steady, f"window throughput {during:.2f} vs steady {steady:.2f}"
    assert after >= 0.75 * steady, f"post-reshard throughput never recovered: {after:.2f}"
    assert summary["moved_operations"] > 0
    assert handle.transfer_rejections == 0  # no faults injected here

    _E12_METRICS.update({
        "ops": OPS, "keys": NUM_KEYS, "zipf_exponent": ZIPF_S,
        "reshard_duration": t1 - t0,
        "moved_operations": summary["moved_operations"],
        "moved_ranges": summary["moved_ranges"],
        "legs": summary["legs"],
        "throughput": {"steady": steady, "window": during, "after": after,
                       "worst_bucket": dip},
        "window_over_steady": during / max(steady, 1e-9),
        "after_over_steady": after / max(steady, 1e-9),
        "p99_latency": {phase: p99(series) for phase, series in latency.items()},
    })
    emit_bench_json("E12", _E12_METRICS)


#: Cross-test metric accumulator: pytest runs the parts in file order and
#: the LAST emit wins, so E12b re-emits the merged dict with its oracle bit.
_E12_METRICS = {"oracle_match": 0}


def test_e12b_live_reshard_matches_statically_sharded_oracle(benchmark):
    live = ShardedCluster(
        CounterType(), num_shards=4, replicas_per_shard=3,
        client_ids=CLIENTS, params=make_params(), seed=3,
    )
    live_ops, _, _, handle = drive(live, reshard_to=8)

    oracle = ShardedCluster(
        CounterType(), replicas_per_shard=3, client_ids=CLIENTS,
        params=make_params(), seed=3, router=handle.new_router,
    )
    assert oracle.shard_ids == handle.new_router.shard_ids
    oracle_ops, _, _, _ = drive(oracle)

    live_values = [live.value_of(op) for op in live_ops]
    oracle_values = [oracle.value_of(op) for op in oracle_ops]
    assert live_values == oracle_values, (
        "live reshard diverged from the statically 8-sharded twin"
    )
    print(f"E12b: {len(live_values)} responses identical to the "
          f"statically-8-sharded oracle twin")

    _E12_METRICS["oracle_match"] = 1
    emit_bench_json("E12", _E12_METRICS)

    # Wall-clock measurement of one representative (smaller) live reshard.
    def small_reshard():
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            client_ids=CLIENTS[:2], params=make_params(), seed=5,
        )
        rng = random.Random(17)
        handle = None
        for i in range(80):
            key = KEYS[rng.randrange(8)]
            prev = cluster.last_operation_on(key)
            cluster.submit(CLIENTS[i % 2], key, CounterType.increment(),
                           prev=(prev,) if prev else ())
            if i == 30:
                handle = cluster.reshard(cluster.router.add_shard("s2"))
            cluster.run(INTERARRIVAL)
        cluster.run_until_idle()
        assert handle.done
        return cluster

    benchmark.pedantic(small_reshard, rounds=1, iterations=1)
