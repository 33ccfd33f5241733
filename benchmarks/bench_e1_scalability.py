"""E1 — throughput scaling with the number of replicas (Section 11.1).

Cheiner's experiment: 1-10 replicas, only non-strict operations, fixed
request frequency per replica; observed throughput grows almost linearly with
the number of replicas.  Our algorithm requires at least two replicas, so the
sweep runs 2-10 and additionally reports the single-server centralized
baseline as the "1 replica" point.

A second table compares *wall-clock* time for the same seeded execution on
the base :class:`~repro.algorithm.replica.ReplicaCore` and the raw-speed
:class:`~repro.algorithm.fastcore.FastReplicaCore`: simulated metrics are
identical by contract (same responses, same witness order), only the host
CPU cost of replay/ordering moves.
"""

import os
import time

from repro.baselines.atomic import CentralizedAtomicService
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, monotonically_nondecreasing, print_table

SERVICE_TIME = 0.4
CLIENTS_PER_REPLICA = 2
OPS_PER_CLIENT = 30
INTERARRIVAL = 0.8  # per client; offered load scales with the replica count

#: The wall-clock twin workload: heavy enough that replay/ordering dominates
#: the measurement, small enough for PR CI.
WALL_CLOCK_OPS = 2000
TIMING_ASSERTS = os.environ.get("E10_TIMING_ASSERTS", "1") == "1"


def run_replica_count(num_replicas: int, seed: int = 0) -> float:
    """Throughput (completed operations per unit time) for one configuration."""
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        service_time=SERVICE_TIME, frontend_policy="affinity",
    )
    clients = [f"c{i}" for i in range(CLIENTS_PER_REPLICA * num_replicas)]
    cluster = SimulatedCluster(CounterType(), num_replicas, clients, params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=OPS_PER_CLIENT,
                        mean_interarrival=INTERARRIVAL, strict_fraction=0.0)
    result = run_workload(cluster, spec, seed=seed + 1)
    return result.throughput


def run_centralized(seed: int = 0) -> float:
    params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, service_time=SERVICE_TIME)
    clients = [f"c{i}" for i in range(CLIENTS_PER_REPLICA)]
    service = CentralizedAtomicService(CounterType(), clients, params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=OPS_PER_CLIENT,
                        mean_interarrival=INTERARRIVAL, strict_fraction=0.0)
    return run_workload(service, spec, seed=seed + 1).throughput


def run_wall_clock(fast: bool, seed: int = 3):
    """The seeded wall-clock twin: an E1-style non-strict workload with
    delta gossip and batched gossip, with the replica core as the only
    difference — so the ratio also covers the production core's replay
    cache against the reference core's from-scratch Fig. 7 replay."""
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            delta_gossip=True,
            batch_gossip=True,
            fast_core=fast,
        ),
        frontend_policy="affinity",
    )
    clients = [f"c{i}" for i in range(4)]
    cluster = SimulatedCluster(CounterType(), 3, clients, params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=WALL_CLOCK_OPS // len(clients),
                        mean_interarrival=0.25, strict_fraction=0.0)
    started = time.perf_counter()
    result = run_workload(cluster, spec, seed=seed + 1)
    wall = time.perf_counter() - started
    return cluster, result, wall


def test_e1_throughput_scales_with_replicas(benchmark):
    counts = [2, 4, 6, 8, 10]
    throughputs = {n: run_replica_count(n) for n in counts}
    centralized = run_centralized()

    rows = [("1 (centralized)", f"{centralized:.2f}", "-")]
    for n in counts:
        speedup = throughputs[n] / throughputs[counts[0]]
        rows.append((str(n), f"{throughputs[n]:.2f}", f"{speedup:.2f}x"))
    print_table(
        "E1: throughput vs number of replicas (non-strict workload)",
        ["replicas", "throughput (ops/time)", "vs 2 replicas"],
        rows,
    )

    # Paper's shape: throughput increases ~linearly as replicas are added.
    series = [throughputs[n] for n in counts]
    assert monotonically_nondecreasing(series, slack=0.05)
    assert throughputs[10] >= 3.0 * throughputs[2]

    # Wall-clock twins: the same seeded execution, base core vs fast core.
    base_cluster, base_result, base_wall = run_wall_clock(fast=False)
    fast_cluster, fast_result, fast_wall = run_wall_clock(fast=True)
    assert base_cluster.responded == fast_cluster.responded
    assert base_cluster.eventual_order() == fast_cluster.eventual_order()
    assert base_result.metrics.completed == fast_result.metrics.completed == WALL_CLOCK_OPS
    wall_speedup = base_wall / fast_wall
    print_table(
        f"E1 wall clock: {WALL_CLOCK_OPS} ops, base vs fast replica core",
        ["core", "wall", "ops/s"],
        [
            ("base", f"{base_wall:.2f}s", f"{WALL_CLOCK_OPS / base_wall:.0f}"),
            ("fast", f"{fast_wall:.2f}s", f"{WALL_CLOCK_OPS / fast_wall:.0f}"),
            ("speedup", f"{wall_speedup:.2f}x", "-"),
        ],
    )
    if TIMING_ASSERTS:
        # In-process ratio, so machine speed cancels; generous bar for
        # scheduler noise — the regression gate holds the real band.
        assert wall_speedup > 1.3, f"fast core speedup collapsed: {wall_speedup:.2f}x"

    emit_bench_json("E1", {
        "throughput_by_replicas": {n: throughputs[n] for n in counts},
        "centralized_throughput": centralized,
        "speedup_2_to_10": throughputs[10] / throughputs[2],
        "wall_clock_ops": WALL_CLOCK_OPS,
        "wall_seconds_base": base_wall,
        "wall_seconds_fast": fast_wall,
        "wall_ops_per_sec_base": WALL_CLOCK_OPS / base_wall,
        "wall_ops_per_sec_fast": WALL_CLOCK_OPS / fast_wall,
        "fast_core_speedup": wall_speedup,
    })

    # Wall-clock measurement of one representative configuration.
    benchmark(run_replica_count, 4, 1)
