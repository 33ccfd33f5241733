"""E8 — gossip message overhead versus the number of replicas (Section 10.4).

Each replica gossips to every other replica every ``g`` time units, so the
gossip message count per unit time grows quadratically with the number of
replicas (n*(n-1) per round), while request/response traffic grows only with
the offered load.  The paper points out that a broadcast primitive would make
this linear; the table quantifies the quadratic growth that motivates that
optimization, together with the payload growth that motivates incremental
gossip.
"""

from repro.algorithm.messages import incremental_gossip
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, print_table

DURATION_OPS = 20


def run_replicas(num_replicas: int, seed: int = 0, delta_gossip: bool = False):
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(fast_core=True, delta_gossip=delta_gossip, full_state_interval=8),
    )
    cluster = SimulatedCluster(CounterType(), num_replicas, ["c0", "c1"],
                               params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=DURATION_OPS, mean_interarrival=1.0,
                        strict_fraction=0.2)
    result = run_workload(cluster, spec, seed=seed + 2)
    counters = cluster.network.counters
    completed = max(result.metrics.completed, 1)
    return {
        "gossip": counters.gossip,
        "request": counters.request,
        "response": counters.response,
        "gossip_per_op": counters.gossip / completed,
        "payload": counters.gossip_payload,
        "payload_per_gossip": counters.gossip_payload / max(counters.gossip, 1),
        "duration": result.duration,
        "responded": dict(cluster.responded),
    }


def test_e8_gossip_traffic_grows_quadratically_with_replicas(benchmark):
    counts = [2, 4, 6, 8]
    outcomes = {n: run_replicas(n) for n in counts}

    rows = [
        (
            n,
            outcomes[n]["gossip"],
            f"{outcomes[n]['gossip_per_op']:.1f}",
            outcomes[n]["request"] + outcomes[n]["response"],
            f"{outcomes[n]['payload_per_gossip']:.1f}",
        )
        for n in counts
    ]
    print_table(
        "E8: message counts vs number of replicas (same offered load)",
        ["replicas", "gossip msgs", "gossip per op", "request+response msgs", "payload per gossip"],
        rows,
    )

    # Quadratic growth of gossip count: going 2 -> 8 replicas multiplies the
    # pair count by 28/2 = 14; allow generous slack for run-length effects.
    ratio = outcomes[8]["gossip"] / outcomes[2]["gossip"]
    assert ratio > 8.0
    # Client traffic is load-bound, not replica-bound.
    client_ratio = (outcomes[8]["request"] + outcomes[8]["response"]) / (
        outcomes[2]["request"] + outcomes[2]["response"]
    )
    assert client_ratio < 2.0

    benchmark(run_replicas, 4, 1)


def test_e8_delta_gossip_reduces_payload_at_scale():
    """Ack-based delta gossip (the production form of Section 10.4's
    incremental gossip) ships a fraction of the full-state payload while
    inducing the identical execution — compare ops transmitted per round at
    2–8 replicas under the same seeded workload."""
    counts = [2, 4, 8]
    rows = []
    outcomes = {}
    for n in counts:
        full = run_replicas(n, delta_gossip=False)
        delta = run_replicas(n, delta_gossip=True)
        outcomes[n] = (full, delta)
        rows.append((
            n,
            full["payload"],
            delta["payload"],
            f"{full['payload_per_gossip']:.1f}",
            f"{delta['payload_per_gossip']:.1f}",
            f"{delta['payload'] / max(full['payload'], 1):.2f}",
        ))
    print_table(
        "E8c: gossip payload, full-state vs delta gossip (same seeded load)",
        ["replicas", "full payload", "delta payload",
         "full per gossip", "delta per gossip", "delta/full"],
        rows,
    )

    for n in counts:
        full, delta = outcomes[n]
        # Delta gossip changes the wire payload, not the execution.
        assert full["responded"] == delta["responded"]
    # The acceptance bar: clearly fewer operation references per round at
    # eight replicas.
    full8, delta8 = outcomes[8]
    assert delta8["payload"] < full8["payload"]
    assert delta8["payload_per_gossip"] < 0.75 * full8["payload_per_gossip"]

    emit_bench_json("E8", {
        "gossip_messages_by_replicas": {
            n: outcomes[n][0]["gossip"] for n in counts
        },
        "full_payload_by_replicas": {n: outcomes[n][0]["payload"] for n in counts},
        "delta_payload_by_replicas": {n: outcomes[n][1]["payload"] for n in counts},
        "delta_over_full_at_8": delta8["payload"] / max(full8["payload"], 1),
    })


def test_e8_incremental_gossip_shrinks_payload():
    """The Section 10.4 incremental-gossip optimization sends only deltas."""
    base = run_replicas(4)
    # Construct two successive gossip payloads and compare the full second
    # message with its incremental form.
    cluster = SimulatedCluster(CounterType(), 3, ["c0"],
                               params=SimulationParams(df=1, dg=1, gossip_period=2), seed=3)
    for _ in range(10):
        cluster.execute("c0", CounterType.increment())
    first = cluster.replicas["r0"].make_gossip()
    for _ in range(2):
        cluster.execute("c0", CounterType.increment())
    second = cluster.replicas["r0"].make_gossip()
    delta = incremental_gossip(first, second)
    assert delta.size_estimate() < second.size_estimate()
    assert delta.done <= second.done
    print(f"\nE8b: full gossip payload {second.size_estimate()} vs incremental "
          f"{delta.size_estimate()} (baseline per-gossip payload at 4 replicas: "
          f"{base['payload_per_gossip']:.1f})")
