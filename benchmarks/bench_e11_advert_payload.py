"""E11 — bounded steady-state gossip payloads via advert/pull checkpoints.

PR 3 bounded replica *memory* with stability-driven checkpoints, but eager
gossip still ships the checkpoint body — base state, interval summary and
the retained-value ledger — inside every full-state message, so the
steady-state wire payload grows with the history (linearly under unbounded
``value_retention``, and by a constant-but-large ledger under a finite one).
Advert/pull gossip replaces the body with a compact advert (frontier label,
digest, per-client id intervals): a caught-up peer learns everything it
needs from the advert alone, and only a genuinely behind peer pulls the
body, in one transfer message, on demand.

The table runs the same seeded workload at growing history lengths under
both modes and reports the size of a steady-state full-state gossip message
after quiescence: eager grows with the history, advert/pull stays flat at
the unstable-suffix + advert size — while responses remain identical and,
in a fault-free run, the pull/transfer plane stays completely silent.

Environment knobs: ``E11_HISTORIES`` (comma-separated op counts, default
``1000,4000,16000``).
"""

import os

from repro.algorithm.checkpoint import CompactionPolicy
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, print_table

NUM_REPLICAS = 3
CLIENTS = [f"c{i}" for i in range(4)]
HISTORIES = [
    int(size)
    for size in os.environ.get("E11_HISTORIES", "1000,4000,16000").split(",")
]
#: Unbounded retention makes the eager body's growth exactly linear in the
#: history — the honest worst case the advert bounds away.  (A finite
#: retention would cap the growth at a constant ledger of that size, still
#: shipped in every message; the advert costs O(clients) regardless.)
POLICY = CompactionPolicy(min_batch=16, value_retention=None)


def run_history(total_ops: int, advert: bool, seed: int = 1):
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            fast_core=True,
            batch_gossip=True,
            compaction=POLICY,
            compaction_interval=8.0,
            advert_gossip=advert,
        ),
    )
    cluster = SimulatedCluster(CounterType(), NUM_REPLICAS, CLIENTS,
                               params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=0.25, strict_fraction=0.05)
    run_workload(cluster, spec, seed=seed + 1)
    # Quiesce: let stability spread and fold everything foldable, so the
    # measured message is the steady-state one (suffix + checkpoint field).
    for _ in range(6):
        for replica in cluster.replicas.values():
            replica.maybe_compact(force=True)
        cluster.run(params.gossip_period + params.dg)
    steady_sizes = [
        cluster.replicas[rid].make_gossip().size_estimate()
        for rid in cluster.replica_ids
    ]
    counters = cluster.network.counters
    return {
        "responded": dict(cluster.responded),
        "steady_payload": max(steady_sizes),
        "compacted": len(cluster.compacted_prefix),
        "payload_per_gossip": counters.gossip_payload / max(counters.gossip, 1),
        "pulls": counters.pull,
        "transfers": counters.transfer,
    }


def test_e11_advert_pull_keeps_steady_state_payload_flat():
    outcomes = {}
    rows = []
    for total in HISTORIES:
        eager = run_history(total, advert=False)
        advert = run_history(total, advert=True)
        outcomes[total] = (eager, advert)
        rows.append((
            total,
            eager["steady_payload"],
            advert["steady_payload"],
            f"{eager['payload_per_gossip']:.1f}",
            f"{advert['payload_per_gossip']:.1f}",
            advert["pulls"],
        ))
    print_table(
        "E11: steady-state full-state payload, eager vs advert/pull "
        f"({NUM_REPLICAS} replicas, identical seeded load)",
        ["history", "eager payload", "advert payload",
         "eager per gossip", "advert per gossip", "pulls"],
        rows,
    )

    smallest, largest = HISTORIES[0], HISTORIES[-1]
    for total, (eager, advert) in outcomes.items():
        # Advert/pull changes the wire format, not the execution.
        assert eager["responded"] == advert["responded"]
        assert advert["compacted"] > 0
        # Fault-free steady state: nobody ever fell behind, nothing pulled.
        assert advert["pulls"] == 0
        assert advert["transfers"] == 0

    # Eager full-state payload grows with the history (the value ledger
    # rides along)...
    eager_growth = (outcomes[largest][0]["steady_payload"]
                    / outcomes[smallest][0]["steady_payload"])
    assert eager_growth > 3.0, f"eager payload grew only {eager_growth:.2f}x"
    # ...while the advert payload is flat in the history length...
    advert_flatness = (outcomes[largest][1]["steady_payload"]
                       / outcomes[smallest][1]["steady_payload"])
    assert advert_flatness < 2.0, f"advert payload grew {advert_flatness:.2f}x"
    # ...and decisively smaller at scale.
    assert (outcomes[largest][1]["steady_payload"]
            < outcomes[largest][0]["steady_payload"] / 5)

    emit_bench_json("E11", {
        "histories": HISTORIES,
        "steady_payload_eager": {
            total: outcomes[total][0]["steady_payload"] for total in HISTORIES
        },
        "steady_payload_advert": {
            total: outcomes[total][1]["steady_payload"] for total in HISTORIES
        },
        "payload_per_gossip_eager": {
            total: outcomes[total][0]["payload_per_gossip"] for total in HISTORIES
        },
        "payload_per_gossip_advert": {
            total: outcomes[total][1]["payload_per_gossip"] for total in HISTORIES
        },
        "eager_growth_ratio": eager_growth,
        "advert_flatness_ratio": advert_flatness,
        "advert_over_eager_at_largest": (
            outcomes[largest][1]["steady_payload"]
            / outcomes[largest][0]["steady_payload"]
        ),
    })
