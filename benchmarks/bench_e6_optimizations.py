"""E6 — ablation of the Section 10 optimizations.

The abstract replica recomputes the whole label-ordered history for every
response; the production core (``FastReplicaCore``) caches the post-states
of its last replay and re-applies only the suffix that changed; the
memoizing replica (Section 10.1, ESDS-Alg') replays only the non-solid
suffix; the Commute replica (Section 10.3) computes each value once as the
operation is done.  The benchmark counts data-type operator applications per
delivered response for the four variants on the same workload and checks
that the external results agree.
"""

from repro.algorithm.commute import CommuteReplicaCore
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.replica import ReplicaCore
from repro.datatypes import GSetType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, print_table

PARAMS = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)


def gset_mix(rng, index):
    """Commuting inserts with occasional membership queries, so the workload
    is valid for the Commute variant's SafeUsers discipline as well."""
    if rng.random() < 0.7:
        return GSetType.insert(rng.randint(0, 50))
    return GSetType.size()


def run_variant(factory, seed: int = 0):
    cluster = SimulatedCluster(GSetType(), num_replicas=3,
                               client_ids=["c0", "c1"], params=PARAMS,
                               seed=seed, replica_factory=factory)
    spec = WorkloadSpec(operations_per_client=40, mean_interarrival=0.5,
                        strict_fraction=0.1, operator_factory=gset_mix)
    result = run_workload(cluster, spec, seed=seed + 9)
    responses = result.metrics.completed
    return {
        "cluster": cluster,
        "result": result,
        "value_applications": cluster.total_value_applications(),
        "total_applications": cluster.total_applications(),
        "per_response": cluster.total_value_applications() / max(responses, 1),
        "values": {r.operation.id: r.value for r in result.metrics.records},
    }


def test_e6_memoization_and_commutativity_cut_recomputation(benchmark):
    variants = [
        ("abstract (ESDS-Alg)", ReplicaCore),
        ("incremental replay", FastReplicaCore),
        ("memoized (ESDS-Alg')", MemoizedReplicaCore),
        ("commute (Fig. 11)", CommuteReplicaCore),
    ]
    outcomes = {name: run_variant(factory) for name, factory in variants}

    rows = [
        (
            name,
            outcomes[name]["result"].metrics.completed,
            outcomes[name]["value_applications"],
            f"{outcomes[name]['per_response']:.1f}",
            outcomes[name]["total_applications"],
        )
        for name, _factory in variants
    ]
    print_table(
        "E6: operator applications spent computing response values",
        ["replica variant", "responses", "replay applications", "replays per response", "all applications"],
        rows,
    )

    plain = outcomes["abstract (ESDS-Alg)"]
    incremental = outcomes["incremental replay"]
    memo = outcomes["memoized (ESDS-Alg')"]
    commute = outcomes["commute (Fig. 11)"]

    # The memoizing replica replays far less than the abstract one, and the
    # Commute replica performs no response-time replay at all.
    assert memo["value_applications"] < 0.5 * plain["value_applications"]
    assert commute["value_applications"] == 0
    # The production core's replay cache replays only changed suffixes and
    # returns the exact same values as the from-scratch path.
    assert incremental["value_applications"] < 0.5 * plain["value_applications"]
    assert incremental["values"] == plain["values"]
    # Even counting the bookkeeping applications (memoize / current-state
    # updates), both optimizations do less total work than the abstract replica.
    assert memo["total_applications"] < plain["total_applications"]
    assert commute["total_applications"] < plain["total_applications"]
    # External behaviour is unchanged for the memoizing variant (same values
    # for the identical deterministic workload).
    assert memo["values"] == plain["values"]

    emit_bench_json("E6", {
        "value_applications": {
            name: outcomes[name]["value_applications"] for name, *_ in variants
        },
        "applications_per_response": {
            name: outcomes[name]["per_response"] for name, *_ in variants
        },
        "total_applications": {
            name: outcomes[name]["total_applications"] for name, *_ in variants
        },
    })

    benchmark(run_variant, MemoizedReplicaCore, 1)
