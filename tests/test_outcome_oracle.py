"""The one outcome oracle names the same failing check from every harness.

Defects are planted in a quiesced deployment — a wrong strict value in the
recorded trace, a witness that puts an operation before its ``prev``, one
replica whose state diverged, every replica diverged alike, an answer
missing from the client book — and each must fail under one check name
whether the deployment is the action-level :class:`AlgorithmSystem`, a
:class:`SimulatedCluster` checked through the fuzz/corpus entry point
``check_cluster_outcome``, or a :class:`NetCluster` on the memory transport.
"""

import asyncio
import dataclasses
import random

import pytest

from repro.algorithm.system import AlgorithmSystem
from repro.common import InvariantViolation, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.conformance.oracles import check_cluster_outcome, quiesce
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.net.runtime import NetCluster, NetParams
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload
from repro.verification.outcome import check_outcome

OUTCOME_CHECKS = [
    "answered",
    "quiesced",
    "witness_order",
    "states_converged",
    "states_match_witness",
    "invariants",
]


def wrong_strict_value(deployment) -> None:
    events = deployment.trace.events
    index = next(i for i, e in enumerate(events) if e[0] == "response" and e[1].strict)
    _kind, operation, value = events[index]
    events[index] = ("response", operation, value + 1000)


def reversed_prev_edge(deployment) -> None:
    order = deployment.eventual_order()
    after = next(op for op in deployment.requested.values() if op.prev)
    i, j = order.index(next(iter(after.prev))), order.index(after.id)
    order[i], order[j] = order[j], order[i]
    deployment.eventual_order = lambda: list(order)


def diverged_replica(deployment, replica_ids=None) -> None:
    for rid in replica_ids or deployment.replica_ids[-1:]:
        core = deployment.replicas[rid]
        base = core.checkpoint.base_state
        core.checkpoint = dataclasses.replace(core.checkpoint, base_state=base + 1000)


def every_replica_diverged(deployment) -> None:
    diverged_replica(deployment, deployment.replica_ids)


def unanswered_operation(deployment) -> None:
    deployment.responded.pop(next(iter(deployment.responded)))


def no_defect(deployment) -> None:
    pass


DEFECTS = {
    "wrong_strict_value": (wrong_strict_value, "witness_order"),
    "reversed_prev_edge": (reversed_prev_edge, "witness_order"),
    "diverged_replica": (diverged_replica, "states_converged"),
    "every_replica_diverged": (every_replica_diverged, "states_match_witness"),
    "unanswered_operation": (unanswered_operation, "answered"),
}


def algorithm_system(plant):
    system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["alice"])
    gen = OperationIdGenerator("alice")
    first = make_operation(CounterType.increment(), gen.fresh())
    second = make_operation(CounterType.increment(), gen.fresh(), prev=[first.id])
    read = make_operation(CounterType.read(), gen.fresh(), prev=[second.id], strict=True)
    for op in (first, second, read):
        system.request(op)
    rng = random.Random(3)
    system.drain(rng)
    assert len(system.responded) == 3 and system.fully_converged()
    plant(system)
    return check_outcome(system).raise_for_failure()


def simulated_cluster(plant):
    params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
    cluster = SimulatedCluster(CounterType(), 3, ["c0", "c1"], params=params, seed=4)
    spec = WorkloadSpec(
        operations_per_client=8, mean_interarrival=1.0, strict_fraction=0.5, prev_policy="last_own"
    )
    run_workload(cluster, spec, seed=5)
    assert quiesce(cluster)
    plant(cluster)
    return check_cluster_outcome(cluster)


def net_cluster(plant):
    async def run():
        async with NetCluster(
            CounterType(),
            num_replicas=3,
            client_ids=("c0", "c1"),
            params=NetParams(gossip_period=0.01),
            transport="memory",
            config=ReplicaConfig(delta_gossip=True, fast_core=True),
        ) as cluster:
            first = cluster.make_operation("c0", CounterType.increment())
            await cluster.execute(first)
            second = cluster.make_operation("c0", CounterType.increment(), prev=[first.id])
            await cluster.execute(second)
            await cluster.submit("c1", CounterType.read(), prev=[second.id], strict=True)
            assert await cluster.quiesce(timeout=30.0)
            plant(cluster)
            return check_outcome(cluster).raise_for_failure()

    return asyncio.run(run())


HARNESSES = {
    "algorithm_system": algorithm_system,
    "simulated_cluster": simulated_cluster,
    "net_cluster": net_cluster,
}


@pytest.mark.parametrize("harness", list(HARNESSES))
def test_every_check_holds_without_a_defect(harness):
    verdict = HARNESSES[harness](no_defect)
    assert verdict.failure is None
    assert verdict.checks == OUTCOME_CHECKS
    assert not verdict.lost and not verdict.stuck


@pytest.mark.parametrize("defect", list(DEFECTS))
@pytest.mark.parametrize("harness", list(HARNESSES))
def test_planted_defect_fails_one_named_check(harness, defect):
    plant, check = DEFECTS[defect]
    with pytest.raises(InvariantViolation, match=f"^{check}: ") as info:
        HARNESSES[harness](plant)
    assert info.value.check == check


def test_a_replica_left_crashed_fails_quiesced_on_the_simulator():
    # Every scenario's fault schedule ends in recovery, so a replica still
    # down at the end is a recovery bug, not a replica to leave out.
    def left_crashed(cluster):
        cluster.crash_replica(cluster.replica_ids[-1])

    with pytest.raises(InvariantViolation, match="^quiesced: ") as info:
        simulated_cluster(left_crashed)
    assert info.value.check == "quiesced"
