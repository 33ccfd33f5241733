"""Invariant checking and forward-simulation checks on random executions
(Sections 7 and 8)."""

import random

import pytest

from repro.algorithm.commute import CommuteReplicaCore
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import InvariantViolation, OperationIdGenerator, SimulationRelationError
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.service.keyed import KeyedStore
from repro.service.router import composite_client
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.simulation_check import (
    AlgorithmToSpecSimulation,
    check_esds2_implements_esds1,
)


def drive_random_run(system, rng, operations, checker=None, sim=None, steps_between=6):
    """Submit *operations* while interleaving random algorithm steps."""
    target = sim if sim is not None else system
    for op in operations:
        target.request(op)
        for _ in range(rng.randint(1, steps_between)):
            if target.random_step(rng) is None:
                break
            if checker is not None:
                checker.check_all()
    for _ in range(500):
        if target.random_step(rng) is None:
            break
        if checker is not None:
            checker.check_all()


def build_operations(rng, clients, count, data_type_name="counter", strict_rate=0.3):
    gens = {c: OperationIdGenerator(c) for c in clients}
    history = []
    for _ in range(count):
        client = rng.choice(clients)
        if data_type_name == "counter":
            operator = rng.choice(
                [CounterType.increment(), CounterType.add(3), CounterType.read()]
            )
        elif data_type_name == "keyed":
            operator = KeyedStore.at(
                rng.choice(["a", "b"]),
                rng.choice([CounterType.increment(), CounterType.add(3), CounterType.read()]),
            )
        elif data_type_name == "gset":
            operator = rng.choice(
                [GSetType.insert(rng.randint(0, 5)), GSetType.size()]
            )
        else:
            operator = rng.choice([RegisterType.write(rng.randint(0, 9)), RegisterType.read()])
        prev = [rng.choice(history).id] if history and rng.random() < 0.4 else []
        op = make_operation(operator, gens[client].fresh(), prev=prev,
                            strict=rng.random() < strict_rate)
        history.append(op)
        yield op


#: The plain counter, and the group one shard of a sharded service is: a
#: keyed store under ``client@shard`` ids, with delta gossip off and on.
SHARD_CLIENTS = [composite_client("alice", "s0"), composite_client("bob", "s0")]
RANDOM_RUN_INPUTS = {
    "counter": (CounterType(), ["alice", "bob"], "counter", ReplicaConfig()),
    "keyed": (KeyedStore(CounterType()), SHARD_CLIENTS, "keyed", ReplicaConfig()),
    "keyed-delta": (
        KeyedStore(CounterType()), SHARD_CLIENTS, "keyed", ReplicaConfig(delta_gossip=True)
    ),
}


class TestAlgorithmInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("inputs", list(RANDOM_RUN_INPUTS))
    def test_invariants_hold_on_random_executions(self, seed, inputs):
        data_type, clients, data_type_name, config = RANDOM_RUN_INPUTS[inputs]
        rng = random.Random(seed)
        system = AlgorithmSystem(data_type, ["r1", "r2", "r3"], clients, config=config)
        checker = AlgorithmInvariantChecker(system)
        operations = list(build_operations(rng, clients, 5, data_type_name))
        drive_random_run(system, rng, operations, checker=checker)
        checker.check_all()

    @pytest.mark.parametrize("seed", [5, 6])
    def test_invariants_hold_with_memoized_replicas(self, seed):
        rng = random.Random(seed)
        system = AlgorithmSystem(
            GSetType(), ["r1", "r2"], ["alice"], replica_factory=MemoizedReplicaCore
        )
        checker = AlgorithmInvariantChecker(system)
        operations = list(build_operations(rng, ["alice"], 5, data_type_name="gset"))
        drive_random_run(system, rng, operations, checker=checker)
        checker.check_all()

    def test_invariant_10_4_audits_commute_replicas(self):
        """A Commute replica is a memoizing replica, so the Section 10
        invariants audit it too: they hold at every step of a run, and a
        wrong memoized value planted once it has converged is caught."""
        rng = random.Random(5)
        system = AlgorithmSystem(
            GSetType(), ["r1", "r2"], ["alice"], replica_factory=CommuteReplicaCore
        )
        checker = AlgorithmInvariantChecker(system)
        gen = OperationIdGenerator("alice")
        operations = [make_operation(GSetType.insert(i), gen.fresh()) for i in range(4)]
        drive_random_run(system, rng, operations, checker=checker)
        assert system.fully_converged()
        replica = system.replicas["r1"]
        victim = next(iter(replica.memoized))
        replica.memo_values[victim] = frozenset({"planted"})
        with pytest.raises(InvariantViolation, match="Invariant 10.4"):
            checker.check_all()

    def test_invariant_10_3_audits_commute_replicas(self):
        """Invariant 10.3 audits a Commute replica's memoized set: an
        operation that is not solid there (here, one never done) is caught."""
        rng = random.Random(6)
        system = AlgorithmSystem(
            GSetType(), ["r1", "r2"], ["alice"], replica_factory=CommuteReplicaCore
        )
        checker = AlgorithmInvariantChecker(system)
        gen = OperationIdGenerator("alice")
        operations = [make_operation(GSetType.insert(i), gen.fresh()) for i in range(3)]
        drive_random_run(system, rng, operations, checker=checker)
        stranger = make_operation(GSetType.insert("never-done"), gen.fresh())
        system.replicas["r2"].memoized.add(stranger)
        with pytest.raises(InvariantViolation, match="Invariant 10.3"):
            checker.check_all()

    def test_checker_detects_corrupted_state(self):
        rng = random.Random(0)
        system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["alice"])
        gen = OperationIdGenerator("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        system.request(op)
        system.send_request("alice", "r1", op)
        system.receive_request("alice", "r1")
        system.do_it("r1", op)
        checker = AlgorithmInvariantChecker(system)
        checker.check_all()
        # Corrupt: pretend r2 knows the operation is stable at r1 although it
        # is not even done at r2 (violates Invariant 7.2/7.4 territory).
        system.replicas["r2"].stable["r2"].add(op)
        with pytest.raises(InvariantViolation):
            checker.check_all()


class TestAlgorithmImplementsEsds2:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_lockstep_simulation_small_runs(self, seed):
        rng = random.Random(seed)
        system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["alice", "bob"])
        sim = AlgorithmToSpecSimulation(system)
        operations = list(build_operations(rng, ["alice", "bob"], 4))
        drive_random_run(system, rng, operations, sim=sim)
        assert sim.concrete_steps > 0
        assert sim.report().steps_checked == sim.concrete_steps

    def test_lockstep_simulation_with_register(self):
        rng = random.Random(21)
        system = AlgorithmSystem(RegisterType(), ["r1", "r2", "r3"], ["alice"])
        sim = AlgorithmToSpecSimulation(system)
        operations = list(
            build_operations(rng, ["alice"], 4, data_type_name="register", strict_rate=0.5)
        )
        drive_random_run(system, rng, operations, sim=sim)
        assert sim.abstract_steps >= sim.concrete_steps / 4

    def test_relation_check_detects_divergence(self):
        system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["alice"])
        sim = AlgorithmToSpecSimulation(system)
        gen = OperationIdGenerator("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        sim.request(op)
        # Tamper with the specification state behind the checker's back.
        sim.spec.wait.clear()
        with pytest.raises(SimulationRelationError):
            sim.check_relation()


class TestEsds2ImplementsEsds1:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_simulation_over_random_executions(self, seed):
        def factory(rng, requested):
            if len(requested) >= 5:
                return None
            gen = OperationIdGenerator("alice", start=len(requested))
            operator = rng.choice(
                [CounterType.increment(), CounterType.add(2), CounterType.read()]
            )
            prev = []
            if requested and rng.random() < 0.4:
                prev = [rng.choice(sorted(requested, key=repr)).id]
            return make_operation(operator, gen.fresh(), prev=prev,
                                  strict=rng.random() < 0.3)

        report = check_esds2_implements_esds1(CounterType(), factory, steps=70, seed=seed)
        assert report.steps_checked > 0
