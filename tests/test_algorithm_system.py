"""Tests for the full algorithm composition ESDS-Alg x Users (§6.4)."""

import random

import pytest

from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import (
    ConfigurationError,
    INFINITY,
    OperationIdGenerator,
    WellFormednessError,
)
from repro.core.operations import make_operation
from repro.datatypes import CounterType, RegisterType
from repro.verification.serializability import check_system_trace


@pytest.fixture
def system():
    return AlgorithmSystem(RegisterType(), ["r1", "r2", "r3"], ["alice", "bob"])


@pytest.fixture
def gen():
    return OperationIdGenerator("alice")


class TestConstruction:
    def test_needs_two_replicas(self):
        with pytest.raises(ConfigurationError):
            AlgorithmSystem(RegisterType(), ["r1"], ["alice"])

    def test_needs_a_client(self):
        with pytest.raises(ConfigurationError):
            AlgorithmSystem(RegisterType(), ["r1", "r2"], [])


class TestRequestPath:
    def test_request_enforces_well_formedness(self, system, gen):
        op = make_operation(RegisterType.write(1), gen.fresh())
        system.request(op)
        with pytest.raises(WellFormednessError):
            system.request(op)

    def test_full_manual_round_trip(self, system, gen):
        op = make_operation(RegisterType.write("v"), gen.fresh())
        system.request(op)
        system.send_request("alice", "r1", op)
        system.receive_request("alice", "r1")
        system.do_it("r1", op)
        message = system.send_response("r1", op)
        assert message.value == "v"
        system.receive_response("r1", "alice", message)
        value = system.response(op)
        assert value == "v"
        assert system.trace.responses == [(op, "v")]

    def test_gossip_propagates_done_sets(self, system, gen):
        op = make_operation(RegisterType.write("v"), gen.fresh())
        system.request(op)
        system.send_request("alice", "r1", op)
        system.receive_request("alice", "r1")
        system.do_it("r1", op)
        system.send_gossip("r1", "r2")
        system.receive_gossip("r1", "r2")
        assert op in system.replicas["r2"].done_here()


    def test_group_surface_matches_the_simulated_cluster(self, system, gen):
        """``requested`` / ``responded`` / ``failed`` /
        ``outstanding_operations`` / ``inject_operation`` read the same way
        as on a :class:`~repro.sim.cluster.SimulatedCluster`."""
        first = make_operation(RegisterType.write("a"), gen.fresh())
        system.request(first)
        migrated = make_operation(
            RegisterType.write("b"), OperationIdGenerator("carol@s0").fresh(), prev={first.id}
        )
        system.inject_operation(migrated)
        assert "carol@s0" in system.frontends
        assert system.requested == {first.id: first, migrated.id: migrated}
        assert system.outstanding_operations() == 2
        system.drain(random.Random(1))
        assert system.responded == {first.id: "a", migrated.id: "b"}
        assert system.failed == {} and system.outstanding_operations() == 0


class TestDerivedVariables:
    def test_ops_and_minlabel(self, system, gen):
        op = make_operation(RegisterType.write("v"), gen.fresh())
        system.request(op)
        assert system.ops() == set()
        assert system.minlabel(op.id) is INFINITY
        system.send_request("alice", "r1", op)
        system.receive_request("alice", "r1")
        system.do_it("r1", op)
        assert system.ops() == {op}
        assert system.minlabel(op.id) is not INFINITY

    def test_partial_order_contains_csc(self, system, gen):
        first = make_operation(RegisterType.write("a"), gen.fresh())
        second = make_operation(RegisterType.read(), gen.fresh(), prev=[first.id])
        for op in (first, second):
            system.request(op)
            system.send_request("alice", "r1", op)
            system.receive_request("alice", "r1")
        system.do_it("r1", first)
        system.do_it("r1", second)
        assert system.partial_order().precedes(first.id, second.id)

    def test_stable_everywhere_after_drain(self, system, gen):
        op = make_operation(RegisterType.write("a"), gen.fresh())
        system.request(op)
        system.send_request("alice", "r2", op)
        system.receive_request("alice", "r2")
        system.do_it("r2", op)
        system.drain(random.Random(0))
        assert op in system.stable_everywhere()
        assert system.eventual_order() == [op.id]

    def test_potential_rept_tracks_in_flight_responses(self, system, gen):
        op = make_operation(RegisterType.write("a"), gen.fresh())
        system.request(op)
        system.send_request("alice", "r1", op)
        system.receive_request("alice", "r1")
        system.do_it("r1", op)
        system.send_response("r1", op)
        assert system.potential_rept("alice") == {(op, "a")}
        system.receive_response("r1", "alice")
        assert system.potential_rept("alice") == set()


class TestRandomExecution:
    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_random_runs_answer_all_requests(self, seed):
        system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["alice", "bob"])
        rng = random.Random(seed)
        gens = {c: OperationIdGenerator(c) for c in ["alice", "bob"]}
        history = []
        for index in range(6):
            client = rng.choice(["alice", "bob"])
            operator = rng.choice(
                [CounterType.increment(), CounterType.add(2), CounterType.read()]
            )
            prev = [history[-1].id] if history and rng.random() < 0.5 else []
            op = make_operation(operator, gens[client].fresh(), prev=prev,
                                strict=rng.random() < 0.3)
            history.append(op)
            system.request(op)
        system.run_random(rng, steps=400)
        system.drain(rng)
        system.run_random(rng, steps=400)
        assert len(system.trace.responses) == 6
        check_system_trace(system, check_nonstrict=False)

    def test_witness_covers_all_requests(self):
        system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["alice"])
        gen = OperationIdGenerator("alice")
        pending = make_operation(CounterType.increment(), gen.fresh())
        system.request(pending)
        witness = system.eventual_order()
        assert pending.id in witness


class TestWithMemoizedReplicas:
    def test_memoized_factory_round_trip(self):
        system = AlgorithmSystem(
            CounterType(), ["r1", "r2"], ["alice"], replica_factory=MemoizedReplicaCore
        )
        gen = OperationIdGenerator("alice")
        rng = random.Random(5)
        for index in range(4):
            op = make_operation(CounterType.increment(), gen.fresh(), strict=(index == 3))
            system.request(op)
        system.run_random(rng, steps=300)
        system.drain(rng)
        system.run_random(rng, steps=300)
        assert len(system.trace.responses) == 4
        check_system_trace(system)
