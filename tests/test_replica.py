"""Tests for the replica state machine (§6.3) and its optimized variants (§10)."""

import pytest

from repro.algorithm.labels import Label
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.commute import CommuteReplicaCore
from repro.algorithm.messages import GossipMessage, RequestMessage
from repro.algorithm.replica import ReplicaCore
from repro.common import INFINITY, ConfigurationError, OperationIdGenerator, SpecificationError
from repro.core.operations import make_operation
from repro.datatypes import CounterType, GSetType

REPLICAS = ("r1", "r2", "r3")


@pytest.fixture
def gen():
    return OperationIdGenerator("alice")


def make_replica(factory=ReplicaCore, rid="r1", data_type=None):
    return factory(rid, REPLICAS, data_type or CounterType())


def submit(replica, operation):
    replica.receive_request(RequestMessage(operation))


class TestConstruction:
    def test_requires_at_least_two_replicas(self):
        with pytest.raises(ConfigurationError):
            ReplicaCore("r1", ("r1",), CounterType())

    def test_replica_must_be_in_list(self):
        with pytest.raises(ConfigurationError):
            ReplicaCore("rX", REPLICAS, CounterType())


class TestDoIt:
    def test_do_it_assigns_own_label(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, op)
        label = replica.do_it(op)
        assert label.replica == "r1"
        assert op in replica.done_here()
        assert replica.label_of(op.id) == label

    def test_do_it_requires_received(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh())
        with pytest.raises(SpecificationError):
            replica.do_it(op)

    def test_do_it_requires_prev_done(self, gen):
        replica = make_replica()
        first = make_operation(CounterType.increment(), gen.fresh())
        second = make_operation(CounterType.read(), gen.fresh(), prev=[first.id])
        submit(replica, second)
        assert not replica.can_do(second)
        with pytest.raises(SpecificationError):
            replica.do_it(second)
        submit(replica, first)
        replica.do_it(first)
        assert replica.can_do(second)
        replica.do_it(second)

    def test_do_it_rejected_twice(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, op)
        replica.do_it(op)
        with pytest.raises(SpecificationError):
            replica.do_it(op)

    def test_labels_increase_with_each_do_it(self, gen):
        replica = make_replica()
        labels = []
        for _ in range(5):
            op = make_operation(CounterType.increment(), gen.fresh())
            submit(replica, op)
            labels.append(replica.do_it(op))
        assert all(a < b for a, b in zip(labels, labels[1:]))

    def test_explicit_label_must_be_own_and_larger(self, gen):
        replica = make_replica()
        first = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, first)
        replica.do_it(first, Label(5, "r1"))
        second = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, second)
        with pytest.raises(SpecificationError):
            replica.do_it(second, Label(3, "r1"))
        with pytest.raises(SpecificationError):
            replica.do_it(second, Label(9, "r2"))
        replica.do_it(second, Label(9, "r1"))

    def test_do_all_ready_resolves_dependency_chains(self, gen):
        replica = make_replica()
        a = make_operation(CounterType.increment(), gen.fresh())
        b = make_operation(CounterType.increment(), gen.fresh(), prev=[a.id])
        c = make_operation(CounterType.read(), gen.fresh(), prev=[b.id])
        for op in (c, b, a):  # delivered out of order
            submit(replica, op)
        done = replica.do_all_ready()
        assert set(done) == {a, b, c}
        assert replica.done_order() == [a, b, c]


class TestResponses:
    def test_value_reflects_label_order(self, gen):
        replica = make_replica()
        inc = make_operation(CounterType.increment(), gen.fresh())
        read = make_operation(CounterType.read(), gen.fresh())
        for op in (inc, read):
            submit(replica, op)
            replica.do_it(op)
        assert replica.compute_value(read) == 1
        assert replica.compute_value(inc) == 1

    def test_nonstrict_response_ready_once_done(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, op)
        assert not replica.response_ready(op)
        replica.do_it(op)
        assert replica.response_ready(op)
        message = replica.make_response(op)
        assert message.value == 1
        assert op not in replica.pending

    def test_strict_response_needs_stability_everywhere(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        submit(replica, op)
        replica.do_it(op)
        assert not replica.response_ready(op)
        # Fake knowledge that the operation is stable everywhere.
        for rid in REPLICAS:
            replica.stable[rid].add(op)
        assert replica.response_ready(op)

    def test_make_response_requires_readiness(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        submit(replica, op)
        replica.do_it(op)
        with pytest.raises(SpecificationError):
            replica.make_response(op)

    def test_compute_value_requires_done(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh())
        with pytest.raises(SpecificationError):
            replica.compute_value(op)


class TestGossip:
    def _two_replicas_with_ops(self, gen):
        r1 = make_replica(rid="r1")
        r2 = make_replica(rid="r2")
        a = make_operation(CounterType.increment(), gen.fresh())
        b = make_operation(CounterType.double(), gen.fresh())
        submit(r1, a)
        r1.do_it(a)
        submit(r2, b)
        r2.do_it(b)
        return r1, r2, a, b

    def test_gossip_transfers_operations_and_labels(self, gen):
        r1, r2, a, b = self._two_replicas_with_ops(gen)
        r2.receive_gossip(r1.make_gossip())
        assert a in r2.done_here()
        assert r2.label_of(a.id) == r1.label_of(a.id)

    def test_gossip_keeps_minimum_label(self, gen):
        r1, r2, a, b = self._two_replicas_with_ops(gen)
        # r2 learns a from r1 then r1 learns b from r2; labels converge to the
        # per-operation minimum on both sides after a second exchange.
        r2.receive_gossip(r1.make_gossip())
        r1.receive_gossip(r2.make_gossip())
        r2.receive_gossip(r1.make_gossip())
        for op in (a, b):
            assert r1.label_of(op.id) == r2.label_of(op.id)

    def test_self_gossip_rejected(self, gen):
        r1 = make_replica(rid="r1")
        message = r1.make_gossip()
        with pytest.raises(SpecificationError):
            r1.receive_gossip(message)

    def test_gossip_from_unknown_replica_rejected(self, gen):
        r1 = make_replica(rid="r1")
        message = GossipMessage(sender="zz", received=frozenset(), done=frozenset())
        with pytest.raises(SpecificationError):
            r1.receive_gossip(message)

    def test_stability_requires_full_round(self, gen):
        replicas = {rid: make_replica(rid=rid) for rid in REPLICAS}
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replicas["r1"], op)
        replicas["r1"].do_it(op)

        def full_round():
            for src in REPLICAS:
                for dst in REPLICAS:
                    if src != dst:
                        replicas[dst].receive_gossip(replicas[src].make_gossip())

        full_round()  # everyone has done the op
        assert all(op in replicas[r].done_here() for r in REPLICAS)
        full_round()  # everyone learns it is done everywhere -> stable
        assert all(op in replicas[r].stable_here() for r in REPLICAS)
        full_round()  # everyone learns it is stable everywhere
        assert all(replicas[r].is_stable_everywhere(op) for r in REPLICAS)

    def test_duplicate_gossip_is_idempotent(self, gen):
        r1, r2, a, b = self._two_replicas_with_ops(gen)
        message = r1.make_gossip()
        r2.receive_gossip(message)
        before = r2.snapshot()
        r2.receive_gossip(message)
        after = r2.snapshot()
        assert before == after


class TestCrashRecovery:
    def test_crash_without_volatile_memory_keeps_state(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, op)
        replica.do_it(op)
        replica.crash(volatile_memory=False)
        assert op in replica.done_here()

    def test_crash_with_volatile_memory_keeps_only_stable_storage(self, gen):
        replica = make_replica()
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, op)
        label = replica.do_it(op)
        replica.crash(volatile_memory=True)
        assert replica.done_here() == set()
        assert replica.label_of(op.id) is INFINITY
        replica.recover_from_stable_storage()
        # The recovered label is no greater than the pre-crash label (§9.3).
        assert replica.label_of(op.id) <= label


class TestMemoizedReplica:
    def _stable_setup(self, gen, factory):
        replicas = {rid: factory(rid, REPLICAS, CounterType()) for rid in REPLICAS}
        ops = []
        for index in range(4):
            op = make_operation(CounterType.increment(), gen.fresh())
            ops.append(op)
            submit(replicas["r1"], op)
        replicas["r1"].do_all_ready()
        for _ in range(3):
            for src in REPLICAS:
                for dst in REPLICAS:
                    if src != dst:
                        replicas[dst].receive_gossip(replicas[src].make_gossip())
        return replicas, ops

    def test_solid_and_memoized_cover_stable_ops(self, gen):
        replicas, ops = self._stable_setup(gen, MemoizedReplicaCore)
        replica = replicas["r1"]
        assert set(ops) <= replica.solid_operations()
        assert set(ops) <= replica.memoized

    def test_memoized_values_match_plain_replica(self, gen):
        memo_replicas, ops = self._stable_setup(gen, MemoizedReplicaCore)
        plain_replicas, plain_ops = self._stable_setup(
            OperationIdGenerator("alice"), ReplicaCore
        )
        for memo_op, plain_op in zip(ops, plain_ops):
            assert (
                memo_replicas["r2"].compute_value(memo_op)
                == plain_replicas["r2"].compute_value(plain_op)
            )

    def test_memoize_precondition(self, gen):
        replica = MemoizedReplicaCore("r1", REPLICAS, CounterType())
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, op)
        replica.do_it(op)
        # Not solid yet (nothing stable), so memoize must be refused.
        with pytest.raises(SpecificationError):
            replica.memoize(op)

    def test_memoization_reduces_value_applications(self, gen):
        memo_replicas, ops = self._stable_setup(gen, MemoizedReplicaCore)
        plain_replicas, plain_ops = self._stable_setup(
            OperationIdGenerator("alice"), ReplicaCore
        )
        for op in ops:
            memo_replicas["r1"].compute_value(op)
        for op in plain_ops:
            plain_replicas["r1"].compute_value(op)
        assert (
            memo_replicas["r1"].stats.value_applications
            < plain_replicas["r1"].stats.value_applications
        )


class TestCommuteReplica:
    def test_values_recorded_at_do_time(self, gen):
        replica = CommuteReplicaCore("r1", REPLICAS, CounterType())
        op = make_operation(CounterType.increment(), gen.fresh())
        submit(replica, op)
        replica.do_it(op)
        assert replica.compute_value(op) == 1
        # No replay is needed: value_applications stays zero.
        assert replica.stats.value_applications == 0

    def test_replicas_converge_on_commuting_workload(self, gen):
        replicas = {rid: CommuteReplicaCore(rid, REPLICAS, GSetType()) for rid in REPLICAS}
        elements = ["a", "b", "c", "d"]
        for index, element in enumerate(elements):
            rid = REPLICAS[index % len(REPLICAS)]
            op = make_operation(GSetType.insert(element), gen.fresh())
            submit(replicas[rid], op)
            replicas[rid].do_it(op)
        for _ in range(3):
            for src in REPLICAS:
                for dst in REPLICAS:
                    if src != dst:
                        replicas[dst].receive_gossip(replicas[src].make_gossip())
        states = {replica.current_state for replica in replicas.values()}
        assert states == {frozenset(elements)}

    def test_memoized_value_replaces_recorded_value(self, gen):
        """``val_r`` follows the order operations were done here; once an
        operation is memoized its response value is the memoized one, which
        follows the label order and so agrees across replicas."""
        pair = ("r1", "r2")
        replicas = {rid: CommuteReplicaCore(rid, pair, CounterType()) for rid in pair}
        first = make_operation(CounterType.increment(), gen.fresh())
        second = make_operation(CounterType.increment(), gen.fresh())
        for rid, op in (("r1", first), ("r2", second)):
            submit(replicas[rid], op)
            replicas[rid].do_it(op)
        assert replicas["r2"].compute_value(second) == 1
        for _ in range(3):
            replicas["r2"].receive_gossip(replicas["r1"].make_gossip())
            replicas["r1"].receive_gossip(replicas["r2"].make_gossip())
        for replica in replicas.values():
            assert {first, second} <= replica.memoized
        order = replicas["r1"].done_order()
        assert order == replicas["r2"].done_order()
        late = order[-1]
        own = "r1" if late is first else "r2"
        # The replica that did *late* itself recorded the value 1 for it ...
        assert replicas[own].values[late] == 1
        # ... but every replica now answers with its label-order value.
        for replica in replicas.values():
            assert replica.compute_value(late) == 2
            assert replica.compute_value(order[0]) == 1

    def test_strict_response_requires_memoization(self, gen):
        replica = CommuteReplicaCore("r1", REPLICAS, CounterType())
        op = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        submit(replica, op)
        replica.do_it(op)
        for rid in REPLICAS:
            replica.stable[rid].add(op)
        # response_ready advances memoization itself once the op is solid.
        assert replica.response_ready(op)
        assert op in replica.memoized
