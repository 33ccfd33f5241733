"""Stability-driven checkpoint compaction (bounded-memory replicas).

The load-bearing property mirrors PR 1's delta-gossip argument: compaction
only ever drops records of operations that are *stable everywhere* — whose
position in the eventual total order, and therefore whose value, is fixed
forever (Invariant 7.2 / Theorem 5.8) — so a compacting system driven by the
same seeded scheduler goes through an execution with identical responses,
identical eventual order and identical invariant obligations, while its
tracked per-operation state stays proportional to the unstable suffix.

The suite covers: the compact id summary, the shared retained-value ledger
(a captured checkpoint never sees a later fold), lockstep equivalence against an
uncompacted twin (action-level and simulated, all replica variants), the
sorted-suffix ``done_order`` cache, retransmitted requests for compacted
operations, value-retention eviction, crash + incarnation-bump recovery
through the persisted checkpoint, delta gossip to a peer behind the
frontier, and the compaction config threading in the sharded service layer.
"""

import dataclasses
import random

import pytest

from repro.algorithm.checkpoint import (
    Checkpoint,
    CompactionPolicy,
    OpIdSummary,
    ValueLedger,
)
from repro.algorithm.commute import CommuteReplicaCore
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.labels import Label
from repro.algorithm.messages import GossipMessage, RequestMessage, checkpoint_transfers
from repro.algorithm.replica import ReplicaCore, TransferAssembly
from repro.algorithm.system import AlgorithmSystem
from repro.common import ConfigurationError, OperationId, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.net.codec import encode_message
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import KeyedWorkloadSpec, WorkloadSpec, run_workload
from repro.spec.users import SafeUsers
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.outcome import check_trace


# --------------------------------------------------------------------------- #
# OpIdSummary / policy basics                                                 #
# --------------------------------------------------------------------------- #


class TestOpIdSummary:
    def test_membership_and_count(self):
        ids = [OperationId("a", i) for i in (0, 1, 2, 5)] + [OperationId("b", 3)]
        summary = OpIdSummary().with_ids(ids)
        assert len(summary) == 5
        for op_id in ids:
            assert op_id in summary
        assert OperationId("a", 3) not in summary
        assert OperationId("c", 0) not in summary

    def test_contiguous_ids_coalesce_to_one_interval_per_client(self):
        summary = OpIdSummary().with_ids(
            [OperationId("a", i) for i in range(100)]
            + [OperationId("b", i) for i in range(50)]
        )
        assert summary.count == 150
        assert summary.interval_count == 2

    def test_gap_filling_merges_intervals(self):
        summary = OpIdSummary().with_ids([OperationId("a", 0), OperationId("a", 2)])
        assert summary.interval_count == 2
        summary = summary.with_ids([OperationId("a", 1)])
        assert summary.interval_count == 1
        assert summary.count == 3

    def test_subset_and_intersection(self):
        small = OpIdSummary().with_ids([OperationId("a", i) for i in range(4)])
        large = small.with_ids(
            [OperationId("a", i) for i in range(4, 8)] + [OperationId("b", 0)]
        )
        assert small.issubset(large)
        assert not large.issubset(small)
        assert small.intersection_count(large) == 4
        assert large.intersection_count(small) == 4
        assert OpIdSummary().issubset(small)

    def test_merged_values_keeps_newest_under_retention(self):
        """Adoption merges the adopter's (older, prefix) values with the
        incoming (newer) ones oldest-first, so retention eviction drops the
        oldest — a retransmit for a recently answered operation must stay
        answerable after recovery."""
        from repro.algorithm.labels import Label

        ours = Checkpoint(
            base_state=2, frontier=Label(1, "r1"),
            ids=OpIdSummary().with_ids([OperationId("a", 0), OperationId("a", 1)]),
            values={OperationId("a", 0): 1, OperationId("a", 1): 2},
        )
        newer = {OperationId("a", 8): 9, OperationId("a", 9): 10}
        merged = ours.merged_values(newer, value_retention=2)
        assert merged == newer

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            CompactionPolicy(min_batch=0)
        with pytest.raises(ConfigurationError):
            CompactionPolicy(value_retention=-1)
        with pytest.raises(ConfigurationError):
            ReplicaConfig(compaction_interval=1.0)  # interval without policy
        with pytest.raises(ConfigurationError):
            ReplicaConfig(compaction=CompactionPolicy(), compaction_interval=0.0)


# --------------------------------------------------------------------------- #
# The retained-value ledger is shared, never copied, and never mutated         #
# --------------------------------------------------------------------------- #


def fold_batch(checkpoint, ids, retention):
    """Fold one batch of ``add(seqno)`` operations with the given ids."""
    ops = [make_operation(CounterType.add(op_id.seqno), op_id) for op_id in ids]
    labels = {op.id: Label(op.id.seqno, "r1") for op in ops}
    folded, applications = checkpoint.extend(
        ops, CounterType(), labels, value_retention=retention
    )
    assert applications == len(ops)
    return folded


def captured_checkpoint(origin, retention, gen):
    """A checkpoint built the way *origin* builds one: a fold, an adoption
    merge (``merged_values``), or a reassembled transfer (``assemble``)."""
    older = fold_batch(Checkpoint.empty(0), [gen.fresh() for _ in range(2)], retention)
    newer = fold_batch(older, [gen.fresh() for _ in range(3)], retention)
    if origin == "extend":
        return newer
    if origin == "merged_values":
        return dataclasses.replace(
            newer, values=older.merged_values(dict(newer.values.items()), retention)
        )
    transfers = checkpoint_transfers(newer, "r2", "r1", epoch=0, chunk=2)
    return TransferAssembly(
        digest=newer.digest(), epoch=0, frontier=newer.frontier,
        chunk_count=len(transfers), chunks={m.chunk_index: m for m in transfers},
    ).assemble()


def observe(checkpoint, ids):
    """Everything a holder of *checkpoint* can read off its ledger."""
    values = checkpoint.values
    return (
        list(values.items()),
        len(values),
        [op_id in values for op_id in ids],
        dataclasses.replace(checkpoint).digest(),  # recomputed, not cached
        checkpoint.value_chunks(2),
        checkpoint.value_chunks(None),
        encode_message(GossipMessage(
            sender="r2", received=frozenset(), done=frozenset(), checkpoint=checkpoint,
        )),
    )


class TestValueLedger:
    @pytest.mark.parametrize("retention", [None, 0, 1, 4])
    @pytest.mark.parametrize("origin", ["extend", "merged_values", "assemble"])
    def test_captured_checkpoint_never_sees_a_later_fold(self, origin, retention):
        """A checkpoint held by an in-flight gossip message or a delta basis
        keeps its ledger, digest, chunks and bytes however far later folds
        (two branches of them, sharing its parts) evict past its head."""
        gen = OperationIdGenerator("c")
        captured = captured_checkpoint(origin, retention, gen)
        every_id = [OperationId("c", seqno) for seqno in range(40)]
        before = observe(captured, every_id)
        folded = list(captured.values.items())
        for _branch in range(2):
            checkpoint, model, state = captured, list(folded), captured.base_state
            for size in (1, 3, 2, 4):
                batch = [gen.fresh() for _ in range(size)]
                checkpoint = fold_batch(checkpoint, batch, retention)
                for op_id in batch:
                    state += op_id.seqno  # a counter add reports the new total
                    model.append((op_id, state))
                kept = model if retention is None else model[len(model) - retention:]
                assert list(checkpoint.values.items()) == kept
                assert len(checkpoint.values) == checkpoint.values.footprint == len(kept)
                assert all(op_id in checkpoint.values for op_id, _ in kept)
                assert all(checkpoint.values[op_id] == value for op_id, value in kept)
            assert observe(captured, every_id) == before

    def test_a_dict_handed_to_a_checkpoint_is_copied(self):
        values = {OperationId("c", 0): 1}
        checkpoint = Checkpoint(
            base_state=1, frontier=Label(0, "r1"),
            ids=OpIdSummary().with_ids(values), values=values,
        )
        assert isinstance(checkpoint.values, ValueLedger)
        values[OperationId("c", 1)] = 2
        assert list(checkpoint.values.items()) == [(OperationId("c", 0), 1)]


# --------------------------------------------------------------------------- #
# Replica-level mechanics                                                     #
# --------------------------------------------------------------------------- #


def make_pair(policy=None, data_type=None, delta=False):
    ids = ["r1", "r2"]
    replicas = [ReplicaCore(rid, ids, data_type or CounterType()) for rid in ids]
    for replica in replicas:
        if policy is not None:
            replica.configure_compaction(policy)
        if delta:
            replica.configure_delta_gossip(True, full_state_interval=100)
    return replicas


def feed(replica, count, gen, data_type=CounterType):
    ops = [make_operation(data_type.increment(), gen.fresh()) for _ in range(count)]
    for op in ops:
        replica.receive_request(RequestMessage(op))
    replica.do_all_ready()
    return ops


def exchange(r1, r2, rounds=1):
    for _ in range(rounds):
        r2.receive_gossip(r1.make_gossip("r2"))
        r1.receive_gossip(r2.make_gossip("r1"))


class TestReplicaCompaction:
    def test_pending_operations_are_never_compacted(self):
        r1, r2 = make_pair(CompactionPolicy(min_batch=1))
        gen = OperationIdGenerator("c")
        ops = feed(r1, 6, gen)
        exchange(r1, r2, rounds=3)
        # Everything is stable everywhere at r1, but all 6 are still pending
        # (no response was sent): nothing may be folded.
        assert all(r1.is_stable_everywhere(op) for op in ops)
        assert r1.maybe_compact(force=True) == 0
        assert r1.checkpoint.count == 0
        # Answer them; now the prefix folds.
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        assert r1.maybe_compact(force=True) == 6
        assert r1.tracked_op_count() == 0
        assert r1.checkpoint.frontier is not None

    def test_min_batch_gate_and_force(self):
        r1, r2 = make_pair(CompactionPolicy(min_batch=10))
        gen = OperationIdGenerator("c")
        feed(r1, 4, gen)
        for op in list(r1.pending):
            r1.pending.discard(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 0  # below min_batch, opportunistic pass skipped
        assert r1.maybe_compact() == 0
        assert r1.maybe_compact(force=True) == 4

    def test_compacted_values_answer_retransmitted_requests(self):
        r1, r2 = make_pair(CompactionPolicy(min_batch=1))
        gen = OperationIdGenerator("c")
        ops = feed(r1, 5, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 5
        # A duplicate request (the front end resends when the response was
        # lost) for a compacted operation is answered with the fixed value.
        r1.receive_request(RequestMessage(ops[2]))
        assert r1.response_ready(ops[2])
        assert r1.make_response(ops[2]).value == 3
        assert r1.tracked_op_count() == 0  # the retransmit did not re-track it

    def test_value_retention_bounds_the_ledger(self):
        r1, r2 = make_pair(CompactionPolicy(min_batch=1, value_retention=2))
        gen = OperationIdGenerator("c")
        ops = feed(r1, 6, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 6
        assert len(r1.checkpoint.values) == 2
        # Values for the newest compacted operations survive; older ones are
        # evicted, so a very late retransmit cannot be answered here — and
        # must not be queued either (a permanently unanswerable pending
        # entry would grow without bound under retransmission).
        r1.receive_request(RequestMessage(ops[5]))
        assert r1.response_ready(ops[5])
        r1.pending.discard(ops[5])
        pending_before = set(r1.pending)
        r1.receive_request(RequestMessage(ops[0]))
        assert not r1.response_ready(ops[0])
        assert r1.pending == pending_before

    def test_eviction_drops_stranded_pending_entries(self):
        """A compacted operation re-queued while its value was retained must
        leave pending when a later fold evicts that value."""
        r1, r2 = make_pair(CompactionPolicy(min_batch=1, value_retention=2))
        gen = OperationIdGenerator("c")
        ops = feed(r1, 2, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 2
        r1.receive_request(RequestMessage(ops[0]))  # value still retained
        assert ops[0] in r1.pending
        later = feed(r1, 3, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)  # folds 3 more; retention=2 evicts ops[0]
        assert r1.checkpoint.count == 5
        assert ops[0].id not in r1.checkpoint.values
        assert ops[0] not in r1.pending

    @pytest.mark.parametrize("factory", [
        ReplicaCore, FastReplicaCore, MemoizedReplicaCore, CommuteReplicaCore,
    ], ids=["base", "incremental", "memoized", "commute"])
    def test_every_variant_answers_retransmits_for_compacted_ops(self, factory):
        """The checkpoint-value answer path is part of the replica contract:
        every variant must honour it (the Commute override once broke it)."""
        ids = ["r1", "r2"]
        config = ReplicaConfig(compaction=CompactionPolicy(min_batch=1))
        r1 = factory("r1", ids, CounterType())
        config.configure_core(r1)
        r2 = factory("r2", ids, CounterType())
        config.configure_core(r2)
        gen = OperationIdGenerator("c")
        ops = feed(r1, 4, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 4
        r1.receive_request(RequestMessage(ops[1]))  # response was lost; retransmit
        assert r1.response_ready(ops[1])
        assert r1.make_response(ops[1]).value == 2
        assert ops[1] not in r1.pending

    def test_commute_state_survives_fold_of_op_learned_as_stable(self):
        """Regression: an operation a Commute replica first learns from a
        message that already lists it stable (crash-recovery catch-up) must
        reach ``cs_r`` before any compaction folds it — otherwise later
        values are computed from a state missing its effect."""
        ids = ["r1", "r2"]
        r1 = CommuteReplicaCore("r1", ids, CounterType())
        r2 = CommuteReplicaCore("r2", ids, CounterType())
        gen = OperationIdGenerator("c")
        ops = feed(r1, 1, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=2)  # r1 now knows the op is stable everywhere
        assert ops[0] in r1.stable_here()
        r2.crash(volatile_memory=True)
        r2.recover_from_stable_storage()
        r2.configure_compaction(CompactionPolicy(min_batch=1))
        # One message delivers the op as done+stable AND triggers the fold.
        r2.receive_gossip(r1.make_gossip())
        assert r2.checkpoint.count == 1
        assert r2.current_state == 1  # cs_r saw the op before the fold
        # A further increment done at r2 is computed on top of that state.
        follow_up = feed(r2, 1, OperationIdGenerator("d"))[0]
        assert r2.compute_value(follow_up) == 2
        assert r2.replayed_state() == 2

    def test_adoption_prunes_unanswerable_pending_entries(self):
        """A recovering replica holding a retransmitted request it cannot
        answer after adopting a peer's checkpoint (the operation is covered
        but its value was evicted at the sender) must drop the entry rather
        than keep it pending forever."""
        ids = ["r1", "r2"]
        r1 = ReplicaCore("r1", ids, CounterType())
        r1.configure_compaction(CompactionPolicy(min_batch=1, value_retention=1))
        r2 = ReplicaCore("r2", ids, CounterType())
        gen = OperationIdGenerator("c")
        ops = feed(r1, 5, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 5
        assert ops[0].id not in r1.checkpoint.values  # evicted
        r2.crash(volatile_memory=True)
        r2.recover_from_stable_storage()
        # The retransmit lands before the catch-up gossip.
        r2.receive_request(RequestMessage(ops[0]))
        assert ops[0] in r2.pending
        r2.receive_gossip(r1.make_gossip())  # wholesale adoption
        assert r2.checkpoint.count == 5
        assert ops[0] not in r2.pending
        assert not r2.response_ready(ops[0])

    def test_stable_storage_is_pruned_and_frontier_bounds_labels(self):
        r1, r2 = make_pair(CompactionPolicy(min_batch=1))
        gen = OperationIdGenerator("c")
        feed(r1, 8, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 8
        assert len(r1._stable_storage) == 0
        extra = feed(r1, 3, gen)
        frontier = r1.checkpoint.frontier
        for op in extra:
            assert frontier < r1.label_of(op.id)

    def test_gossip_after_compaction_never_resends_folded_knowledge(self):
        r1, r2 = make_pair(CompactionPolicy(min_batch=1), delta=True)
        gen = OperationIdGenerator("c")
        feed(r1, 6, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=4)  # establish acks, spread stability, compact
        assert r1.checkpoint.count == 6
        assert r2.checkpoint.count == 6
        message = r1.make_gossip("r2")
        assert message.is_delta
        assert not message.received and not message.done and not message.stable
        assert not message.labels
        assert message.checkpoint is None  # frontier already conveyed

    def test_behind_peer_catches_up_from_checkpoint_not_history(self):
        """The catch-up path: a peer that lost its state (volatile crash,
        bumped incarnation) receives a full-state message whose payload is
        only the suffix — the prefix arrives as the checkpoint and is
        adopted wholesale."""
        r1, r2 = make_pair(CompactionPolicy(min_batch=1), delta=True)
        gen = OperationIdGenerator("c")
        feed(r1, 10, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=4)
        assert r1.checkpoint.count == 10
        old_epoch = r2._epoch
        r2.crash(volatile_memory=True)
        r2.recover_from_stable_storage()
        assert r2._epoch == old_epoch + 1
        assert r2.checkpoint.count == 10  # the checkpoint survived the crash
        fresh = feed(r1, 2, gen)
        # r1 observes the bumped incarnation on r2's first post-crash gossip
        # and resets the stream; its next send is full-state.
        r1.receive_gossip(r2.make_gossip("r1"))
        catch_up = r1.make_gossip("r2")
        assert not catch_up.is_delta
        assert catch_up.checkpoint is not None and catch_up.checkpoint.count == 10
        assert len(catch_up.done) == 2  # only the unstable suffix travels
        r2.receive_gossip(catch_up)
        assert r2.done_here() >= set(fresh)
        assert r2.replayed_state() == r1.replayed_state() == 12

    def test_recovering_peer_without_own_checkpoint_adopts_wholesale(self):
        """A peer that never compacted (no policy) still adopts a gossiped
        checkpoint when it is missing part of the prefix after a crash."""
        ids = ["r1", "r2"]
        r1 = ReplicaCore("r1", ids, CounterType())
        r1.configure_compaction(CompactionPolicy(min_batch=1))
        r2 = ReplicaCore("r2", ids, CounterType())
        gen = OperationIdGenerator("c")
        feed(r1, 7, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 7
        r2.crash(volatile_memory=True)
        r2.recover_from_stable_storage()
        assert r2.checkpoint.count == 0
        r2.receive_gossip(r1.make_gossip())
        assert r2.checkpoint.count == 7
        assert r2.replayed_state() == 7
        # Invariant: nothing below the adopted frontier is tracked.
        assert all(r2.checkpoint.frontier < label for label in r2.labels.values())

    def test_labels_generated_after_adoption_exceed_adopted_frontier(self):
        ids = ["r1", "r2"]
        r1 = ReplicaCore("r1", ids, CounterType())
        r1.configure_compaction(CompactionPolicy(min_batch=1))
        r2 = ReplicaCore("r2", ids, CounterType())
        gen = OperationIdGenerator("c")
        feed(r1, 5, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        r2.crash(volatile_memory=True)
        r2.recover_from_stable_storage()
        r2.receive_gossip(r1.make_gossip())
        assert r2.checkpoint.count == 5
        new_op = feed(r2, 1, OperationIdGenerator("d"))[0]
        assert r2.checkpoint.frontier < r2.label_of(new_op.id)

    def test_explicit_label_below_frontier_is_rejected(self):
        from repro.algorithm.labels import Label
        from repro.common import SpecificationError

        r1, r2 = make_pair(CompactionPolicy(min_batch=1))
        gen = OperationIdGenerator("c")
        feed(r1, 3, gen)
        for op in list(r1.ready_responses()):
            r1.make_response(op)
        exchange(r1, r2, rounds=3)
        assert r1.checkpoint.count == 3
        straggler = make_operation(CounterType.increment(), gen.fresh())
        r1.receive_request(RequestMessage(straggler))
        with pytest.raises(SpecificationError):
            r1.do_it(straggler, Label(rank=0, replica="r1"))


# --------------------------------------------------------------------------- #
# done_order sorted-suffix cache (satellite)                                  #
# --------------------------------------------------------------------------- #


class TestDoneOrderCache:
    def test_do_it_appends_without_resorting(self):
        ids = ["r1", "r2"]
        r1 = ReplicaCore("r1", ids, CounterType())
        gen = OperationIdGenerator("c")
        feed(r1, 1, gen)
        baseline = r1.stats.done_order_sorts
        for _ in range(50):
            feed(r1, 1, gen)
            order = r1.done_order()
            assert [x.id.seqno for x in order] == sorted(x.id.seqno for x in order)
        # One initial sort at most; every later call extends the cache.
        assert r1.stats.done_order_sorts <= baseline + 1

    def test_gossip_reorder_invalidates_exactly_when_labels_change(self):
        r1, r2 = make_pair()
        gen1, gen2 = OperationIdGenerator("a"), OperationIdGenerator("b")
        feed(r1, 3, gen1)
        feed(r2, 3, gen2)
        r1.done_order()
        sorts_before = r1.stats.done_order_sorts
        # Merging r2's knowledge adds done operations -> cache invalidated.
        r1.receive_gossip(r2.make_gossip())
        r1.done_order()
        assert r1.stats.done_order_sorts == sorts_before + 1
        # An idle merge (nothing new) keeps the cache.
        r1.receive_gossip(r2.make_gossip())
        r1.done_order()
        assert r1.stats.done_order_sorts == sorts_before + 1

    def test_cached_order_matches_fresh_sort_under_random_merges(self):
        from repro.algorithm.labels import label_sort_key

        rng = random.Random(3)
        r1, r2 = make_pair()
        gens = {"r1": OperationIdGenerator("a"), "r2": OperationIdGenerator("b")}
        replicas = {"r1": r1, "r2": r2}
        for _ in range(120):
            rid = rng.choice(["r1", "r2"])
            action = rng.random()
            if action < 0.5:
                feed(replicas[rid], 1, gens[rid])
            else:
                src = "r2" if rid == "r1" else "r1"
                replicas[rid].receive_gossip(replicas[src].make_gossip())
                replicas[rid].do_all_ready()
            order = replicas[rid].done_order()
            expected = sorted(
                replicas[rid].done_here(),
                key=lambda x: label_sort_key(replicas[rid].label_of(x.id)),
            )
            assert order == expected

    def test_value_computation_counts_unchanged_by_cache(self):
        """Regression: the cache must change how often we sort, never the
        replay itself — application counts and values stay identical for the
        same deterministic run."""
        def drive(cluster):
            spec = WorkloadSpec(operations_per_client=25, mean_interarrival=0.5,
                                strict_fraction=0.2)
            run_workload(cluster, spec, seed=11)
            return cluster

        cluster = drive(SimulatedCluster(CounterType(), 3, ["c0"], seed=4))
        total_ops = len(cluster.requested)
        applications = cluster.total_value_applications()
        responses = cluster.metrics.completed
        assert responses == total_ops
        # From-scratch replay applies the whole prefix per response; the
        # sort cache must not have changed that accounting.
        assert applications >= responses
        sorts = sum(rep.stats.done_order_sorts for rep in cluster.replicas.values())
        calls = sum(rep.stats.responses_sent for rep in cluster.replicas.values())
        assert sorts <= calls + 3 * total_ops  # merges can invalidate, appends cannot


# --------------------------------------------------------------------------- #
# Lockstep equivalence: compacted vs uncompacted twin                         #
# --------------------------------------------------------------------------- #


def build_system(compaction, factory=None, delta=False, data_type=None, users=None):
    return AlgorithmSystem(
        data_type or CounterType(), ["r1", "r2", "r3"], ["alice", "bob"],
        replica_factory=factory, users=users,
        config=ReplicaConfig(
            delta_gossip=delta,
            full_state_interval=5,
            compaction=CompactionPolicy(min_batch=1) if compaction else None,
        ),
    )


def drive_random(system, seed, requests=8, steps=600, strict_fraction=0.3):
    rng = random.Random(seed)
    clients = list(system.client_ids)
    gens = {c: OperationIdGenerator(c) for c in clients}
    history = []
    for _ in range(requests):
        client = rng.choice(clients)
        operator = rng.choice(
            [CounterType.increment(), CounterType.add(2), CounterType.read()]
        )
        prev = [history[-1].id] if history and rng.random() < 0.5 else []
        op = make_operation(operator, gens[client].fresh(), prev=prev,
                            strict=rng.random() < strict_fraction)
        history.append(op)
        system.request(op)
    system.run_random(rng, steps=steps)
    system.drain(rng)
    system.run_random(rng, steps=steps)
    return system


class TestLockstepEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    def test_seeded_executions_are_identical(self, seed, delta):
        plain = drive_random(build_system(compaction=False, delta=delta), seed)
        compacted = drive_random(build_system(compaction=True, delta=delta), seed)

        assert plain.trace.responses == compacted.trace.responses
        assert plain.ops() == compacted.ops()
        assert plain.eventual_order() == compacted.eventual_order()
        # The twin actually compacted, and its tracked state shrank.
        folded = sum(r.checkpoint.count for r in compacted.replicas.values())
        assert folded > 0
        for rid in plain.replica_ids:
            tracked = compacted.replicas[rid].tracked_op_count()
            assert tracked <= plain.replicas[rid].tracked_op_count()
            assert tracked + compacted.replicas[rid].checkpoint.count == len(
                plain.replicas[rid].rcvd
            )

    @pytest.mark.parametrize("factory", [
        FastReplicaCore, MemoizedReplicaCore,
    ], ids=["incremental", "memoized"])
    def test_optimized_replicas_agree_under_compaction(self, factory):
        plain = drive_random(build_system(compaction=False), seed=17)
        variant = drive_random(build_system(compaction=True, factory=factory), seed=17)
        assert plain.trace.responses == variant.trace.responses
        assert sum(r.checkpoint.count for r in variant.replicas.values()) > 0

    def test_commute_replicas_agree_under_compaction(self):
        def build(compaction):
            return drive_random(
                build_system(compaction, factory=CommuteReplicaCore,
                             data_type=GSetType(), users=SafeUsers(GSetType())),
                seed=23, strict_fraction=0.0)

        def commuting_drive(system, seed):
            rng = random.Random(seed)
            gens = {c: OperationIdGenerator(c) for c in system.client_ids}
            for index in range(8):
                client = rng.choice(list(system.client_ids))
                system.request(make_operation(GSetType.insert(index),
                                              gens[client].fresh()))
            system.run_random(rng, steps=600)
            system.drain(rng)
            return system

        plain = commuting_drive(build_system(False, factory=CommuteReplicaCore,
                                             data_type=GSetType(), users=SafeUsers(GSetType())), 23)
        compacted = commuting_drive(build_system(True, factory=CommuteReplicaCore,
                                                 data_type=GSetType(), users=SafeUsers(GSetType())), 23)
        assert plain.trace.responses == compacted.trace.responses
        assert sum(r.checkpoint.count for r in compacted.replicas.values()) > 0

    def test_invariants_hold_at_every_step_with_compaction(self):
        system = AlgorithmSystem(
            CounterType(), ["r1", "r2"], ["alice"],
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1)),
        )
        gen = OperationIdGenerator("alice")
        rng = random.Random(1)
        for index in range(5):
            system.request(
                make_operation(CounterType.increment(), gen.fresh(), strict=(index == 4))
            )
        checker = AlgorithmInvariantChecker(system)
        system.run_random(rng, steps=200, step_hook=checker)
        system.drain(rng)
        checker.check_all()
        assert len(system.trace.responses) == 5
        assert len(system.compaction_ledger.prefix) > 0

    def test_trace_oracle_passes_on_compacted_system(self):
        system = drive_random(build_system(compaction=True, delta=True), seed=13)
        check_trace(system).raise_for_failure()

    def test_simulation_relation_holds_with_compaction(self):
        """The forward simulation to ESDS-II must keep matching after folds:
        compaction removes stable operations from the raw stable sets, but
        the spec's ``stabilized`` is monotone — ``stable_everywhere`` is
        evaluated on the checkpoint + suffix view."""
        from repro.verification.simulation_check import AlgorithmToSpecSimulation

        system = AlgorithmSystem(
            RegisterType(), ["r1", "r2"], ["alice"],
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1)),
        )
        sim = AlgorithmToSpecSimulation(system)
        gen = OperationIdGenerator("alice")
        rng = random.Random(2)
        for index in range(4):
            sim.request(make_operation(RegisterType.write(index), gen.fresh(),
                                       strict=(index == 3)))
        sim.run_random(rng, steps=250)
        assert sim.report().steps_checked > 0
        assert sum(r.checkpoint.count for r in system.replicas.values()) > 0


# --------------------------------------------------------------------------- #
# Simulated cluster twins + crash recovery                                    #
# --------------------------------------------------------------------------- #


def sim_params(compaction, retransmit_interval=None, **features):
    if compaction:
        features.setdefault("compaction", CompactionPolicy(min_batch=4))
        features.setdefault("compaction_interval", 8.0)
    return SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0, retransmit_interval=retransmit_interval,
        replica=ReplicaConfig(**features),
    )


class TestSimulatedCompaction:
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    def test_twin_runs_produce_identical_responses(self, delta):
        def run(compaction):
            cluster = SimulatedCluster(
                RegisterType(), 3, ["c0", "c1"],
                params=sim_params(compaction, delta_gossip=delta), seed=9,
            )
            spec = WorkloadSpec(
                operations_per_client=40, mean_interarrival=0.5,
                strict_fraction=0.2, prev_policy="last_own",
                operator_factory=lambda rng, i: (
                    RegisterType.write(rng.randint(0, 50))
                    if rng.random() < 0.6 else RegisterType.read()),
            )
            run_workload(cluster, spec, seed=31)
            return cluster

        plain, compacted = run(False), run(True)
        assert plain.responded == compacted.responded
        assert compacted.metrics.peak_tracked_ops() < plain.metrics.peak_tracked_ops()
        assert len(compacted.compacted_prefix) > 0
        AlgorithmInvariantChecker(compacted).check_all()
        check_trace(compacted).raise_for_failure()

    def test_crash_mid_compaction_with_incarnation_bump(self):
        """A replica crashes (volatile) while the cluster has compacted, the
        epoch bumps, and recovery rebuilds from the persisted checkpoint plus
        catch-up gossip; a strict read then sees every increment."""
        params = sim_params(True, delta_gossip=True, retransmit_interval=4.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=2)
        for _ in range(30):
            cluster.execute("c0", CounterType.increment())
        cluster.run(30.0)  # let stability spread and compaction fold
        victim = cluster.replicas["r1"]
        assert victim.checkpoint.count > 0
        epoch_before = victim._epoch
        cluster.crash_replica("r1", volatile_memory=True)
        cluster.run(6.0)
        cluster.recover_replica("r1")
        cluster.run(20.0)
        assert victim._epoch == epoch_before + 1
        _, value = cluster.execute("c0", CounterType.read(), strict=True)
        assert value == 30
        assert victim.replayed_state() == 30
        AlgorithmInvariantChecker(cluster).check_all()

    def test_interval_driven_compaction_without_gossip_trigger(self):
        """The forced interval sweep folds even when min_batch is never
        reached opportunistically."""
        params = sim_params(True)
        params = SimulationParams(
            df=1.0, dg=1.0, gossip_period=2.0,
            replica=ReplicaConfig(
                compaction=CompactionPolicy(min_batch=10_000),
                compaction_interval=5.0,
            ),
        )
        cluster = SimulatedCluster(CounterType(), 2, ["c0"], params=params, seed=0)
        for _ in range(10):
            cluster.execute("c0", CounterType.increment())
        cluster.run(40.0)
        assert len(cluster.compacted_prefix) > 0


# --------------------------------------------------------------------------- #
# Service layer threading                                                     #
# --------------------------------------------------------------------------- #


class TestServiceLayerCompaction:
    def test_sharded_cluster_threads_policy_per_shard(self):
        policy = CompactionPolicy(min_batch=1)
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            client_ids=["c0"], seed=5,
            config=ReplicaConfig(compaction={"s0": policy}),
        )
        s0_cores = cluster.shards["s0"].replicas.values()
        s1_cores = cluster.shards["s1"].replicas.values()
        assert all(core.compaction is policy for core in s0_cores)
        assert all(core.compaction is None for core in s1_cores)

        for index in range(12):
            cluster.submit("c0", f"k{index % 4}", CounterType.increment())
            cluster.run(0.5)
        cluster.run_until_idle()
        cluster.run(60.0)  # extra gossip so every shard quiesces
        assert cluster.outstanding_operations() == 0
        cluster.check_invariants()
        cluster.check_traces()
        compacted = sum(core.checkpoint.count for core in s0_cores)
        assert compacted > 0
        # Ids are minted per (client, shard), so a shard's compacted prefix
        # is a contiguous per-client seqno run: the summary holds at most
        # one interval per client, not one fragment per interleaving.
        for core in s0_cores:
            if core.checkpoint.count:
                intervals = sum(len(iv) for iv in core.checkpoint.ids.ranges.values())
                assert intervals <= len(cluster.client_ids)

    def test_sharded_cluster_accepts_per_shard_disable(self):
        """Mapping a shard to ``None`` disables compaction there — and drops
        the interval timer with it — while the other shard keeps both."""
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            client_ids=["c0"], seed=0,
            config=ReplicaConfig(
                compaction={"s0": None, "s1": CompactionPolicy(min_batch=1)},
                compaction_interval=5.0,
            ),
        )
        assert cluster.shards["s0"].params.replica.compaction_interval is None
        assert cluster.shards["s1"].params.replica.compaction_interval == 5.0
        assert all(core.compaction is None for core in cluster.shards["s0"].replicas.values())
        assert all(core.compaction is not None for core in cluster.shards["s1"].replicas.values())

    def test_sharded_cluster_twin_equivalence_with_compaction(self):
        def run(compaction):
            cluster = ShardedCluster(
                CounterType(), num_shards=2, replicas_per_shard=2,
                client_ids=["c0", "c1"], seed=6,
                config=ReplicaConfig(
                    batch_gossip=True,
                    compaction=CompactionPolicy(min_batch=2) if compaction else None,
                ),
            )
            spec = KeyedWorkloadSpec(
                operations_per_client=20, mean_interarrival=0.5,
                num_keys=4, prev_policy="last_on_key", strict_fraction=0.2,
            )
            run_workload(cluster, spec, seed=8)
            return cluster

        plain, compacted = run(False), run(True)
        assert plain.responded == compacted.responded
        assert any(
            len(shard.compacted_prefix) > 0 for shard in compacted.shards.values()
        )
        compacted.run(60.0)  # extra gossip so every shard quiesces
        compacted.check_invariants()
        compacted.check_traces()
        assert compacted.metrics.peak_tracked_ops() <= plain.metrics.peak_tracked_ops()
        # Per-(client, shard) minting keeps every shard's compacted id
        # summary at O(clients) intervals (here: at most one per client).
        for shard in compacted.shards.values():
            for core in shard.replicas.values():
                if core.checkpoint.count:
                    intervals = sum(
                        len(iv) for iv in core.checkpoint.ids.ranges.values()
                    )
                    assert intervals <= len(compacted.client_ids)
