"""The stale-response NACK path for finite ``value_retention``.

A retransmitted request for a compacted operation whose response value aged
out of the retained-value ledger used to be dropped silently — the client
would never hear back.  The ROADMAP liveness corner is closed by an explicit
NACK: the replica queues a ``ResponseMessage(stale=True, sender=...)``, and
the front end declares the operation *failed* once every replica has NACKed
it (eviction of a compacted value is permanent, so the declaration is safe).
The failure is surfaced through ``failed`` maps on the front end, the
simulated cluster and the sharded service frontend, and through
:class:`~repro.common.StaleValueError` from ``value_of``.
"""

import random

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.messages import RequestMessage, ResponseMessage
from repro.algorithm.replica import ReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import OperationIdGenerator, StaleValueError
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.sharded import ShardedCluster
from repro.verification.invariants import AlgorithmInvariantChecker


# --------------------------------------------------------------------------- #
# Replica level: the NACK queue                                               #
# --------------------------------------------------------------------------- #


def compacted_evicted_pair():
    """Two replicas that answered, stabilized and folded one operation under
    ``value_retention=0`` — its value is gone everywhere."""
    ids = ["r1", "r2"]
    policy = CompactionPolicy(min_batch=1, value_retention=0)
    r1, r2 = (ReplicaCore(rid, ids, CounterType()) for rid in ids)
    for replica in (r1, r2):
        replica.configure_compaction(policy)
    op = make_operation(CounterType.increment(), OperationIdGenerator("alice").fresh())
    r1.receive_request(RequestMessage(op))
    r1.do_all_ready()
    r1.make_response(op)  # answers (and clears pending), response then lost
    for _ in range(3):
        r2.receive_gossip(r1.make_gossip("r2"))
        r1.receive_gossip(r2.make_gossip("r1"))
    assert r1.is_compacted(op.id) and r2.is_compacted(op.id)
    assert op.id not in r1.checkpoint.values
    return r1, r2, op


class TestReplicaNackQueue:
    def test_retransmit_for_evicted_value_queues_a_nack(self):
        r1, _r2, op = compacted_evicted_pair()
        r1.receive_request(RequestMessage(op))
        assert op not in r1.pending  # never re-tracked, never stuck
        assert r1.take_stale_nacks() == [op]
        assert r1.take_stale_nacks() == []  # drained

    def test_retained_value_still_answers_without_nack(self):
        ids = ["r1", "r2"]
        r1, r2 = (ReplicaCore(rid, ids, CounterType()) for rid in ids)
        for replica in (r1, r2):
            replica.configure_compaction(CompactionPolicy(min_batch=1))
        op = make_operation(CounterType.increment(), OperationIdGenerator("a").fresh())
        r1.receive_request(RequestMessage(op))
        r1.do_all_ready()
        r1.make_response(op)
        for _ in range(3):
            r2.receive_gossip(r1.make_gossip("r2"))
            r1.receive_gossip(r2.make_gossip("r1"))
        assert r1.is_compacted(op.id)
        r1.receive_request(RequestMessage(op))
        assert r1.take_stale_nacks() == []
        assert r1.response_ready(op)

    def test_crash_clears_queued_nacks(self):
        r1, _r2, op = compacted_evicted_pair()
        r1.receive_request(RequestMessage(op))
        r1.crash(volatile_memory=True)
        assert r1.take_stale_nacks() == []


# --------------------------------------------------------------------------- #
# Front end: NACK accounting and the failure declaration                      #
# --------------------------------------------------------------------------- #


class TestFrontEndNacks:
    def setup_method(self):
        self.frontend = FrontEndCore("alice", ["r1", "r2"])
        self.op = make_operation(CounterType.increment(),
                                 OperationIdGenerator("alice").fresh())
        self.frontend.request(self.op)

    def nack(self, sender):
        return ResponseMessage(self.op, None, stale=True, sender=sender)

    def test_partial_nacks_keep_waiting(self):
        assert self.frontend.receive_response(self.nack("r1")) is False
        assert self.op in self.frontend.wait
        assert not self.frontend.failed

    def test_nacks_from_every_replica_fail_the_operation(self):
        self.frontend.receive_response(self.nack("r1"))
        self.frontend.receive_response(self.nack("r2"))
        assert self.op not in self.frontend.wait
        assert self.frontend.failed[self.op.id] == "stale-value"
        assert not self.frontend.response_candidates()

    def test_duplicate_nacks_do_not_double_count(self):
        self.frontend.receive_response(self.nack("r1"))
        self.frontend.receive_response(self.nack("r1"))
        assert self.op in self.frontend.wait
        assert not self.frontend.failed

    def test_recorded_value_blocks_the_failure(self):
        self.frontend.receive_response(ResponseMessage(self.op, 1))
        self.frontend.receive_response(self.nack("r1"))
        self.frontend.receive_response(self.nack("r2"))
        # A deliverable value exists: the response action wins, no failure.
        assert self.op in self.frontend.wait
        assert not self.frontend.failed
        assert self.frontend.respond(self.op) == 1

    def test_late_genuine_value_resurrects_a_failed_operation(self):
        """Channels are non-FIFO: a value sent before the eviction can
        arrive after the NACKs.  The late answer wins — failure is a
        best-current-verdict, not a proof that no response was ever sent."""
        self.frontend.receive_response(self.nack("r1"))
        self.frontend.receive_response(self.nack("r2"))
        assert self.frontend.failed
        assert self.frontend.receive_response(ResponseMessage(self.op, 1)) is True
        assert not self.frontend.failed
        assert self.op in self.frontend.wait
        assert self.frontend.respond(self.op) == 1

    def test_respond_clears_the_nack_tally(self):
        self.frontend.receive_response(self.nack("r1"))
        self.frontend.receive_response(ResponseMessage(self.op, 1))
        self.frontend.respond(self.op)
        assert self.op.id not in self.frontend.nacked

    def test_unknown_replica_set_never_declares_failure(self):
        frontend = FrontEndCore("alice")  # replica set not threaded
        frontend.request(self.op)
        frontend.receive_response(self.nack("r1"))
        frontend.receive_response(self.nack("r2"))
        assert self.op in frontend.wait


# --------------------------------------------------------------------------- #
# Action-level system: the NACK flows end to end                              #
# --------------------------------------------------------------------------- #


class TestSystemNackPath:
    def test_retransmit_after_eviction_fails_explicitly(self):
        system = AlgorithmSystem(
            CounterType(), ["r1", "r2"], ["alice"],
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1, value_retention=0)),
        )
        gen = OperationIdGenerator("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        system.request(op)
        system.send_request("alice", "r1", op)
        system.receive_request("alice", "r1")
        system.replicas["r1"].do_all_ready()
        system.send_response("r1", op)  # the response is never delivered
        rng = random.Random(3)
        for _ in range(3):
            for src, dst in (("r1", "r2"), ("r2", "r1")):
                system.send_gossip(src, dst)
                deliverable = system.gossip_channels[(src, dst)].contents()
                for message in deliverable:
                    system.receive_gossip(src, dst, message)
        assert all(r.is_compacted(op.id) for r in system.replicas.values())
        assert all(op.id not in r.checkpoint.values for r in system.replicas.values())
        # The client retransmits (Fig. 6 allows it) to both replicas.
        for replica in ("r1", "r2"):
            system.send_request("alice", replica, op)
            system.receive_request("alice", replica)
            nacks = system.response_channels[(replica, "alice")].contents()
            stale = [m for m in nacks if m.stale]
            assert stale, f"no NACK queued by {replica}"
            # An in-transit NACK is not a potential response (no value).
            assert (op, None) not in system.potential_rept("alice")
            system.receive_response(replica, "alice", stale[0])
        frontend = system.frontends["alice"]
        assert frontend.failed[op.id] == "stale-value"
        assert op not in frontend.wait
        AlgorithmInvariantChecker(system).check_all()
        # The original response, stuck in transit since before the eviction,
        # finally arrives: the operation is resurrected and answered.
        leftover = system.response_channels[("r1", "alice")].contents()
        assert leftover and not leftover[0].stale
        system.receive_response("r1", "alice", leftover[0])
        assert op.id not in frontend.failed
        assert op in frontend.wait
        system.response(op)
        assert system.responded[op.id] == 1
        AlgorithmInvariantChecker(system).check_all()


# --------------------------------------------------------------------------- #
# Simulated cluster and sharded cluster surfacing                            #
# --------------------------------------------------------------------------- #


class TestSimulatedNackSurfacing:
    def test_lost_response_plus_eviction_surfaces_failure(self):
        # Deliberately the default sticky "affinity" routing: the NACK from
        # the primary must act as a redirect, steering later retransmits to
        # the remaining replicas until every one has NACKed.
        params = SimulationParams(
            replica=ReplicaConfig(
                compaction=CompactionPolicy(min_batch=1, value_retention=0),
                compaction_interval=2.0,
            ),
            retransmit_interval=4.0,
        )
        cluster = SimulatedCluster(CounterType(), 2, ["c0"], params=params, seed=7)
        target = cluster.submit("c0", CounterType.increment())
        original_send = cluster._send

        def drop_real_responses(kind, source, destination, message=None):
            if kind == "response" and message.operation.id == target.id and not message.stale:
                return  # every real response for the target is lost
            original_send(kind, source, destination, message)

        cluster._send = drop_real_responses
        cluster.run_until_idle(max_time=400.0)
        assert target.id not in cluster.responded
        assert cluster.failed[target.id] == "stale-value"
        assert cluster.outstanding_operations() == 0  # run_until_idle settled
        with pytest.raises(StaleValueError):
            cluster.value_of(target)
        AlgorithmInvariantChecker(cluster).check_all()

    def test_sharded_cluster_surfaces_stale_failures(self):
        """A shard's stale-value verdict reaches the sharded surface: the
        merged ``failed``, ``outstanding_operations`` and ``value_of``."""
        params = SimulationParams(
            replica=ReplicaConfig(
                compaction=CompactionPolicy(min_batch=1, value_retention=0),
                compaction_interval=2.0,
            ),
            retransmit_interval=4.0,
        )
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            client_ids=["alice"], params=params, seed=7,
        )
        target = cluster.submit("alice", "hot-key", CounterType.increment())
        shard = cluster.shards[cluster.shard_of_operation(target.id)]
        original_send = shard._send

        def drop_real_responses(kind, source, destination, message=None):
            if kind == "response" and message.operation.id == target.id and not message.stale:
                return  # every real response for the target is lost
            original_send(kind, source, destination, message)

        shard._send = drop_real_responses
        cluster.run_until_idle(max_time=400.0)
        assert target.id not in cluster.responded
        assert cluster.failed[target.id] == "stale-value"
        assert cluster.outstanding_operations() == 0
        with pytest.raises(StaleValueError):
            cluster.value_of(target)
