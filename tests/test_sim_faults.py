"""Direct unit tests for :mod:`repro.sim.faults` — the fault classes'
scheduling, end-time accounting and observable effect on the cluster, tested
in isolation (the end-to-end behaviour is covered by the fault-tolerance and
scenario-fuzz suites)."""

from dataclasses import replace

import pytest

from repro.algorithm.checkpoint import Checkpoint, CompactionPolicy, OpIdSummary
from repro.algorithm.labels import Label
from repro.algorithm.messages import PullRequestMessage, checkpoint_transfer
from repro.common import OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.sim.cluster import (
    CORRUPTION_MARKER,
    SimulatedCluster,
    SimulationParams,
    _tamper_transfer,
)
from repro.sim.faults import (
    AsymmetricPartition,
    ClockSkew,
    CorruptTransfers,
    DelaySpike,
    DuplicateMessages,
    FaultSchedule,
    GossipOutage,
    ReplicaCrash,
    StragglerReplica,
    fault_from_dict,
)


#: The production core with no extension switched on: a transfer receiver
#: (only the production core has the pull/transfer plane).
PRODUCTION_PARAMS = SimulationParams(replica=ReplicaConfig(fast_core=True))


def make_cluster(**params_kwargs):
    params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, **params_kwargs)
    return SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=1)


def cut(cluster, source, destination):
    """Would the (loss-free) network drop a send on this link right now?"""
    return cluster.network.should_drop("gossip", cluster.now, source, destination)


class TestReplicaCrash:
    def test_crash_and_recovery_are_scheduled_at_the_given_times(self):
        cluster = make_cluster()
        ReplicaCrash("r1", at=5.0, recover_at=9.0).install(cluster)
        cluster.run(4.9)
        assert not cluster.nodes["r1"].crashed
        cluster.run(0.2)  # past t=5.0
        assert cluster.nodes["r1"].crashed
        cluster.run(3.7)  # t=8.8, still down
        assert cluster.nodes["r1"].crashed
        cluster.run(0.4)  # past t=9.0
        assert not cluster.nodes["r1"].crashed

    def test_crash_without_recovery_is_permanent(self):
        cluster = make_cluster()
        ReplicaCrash("r2", at=1.0).install(cluster)
        cluster.run(50.0)
        assert cluster.nodes["r2"].crashed

    def test_volatile_memory_flag_controls_state_loss(self):
        for volatile, expect_empty in ((True, True), (False, False)):
            cluster = make_cluster()
            _op, _value = cluster.execute("c0", CounterType.increment())
            replica = next(
                rid for rid, rep in cluster.replicas.items() if rep.done_here()
            )
            ReplicaCrash(replica, at=cluster.now + 1.0,
                         volatile_memory=volatile).install(cluster)
            cluster.run(2.0)
            assert (not cluster.replicas[replica].done_here()) == expect_empty

    def test_end_time(self):
        assert ReplicaCrash("r0", at=3.0).end_time() == 3.0
        assert ReplicaCrash("r0", at=3.0, recover_at=8.5).end_time() == 8.5

    def test_recover_before_crash_rejected(self):
        with pytest.raises(ValueError):
            ReplicaCrash("r0", at=5.0, recover_at=5.0).install(make_cluster())


class TestGossipOutage:
    def test_partition_applies_only_inside_the_window(self):
        cluster = make_cluster()
        GossipOutage("r1", start=2.0, end=6.0).install(cluster)
        cluster.run(1.9)
        assert not cut(cluster, "r0", "r1")
        cluster.run(0.2)
        assert cut(cluster, "r0", "r1")
        cluster.run(4.0)  # past t=6.0
        assert not cut(cluster, "r0", "r1")

    def test_partitioned_replica_drops_messages_both_ways(self):
        cluster = make_cluster()
        GossipOutage("r1", start=0.0, end=6.0).open(cluster)
        dropped_before = cluster.network.counters.dropped
        assert cut(cluster, "r0", "r1")
        assert cut(cluster, "r1", "r0")
        assert not cut(cluster, "r0", "r2")
        assert cluster.network.counters.dropped == dropped_before + 2

    def test_end_time_and_validation(self):
        assert GossipOutage("r1", start=2.0, end=6.0).end_time() == 6.0
        with pytest.raises(ValueError):
            GossipOutage("r1", start=6.0, end=6.0).install(make_cluster())


class TestDelaySpike:
    def test_delays_multiplied_during_window_only(self):
        cluster = make_cluster(spike_factor=4.0)
        DelaySpike(start=2.0, end=7.0).install(cluster)
        cluster.run(1.0)
        assert cluster.network.delay_for("gossip", cluster.now) == 1.0
        cluster.run(2.0)  # inside the window
        assert cluster.network.delay_for("gossip", cluster.now) == 4.0
        assert cluster.network.delay_for("request", cluster.now) == 4.0
        cluster.run(5.0)  # past the window
        assert cluster.network.delay_for("gossip", cluster.now) == 1.0

    def test_spike_factor_below_one_never_speeds_up(self):
        cluster = make_cluster(spike_factor=0.5)
        DelaySpike(start=0.0, end=5.0).install(cluster)
        cluster.run(1.0)
        assert cluster.network.delay_for("gossip", cluster.now) == 1.0

    def test_end_time_and_validation(self):
        assert DelaySpike(start=1.0, end=4.0).end_time() == 4.0
        with pytest.raises(ValueError):
            DelaySpike(start=4.0, end=4.0).install(make_cluster())


class TestAsymmetricPartition:
    def test_severs_only_the_named_direction_inside_the_window(self):
        cluster = make_cluster()
        AsymmetricPartition("r0", "r1", start=2.0, end=6.0).install(cluster)
        cluster.run(1.9)
        assert not cut(cluster, "r0", "r1")
        cluster.run(0.2)  # inside the window
        assert cut(cluster, "r0", "r1")
        assert not cut(cluster, "r1", "r0")  # reverse flows
        assert not cut(cluster, "r0", "r2")
        cluster.run(4.0)  # past t=6.0
        assert not cut(cluster, "r0", "r1")

    def test_drops_are_counted(self):
        cluster = make_cluster()
        AsymmetricPartition("r2", "r0", start=0.0, end=6.0).open(cluster)
        before = cluster.network.counters.dropped
        assert cut(cluster, "r2", "r0")
        assert cluster.network.counters.dropped == before + 1

    def test_end_time_and_validation(self):
        assert AsymmetricPartition("r0", "r1", start=2.0, end=6.0).end_time() == 6.0
        with pytest.raises(ValueError):
            AsymmetricPartition("r0", "r1", start=6.0, end=6.0).install(make_cluster())


class TestStragglerReplica:
    def test_slows_messages_to_and_from_the_straggler_inside_the_window(self):
        cluster = make_cluster()
        StragglerReplica("r1", factor=3.0, start=2.0, end=7.0).install(cluster)
        cluster.run(1.0)
        assert cluster.network.delay_for("gossip", cluster.now, "r1", "r0") == 1.0
        cluster.run(2.0)  # inside the window
        assert cluster.network.delay_for("gossip", cluster.now, "r1", "r0") == 3.0
        assert cluster.network.delay_for("gossip", cluster.now, "r0", "r1") == 3.0
        assert cluster.network.delay_for("gossip", cluster.now, "r0", "r2") == 1.0
        assert cluster.network.delay_for("request", cluster.now, "c0", "r1") == 3.0
        cluster.run(5.0)  # past t=7.0
        assert cluster.network.delay_for("gossip", cluster.now, "r1", "r0") == 1.0

    def test_two_stragglers_compound(self):
        cluster = make_cluster()
        StragglerReplica("r0", factor=2.0, start=0.0, end=5.0).open(cluster)
        StragglerReplica("r1", factor=3.0, start=0.0, end=5.0).open(cluster)
        assert cluster.network.delay_for("gossip", cluster.now, "r0", "r1") == 6.0

    def test_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            StragglerReplica("r1", factor=0.5, start=0.0, end=5.0)

    def test_end_time_and_validation(self):
        assert StragglerReplica("r1", factor=2.0, start=1.0, end=4.0).end_time() == 4.0
        with pytest.raises(ValueError):
            StragglerReplica("r1", factor=2.0, start=4.0, end=4.0).install(make_cluster())


class TestDuplicateMessages:
    def test_duplication_window_and_counter(self):
        cluster = make_cluster()
        network = cluster.network
        assert network.maybe_duplicate("gossip", 0.0, "r0", "r1") is None
        DuplicateMessages(start=0.0, end=10.0, probability=1.0).open(cluster)
        extra = network.maybe_duplicate("gossip", 5.0, "r0", "r1")
        assert extra is not None and extra > 0.0
        assert network.counters.duplicated == 1
        # Extra deliveries are *not* folded into the per-kind send counters,
        # so the overhead metrics stay comparable across the adversary.
        assert network.counters.gossip == 0
        assert network.maybe_duplicate("gossip", 10.0, "r0", "r1") is None  # window over
        DuplicateMessages(start=10.0, end=20.0, probability=0.0).open(cluster)
        assert network.maybe_duplicate("gossip", 15.0, "r0", "r1") is None

    def test_end_time_and_validation(self):
        assert DuplicateMessages(start=1.0, end=9.0, probability=0.5).end_time() == 9.0
        with pytest.raises(ValueError):
            DuplicateMessages(start=9.0, end=9.0).install(make_cluster())
        with pytest.raises(ValueError):
            DuplicateMessages(start=0.0, end=1.0, probability=1.5)

    @staticmethod
    def _run_twin(duplicate):
        params = SimulationParams(
            df=1.0, dg=1.0, gossip_period=2.0, replica=ReplicaConfig(fast_core=True, delta_gossip=True)
        )
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=11)
        if duplicate:
            DuplicateMessages(start=0.0, end=60.0, probability=1.0).install(cluster)
        values = [cluster.execute("c0", CounterType.increment())[1] for _ in range(5)]
        for _ in range(8):  # explicit gossip rounds: spread the tail ops
            cluster.run(params.gossip_period + params.dg)
        return values, cluster

    def test_duplicated_delivery_is_idempotent(self):
        """Twin runs with and without a 100% duplication window: because the
        duplication coin and the copies' delays come from the dedicated
        fault stream, the primary schedule is identical — and duplicated
        deliveries must change *nothing* observable.  In particular a
        duplicated delta-gossip message re-delivers the same seqno (the
        cumulative-ack stream dedupes it; the delta is not consumed twice)
        and a duplicated increment is not applied twice."""
        base_values, base = self._run_twin(duplicate=False)
        dup_values, dup = self._run_twin(duplicate=True)
        assert dup.network.counters.duplicated > 0
        assert base.network.counters.duplicated == 0
        assert dup_values == base_values
        assert dup.eventual_order() == base.eventual_order()
        for replica_id in base.replicas:
            state = dup.replicas[replica_id].replayed_state()
            assert state == base.replicas[replica_id].replayed_state()
            assert state == 5  # five increments applied exactly once each


def _checkpointed_cluster(seed=5):
    """A small converged cluster whose replicas hold a non-empty checkpoint."""
    params = SimulationParams(
        df=1.0,
        dg=1.0,
        gossip_period=1.0,
        replica=ReplicaConfig(fast_core=True, compaction=CompactionPolicy(min_batch=1), compaction_interval=1.0),
    )
    cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=seed)
    for _ in range(4):
        cluster.execute("c0", CounterType.increment())
    cluster.run_until_idle(300.0)
    for replica in cluster.replicas.values():
        replica.maybe_compact(force=True)
    assert cluster.replicas["r0"].checkpoint.count > 0
    return cluster


class TestCorruptTransfers:
    def test_corruption_window_and_counter(self):
        cluster = make_cluster()
        network = cluster.network
        assert not network.should_corrupt_transfer(0.0)
        CorruptTransfers(start=0.0, end=10.0, probability=1.0).open(cluster)
        assert network.should_corrupt_transfer(5.0)
        assert network.counters.corrupted == 1
        assert not network.should_corrupt_transfer(10.0)  # window over

    def test_end_time_and_validation(self):
        assert CorruptTransfers(start=1.0, end=9.0).end_time() == 9.0
        with pytest.raises(ValueError):
            CorruptTransfers(start=9.0, end=9.0).install(make_cluster())
        with pytest.raises(ValueError):
            CorruptTransfers(start=0.0, end=1.0, probability=-0.1)

    def test_tampered_transfer_rejected_clean_transfer_adopted(self):
        """The digest check end of the story, in isolation: a receiver that
        assembles a tampered checkpoint transfer must reject it wholesale
        (no adoption, rejection counted) and a clean copy of the same
        transfer must then be adopted."""
        donor = _checkpointed_cluster().replicas["r0"]
        # A replica from an untouched twin deployment plays the behind
        # receiver: empty checkpoint, empty history — maximally behind.
        receiver = SimulatedCluster(
            CounterType(), 3, ["c0"], params=PRODUCTION_PARAMS, seed=99
        ).replicas["r1"]
        pull = PullRequestMessage(
            requester="r1",
            target="r0",
            digest=donor.checkpoint.digest(),
            frontier=donor.checkpoint.frontier,
            have_frontier=receiver.checkpoint.frontier,
        )
        transfer = donor.receive_pull_request(pull)
        assert transfer is not None, "donor has a checkpoint, the pull must be answered"

        tampered = _tamper_transfer(transfer)
        assert CORRUPTION_MARKER in repr(tampered.values) + repr(tampered.base_state)
        receiver.receive_transfer(tampered)
        assert receiver.stats.transfer_rejections == 1
        assert receiver.checkpoint.count == 0  # nothing adopted

        receiver.receive_transfer(transfer)
        assert receiver.stats.transfer_rejections == 1
        assert receiver.checkpoint.count == donor.checkpoint.count
        assert receiver.checkpoint.digest() == donor.checkpoint.digest()

    def test_corrupted_catchup_rejects_then_heals(self):
        """End to end: a volatile crash forces advert/pull catch-up, a
        100% corruption window makes every transfer arrive tampered — the
        recovering replica must reject every body (never adopting a
        corrupt body) and keep re-pulling off later adverts until the window
        closes, after which it converges with the others."""
        cluster = _corrupted_catchup_run()
        assert cluster.network.counters.corrupted > 0
        _assert_rejected_then_healed(cluster)


def _corrupted_catchup_run():
    """r1 crashes with volatile memory at t=8 and recovers at t=13 inside a
    100% transfer-corruption window [8, 19); the run continues well past the
    window so the reject-and-re-pull loop can heal off clean bodies."""
    params = SimulationParams(
        df=1.0,
        dg=1.0,
        gossip_period=1.0,
        frontend_policy="round_robin",
        retransmit_interval=4.0,
        replica=ReplicaConfig(
            fast_core=True,
            compaction=CompactionPolicy(min_batch=1),
            compaction_interval=1.0,
            advert_gossip=True,
        ),
    )
    cluster = SimulatedCluster(CounterType(), 3, ["c0", "c1"], params=params, seed=2)
    (
        FaultSchedule()
        .add(ReplicaCrash("r1", at=8.0, recover_at=13.0, volatile_memory=True))
        .add(CorruptTransfers(start=8.0, end=19.0, probability=1.0))
    ).install(cluster)
    for index in range(24):
        cluster.submit("c0" if index % 2 == 0 else "c1", CounterType.increment())
        cluster.run(0.5)
    cluster.run(25.0)  # past the corruption window plus slack
    for _ in range(12):  # explicit gossip rounds: let the re-pull heal
        cluster.run(params.gossip_period + params.dg)
    return cluster


def _assert_rejected_then_healed(cluster):
    rejections = sum(
        replica.stats.transfer_rejections for replica in cluster.replicas.values()
    )
    assert rejections > 0, "the corruption window never hit a transfer"
    # ... and the reject-and-re-pull loop healed once clean bodies flowed:
    # every replica converges to the same count — all surviving
    # increments, i.e. the full eventual order (the volatile crash may
    # cost an increment or two that only r1 had applied; convergence and
    # agreement with the system-wide order are the guarantees here).
    states = {
        replica_id: replica.replayed_state()
        for replica_id, replica in cluster.replicas.items()
    }
    assert len(set(states.values())) == 1, f"replicas diverged: {states}"
    assert set(states.values()).pop() >= 22  # at most a couple of casualties


def _later(frontier):
    return Label(frontier.rank + 1, frontier.replica)


#: Header tampers: each maps a transfer to a copy whose *header* lies while
#: its values stay intact.
HEADER_TAMPERS = {
    "digest": lambda transfer: replace(transfer, digest="0" * 16),
    "frontier": lambda transfer: replace(transfer, frontier=_later(transfer.frontier)),
    "ids": lambda transfer: replace(transfer, ids=OpIdSummary({"intruder": [(0, 3)]})),
    "order_digest": lambda transfer: replace(transfer, order_digest="f" * 16),
}


class TestMalformedTransferHeaders:
    """A transfer whose header was corrupted in flight (or forged) must
    cost a retry, never the replica: the content digest covers the
    frontier, the id summary and the fold-order digest, so each lie is
    rejected and the pull is queued again at once."""

    def _donor_and_behind_receiver(self):
        data_type, ids = CounterType(), OperationIdGenerator("c0")
        prefix = [make_operation(CounterType.increment(), ids.fresh()) for _ in range(4)]
        labels = {op.id: Label(rank, "r0") for rank, op in enumerate(prefix)}
        donor, _ = Checkpoint.empty(data_type.initial_state()).extend(
            prefix, data_type, labels
        )
        receiver = SimulatedCluster(
            data_type, 3, ["c0"], params=PRODUCTION_PARAMS, seed=99
        ).replicas["r1"]
        receiver._consider_advert("r0", donor.advert())
        assert [pull.target for pull in receiver.take_pending_pulls()] == ["r0"]
        return donor, receiver

    @pytest.mark.parametrize("kind", sorted(HEADER_TAMPERS))
    def test_tampered_header_is_rejected_and_repulled(self, kind):
        donor, receiver = self._donor_and_behind_receiver()
        transfer = checkpoint_transfer(donor, sender="r0", requester="r1")
        receiver.receive_transfer(HEADER_TAMPERS[kind](transfer))  # must not raise
        assert receiver.stats.transfer_rejections == 1
        assert receiver.checkpoint.count == 0  # nothing adopted
        # The pull is back in the queue without waiting for an advert.
        assert [pull.target for pull in receiver.take_pending_pulls()] == ["r0"]

        receiver.receive_transfer(transfer)
        assert receiver.stats.transfer_rejections == 1
        assert receiver.checkpoint.digest() == donor.digest()

    def test_every_lie_in_a_row_costs_one_rejection_each(self):
        # Each lie is judged on its own: no earlier rejection leaves state
        # behind that makes a later lie (or the clean body) fare differently.
        donor, receiver = self._donor_and_behind_receiver()
        transfer = checkpoint_transfer(donor, sender="r0", requester="r1")
        for rejected, kind in enumerate(sorted(HEADER_TAMPERS), start=1):
            receiver.receive_transfer(HEADER_TAMPERS[kind](transfer))
            assert receiver.stats.transfer_rejections == rejected
            assert receiver.checkpoint.count == 0
            assert [pull.target for pull in receiver.take_pending_pulls()] == ["r0"]
        receiver.receive_transfer(transfer)
        assert receiver.stats.transfer_rejections == len(HEADER_TAMPERS)
        assert receiver.checkpoint.digest() == donor.digest()
        assert receiver.take_pending_pulls() == []

    def test_header_corrupting_window_rejects_then_heals(self, monkeypatch):
        """The ``CorruptTransfers`` end-to-end story with the adversary
        flipping transfer *headers* instead of values: every kind of header
        lie arrives during catch-up, none raises, and the recovering replica
        converges once clean transfers flow."""
        kinds = sorted(HEADER_TAMPERS)
        sent = []

        def tamper_header(message):
            sent.append(kinds[len(sent) % len(kinds)])
            return HEADER_TAMPERS[sent[-1]](message)

        monkeypatch.setattr("repro.sim.cluster._tamper_transfer", tamper_header)
        cluster = _corrupted_catchup_run()
        assert set(sent) == set(kinds), f"window too short to try every lie: {sent}"
        _assert_rejected_then_healed(cluster)


def _skew_of(cluster, node):
    return round(cluster.network.local_clock(node, cluster.now) - cluster.now, 9)


#: kind -> (outer window, inner window of the same kind and target, probe).
#: The outer window spans [1, 9), the inner one [3, 6) ends first.
OVERLAPS = {
    "outage": (
        GossipOutage("r1", start=1.0, end=9.0),
        GossipOutage("r1", start=3.0, end=6.0),
        lambda cluster: cut(cluster, "r0", "r1"),
    ),
    "asymmetric_partition": (
        AsymmetricPartition("r0", "r1", start=1.0, end=9.0),
        AsymmetricPartition("r0", "r1", start=3.0, end=6.0),
        lambda cluster: cut(cluster, "r0", "r1"),
    ),
    "spike": (
        DelaySpike(start=1.0, end=9.0),
        DelaySpike(start=3.0, end=6.0),
        lambda cluster: cluster.network.delay_for("gossip", cluster.now),
    ),
    "straggler": (
        StragglerReplica("r1", factor=2.0, start=1.0, end=9.0),
        StragglerReplica("r1", factor=3.0, start=3.0, end=6.0),
        lambda cluster: cluster.network.delay_for("gossip", cluster.now, "r1", "r0"),
    ),
    "duplication": (
        DuplicateMessages(start=1.0, end=9.0, probability=1.0),
        DuplicateMessages(start=3.0, end=6.0, probability=0.0),
        lambda cluster: cluster.network.maybe_duplicate("gossip", cluster.now) is not None,
    ),
    "corruption": (
        CorruptTransfers(start=1.0, end=9.0, probability=1.0),
        CorruptTransfers(start=3.0, end=6.0, probability=0.0),
        lambda cluster: cluster.network.should_corrupt_transfer(cluster.now),
    ),
    "clock_skew": (
        ClockSkew(start=1.0, end=9.0, max_skew=4.0, replicas=["r1"]),
        ClockSkew(start=3.0, end=6.0, max_skew=4.0, replicas=["r1"]),
        lambda cluster: _skew_of(cluster, "r1"),
    ),
}


class TestOverlappingWindows:
    @pytest.mark.parametrize("kind", sorted(OVERLAPS))
    def test_outer_window_outlives_an_inner_one(self, kind):
        """The inner window closing leaves the outer one in force until
        its own end."""
        outer, inner, probe = OVERLAPS[kind]
        cluster = make_cluster(spike_factor=4.0)
        FaultSchedule().add(outer).add(inner).install(cluster)
        cluster.run(2.0)  # only the outer window is open
        outer_answer = probe(cluster)
        cluster.run(5.0)  # t=7: the inner window has closed
        assert probe(cluster) == outer_answer
        cluster.run(3.0)  # t=10: nothing open
        assert probe(cluster) != outer_answer

    def test_most_recently_opened_window_governs(self):
        cluster = make_cluster()
        for kind in ("straggler", "duplication"):
            outer, inner, _probe = OVERLAPS[kind]
            FaultSchedule().add(outer).add(inner).install(cluster)
        cluster.run(4.0)  # both pairs open
        network = cluster.network
        assert network.delay_for("gossip", cluster.now, "r1", "r0") == 3.0
        assert network.maybe_duplicate("gossip", cluster.now) is None


#: Malformed fault documents: each must be refused when it loads.
MALFORMED = {
    "crash": {"kind": "replica_crash", "replica": "r0", "at": 5.0, "recover_at": 5.0},
    "outage": {"kind": "gossip_outage", "replica": "r0", "start": 4.0, "end": 4.0},
    "spike": {"kind": "delay_spike", "start": 4.0, "end": 3.0},
    "partition": {
        "kind": "asymmetric_partition",
        "source": "r0",
        "destination": "r1",
        "start": 2.0,
        "end": 2.0,
    },
    "straggler": {"kind": "straggler", "replica": "r0", "factor": 0.5, "start": 1.0, "end": 4.0},
    "duplicate": {"kind": "duplicate_messages", "start": 1.0, "end": 4.0, "probability": 1.5},
    "corrupt": {"kind": "corrupt_transfers", "start": 1.0, "end": 4.0, "probability": -0.1},
    "skew": {"kind": "clock_skew", "start": 1.0, "end": 4.0, "max_skew": -1.0},
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_fault_document_fails_on_load(name):
    with pytest.raises(ValueError):
        fault_from_dict(MALFORMED[name])


class TestFaultSchedule:
    def test_add_chains_and_install_installs_everything(self):
        cluster = make_cluster()
        schedule = (
            FaultSchedule()
            .add(ReplicaCrash("r0", at=1.0, recover_at=3.0))
            .add(GossipOutage("r1", start=2.0, end=5.0))
            .add(DelaySpike(start=0.5, end=1.5))
        )
        assert len(schedule.faults) == 3
        schedule.install(cluster)
        cluster.run(2.5)
        assert cluster.nodes["r0"].crashed
        assert cut(cluster, "r1", "r2")
        cluster.run(3.0)
        assert not cluster.nodes["r0"].crashed
        assert not cut(cluster, "r1", "r2")

    def test_last_fault_time_is_the_max_end_time(self):
        schedule = (
            FaultSchedule()
            .add(ReplicaCrash("r0", at=1.0, recover_at=12.0))
            .add(DelaySpike(start=2.0, end=4.0))
        )
        assert schedule.last_fault_time() == 12.0

    def test_empty_schedule(self):
        schedule = FaultSchedule()
        assert schedule.last_fault_time() == 0.0
        cluster = make_cluster()
        schedule.install(cluster)  # no-op besides starting the cluster
        assert cluster._started
