"""Wire-codec lockstep twins and the clock-skew adversary.

:class:`~repro.net.wire.WireCluster` claims that pushing every message
through ``encode → bytes → decode`` changes *nothing* about the execution:
the codec is lossless and the hook consumes no randomness.  The twin suite
enforces that the way delta gossip and the fast core were proven — same
seeds, same responses, same witness order, same replayed states, same
trace — across gossip modes, data types, random faults and a crash with
volatile memory loss.

The clock-skew fault rides along (it is observable only through the wire's
``sent_at`` timestamps): enabling it must never perturb the primary
schedule, while the cluster's measured gossip-lag bounds must show the
skew.
"""

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.config import ReplicaConfig
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.net.wire import WireCluster
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.faults import (
    ClockSkew,
    DuplicateMessages,
    FaultSchedule,
    GossipOutage,
    ReplicaCrash,
    fault_from_dict,
    fault_to_dict,
)
from repro.sim.workload import WorkloadSpec, run_workload

CONFIGS = {
    "full": {},
    "delta": dict(fast_core=True, delta_gossip=True, incremental_replay=True),
    "advert": dict(
        fast_core=True,
        delta_gossip=True,
        incremental_replay=True,
        batch_gossip=True,
        compaction=CompactionPolicy(min_batch=8, value_retention=32),
        compaction_interval=10.0,
        advert_gossip=True,
    ),
}

DATA_TYPES = {"counter": CounterType, "register": RegisterType, "gset": GSetType}


def run_cluster(cluster_class, config, data_type_name="counter", faults=(), seed=13):
    from repro.conformance.scenario import DATA_TYPES as REGISTRY

    type_factory, operator_mix = REGISTRY[data_type_name]
    # retransmit_interval matters under crashes: the liveness oracle's
    # casualty relaxation assumes wiped-but-unanswered operations get
    # re-delivered by the front end (as the conformance generator does).
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0, retransmit_interval=4.0,
        replica=ReplicaConfig(**CONFIGS[config]),
    )
    cluster = cluster_class(type_factory(), 3, ["c1", "c2"], params=params, seed=seed)
    schedule = FaultSchedule()
    for fault in faults:
        schedule.add(fault)
    schedule.install(cluster)
    spec = WorkloadSpec(
        operations_per_client=40,
        mean_interarrival=0.5,
        strict_fraction=0.2,
        prev_policy="last_own",
        operator_factory=operator_mix,
    )
    run_workload(cluster, spec, seed=7)
    if schedule.last_fault_time() > cluster.now:
        cluster.run(schedule.last_fault_time() - cluster.now + params.gossip_period)
    cluster.run_until_idle()
    return cluster


def assert_twin_equivalent(base, wire):
    assert base.responded == wire.responded
    assert base.failed == wire.failed
    assert base.eventual_order() == wire.eventual_order()
    assert base.trace == wire.trace
    base_states = {rid: r.replayed_state() for rid, r in base.replicas.items()}
    wire_states = {rid: r.replayed_state() for rid, r in wire.replicas.items()}
    assert base_states == wire_states


class TestWireTwins:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("data_type_name", sorted(DATA_TYPES))
    def test_wire_cluster_matches_plain_cluster(self, data_type_name, config):
        base = run_cluster(SimulatedCluster, config, data_type_name)
        wire = run_cluster(WireCluster, config, data_type_name)
        assert_twin_equivalent(base, wire)
        # And the harness really did push bytes: every kind that the plain
        # run counted appears in the wire accounting.
        assert wire.wire_stats.frames > 0
        assert wire.wire_stats.bytes_by_kind["gossip"] > 0
        assert wire.wire_stats.bytes_by_kind["request"] > 0

    @pytest.mark.parametrize("config", ["delta", "advert"])
    def test_wire_twins_survive_faults_and_crash(self, config):
        faults = [
            ReplicaCrash("r1", at=12.0, recover_at=30.0, volatile_memory=True),
            GossipOutage("r2", start=6.0, end=10.0),
            DuplicateMessages(start=4.0, end=20.0, probability=0.3),
        ]
        base = run_cluster(SimulatedCluster, config, faults=list(faults))
        wire = run_cluster(WireCluster, config, faults=list(faults))
        assert_twin_equivalent(base, wire)
        # Crash/recovery forces the catch-up paths (full-state or
        # pull/transfer) across the codec too.  A volatile-memory crash may
        # legitimately lose operations, so run the casualty-aware oracle
        # suite rather than the fault-free trace check.
        from repro.conformance.oracles import check_cluster_outcome

        check_cluster_outcome(wire)

    def test_corrupt_transfer_rejection_crosses_the_codec(self):
        from repro.sim.faults import CorruptTransfers

        from repro.conformance.oracles import check_cluster_outcome

        faults = [
            ReplicaCrash("r1", at=10.0, recover_at=24.0, volatile_memory=True),
            CorruptTransfers(start=0.0, end=40.0, probability=1.0),
        ]
        wire = run_cluster(WireCluster, "advert", faults=faults)
        # The tampered transfers crossed the wire and were rejected by digest
        # on arrival — then healed by a later re-pull (after the window).
        rejections = sum(
            r.stats.transfer_rejections for r in wire.replicas.values()
        )
        assert rejections > 0
        assert wire.wire_stats.bytes_by_kind["transfer"] > 0
        check_cluster_outcome(wire)


def skews(cluster):
    """Each replica's local clock reading minus true simulated time."""
    now = cluster.now
    return {rid: cluster.network.local_clock(rid, now) - now for rid in cluster.replica_ids}


class TestClockSkew:
    def test_enabling_skew_never_perturbs_the_schedule(self):
        skew = ClockSkew(start=2.0, end=60.0, max_skew=5.0)
        plain = run_cluster(SimulatedCluster, "delta")
        skewed = run_cluster(SimulatedCluster, "delta", faults=[skew])
        assert_twin_equivalent(plain, skewed)

    def test_skew_shows_up_in_gossip_lag_bounds(self):
        plain = run_cluster(SimulatedCluster, "delta")
        skewed = run_cluster(
            SimulatedCluster, "delta", faults=[ClockSkew(0.0, 200.0, max_skew=50.0)]
        )
        assert plain.gossip_lag_bounds is not None
        assert skewed.gossip_lag_bounds is not None
        lo, hi = plain.gossip_lag_bounds
        skewed_lo, skewed_hi = skewed.gossip_lag_bounds
        # True lag is always positive; ±50 time-unit skew dwarfs it and must
        # widen the observed bounds (negative lags become possible).
        assert lo > 0.0
        assert skewed_lo < lo
        assert skewed_hi > hi

    def test_skew_on_the_wire_twin_too(self):
        skew = ClockSkew(start=0.0, end=100.0, max_skew=8.0, replicas=["r0", "r2"])
        base = run_cluster(WireCluster, "delta")
        skewed = run_cluster(WireCluster, "delta", faults=[skew])
        assert_twin_equivalent(base, skewed)

    def test_offsets_come_from_the_fault_stream_only(self):
        # Two clusters, same seed: installing the fault on one must leave
        # the network's primary rng stream in the identical state, which the
        # schedule-identity twin above observes end-to-end; here we check
        # the offsets themselves are reproducible.
        def offsets(seed):
            params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
            cluster = SimulatedCluster(CounterType(), 3, ["c1"], params=params, seed=seed)
            ClockSkew(start=1.0, end=5.0, max_skew=4.0).install(cluster)
            cluster.run(2.0)
            return skews(cluster)

        first, second = offsets(21), offsets(21)
        assert first == second
        assert set(first) == {"r0", "r1", "r2"}
        assert all(-4.0 <= v <= 4.0 and v != 0.0 for v in first.values())
        # The fault stream is a dedicated constant-seeded rng (by design:
        # enabling an adversary must not consume primary randomness), so
        # the offsets are identical across cluster seeds as well.
        assert offsets(22) == first

    def test_skew_clears_at_window_end(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c1"], params=params, seed=3)
        ClockSkew(start=1.0, end=5.0, max_skew=4.0, replicas=["r1"]).install(cluster)
        cluster.run(0.5)
        assert set(skews(cluster).values()) == {0.0}
        cluster.run(1.0)
        assert {rid for rid, skew in skews(cluster).items() if skew} == {"r1"}
        cluster.run(4.0)
        assert set(skews(cluster).values()) == {0.0}

    def test_registry_round_trip(self):
        fault = ClockSkew(start=3.0, end=9.0, max_skew=2.5, replicas=["r0"])
        doc = fault_to_dict(fault)
        assert doc["kind"] == "clock_skew"
        rebuilt = fault_from_dict(doc)
        assert rebuilt == fault

    def test_validation(self):
        with pytest.raises(Exception):
            ClockSkew(start=5.0, end=5.0).install(
                SimulatedCluster(CounterType(), 3, ["c1"], seed=0)
            )
        with pytest.raises(Exception):
            ClockSkew(start=0.0, end=1.0, max_skew=-1.0).install(
                SimulatedCluster(CounterType(), 3, ["c1"], seed=0)
            )
