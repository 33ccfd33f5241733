"""Tests for the baseline services (centralized atomic, primary copy, Ladin)."""

import pytest

from repro.common import ConfigurationError
from repro.baselines.atomic import CentralizedAtomicService
from repro.baselines.lazy_ladin import LadinLazyReplicationService, MultipartTimestamp
from repro.baselines.primary_copy import PrimaryCopyService
from repro.datatypes import CounterType, GSetType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload
from repro.spec.guarantees import check_atomicity_when_all_strict

PARAMS = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, service_time=0.0)


class TestCentralizedAtomic:
    def test_values_follow_arrival_order(self):
        service = CentralizedAtomicService(CounterType(), ["c0"], params=PARAMS)
        values = [service.execute("c0", CounterType.increment())[1] for _ in range(3)]
        assert values == [1, 2, 3]
        assert service.current_state() == 3

    def test_latency_is_round_trip(self):
        service = CentralizedAtomicService(CounterType(), ["c0"], params=PARAMS)
        start = service.now
        service.execute("c0", CounterType.increment())
        assert service.now - start == pytest.approx(2 * PARAMS.df)

    def test_serialization_explains_every_response(self):
        service = CentralizedAtomicService(CounterType(), ["c0", "c1"], params=PARAMS)
        for index in range(4):
            client = f"c{index % 2}"
            service.submit(client, CounterType.increment(), strict=True, at=float(index))
        service.run_until_idle()
        order = [op.id for op in service.serialization()]
        assert check_atomicity_when_all_strict(service.data_type, service.trace, order)

    def test_throughput_capped_by_service_time(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, service_time=0.5)
        service = CentralizedAtomicService(CounterType(), ["c0", "c1"], params=params)
        spec = WorkloadSpec(operations_per_client=40, mean_interarrival=0.25)
        result = run_workload(service, spec, seed=1, drain_time=200.0)
        # Offered load is 8 ops/time-unit but one server at 0.5 per op caps at 2.
        assert result.throughput <= 2.0 + 0.2


class TestSharedPlumbing:
    def test_submit_in_the_past_leaves_no_phantom(self):
        service = CentralizedAtomicService(CounterType(), ["c0"], params=PARAMS)
        service.run(5.0)
        with pytest.raises(ConfigurationError):
            service.submit("c0", CounterType.increment(), at=1.0)
        assert service.outstanding_operations() == 0
        assert not service.requested

    @pytest.mark.parametrize(
        "build",
        [
            lambda params: CentralizedAtomicService(CounterType(), ["c0"], params=params),
            lambda params: PrimaryCopyService(CounterType(), 3, ["c0"], params=params),
            lambda params: LadinLazyReplicationService(CounterType(), 3, ["c0"], params=params),
        ],
        ids=["atomic", "primary_copy", "ladin"],
    )
    def test_message_loss_rejected(self, build):
        # No baseline retransmits, so a lost message would strand its
        # operation: loss is refused up front instead of ignored.
        with pytest.raises(ConfigurationError):
            build(SimulationParams(loss_probability=0.1))
        build(SimulationParams(loss_probability=0.0))

    def test_messages_are_counted_between_real_endpoints(self):
        service = PrimaryCopyService(CounterType(), 3, ["c0"], params=PARAMS)
        service.execute("c0", CounterType.increment())
        counters = service.network.counters
        # Request to the primary, update and ack per backup, one response.
        assert (counters.request, counters.gossip, counters.response) == (1, 4, 1)


class TestPrimaryCopy:
    def test_waits_for_backup_acknowledgements(self):
        service = PrimaryCopyService(CounterType(), 3, ["c0"], params=PARAMS)
        start = service.now
        _, value = service.execute("c0", CounterType.increment())
        assert value == 1
        assert service.now - start == pytest.approx(2 * PARAMS.df + 2 * PARAMS.dg)

    def test_single_replica_degenerates_to_atomic(self):
        service = PrimaryCopyService(CounterType(), 1, ["c0"], params=PARAMS)
        start = service.now
        service.execute("c0", CounterType.increment())
        assert service.now - start == pytest.approx(2 * PARAMS.df)

    def test_backups_converge_to_primary(self):
        service = PrimaryCopyService(CounterType(), 3, ["c0"], params=PARAMS)
        for _ in range(5):
            service.execute("c0", CounterType.increment())
        service.run(duration=10.0)
        states = service.replica_states()
        assert set(states.values()) == {5}

    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            PrimaryCopyService(CounterType(), 0, ["c0"])


class TestMultipartTimestamp:
    def test_merge_and_dominates(self):
        a = MultipartTimestamp((1, 0, 2))
        b = MultipartTimestamp((0, 3, 1))
        merged = a.merge(b)
        assert merged == MultipartTimestamp((1, 3, 2))
        assert merged.dominates(a) and merged.dominates(b)
        assert not a.dominates(b)

    def test_bump(self):
        ts = MultipartTimestamp.zero(3).bump(1)
        assert ts == MultipartTimestamp((0, 1, 0))


class TestLadinLazyReplication:
    def test_causal_update_then_dependent_query(self):
        service = LadinLazyReplicationService(CounterType(), 3, ["c0"], params=PARAMS)
        service.execute("c0", CounterType.increment())
        _, value = service.execute("c0", CounterType.read())
        assert value == 1

    def test_queries_by_other_clients_may_be_stale(self):
        service = LadinLazyReplicationService(GSetType(), 3, ["c0", "c1"], params=PARAMS)
        service.execute("c0", GSetType.insert("x"))
        # c1 has no dependency on c0's update, so an immediate query may miss it.
        _, seen = service.execute("c1", GSetType.contains("x"))
        assert seen in (True, False)
        # After enough gossip, replicas converge and c1 sees the element.
        service.run(duration=20.0)
        _, seen_later = service.execute("c1", GSetType.contains("x"))
        assert seen_later is True

    def test_replicas_converge_after_gossip(self):
        service = LadinLazyReplicationService(GSetType(), 3, ["c0"], params=PARAMS)
        for element in "abcd":
            service.execute("c0", GSetType.insert(element))
        service.run(duration=30.0)
        assert service.converged()
        assert set(service.replica_values()) == {frozenset("abcd")}

    def test_forced_updates_totally_ordered_across_replicas(self):
        service = LadinLazyReplicationService(
            CounterType(), 3, ["c0", "c1"], params=PARAMS, forced_operators={"double", "increment"}
        )
        service.submit("c0", CounterType.increment(), at=0.0)
        service.submit("c1", CounterType.double(), at=0.0)
        service.run(duration=40.0)
        assert service.converged()
        values = set(service.replica_values())
        assert len(values) == 1  # all replicas agree on one of the two orders
        assert values <= {1, 2}

    def test_needs_two_replicas(self):
        with pytest.raises(ValueError):
            LadinLazyReplicationService(CounterType(), 1, ["c0"])


class TestCrossSystemComparison:
    def test_esds_nonstrict_latency_beats_primary_copy(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
        esds = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=1)
        primary = PrimaryCopyService(CounterType(), 3, ["c0"], params=params, seed=1)
        spec = WorkloadSpec(operations_per_client=10, mean_interarrival=1.0, strict_fraction=0.0)
        esds_result = run_workload(esds, spec, seed=2)
        primary_result = run_workload(primary, spec, seed=2)
        assert esds_result.mean_latency < primary_result.mean_latency

    def test_all_strict_esds_close_to_primary_copy(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
        esds = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=3)
        primary = PrimaryCopyService(CounterType(), 3, ["c0"], params=params, seed=3)
        spec = WorkloadSpec(operations_per_client=8, mean_interarrival=3.0, strict_fraction=1.0)
        esds_result = run_workload(esds, spec, seed=4)
        primary_result = run_workload(primary, spec, seed=4)
        # Strict ESDS pays for gossip-based stabilization, so it is slower than
        # primary copy but in the same order of magnitude (not the 2df fast path).
        assert esds_result.mean_latency > primary_result.mean_latency
        assert esds_result.mean_latency <= 4 * primary_result.mean_latency
