"""End-to-end tests of the simulated ESDS deployment (§9 timing behaviour)."""

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.labels import Label
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.analysis.bounds import (
    TimingAssumptions,
    check_latency_records_against_bounds,
    response_time_bound,
)
from repro.common import ConfigurationError, InvariantViolation
from repro.config import ReplicaConfig
from repro.datatypes import BankAccountType, CounterType, RegisterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.serializability import check_recorded_trace

PARAMS = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)


class TestConfiguration:
    def test_needs_two_replicas(self):
        with pytest.raises(ConfigurationError):
            SimulatedCluster(CounterType(), num_replicas=1)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParams(frontend_policy="nope")

    def test_bad_fanout_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParams(request_fanout=0)

    def test_prev_must_reference_known_operation(self):
        cluster = SimulatedCluster(CounterType(), 2, ["c0"], params=PARAMS)
        other = SimulatedCluster(CounterType(), 2, ["c0"], params=PARAMS)
        foreign, _ = other.execute("c0", CounterType.increment())
        with pytest.raises(ConfigurationError):
            cluster.submit("c0", CounterType.read(), prev=[foreign.id])

    def test_operator_validated_on_submit(self):
        cluster = SimulatedCluster(CounterType(), 2, ["c0"], params=PARAMS)
        with pytest.raises(ValueError):
            cluster.submit("c0", RegisterType.write(1))


class TestExecuteFacade:
    def test_nonstrict_latency_is_round_trip(self):
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=PARAMS, seed=1)
        start = cluster.now
        _, value = cluster.execute("c0", CounterType.increment())
        assert value == 1
        assert cluster.now - start == pytest.approx(2 * PARAMS.df)

    def test_strict_operation_waits_for_stability(self):
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=PARAMS, seed=1)
        start = cluster.now
        _, value = cluster.execute("c0", CounterType.increment(), strict=True)
        assert value == 1
        elapsed = cluster.now - start
        assert elapsed > 2 * PARAMS.df
        assert elapsed <= 2 * PARAMS.df + 3 * (PARAMS.gossip_period + PARAMS.dg) + 1e-9

    def test_read_your_writes_via_prev(self):
        cluster = SimulatedCluster(RegisterType(), 3, ["alice", "bob"], params=PARAMS, seed=2)
        write, _ = cluster.execute("alice", RegisterType.write("x"))
        _, value = cluster.execute("bob", RegisterType.read(), prev=[write.id], strict=True)
        assert value == "x"

    def test_values_accumulate_across_operations(self):
        cluster = SimulatedCluster(BankAccountType(), 2, ["c0"], params=PARAMS, seed=3)
        cluster.execute("c0", BankAccountType.deposit(10))
        cluster.execute("c0", BankAccountType.deposit(5))
        _, balance = cluster.execute("c0", BankAccountType.balance(), strict=True)
        assert balance == 15

    def test_responded_and_value_of(self):
        cluster = SimulatedCluster(CounterType(), 2, ["c0"], params=PARAMS)
        op, value = cluster.execute("c0", CounterType.increment())
        assert cluster.value_of(op) == value
        assert cluster.outstanding_operations() == 0


class TestTheorem93Bounds:
    @pytest.mark.parametrize("policy", ["affinity", "round_robin", "random"])
    def test_all_latencies_within_delta(self, policy):
        params = SimulationParams(df=1.0, dg=2.0, gossip_period=3.0, frontend_policy=policy)
        cluster = SimulatedCluster(CounterType(), 4,
                                   [f"c{i}" for i in range(4)], params=params, seed=7)
        spec = WorkloadSpec(operations_per_client=15, mean_interarrival=1.0,
                            strict_fraction=0.3, prev_policy="random_own")
        result = run_workload(cluster, spec, seed=11)
        assert cluster.outstanding_operations() == 0
        timing = TimingAssumptions(df=params.df, dg=params.dg, gossip_period=params.gossip_period)
        violations = check_latency_records_against_bounds(result.metrics.records, timing)
        assert violations == []

    def test_bound_values(self):
        timing = TimingAssumptions(df=1.0, dg=2.0, gossip_period=3.0)
        cluster = SimulatedCluster(CounterType(), 2, ["c0"],
                                   params=SimulationParams(df=1.0, dg=2.0, gossip_period=3.0))
        plain = cluster.make_operation("c0", CounterType.increment())
        assert response_time_bound(plain, timing) == 2.0
        strict = cluster.make_operation("c0", CounterType.increment(), strict=True)
        assert response_time_bound(strict, timing) == 2.0 + 3 * 5.0


class TestTraceConsistency:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_strict_responses_explained_by_minlabel_order(self, seed):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, jitter=0.5)
        cluster = SimulatedCluster(CounterType(), 3, ["c0", "c1"], params=params, seed=seed)
        spec = WorkloadSpec(operations_per_client=12, mean_interarrival=0.7,
                            strict_fraction=0.4, prev_policy="last_own",
                            poisson_arrivals=True)
        run_workload(cluster, spec, seed=seed + 50)
        assert cluster.outstanding_operations() == 0
        check_recorded_trace(cluster.data_type, cluster.trace,
                             witness=cluster.eventual_order())

    def test_memoized_replicas_equivalent_externally(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
        plain = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=9)
        memo = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=9,
                                replica_factory=MemoizedReplicaCore)
        spec = WorkloadSpec(operations_per_client=15, mean_interarrival=0.5,
                            strict_fraction=0.3)
        plain_result = run_workload(plain, spec, seed=13)
        memo_result = run_workload(memo, spec, seed=13)
        plain_values = {r.operation.id: r.value for r in plain_result.metrics.records}
        memo_values = {r.operation.id: r.value for r in memo_result.metrics.records}
        assert plain_values == memo_values
        assert memo.total_value_applications() < plain.total_value_applications()


class TestInvariantChecker:
    def test_checker_reads_a_quiesced_cluster_directly(self):
        """The Section 7/8 checker takes the cluster as it is; with no
        explicit channels it is faithful once gossip has converged."""
        config = ReplicaConfig(
            fast_core=True, delta_gossip=True, advert_gossip=True,
            compaction=CompactionPolicy(min_batch=32),
        )
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, replica=config)
        cluster = SimulatedCluster(CounterType(), 4, ["c0", "c1"], params=params, seed=4)
        spec = WorkloadSpec(operations_per_client=100, mean_interarrival=0.5,
                            strict_fraction=0.2, prev_policy="last_own")
        run_workload(cluster, spec, seed=4)
        while not cluster.fully_converged():
            cluster.run(params.gossip_period)
        assert cluster.compaction_ledger.prefix
        AlgorithmInvariantChecker(cluster).check_all()

        # A done, uncompacted operation relabelled above everything at one
        # replica: that replica no longer holds its minimum label.
        tracked = set.intersection(*(set(core.labels) for core in cluster.replicas.values()))
        op_id = min(tracked, key=repr)
        core = cluster.replicas["r2"]
        core.labels[op_id] = Label(max(label.rank for label in core.labels.values()) + 1, "r2")
        with pytest.raises(InvariantViolation):
            AlgorithmInvariantChecker(cluster).check_all()


class TestStabilizationTracking:
    def test_stabilization_times_recorded(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, track_stabilization=True)
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=4)
        cluster.execute("c0", CounterType.increment())
        cluster.run(duration=20.0)
        assert cluster.metrics.stabilization_times
        summary = cluster.metrics.stabilization_summary()
        assert summary.count == 1
        assert summary.mean <= params.df + 3 * (params.gossip_period + params.dg)
