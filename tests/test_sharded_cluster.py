"""Tests for :class:`repro.sim.sharded.ShardedCluster` and the keyed
workload generators (the simulated-time half of the service layer)."""

import random

import pytest

from repro.algorithm.memoized import MemoizedReplicaCore
from repro.common import ConfigurationError, MetricsError, OperationId
from repro.config import ReplicaConfig
from repro.datatypes import CounterType
from repro.sim.cluster import SimulationParams
from repro.sim.metrics import PerShardMetrics
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import (
    ClientWorkload,
    KeyedWorkloadSpec,
    run_workload,
    zipfian_cdf,
)


def make_cluster(num_shards=2, **kwargs):
    defaults = dict(replicas_per_shard=3, client_ids=["c0", "c1"], seed=42)
    defaults.update(kwargs)
    return ShardedCluster(CounterType(), num_shards=num_shards, **defaults)


class TestShardedClusterBasics:
    def test_execute_round_trips_values_per_key(self):
        cluster = make_cluster()
        op_a, value_a = cluster.execute("c0", "alpha", CounterType.increment())
        _, value_b = cluster.execute("c1", "beta", CounterType.add(10))
        _, again = cluster.execute("c0", "alpha", CounterType.increment(),
                                   prev=[op_a.id], strict=True)
        assert (value_a, value_b, again) == (1, 10, 2)

    def test_single_shard_cluster_is_valid(self):
        cluster = make_cluster(num_shards=1)
        _, value = cluster.execute("c0", "only", CounterType.increment())
        assert value == 1
        assert set(cluster.shards) == {"s0"}

    def test_shared_event_loop_orders_all_shards(self):
        cluster = make_cluster(num_shards=3)
        assert len({id(shard.simulator) for shard in cluster.shards.values()}) == 1
        assert all(shard.simulator is cluster.simulator for shard in cluster.shards.values())

    def test_batched_gossip_is_default(self):
        assert make_cluster().params.replica.batch_gossip is True
        explicit = make_cluster(params=SimulationParams(replica=ReplicaConfig(batch_gossip=False)))
        assert explicit.params.replica.batch_gossip is False

    def test_operation_ids_unique_across_shards(self):
        cluster = make_cluster(num_shards=4)
        ids = [
            cluster.submit("c0", f"k{i}", CounterType.increment()).id for i in range(24)
        ]
        assert len(set(ids)) == 24
        cluster.run_until_idle()
        assert cluster.outstanding_operations() == 0
        assert set(cluster.responded) == set(ids)

    def test_cross_shard_prev_rejected(self):
        cluster = make_cluster(num_shards=4)
        by_shard = {}
        for i in range(64):
            by_shard.setdefault(cluster.shard_of(f"k{i}"), f"k{i}")
        key_a, key_b = list(by_shard.values())[:2]
        op = cluster.submit("c0", key_a, CounterType.increment())
        with pytest.raises(ConfigurationError):
            cluster.submit("c0", key_b, CounterType.increment(), prev=[op.id])
        with pytest.raises(ConfigurationError):
            cluster.submit("c0", key_a, CounterType.increment(),
                           prev=[OperationId("c0", 999)])

    def test_unknown_client_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ConfigurationError):
            cluster.submit("nobody", "k0", CounterType.increment())
        assert not cluster.requested
        assert cluster.last_operation_on("k0") is None

    def test_past_submission_rejected_without_phantom_bookkeeping(self):
        # Regression: a submit at a time already in the past must fail BEFORE
        # any bookkeeping, or the operation counts as outstanding forever and
        # later prev chains dangle from an operation no replica will ever do.
        cluster = make_cluster()
        cluster.run(10.0)
        with pytest.raises(ConfigurationError, match="past"):
            cluster.submit("c0", "late", CounterType.increment(), at=5.0)
        assert cluster.outstanding_operations() == 0
        assert not cluster.requested
        assert cluster.last_operation_on("late") is None
        # The unsharded cluster behaves the same way.
        from repro.sim.cluster import SimulatedCluster

        flat = SimulatedCluster(CounterType(), 2, ["c0"], seed=0)
        flat.run(10.0)
        with pytest.raises(ConfigurationError, match="past"):
            flat.submit("c0", CounterType.increment(), at=5.0)
        assert flat.outstanding_operations() == 0
        assert not flat.requested

    def test_custom_replica_factory_is_forwarded(self):
        cluster = make_cluster(replica_factory=MemoizedReplicaCore)
        assert all(
            isinstance(replica, MemoizedReplicaCore)
            for shard in cluster.shards.values()
            for replica in shard.replicas.values()
        )

    def test_same_key_same_shard(self):
        cluster = make_cluster(num_shards=3)
        first = cluster.submit("c0", "stable-key", CounterType.increment())
        second = cluster.submit("c1", "stable-key", CounterType.increment())
        owner = cluster.shard_of("stable-key")
        assert cluster.shard_of_operation(first.id) == owner
        assert cluster.shard_of_operation(second.id) == owner
        for sid, shard in cluster.shards.items():
            held = {first.id, second.id} & set(shard.requested)
            assert held == ({first.id, second.id} if sid == owner else set())

    def test_requests_route_by_key_and_responses_arrive(self):
        cluster = make_cluster(num_shards=3)
        for index in range(9):
            cluster.submit("c0" if index % 2 == 0 else "c1", f"k{index % 3}",
                           CounterType.increment())
        cluster.run_until_idle()
        assert cluster.outstanding_operations() == 0
        for _ in range(60):
            if cluster.fully_converged():
                break
            cluster.run(cluster.params.gossip_period + cluster.params.dg)
        assert cluster.fully_converged()
        # Each key's increments all landed on one shard, so a strict read
        # per key sees exactly the three increments on it.
        for key in ("k0", "k1", "k2"):
            _, value = cluster.execute("c0", key, CounterType.read(),
                                       prev=[cluster.last_operation_on(key)], strict=True)
            assert value == 3

    def test_routing_metadata(self):
        cluster = make_cluster()
        op = cluster.submit("c0", "lookup-me", CounterType.increment())
        assert cluster.key_of_operation(op.id) == "lookup-me"
        assert cluster.shard_of_operation(op.id) == cluster.shard_of("lookup-me")
        assert cluster.last_operation_on("lookup-me") == op.id
        assert cluster.last_operation_on("never-seen") is None


class TestKeyedWorkloads:
    def test_uniform_workload_completes_and_checks_out(self):
        cluster = make_cluster(num_shards=3, client_ids=["c0", "c1", "c2"])
        spec = KeyedWorkloadSpec(operations_per_client=12, mean_interarrival=0.8,
                                 strict_fraction=0.25, num_keys=12,
                                 prev_policy="last_on_key")
        result = run_workload(cluster, spec, seed=9)
        assert cluster.outstanding_operations() == 0
        assert result.metrics.completed == result.submitted == 36
        assert sum(result.metrics.completed_by_shard().values()) == 36
        cluster.check_traces()
        # At quiescence plus a few gossip rounds the algorithm-view
        # invariants hold on every shard.
        for _ in range(60):
            if cluster.fully_converged():
                break
            cluster.run(cluster.params.gossip_period + cluster.params.dg)
        assert cluster.fully_converged()
        cluster.check_invariants()

    def test_per_key_prev_chains_serialize_each_key(self):
        cluster = make_cluster(num_shards=3, client_ids=["c0"])
        spec = KeyedWorkloadSpec(operations_per_client=15, mean_interarrival=0.5,
                                 num_keys=3, prev_policy="last_on_key")
        result = run_workload(cluster, spec, seed=4)
        assert cluster.outstanding_operations() == 0
        # Dependencies never cross keys (hence never cross shards), and each
        # chain is answered in submission order per key.
        for op in cluster.requested.values():
            for dep in op.prev:
                assert cluster.key_of_operation(dep) == cluster.key_of_operation(op.id)
        # Each shard's eventual order places every dependency first.
        for sid, order in cluster.eventual_orders().items():
            position = {op_id: i for i, op_id in enumerate(order)}
            for op in cluster.shards[sid].requested.values():
                for dep in op.prev:
                    assert position[dep] < position[op.id]

    @pytest.mark.parametrize("delta", [False, True], ids=["full-gossip", "delta-gossip"])
    def test_invariants_and_traces_hold_per_shard(self, delta):
        cluster = make_cluster(
            num_shards=3, params=SimulationParams(replica=ReplicaConfig(delta_gossip=delta)),
        )
        rng = random.Random(11)
        for index in range(12):
            key = f"k{index % 4}"
            last = cluster.last_operation_on(key)
            cluster.submit(
                rng.choice(["c0", "c1"]), key,
                CounterType.increment() if rng.random() < 0.7 else CounterType.read(),
                prev=[last] if last is not None and rng.random() < 0.5 else [],
                strict=rng.random() < 0.3,
            )
            cluster.run(rng.uniform(0.0, 2.0))
        cluster.run_until_idle()
        assert cluster.outstanding_operations() == 0
        cluster.check_traces()
        for _ in range(60):
            if cluster.fully_converged():
                break
            cluster.run(cluster.params.gossip_period + cluster.params.dg)
        assert cluster.fully_converged()
        cluster.check_invariants()

    def test_zipfian_skews_load_relative_to_uniform(self):
        def imbalance(distribution):
            cluster = make_cluster(num_shards=4, client_ids=["c0", "c1"], seed=7)
            spec = KeyedWorkloadSpec(operations_per_client=40, mean_interarrival=0.3,
                                     num_keys=32, key_distribution=distribution,
                                     zipf_exponent=1.6)
            result = run_workload(cluster, spec, seed=2)
            assert cluster.outstanding_operations() == 0
            return result.metrics.imbalance()

        assert imbalance("zipfian") > imbalance("uniform")

    def test_zipfian_cdf_shape(self):
        cdf = zipfian_cdf(8, 1.0)
        assert len(cdf) == 8
        assert cdf[-1] == pytest.approx(1.0)
        # Probability mass decreases with rank.
        masses = [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])]
        assert masses == sorted(masses, reverse=True)

    def test_rank_shuffle_shared_across_clients(self):
        spec = KeyedWorkloadSpec(num_keys=16, key_distribution="zipfian")
        one = ClientWorkload("c0", spec, seed=1)
        two = ClientWorkload("c1", spec, seed=999)
        assert one._keys == two._keys  # same rank-to-key assignment

    def test_random_on_key_poisson_schedule_is_pinned(self):
        # Exact submissions of a 2-client zipfian workload with Poisson gaps
        # and random per-key prev picks: (op id, due time, key, strict, prev).
        # Any change to the RNG draw order of the workload engine shows here.
        cluster = make_cluster(replicas_per_shard=2, seed=5)
        spec = KeyedWorkloadSpec(operations_per_client=8, mean_interarrival=0.5,
                                 poisson_arrivals=True, strict_fraction=0.3,
                                 num_keys=4, key_distribution="zipfian",
                                 zipf_exponent=1.2, prev_policy="random_on_key")
        log = []
        submit = cluster.submit

        def recording_submit(client, key, operator, prev=(), strict=False, at=None):
            operation = submit(client, key, operator, prev=prev, strict=strict, at=at)
            log.append((tuple(operation.id), round(at, 9), key, strict,
                        sorted(tuple(dep) for dep in prev)))
            return operation

        cluster.submit = recording_submit
        result = run_workload(cluster, spec, seed=3)
        assert log == [
            (("c0@s0", 0), 0.102203836, "k1", True, []),
            (("c0@s1", 0), 0.202954876, "k2", False, []),
            (("c0@s0", 1), 0.802733486, "k0", False, []),
            (("c0@s0", 2), 2.209246814, "k3", False, []),
            (("c0@s1", 1), 3.273693403, "k2", False, [("c0@s1", 0)]),
            (("c0@s0", 3), 3.505356171, "k0", False, [("c0@s0", 1)]),
            (("c0@s0", 4), 5.609693755, "k0", True, [("c0@s0", 1)]),
            (("c0@s0", 5), 6.100001326, "k3", False, [("c0@s0", 2)]),
            (("c1@s0", 0), 0.547053005, "k0", False, []),
            (("c1@s1", 0), 0.752738174, "k2", True, []),
            (("c1@s1", 1), 1.73177822, "k2", False, [("c1@s1", 0)]),
            (("c1@s1", 2), 1.7321234, "k2", False, [("c1@s1", 0)]),
            (("c1@s1", 3), 1.867136445, "k2", True, [("c1@s1", 0)]),
            (("c1@s0", 1), 2.032703404, "k3", False, []),
            (("c1@s0", 2), 2.467398075, "k0", False, [("c1@s0", 0)]),
            (("c1@s1", 4), 3.447956194, "k2", False, [("c1@s1", 1)]),
        ]
        assert result.metrics.completed == result.submitted == 16

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KeyedWorkloadSpec(num_keys=0)
        with pytest.raises(ValueError):
            KeyedWorkloadSpec(key_distribution="pareto")
        with pytest.raises(ValueError):
            KeyedWorkloadSpec(zipf_exponent=0.0)
        with pytest.raises(ValueError):
            KeyedWorkloadSpec(prev_policy="last_own")  # cross-key: unshardable
        with pytest.raises(ValueError):
            KeyedWorkloadSpec(strict_fraction=1.5)
        with pytest.raises(ValueError):
            KeyedWorkloadSpec(mean_interarrival=0.0)


class TestPerShardMetrics:
    def test_aggregates_and_breakdowns(self):
        cluster = make_cluster(num_shards=2, client_ids=["c0"])
        spec = KeyedWorkloadSpec(operations_per_client=10, mean_interarrival=0.5,
                                 num_keys=8)
        result = run_workload(cluster, spec, seed=1)
        metrics = result.metrics
        assert isinstance(metrics, PerShardMetrics)
        assert metrics.completed == 10
        assert metrics.outstanding == 0
        assert set(metrics.completed_by_shard()) == {"s0", "s1"}
        total = metrics.latency_summary()
        assert total.count == 10
        per_shard_counts = [
            metrics.latency_summary(shard=sid).count
            for sid in metrics.collectors
            if metrics.completed_by_shard()[sid]
        ]
        assert sum(per_shard_counts) == 10
        assert metrics.throughput(result.duration) == pytest.approx(result.throughput)
        assert metrics.imbalance() >= 1.0
        # The shard/category axes are keyword-only, and an unknown shard is a
        # clear MetricsError, not a bare KeyError — guards against porting
        # latency_summary("strict") from the unkeyed API.
        with pytest.raises(TypeError):
            metrics.latency_summary("strict")
        with pytest.raises(MetricsError, match="unknown shard"):
            metrics.latency_summary(shard="strict")
        with pytest.raises(TypeError):
            result.latency_summary("strict")

    def test_empty_metrics_edge_cases(self):
        from repro.sim.metrics import MetricsCollector

        metrics = PerShardMetrics({"s0": MetricsCollector()})
        assert metrics.completed == 0
        assert metrics.imbalance() == 0.0
        assert metrics.throughput(10.0) == 0.0
        assert metrics.throughput(0.0) == 0.0
        with pytest.raises(ValueError):
            PerShardMetrics({})


class TestEmptyWorkloadResultErrors:
    """Regression: latency on an empty response set raises a clear error."""

    def test_workload_result_raises_metrics_error(self):
        from repro.sim.cluster import SimulatedCluster
        from repro.sim.metrics import MetricsCollector
        from repro.sim.workload import WorkloadResult

        result = WorkloadResult(
            cluster=SimulatedCluster(CounterType(), 2, ["c0"]),
            metrics=MetricsCollector(),
            duration=10.0,
            submitted=5,
        )
        with pytest.raises(MetricsError, match="no operations completed"):
            _ = result.mean_latency
        with pytest.raises(MetricsError, match="category 'strict'"):
            result.latency_summary(category="strict")
        assert result.throughput == 0.0  # throughput of nothing is just zero

    def test_keyed_workload_result_raises_metrics_error(self):
        from repro.sim.metrics import MetricsCollector
        from repro.sim.workload import WorkloadResult

        result = WorkloadResult(
            cluster=make_cluster(),
            metrics=PerShardMetrics({"s0": MetricsCollector()}),
            duration=10.0,
            submitted=3,
        )
        with pytest.raises(MetricsError, match="no operations completed"):
            _ = result.mean_latency
        with pytest.raises(MetricsError, match="shard 's0'"):
            result.latency_summary(shard="s0")

    def test_nonempty_category_still_raises_only_when_empty(self):
        cluster = make_cluster(client_ids=["c0"])
        spec = KeyedWorkloadSpec(operations_per_client=6, mean_interarrival=0.5,
                                 num_keys=4, strict_fraction=0.0)
        result = run_workload(cluster, spec, seed=3)
        assert result.latency_summary(category="nonstrict_no_prev").count == 6
        with pytest.raises(MetricsError):
            result.latency_summary(category="strict")
