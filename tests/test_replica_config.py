"""Tests for :class:`ReplicaConfig`, the only carrier of the ten replica
features.

The algorithm-level entry point (:class:`AlgorithmSystem`) takes it as
``config=``; the harness parameter classes (:class:`SimulationParams`,
:class:`NetParams`) hold it as their ``replica`` field, which
``NetCluster(config=)`` / ``ShardedCluster(config=)`` replace.  Where two
surviving spellings reach the same deployment the tests run it both ways on
identical seeded workloads; incoherent combinations and misplaced per-shard
mappings must be rejected through every entry point; and no harness
parameter class may grow a mirror of a replica feature again.
"""

import asyncio
import dataclasses
import random

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.commute import CommuteReplicaCore
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.node import build_replicas
from repro.algorithm.replica import ReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import ConfigurationError, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.conformance.scenario import ScenarioSpec
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.net.runtime import NetCluster, NetParams
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import WorkloadSpec, run_workload

FEATURES = dict(
    fast_core=True,
    delta_gossip=True,
    full_state_interval=4,
    incremental_replay=True,
    compaction=CompactionPolicy(min_batch=4, value_retention=64),
    advert_gossip=True,
)
CONFIG = ReplicaConfig(**FEATURES)


def drive_system(system, seed=5, count=20):
    rng = random.Random(seed)
    gens = {cid: OperationIdGenerator(cid) for cid in system.client_ids}
    for i in range(count):
        client = system.client_ids[i % len(system.client_ids)]
        system.request(make_operation(CounterType.increment(), gens[client].fresh()))
        for _ in range(4):
            system.random_step(rng)
    system.drain(rng)
    return (
        sorted(((op.id, value) for op, value in system.trace.responses),
               key=lambda kv: repr(kv[0])),
        system.eventual_order(),
    )


class TestShardedClusterTwin:
    def test_config_kwarg_is_execution_identical(self):
        config = ReplicaConfig(batch_gossip=True, **FEATURES)
        in_params = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            client_ids=["c0", "c1"],
            params=SimulationParams(replica=config),
            seed=15,
        )
        as_kwarg = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            client_ids=["c0", "c1"],
            params=SimulationParams(),
            config=config,
            seed=15,
        )
        assert in_params.config == as_kwarg.config == config

        def drive(cluster):
            keys = [f"k{i}" for i in range(6)]
            ops = []
            for i in range(24):
                ops.append(cluster.submit(["c0", "c1"][i % 2],
                                          keys[i % len(keys)],
                                          CounterType.increment()))
                cluster.run(0.7)
            cluster.run_until_idle()
            return (
                [cluster.responded[op.id] for op in ops],
                {s: cluster.shards[s].eventual_order() for s in cluster.shard_ids},
            )

        assert drive(in_params) == drive(as_kwarg)


class TestNetClusterTwin:
    def test_config_overlay_matches_legacy_params(self):
        assert NetCluster(CounterType(), 2, ("c0",), config=CONFIG).params == NetParams(
            replica=CONFIG
        )

        async def values(make_cluster):
            cluster = make_cluster()
            async with cluster:
                out = []
                for i in range(6):
                    out.append(await cluster.submit("c0", CounterType.increment()))
                await cluster.quiesce()
                return out

        in_params = asyncio.run(values(
            lambda: NetCluster(CounterType(), 2, ("c0",), params=NetParams(replica=CONFIG))
        ))
        as_kwarg = asyncio.run(values(
            lambda: NetCluster(CounterType(), 2, ("c0",), config=CONFIG)
        ))
        assert in_params == as_kwarg == [1, 2, 3, 4, 5, 6]

    def test_mapping_compaction_rejected_outside_sharded_entry_points(self):
        per_shard = ReplicaConfig(
            fast_core=True,
            compaction={"s0": CompactionPolicy(min_batch=4, value_retention=8)}
        )
        with pytest.raises(ConfigurationError):
            NetParams(replica=per_shard)
        with pytest.raises(ConfigurationError):
            NetCluster(CounterType(), 2, ("c0",), config=per_shard)
        with pytest.raises(ConfigurationError):
            SimulationParams(replica=per_shard)
        with pytest.raises(ConfigurationError):
            AlgorithmSystem(CounterType(), ["r1", "r2"], ["c0"], config=per_shard)
        # The sharded entry point is where the mapping resolves.
        ShardedCluster(CounterType(), config=per_shard)


class TestOneSpelling:
    def test_no_harness_parameter_mirrors_a_replica_feature(self):
        features = {f.name for f in dataclasses.fields(ReplicaConfig)}
        for params in (SimulationParams, NetParams):
            own = {f.name for f in dataclasses.fields(params)}
            assert own & features == set(), params.__name__
            assert "replica" in own


class TestIncoherentCombinations:
    def test_batch_replay_requires_fast_core(self):
        with pytest.raises(ConfigurationError, match="batch_replay.*fast_core"):
            ReplicaConfig(batch_replay=True)
        with pytest.raises(ConfigurationError, match="batch_replay.*fast_core"):
            ReplicaConfig(batch_replay=True, fast_core=False)
        # The coherent combination constructs fine.
        ReplicaConfig(batch_replay=True, fast_core=True)

    def test_rejection_surfaces_through_every_entry_point(self):
        # One carrier means one place rejects it, before any harness can be
        # handed the result: the constructor, a ``replace`` of a coherent
        # config, and a scenario document read from disk.
        with pytest.raises(ConfigurationError):
            dataclasses.replace(CONFIG, batch_replay=True, fast_core=False)
        doc = ScenarioSpec(
            name="x", harness="sim", data_type="counter", num_replicas=2,
            clients=("c0",), seed=0, workload_seed=0,
            params=SimulationParams(replica=CONFIG), workload={},
        ).to_doc()
        assert ScenarioSpec.from_doc(doc).params.replica == CONFIG
        doc["replica"].update(batch_replay=True, fast_core=False)
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_doc(doc)

    @pytest.mark.parametrize("extension", [
        dict(delta_gossip=True),
        dict(compaction=CompactionPolicy()),
        dict(advert_gossip=True),
    ], ids=["delta_gossip", "compaction", "advert_gossip"])
    def test_extensions_require_the_production_core(self, extension):
        # The reference core is Fig. 7 alone: an extension without
        # fast_core is refused where the config is made.
        with pytest.raises(ConfigurationError, match="fast_core=True"):
            ReplicaConfig(**extension)
        assert ReplicaConfig(fast_core=True, **extension).extended

    @pytest.mark.parametrize("factory", [
        ReplicaCore, MemoizedReplicaCore, CommuteReplicaCore,
    ], ids=["reference", "memoized", "commute"])
    def test_an_extension_on_another_core_is_a_configuration_error(self, factory):
        # A factory overrides the core fast_core selects; one without the
        # extensions is refused by name, not by a missing attribute.
        with pytest.raises(ConfigurationError, match=factory.__name__):
            build_replicas(CONFIG, ["r1", "r2"], CounterType(), factory)
        plain = build_replicas(ReplicaConfig(fast_core=True), ["r1", "r2"], CounterType(), factory)
        assert all(type(core) is factory for core in plain.values())

    def test_batch_replay_is_inert(self):
        # The batch kernel is part of the production core: the flag still
        # validates, but builds the very class fast_core alone does.
        for config in (
            ReplicaConfig(fast_core=True, batch_replay=True),
            ReplicaConfig(fast_core=True),
        ):
            cluster = SimulatedCluster(
                CounterType(), 3, ["c0"], params=SimulationParams(replica=config), seed=1
            )
            assert all(type(r) is FastReplicaCore for r in cluster.replicas.values())

    @pytest.mark.parametrize("fast_core", [False, True], ids=["reference", "production"])
    def test_incremental_replay_is_inert(self, fast_core):
        # Each core has exactly one way to compute a value: seeded clusters
        # differing only in the flag answer alike and replay alike.
        def run(incremental):
            config = ReplicaConfig(fast_core=fast_core, delta_gossip=fast_core,
                                   incremental_replay=incremental)
            cluster = SimulatedCluster(CounterType(), 3, ["c0", "c1"],
                                       params=SimulationParams(replica=config), seed=7)
            spec = WorkloadSpec(operations_per_client=30, mean_interarrival=0.5,
                                strict_fraction=0.2)
            run_workload(cluster, spec, seed=8)
            return cluster.responded, cluster.total_value_applications()

        plain, plain_apps = run(False)
        flagged, flagged_apps = run(True)
        assert len(plain) == 60
        assert plain == flagged
        assert plain_apps == flagged_apps
