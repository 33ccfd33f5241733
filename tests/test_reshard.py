"""Tests for live elastic resharding (:meth:`ShardedCluster.reshard` and
friends): ring changes under traffic, the dual-route handoff window, the
digest-verified slice transfer, response equivalence against a statically
sharded oracle twin (Theorem 5.8 across the handoff), the fault adversaries
replayed mid-migration, and the slice rule of :mod:`repro.service.reshard`.
"""

import random
from types import SimpleNamespace

import pytest

from repro.common import ConfigurationError, InvariantViolation, OperationId
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.net.wire import WireCluster
from repro.service.keyed import KeyedStore
from repro.service.reshard import LiveReshard, SliceLeg, build_slice, cut_slice, tamper_slice
from repro.service.router import ShardRouter
from repro.sim.cluster import SimulationParams
from repro.sim.faults import CorruptTransfers, DuplicateMessages
from repro.sim.sharded import ShardedCluster

KEYS = [f"k{i}" for i in range(16)]


def make_cluster(num_shards=2, seed=42, **kwargs):
    defaults = dict(replicas_per_shard=3, client_ids=["c0", "c1"], seed=seed)
    defaults.update(kwargs)
    return ShardedCluster(CounterType(), num_shards=num_shards, **defaults)


def chained_traffic(cluster, rng, count, run_between=0.4):
    """Submit *count* keyed operations, each chained after the key's last
    operation (a per-key total order, so response values are a pure
    function of the per-key history — the oracle-twin comparisons rely on
    this), driving the event loop a little between submissions."""
    ops = []
    for _ in range(count):
        client = rng.choice(list(cluster.client_ids))
        key = rng.choice(KEYS)
        prev = cluster.last_operation_on(key)
        roll = rng.random()
        if roll < 0.55:
            operator = CounterType.increment()
        elif roll < 0.75:
            operator = CounterType.double()
        else:
            operator = CounterType.read()
        op = cluster.submit(client, key, operator, prev=(prev,) if prev else ())
        ops.append(op)
        cluster.run(run_between)
    return ops


def finish(cluster):
    cluster.run_until_idle()
    assert cluster.outstanding_operations() == 0
    cluster.check_invariants()
    cluster.check_traces()


class TestLiveAddShard:
    def test_add_shard_under_traffic(self):
        cluster = make_cluster(num_shards=2)
        rng = random.Random(1)
        before = chained_traffic(cluster, rng, 18)
        handle = cluster.add_shard("s2")
        assert cluster.active_reshard() is handle
        during = chained_traffic(cluster, rng, 18)
        cluster.run_until_resharded(handle)
        assert handle.done
        assert cluster.active_reshard() is None
        after = chained_traffic(cluster, rng, 10)
        finish(cluster)
        everything = before + during + after
        assert set(cluster.responded) >= {op.id for op in everything}
        assert set(cluster.shard_ids) == {"s0", "s1", "s2"}
        assert handle.moved_operations > 0
        assert handle.joining == ("s2",) and handle.leaving == ()
        summary = handle.summary()
        assert summary["completed_at"] is not None
        assert summary["moved_operations"] == handle.moved_operations

    def test_growth_only_moves_keys_to_joining_shard(self):
        cluster = make_cluster(num_shards=3)
        handle = cluster.add_shard("s3")
        assert handle.plan  # a join always takes some ranges
        assert all(move.destination == "s3" for move in handle.plan)
        assert len({move.source for move in handle.plan}) >= 2
        cluster.run_until_resharded(handle)
        finish(cluster)

    def test_concurrent_reshards_rejected(self):
        cluster = make_cluster(num_shards=2)
        cluster.add_shard("s2")
        with pytest.raises(ConfigurationError):
            cluster.add_shard("s3")
        with pytest.raises(ConfigurationError):
            cluster.drain_shard("s0")

    def test_live_reshard_matches_static_oracle(self):
        """Theorem 5.8 across the handoff: a cluster that reshards 2->3 live
        under traffic returns exactly the values a statically 3-sharded twin
        returns for the same per-key-chained workload."""
        base = ShardRouter.for_count(2)
        final = base.add_shard("s2")
        live = ShardedCluster(
            CounterType(), router=base, replicas_per_shard=2,
            client_ids=["c0", "c1"], seed=7,
        )
        oracle = ShardedCluster(
            CounterType(), router=final, replicas_per_shard=2,
            client_ids=["c0", "c1"], seed=7,
        )
        script = []
        rng = random.Random(99)
        for _ in range(36):
            roll = rng.random()
            if roll < 0.55:
                operator = CounterType.increment()
            elif roll < 0.75:
                operator = CounterType.double()
            else:
                operator = CounterType.read()
            script.append((rng.choice(["c0", "c1"]), rng.choice(KEYS), operator))

        def run_script(cluster, reshard_after=None):
            ops, handle = [], None
            for i, (client, key, operator) in enumerate(script):
                if i == reshard_after:
                    handle = cluster.add_shard("s2")
                prev = cluster.last_operation_on(key)
                ops.append(cluster.submit(client, key, operator,
                                          prev=(prev,) if prev else ()))
                cluster.run(0.4)
            if handle is not None:
                cluster.run_until_resharded(handle)
            cluster.run_until_idle()
            return ops

        live_ops = run_script(live, reshard_after=12)
        oracle_ops = run_script(oracle)
        live.check_invariants()
        oracle.check_invariants()
        live_values = [live.value_of(op) for op in live_ops]
        oracle_values = [oracle.value_of(op) for op in oracle_ops]
        assert live_values == oracle_values

    def test_invariants_hold_throughout_handoff_window(self):
        """The per-shard Section 7/8 checker passes at every migration tick,
        not just at the end — pending injected chains and barrier prevs must
        never trip it mid-window."""
        cluster = make_cluster(num_shards=2, seed=5)
        rng = random.Random(5)
        chained_traffic(cluster, rng, 12)
        handle = cluster.add_shard("s2")
        checked = 0
        while not handle.done and checked < 400:
            cluster.run(0.5)
            chained_traffic(cluster, rng, 1, run_between=0.1)
            cluster.check_invariants()
            checked += 1
        assert handle.done
        finish(cluster)


class TestDrainShard:
    def test_drain_shard_retires_source(self):
        cluster = make_cluster(num_shards=3, seed=11)
        rng = random.Random(11)
        chained_traffic(cluster, rng, 18)
        handle = cluster.drain_shard("s1")
        assert all(move.source == "s1" for move in handle.plan)
        chained_traffic(cluster, rng, 12)
        cluster.run_until_resharded(handle)
        assert handle.done and handle.leaving == ("s1",)
        finish(cluster)
        assert set(cluster.shard_ids) == {"s0", "s2"}
        # The retired shard's history stays readable...
        assert "s1" in cluster.shards
        assert cluster.shards["s1"].outstanding_operations() == 0
        # ...and new traffic routes only to the survivors.
        op = cluster.submit("c0", "fresh-key", CounterType.increment())
        assert cluster.directory.shard_of_operation(op.id) in {"s0", "s2"}
        finish(cluster)

    def test_retired_shard_id_cannot_rejoin(self):
        cluster = make_cluster(num_shards=3, seed=11)
        handle = cluster.drain_shard("s1")
        cluster.run_until_resharded(handle)
        with pytest.raises(ConfigurationError):
            cluster.add_shard("s1")

    def test_rejected_reshard_builds_no_phantom_shard(self):
        """A ring naming one fresh and one retired id is rejected before
        the fresh shard is built: nothing changes, and the fresh id can
        still join afterwards."""
        cluster = make_cluster(num_shards=2, seed=5)
        rng = random.Random(5)
        chained_traffic(cluster, rng, 6)
        cluster.run_until_resharded(cluster.drain_shard("s1"))
        shards, ring = dict(cluster.shards), cluster.router.shard_ids
        with pytest.raises(ConfigurationError, match="retired"):
            cluster.reshard(ShardRouter(["s0", "s7", "s1"]))
        assert cluster.shards == shards and cluster.router.shard_ids == ring
        assert cluster.active_reshard() is None and len(cluster.reshards) == 1
        handle = cluster.add_shard("s7")
        chained_traffic(cluster, rng, 6)
        cluster.run_until_resharded(handle)
        assert set(cluster.shard_ids) == {"s0", "s7"}
        finish(cluster)

    def test_add_then_drain_moves_histories_twice(self):
        """A key migrated into the new shard and then drained out again
        arrives intact at its third owner (membership is decided by key
        hash, not minting shard)."""
        cluster = make_cluster(num_shards=2, seed=23)
        rng = random.Random(23)
        chained_traffic(cluster, rng, 16)
        first = cluster.add_shard("s2")
        chained_traffic(cluster, rng, 10)
        cluster.run_until_resharded(first)
        second = cluster.drain_shard("s2")
        chained_traffic(cluster, rng, 10)
        cluster.run_until_resharded(second)
        assert first.done and second.done
        # Everything s2 took in the first reshard went back out in the second.
        if first.moved_operations:
            assert second.moved_operations >= first.moved_operations
        finish(cluster)
        assert set(cluster.shard_ids) == {"s0", "s1"}


class TestReshardUnderFaults:
    def test_transfer_corruption_heals_by_resend(self):
        cluster = make_cluster(num_shards=2, seed=3)
        rng = random.Random(3)
        chained_traffic(cluster, rng, 16)
        for shard in cluster.shards.values():
            CorruptTransfers(
                start=cluster.now, end=cluster.now + 30.0, probability=1.0
            ).install(shard)
        handle = cluster.add_shard("s2")
        cluster.run_until_resharded(handle, max_time=20_000.0)
        assert handle.done
        assert handle.transfer_rejections > 0  # corrupted slices were caught
        finish(cluster)

    def test_duplicated_slices_are_idempotent(self):
        """Migration slices face the duplication adversary like every other
        send: under a 100% duplication window each slice is delivered twice,
        and the copy that arrives after injection is ignored."""
        cluster = make_cluster(num_shards=2, seed=3)
        chained_traffic(cluster, random.Random(3), 16)
        for shard in cluster.shards.values():
            DuplicateMessages(start=cluster.now, end=cluster.now + 200.0).install(shard)
        delivered = []
        deliver = cluster._deliver_slice

        def counting(leg, message):
            delivered.append(message)
            deliver(leg, message)

        cluster._deliver_slice = counting
        handle = cluster.add_shard("s2")
        cluster.run_until_resharded(handle, max_time=20_000.0)
        assert handle.done
        sent = sum(shard.network.counters.transfer for shard in cluster.shards.values())
        assert 0 < sent < len(delivered)
        finish(cluster)  # includes check_reshard_handoffs

    def test_source_crash_mid_handoff_blocks_until_recovery(self):
        # Volatile crashes can lose a replica's owed responses; the fault
        # model recovers those through front-end retransmission.
        cluster = make_cluster(
            num_shards=2, seed=13,
            params=SimulationParams(
                replica=ReplicaConfig(batch_gossip=True), retransmit_interval=4.0
            ),
        )
        rng = random.Random(13)
        chained_traffic(cluster, rng, 14)
        handle = cluster.add_shard("s2")
        cluster.run(0.5)  # let the legs flip
        for sid in ("s0", "s1"):
            cluster.shards[sid].crash_replica("r0", volatile_memory=True)
        cluster.run(40.0)
        assert not handle.done  # slices cannot settle with a source down
        for sid in ("s0", "s1"):
            cluster.shards[sid].recover_replica("r0")
        cluster.run_until_resharded(handle, max_time=20_000.0)
        assert handle.done
        finish(cluster)

    def test_destination_crash_mid_handoff_recovers(self):
        cluster = make_cluster(
            num_shards=2, seed=17,
            params=SimulationParams(
                replica=ReplicaConfig(batch_gossip=True), retransmit_interval=4.0
            ),
        )
        rng = random.Random(17)
        chained_traffic(cluster, rng, 14)
        handle = cluster.add_shard("s2")
        cluster.run(0.5)
        cluster.shards["s2"].crash_replica("r0", volatile_memory=True)
        cluster.run(10.0)
        cluster.shards["s2"].recover_replica("r0")
        cluster.run_until_resharded(handle, max_time=20_000.0)
        assert handle.done
        finish(cluster)


class TestWireReshard:
    def test_reshard_over_the_binary_wire_codec(self):
        cluster = make_cluster(
            num_shards=2, seed=29, cluster_class=WireCluster,
            replicas_per_shard=2,
        )
        rng = random.Random(29)
        chained_traffic(cluster, rng, 12)
        handle = cluster.add_shard("s2")
        chained_traffic(cluster, rng, 8)
        cluster.run_until_resharded(handle)
        assert handle.done
        finish(cluster)
        assert set(cluster.shard_ids) == {"s0", "s1", "s2"}


class TestSliceRule:
    """The leg steps of :mod:`repro.service.reshard`, off any clock."""

    @staticmethod
    def slice_of(count):
        return [
            make_operation(KeyedStore.at("k", CounterType.increment()),
                           OperationId("c0@s0", seqno))
            for seqno in range(1, count + 1)
        ]

    def test_plan_rejects_a_retired_id_before_anything_is_built(self):
        old = ShardRouter(["s0"])
        with pytest.raises(ConfigurationError, match="'s1' was retired"):
            LiveReshard(old, ShardRouter(["s0", "s7", "s1"]), {"s0", "s1"}, started_at=0.0)
        plan = LiveReshard(old, ShardRouter(["s0", "s7"]), {"s0", "s1"}, started_at=0.0)
        assert plan.joining == ("s7",)
        assert {(leg.source, leg.destination) for leg in plan.legs} == {("s0", "s7")}

    def test_cut_follows_the_source_order_and_records_values(self):
        ops = self.slice_of(3)
        leg = SliceLeg("s0", "s1", ())
        leg.slice_ids = frozenset(op.id for op in ops)
        stray = OperationId("c0@s0", 99)  # in the source order, not in the slice
        source = SimpleNamespace(
            eventual_order=lambda: [ops[2].id, stray, ops[0].id, ops[1].id],
            requested={op.id: op for op in ops},
            responded={ops[0].id: 1, ops[2].id: 2},
        )
        assert cut_slice(leg, source) == [ops[2], ops[0], ops[1]]
        assert leg.ops == [ops[2], ops[0], ops[1]]
        assert leg.values == {ops[2].id: 2, ops[0].id: 1}

    def test_cut_raises_when_the_source_order_lost_a_frozen_operation(self):
        ops = self.slice_of(3)
        leg = SliceLeg("s0", "s1", ())
        leg.slice_ids = frozenset(op.id for op in ops)
        source = SimpleNamespace(
            eventual_order=lambda: [ops[0].id, ops[2].id],
            requested={op.id: op for op in ops},
            responded={},
        )
        with pytest.raises(InvariantViolation, match=r"lost operations: \['c0@s0#2'\]"):
            cut_slice(leg, source)
        assert leg.ops == []  # nothing was cut


    @pytest.mark.parametrize("answered", [True, False], ids=["values", "no-values"])
    def test_a_slice_verifies_intact_and_fails_tampered(self, answered):
        # With values the adversary wraps one; without, it drops an operation.
        ops = self.slice_of(3)
        values = {op.id: index for index, op in enumerate(ops)} if answered else {}
        message = build_slice(ops, values)
        assert message.verified_ops() == ops
        assert tamper_slice(message).verified_ops() is None
