"""Checkpoint identity versus integrity.

A compacted checkpoint is *identified* by its fold order — the stable prefix
is totally ordered and agreed everywhere (Invariant 7.2, Theorem 5.8) — so
adverts and pulls carry :meth:`Checkpoint.identity`, an O(1) function of
``(frontier, count, order_digest)``.  *Integrity* is
:meth:`Checkpoint.digest`, the content hash over base state and retained
values, and it is evaluated only where a body is transferred.

Covers: identity is slicing-independent and changes with every fold; the
content digest still catches every single tamper and is independent of dict
insertion order and of ``PYTHONHASHSEED``; no gossip tick computes a content
digest; ``OpIdSummary.with_ids`` (which every fold calls) agrees with the
from-scratch constructor.
"""

import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.algorithm.checkpoint import Checkpoint, CompactionPolicy, OpIdSummary
from repro.algorithm.labels import Label
from repro.common import OperationId, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.faults import FaultSchedule, ReplicaCrash


def agreed_prefix(count, clients=("a", "b", "c")):
    """*count* increments from interleaved clients with their agreed labels."""
    generators = [OperationIdGenerator(client) for client in clients]
    prefix = [
        make_operation(CounterType.increment(), generators[i % len(clients)].fresh())
        for i in range(count)
    ]
    labels = {op.id: Label(rank, "r0") for rank, op in enumerate(prefix)}
    return prefix, labels


def fold(prefix, labels, slices, retention=None):
    """Fold *prefix* the way a replica whose compaction ticks cut it into
    *slices* would; returns every intermediate checkpoint."""
    data_type = CounterType()
    checkpoint = Checkpoint.empty(data_type.initial_state())
    history, start = [], 0
    for size in slices:
        checkpoint, _ = checkpoint.extend(
            prefix[start : start + size], data_type, labels, value_retention=retention
        )
        history.append(checkpoint)
        start += size
    assert start == len(prefix)
    return history


class TestIdentity:
    def test_identity_ignores_how_compaction_sliced_the_prefix(self):
        prefix, labels = agreed_prefix(12)
        whole = fold(prefix, labels, [12])[-1]
        uneven = fold(prefix, labels, [1, 4, 2, 5])[-1]
        single = fold(prefix, labels, [1] * 12, retention=3)[-1]
        assert whole.identity() == uneven.identity() == single.identity()
        assert whole.advert().digest == uneven.advert().digest == whole.identity()
        # Retention is local policy: it changes the body, not the prefix.
        assert single.digest() != whole.digest() == uneven.digest()

    def test_every_further_fold_changes_the_identity(self):
        prefix, labels = agreed_prefix(40)
        identities = [c.identity() for c in fold(prefix, labels, [1] * 40)]
        assert len(set(identities)) == 40
        assert all(len(i) == 16 and int(i, 16) >= 0 for i in identities)

    def test_identity_does_not_touch_the_body(self):
        class Unrenderable:
            def __repr__(self):
                raise AssertionError("the identity must not render the body")

        checkpoint = Checkpoint(
            base_state=Unrenderable(),
            frontier=Label(3, "r0"),
            ids=OpIdSummary({"c": [(0, 3)]}),
            values={OperationId("c", 3): Unrenderable()},
            order_digest="ab" * 8,
        )
        assert checkpoint.advert().digest == checkpoint.identity()
        with pytest.raises(AssertionError):
            checkpoint.digest()


class TestContentDigest:
    def _checkpoint(self):
        prefix, labels = agreed_prefix(6)
        return fold(prefix, labels, [6])[-1]

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: replace(c, values={**c.values, next(iter(c.values)): 99}),
            lambda c: replace(c, ids=c.ids.with_ids([OperationId("a", 7)])),
            lambda c: replace(c, base_state=c.base_state + 1),
            lambda c: replace(c, order_digest="f" * 16),
            lambda c: replace(c, frontier=Label(c.frontier.rank + 1, "r0")),
        ],
        ids=["value", "id", "base_state", "order_digest", "frontier"],
    )
    def test_every_single_tamper_changes_the_digest(self, tamper):
        checkpoint = self._checkpoint()
        assert tamper(checkpoint).digest() != checkpoint.digest()

    def test_digest_ignores_dict_insertion_order(self):
        checkpoint = self._checkpoint()
        backwards = replace(checkpoint, values=dict(reversed(list(checkpoint.values.items()))))
        assert list(backwards.values) != list(checkpoint.values)
        assert backwards.digest() == checkpoint.digest()

    _FIXTURE = (
        "from repro.algorithm.checkpoint import Checkpoint, OpIdSummary\n"
        "from repro.algorithm.labels import Label\n"
        "from repro.common import OperationId\n"
        "words = ['pear', 'fig', 'plum', 'lime', 'kiwi', 'date', 'yuzu']\n"
        "c = Checkpoint(\n"
        "    base_state=frozenset(words), frontier=Label(4, 'r0'),\n"
        "    ids=OpIdSummary({'c': [(0, 1)]}),\n"
        "    values={OperationId('c', 0): frozenset(words[:4]),\n"
        "            OperationId('c', 1): {w: set(words) for w in words}},\n"
        "    order_digest='0123456789abcdef')\n"
        "print(c.digest(), c.identity(), ''.join(c.base_state))\n"
    )

    def test_set_valued_digest_is_equal_across_hash_seeds(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", self._FIXTURE],
                capture_output=True, text=True, env=env, check=True, cwd=root,
            )
            outputs.append(out.stdout.split())
        (digest_1, identity_1, order_1), (digest_2, identity_2, order_2) = outputs
        assert order_1 != order_2, "the two seeds must iterate the set differently"
        assert digest_1 == digest_2 and identity_1 == identity_2
        assert digest_1 != identity_1


def _digest_callers(monkeypatch):
    """Count ``Checkpoint.digest`` calls by the name of the calling function."""
    callers = []
    original = Checkpoint.digest

    def counted(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(self)

    monkeypatch.setattr(Checkpoint, "digest", counted)
    return callers


def _compacting_params():
    return SimulationParams(
        df=1.0,
        dg=1.0,
        gossip_period=1.0,
        frontend_policy="round_robin",
        retransmit_interval=4.0,
        replica=ReplicaConfig(
            compaction=CompactionPolicy(min_batch=1),
            compaction_interval=1.0,
            advert_gossip=True,
            checkpoint_chunk=2,
        ),
    )


def _drive(cluster, operations=40):
    for index in range(operations):
        cluster.submit("c0" if index % 2 == 0 else "c1", CounterType.increment())
        cluster.run(0.5)
    cluster.run(30.0)


class TestDigestIsOffTheGossipTick:
    def test_no_fault_run_never_hashes_a_body(self, monkeypatch):
        callers = _digest_callers(monkeypatch)
        cluster = SimulatedCluster(
            CounterType(), 3, ["c0", "c1"], params=_compacting_params(), seed=2
        )
        _drive(cluster)
        stats = [replica.stats for replica in cluster.replicas.values()]
        assert min(s.compactions for s in stats) >= 10, "not compaction-heavy"
        assert all(replica.checkpoint.count == 40 for replica in cluster.replicas.values())
        assert cluster.network.counters.transfer == 0
        assert callers == []

    def test_volatile_crash_hashes_only_on_the_transfer_path(self, monkeypatch):
        callers = _digest_callers(monkeypatch)
        cluster = SimulatedCluster(
            CounterType(), 3, ["c0", "c1"], params=_compacting_params(), seed=2
        )
        FaultSchedule().add(
            ReplicaCrash("r1", at=8.0, recover_at=13.0, volatile_memory=True)
        ).install(cluster)
        _drive(cluster)
        assert cluster.network.counters.transfer > 0
        assert callers and set(callers) <= {"checkpoint_transfers", "receive_transfer"}
        # One hash per body cut into chunks, at most one per assembled body.
        assert callers.count("checkpoint_transfers") <= cluster.network.counters.pull
        assert callers.count("receive_transfer") <= callers.count("checkpoint_transfers")
        states = {replica.replayed_state() for replica in cluster.replicas.values()}
        assert len(states) == 1


class TestWithIds:
    def test_agrees_with_the_constructor_on_random_batches(self):
        rng = random.Random(7)
        summary, seen = OpIdSummary(), set()
        for _ in range(200):
            batch = [
                OperationId(rng.choice("abcd"), rng.randrange(60))
                for _ in range(rng.randrange(0, 6))
            ]
            summary = summary.with_ids(batch)
            seen.update(batch)
            rebuilt: dict = {}
            for op_id in seen:
                rebuilt.setdefault(op_id.client, []).append((op_id.seqno, op_id.seqno))
            reference = OpIdSummary(rebuilt)
            assert summary.ranges == reference.ranges
            assert summary.count == reference.count == len(seen)
            assert all(op_id in summary for op_id in batch)

    def test_contiguous_fold_extends_in_place_and_shares_the_rest(self):
        before = OpIdSummary({"a": [(0, 9)], "b": [(0, 4), (7, 8)], "c": [(0, 2)]})
        after = before.with_ids([OperationId("b", 9), OperationId("b", 10)])
        assert after.ranges["b"] == ((0, 4), (7, 10))
        assert after.ranges["a"] is before.ranges["a"]
        assert after.ranges["c"] is before.ranges["c"]
        assert before.ranges["b"] == ((0, 4), (7, 8))  # immutable
        assert (before.count, after.count) == (20, 22)
        assert before.with_ids([]).ranges == before.ranges
