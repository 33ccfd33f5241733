"""Property-based tests (hypothesis) for the fast core's derived state.

:class:`~repro.algorithm.fastcore.FastReplicaCore` replaces tuple sort keys
and per-element scans with packed-int keys, a done index and one derived
stable-everywhere set.  These properties pin the three load-bearing claims:

* **Order isomorphism** — the packed key ``rank * stride + replica_index``
  sorts any label population exactly as
  :func:`~repro.algorithm.labels.label_sort_key` does, with missing labels
  (``INFINITY``) strictly after every finite key.
* **Merge stability** — after any random interleaving of requests, do-its
  and gossip merges, the stable-everywhere set, the indexes and the key
  backbone agree with the authoritative sets they derive from.
* **Compaction-fold remapping** — folding a stable prefix preserves the
  membership and relative order of every surviving tracked operation, and
  the retired ids vanish from every mirror (tracked implies not covered).

The interval-difference enumerator behind the advert coverage fast path is
also pinned against its set-theoretic definition.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.algorithm.checkpoint import CompactionPolicy, OpIdSummary
from repro.algorithm.fastcore import FastReplicaCore, _iter_interval_diff
from repro.algorithm.labels import Label, label_sort_key
from repro.algorithm.system import AlgorithmSystem
from repro.common import INFINITY, OperationId, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType

REPLICAS = ("r0", "r1", "r2")

labels = st.builds(
    Label,
    rank=st.integers(min_value=0, max_value=60),
    replica=st.sampled_from(REPLICAS),
)
labels_or_none = st.one_of(labels, st.none(), st.just(INFINITY))


def fresh_core():
    return FastReplicaCore("r0", REPLICAS, CounterType())


# ---------------------------------------------------------------------------
# Packed-key order isomorphism
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(labels_or_none, min_size=0, max_size=40))
def test_packed_keys_sort_like_label_sort_keys(population):
    core = fresh_core()
    packed = sorted(population, key=core._label_key)
    reference = sorted(
        population, key=lambda lb: label_sort_key(INFINITY if lb is None else lb)
    )
    # Both orders agree up to ties; compare via the reference key, which is
    # total on (rank, replica) and groups None with INFINITY.
    norm = lambda lb: label_sort_key(INFINITY if lb is None else lb)
    assert [norm(lb) for lb in packed] == [norm(lb) for lb in reference]


@settings(max_examples=100, deadline=None)
@given(labels, labels)
def test_packed_keys_isomorphic_pairwise(a, b):
    core = fresh_core()
    ka, kb = core._label_key(a), core._label_key(b)
    assert (ka < kb) == (label_sort_key(a) < label_sort_key(b))
    assert (ka == kb) == (label_sort_key(a) == label_sort_key(b))
    # Finite labels are distinct iff their packed keys are (uniqueness is
    # what lets _apply_order_changes locate elements with bisect_left).
    assert (a == b) == (ka == kb)
    # INFINITY / missing labels land strictly after every finite key.
    assert ka < core._label_key(INFINITY)
    assert ka < core._label_key(None)


# ---------------------------------------------------------------------------
# Interval-difference enumerator
# ---------------------------------------------------------------------------

seqno_sets = st.sets(st.integers(min_value=0, max_value=120), max_size=40)


def intervals_of(seqnos):
    summary = OpIdSummary()
    return summary.with_ids(
        OperationId(client="c", seqno=s) for s in seqnos
    ).ranges.get("c", ())


@settings(max_examples=100, deadline=None)
@given(seqno_sets, seqno_sets)
def test_interval_diff_matches_set_difference(theirs, mine):
    diff = list(_iter_interval_diff(intervals_of(theirs), intervals_of(mine)))
    assert diff == sorted(theirs - mine)


# ---------------------------------------------------------------------------
# Merge stability and compaction-fold remapping
# ---------------------------------------------------------------------------


def mirror_audit(core):
    """Every piece of derived state agrees with the authoritative sets."""
    assert core._stable_all == set.intersection(*core.stable.values())
    done_here = core.done[core.replica_id]
    assert core._done_index == {x.id: x for x in done_here}
    assert core._undone == core.rcvd - done_here
    order = core.done_order()
    assert core._order_keys == sorted(core._order_keys)
    assert [core._label_key(core.labels.get(x.id)) for x in order] == core._order_keys


def drive_random_system(seed, steps, compaction=False):
    """A three-replica fast-core system driven by seeded random actions."""
    system = AlgorithmSystem(
        CounterType(),
        list(REPLICAS),
        ["alice", "bob"],
        replica_factory=FastReplicaCore,
        config=ReplicaConfig(fast_core=True, compaction=CompactionPolicy(min_batch=1) if compaction else None),
    )
    rng = random.Random(seed)
    generators = {c: OperationIdGenerator(c) for c in ("alice", "bob")}
    for index in range(10):
        client = "alice" if index % 2 else "bob"
        system.request(
            make_operation(CounterType.increment(), generators[client].fresh())
        )
    system.run_random(rng, steps=steps)
    return system, rng


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=20, max_value=160))
def test_mirrors_survive_random_merge_interleavings(seed, steps):
    system, _rng = drive_random_system(seed, steps)
    for core in system.replicas.values():
        mirror_audit(core)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_compaction_fold_preserves_survivor_order_and_retires_slots(seed):
    system, rng = drive_random_system(seed, steps=120, compaction=True)
    system.drain(rng)
    for core in system.replicas.values():
        before = core.done_order()
        folded = core.maybe_compact(force=True)
        after = core.done_order()
        # The fold removed exactly a prefix; survivors keep their order.
        assert after == before[folded:]
        for x in before[:folded]:
            assert x not in core._stable_all
            assert x.id not in core._done_index
            assert core.is_compacted(x.id)
        mirror_audit(core)
