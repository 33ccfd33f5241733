"""``OperationId``, ``Label`` and ``Operator`` are tuples.

Every layer hashes, compares and constructs these three value types
millions of times, so they are ``typing.NamedTuple``s: the dunder methods
are C code.  Nothing observable moved when they stopped being frozen
dataclasses, and this suite pins what "nothing" means:

* ``hash()`` is the hash of the field tuple — the value the dataclasses'
  hand-written ``_hash`` caches stored — so :class:`OperationDescriptor`'s
  hash, every set iteration order and every seeded execution are unchanged;
* ``repr()`` is the dataclass spelling, character for character (it is a
  scheduling key and digest material);
* the orders are the ones the dataclasses defined, ``INFINITY`` included;
* the values are immutable, picklable and copyable;
* a tuple-backed value *equals* the plain tuple of its fields, so every
  generic encoder must dispatch on the three types ahead of ``tuple``;
* no hand-written hash cache survives in the three classes, and the
  reference automaton and the production core still walk in lockstep.
"""

import ast
import copy
import inspect
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_fastcore import assert_twin_equivalent

from repro import common as common_module
from repro.algorithm import labels as labels_module
from repro.algorithm.checkpoint import CompactionPolicy, canonical_repr
from repro.algorithm.labels import Label, LabelGenerator, label_min, label_sort_key
from repro.common import INFINITY, OperationId, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.conformance import ConformanceError, decode_value, encode_value
from repro.conformance.scenario import counter_mix, register_mix
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes import CounterType, RegisterType
from repro.datatypes import base as base_module
from repro.datatypes.base import Operator
from repro.service.keyed import KeyedStore
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

SAMPLES = (
    (OperationId("c", 1), ("c", 1), "OperationId(client='c', seqno=1)"),
    (Label(7, "r0"), (7, "r0"), "Label(rank=7, replica='r0')"),
    (Operator("add", (5,)), ("add", (5,)), "Operator(name='add', args=(5,))"),
    (Operator("read"), ("read", ()), "Operator(name='read', args=())"),
)


# --------------------------------------------------------------------------- #
# Pinned identities                                                           #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("value, fields, spelled", SAMPLES)
def test_hash_equality_and_repr_are_those_of_the_field_tuple(value, fields, spelled):
    assert isinstance(value, tuple)
    assert hash(value) == hash(fields)
    assert value == fields and tuple(value) == fields
    assert repr(value) == spelled
    assert value == type(value)(*fields) == type(value)._make(fields)
    assert value == type(value)(**dict(zip(value._fields, fields)))


def test_descriptor_hash_is_the_parents_formula():
    op, op_id = Operator("add", (5,)), OperationId("c", 2)
    prev = frozenset([OperationId("c", 1), OperationId("d", 9)])
    x = OperationDescriptor(op, op_id, prev, True)
    assert hash(x) == hash((op, op_id, prev, True))
    assert hash(x) == hash((("add", (5,)), ("c", 2), frozenset([("c", 1), ("d", 9)]), True))
    assert x == make_operation(op, op_id, prev=[("d", 9), ("c", 1)], strict=True)
    assert repr(x) == (
        "OperationDescriptor(op=Operator(name='add', args=(5,)), "
        f"id=OperationId(client='c', seqno=2), prev={prev!r}, strict=True)"
    )
    # The endpoint DescriptorTable holds descriptors weakly, which is why the
    # descriptor itself stayed a dataclass: a tuple cannot be referenced so.
    assert weakref.ref(x)() is x
    with pytest.raises(TypeError):
        weakref.ref(op_id)


def test_str_forms():
    assert str(OperationId("c", 1)) == "c#1"
    assert str(Label(7, "r0")) == "7@r0"
    assert str(Operator("read")) == "read" and str(Operator("add", (5, "x"))) == "add(5, 'x')"


def test_operator_args_default_to_the_empty_tuple():
    assert Operator("read").args == () and Operator("read") == Operator("read", ())


@pytest.mark.parametrize("value, fields, _spelled", SAMPLES)
def test_values_are_immutable(value, fields, _spelled):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(TypeError):
        value[0] = fields[0]


@pytest.mark.parametrize("value, _fields, _spelled", SAMPLES)
def test_pickle_and_deepcopy_round_trip(value, _fields, _spelled):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)
    x = make_operation(Operator("add", (1,)), OperationId("c", 1), prev=[OperationId("c", 0)])
    clone = pickle.loads(pickle.dumps(x))
    assert clone == x and hash(clone) == hash(x) and type(clone.id) is OperationId


def test_generators_build_the_typed_values():
    ids = OperationIdGenerator("c", start=3)
    assert [ids.fresh(), ids.fresh()] == [OperationId("c", 3), OperationId("c", 4)]
    assert type(ids.fresh()) is OperationId
    generator = LabelGenerator("r1")
    first = generator.fresh([Label(4, "r0"), INFINITY, None])
    assert first == Label(5, "r1") and type(first) is Label
    second = generator.fresh_monotone()
    assert second == Label(6, "r1") and type(second) is Label


# --------------------------------------------------------------------------- #
# Orders                                                                      #
# --------------------------------------------------------------------------- #

op_ids = st.builds(OperationId, st.sampled_from(["a", "b", "c1"]), st.integers(-3, 40))
finite_labels = st.builds(Label, st.integers(0, 40), st.sampled_from(["r0", "r1", "r2"]))
labels = st.one_of(finite_labels, st.just(INFINITY))


def six(a, b):
    return (a < b, a <= b, a == b, a != b, a >= b, a > b)


@settings(max_examples=200, deadline=None)
@given(op_ids, op_ids)
def test_operation_ids_order_lexicographically(a, b):
    assert six(a, b) == six((a.client, a.seqno), (b.client, b.seqno))
    assert (hash(a) == hash(b)) or a != b


@settings(max_examples=200, deadline=None)
@given(finite_labels, finite_labels)
def test_labels_order_lexicographically_by_rank_then_replica(a, b):
    assert six(a, b) == six((a.rank, a.replica), (b.rank, b.replica))
    assert label_min(a, b) == min(a, b) == label_min(b, a)


@settings(max_examples=50, deadline=None)
@given(finite_labels)
def test_every_label_is_below_infinity_in_both_operand_orders(label):
    assert six(label, INFINITY) == (True, True, False, True, False, False)
    assert six(INFINITY, label) == (False, False, False, True, True, True)
    assert six(INFINITY, INFINITY) == (False, True, True, False, True, False)
    assert label_min(label, INFINITY) is label and label_min(INFINITY, label) is label
    assert label_min(INFINITY, INFINITY) is INFINITY


@settings(max_examples=100, deadline=None)
@given(st.lists(labels, max_size=12))
def test_label_sort_key_sorts_like_the_labels_themselves(mixed):
    by_key = sorted(mixed, key=label_sort_key)
    assert by_key == sorted(mixed)
    finite = [label for label in by_key if label is not INFINITY]
    assert by_key == finite + [INFINITY] * (len(mixed) - len(finite))
    assert finite == sorted(finite, key=tuple)


# --------------------------------------------------------------------------- #
# By-value equality with plain tuples: the dispatch rule                      #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("value, fields, spelled", SAMPLES)
def test_checkpoint_digest_material_spells_the_types_by_name(value, fields, spelled):
    assert canonical_repr(value) == spelled
    assert canonical_repr((value, 1)) == f"({spelled},1,)"
    assert canonical_repr(fields) != spelled  # the plain tuple keeps the tuple form


@pytest.mark.parametrize("value, fields, _spelled", SAMPLES)
def test_conformance_values_still_refuse_the_bare_types(value, fields, _spelled):
    # ``{"t": [...]}`` would decode as a plain tuple: silently flattening a
    # typed value is worse than the refusal the dataclasses got.
    for holder in (value, (1, value), frozenset([value]), {"k": value}):
        with pytest.raises(ConformanceError, match=type(value).__name__):
            encode_value(holder)
    assert decode_value(encode_value(fields)) == fields
    with pytest.raises(ConformanceError):
        encode_value(Fraction(1, 3))


# --------------------------------------------------------------------------- #
# No second representation                                                    #
# --------------------------------------------------------------------------- #

CLASSES = {
    OperationId: common_module,
    Label: labels_module,
    Operator: base_module,
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_no_hand_written_hash_cache_survives(cls):
    tree = ast.parse(inspect.getsource(CLASSES[cls]))
    (node,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls.__name__
    ]
    assert [ast.unparse(base) for base in node.bases] == ["NamedTuple"]
    assert node.decorator_list == []
    defined = {n.name for n in node.body if isinstance(n, ast.FunctionDef)}
    assert defined == {"__str__"}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"_hash", "__post_init__", "total_ordering", "dataclass"}
    assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
    assert cls.__lt__ is tuple.__lt__


# --------------------------------------------------------------------------- #
# Lockstep: reference automaton vs production core                            #
# --------------------------------------------------------------------------- #


def keyed_mix(rng, index):
    return KeyedStore.at(f"k{rng.randrange(4)}", counter_mix(rng, index))


LOCKSTEP_TYPES = {
    "counter": (CounterType, counter_mix),
    "register": (RegisterType, register_mix),
    "keyed": (lambda: KeyedStore(CounterType()), keyed_mix),
}


def run_cluster(data_type_name, seed, production):
    type_factory, mix = LOCKSTEP_TYPES[data_type_name]
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            fast_core=production,
            delta_gossip=True,
            incremental_replay=True,
            advert_gossip=True,
            compaction=CompactionPolicy(min_batch=8, value_retention=32),
            compaction_interval=10.0,
        ),
    )
    cluster = SimulatedCluster(type_factory(), 3, ["c1", "c2"], params=params, seed=seed)
    spec = WorkloadSpec(
        operations_per_client=40,
        mean_interarrival=0.5,
        strict_fraction=0.2,
        prev_policy="last_own",
        operator_factory=mix,
    )
    run_workload(cluster, spec, seed=seed + 1)
    return cluster


@pytest.mark.parametrize("seed", [5, 23, 61])
@pytest.mark.parametrize("data_type_name", sorted(LOCKSTEP_TYPES))
def test_reference_and_production_cores_walk_in_lockstep(data_type_name, seed):
    reference = run_cluster(data_type_name, seed, production=False)
    production = run_cluster(data_type_name, seed, production=True)
    assert len(reference.responded) == 80
    assert_twin_equivalent(reference, production)
