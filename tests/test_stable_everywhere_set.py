"""The production core keeps one derived knowledge set, ``_stable_all``.

:class:`~repro.algorithm.fastcore.FastReplicaCore` answers
``is_stable_everywhere`` and the ``compactable_prefix`` walk from
``_stable_all`` — the operations present in every ``stable[i]`` — instead of
re-probing each ``stable[i]``.  The set is settled on read from a settled
part and a worklist (``_stable_settled`` / ``_stable_fresh``), and the merge
that feeds it skips the rows Invariants 7.1 and 7.2 say cannot refuse.  This
suite pins it five ways:

* the audit (``_stable_all`` equals the intersection of the authoritative
  sets; every position below the solid compaction prefix ``_solid`` is in it
  and not pending) holds after **every** action of a seeded random system, through
  forced folds, a volatile crash, recovery and the checkpoint adoption that
  follows (pulled in chunks, or eager on full-state gossip) — and before it reads, the unsettled lazy state and Invariants
  7.1 / 7.2 are checked, and the read itself changes nothing authoritative;
* both predicates equal :class:`ReplicaCore`'s on a lockstep twin, for
  tracked, compacted and never-seen identifiers;
* random merge interleavings on 2, 3 and 5 replicas, with forced folds and
  coverage marking, keep every row equal to :class:`ReplicaCore`'s;
* a long no-compaction cold catch-up — the shape on which the derived state
  is widest — leaves the reference and production readers identical;
* no private attribute of the production core is written without being read
  anywhere under ``src/`` (a mirror nothing consults is dead weight on every
  merge).
"""

import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_fastcore import assert_mirrors_consistent

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.messages import RequestMessage
from repro.algorithm.replica import ReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType

REPLICAS = ("r1", "r2", "r3")
CLIENTS = ("alice", "bob")

PRODUCTION = ReplicaConfig(fast_core=True)


def build_system(core_config, min_batch, advert=True):
    config = replace(
        core_config,
        delta_gossip=True,
        incremental_replay=True,
        compaction=CompactionPolicy(min_batch=min_batch, value_retention=64),
        advert_gossip=advert,
        checkpoint_chunk=2 if advert else None,
    )
    return AlgorithmSystem(CounterType(), list(REPLICAS), list(CLIENTS), config=config)


def submit(system, generators, rng, count):
    operations = []
    for _ in range(count):
        client = rng.choice(CLIENTS)
        operation = make_operation(
            CounterType.add(rng.randint(1, 5)),
            generators[client].fresh(),
            strict=rng.random() < 0.2,
        )
        system.request(operation)
        operations.append(operation)
    return operations


def assert_invariants_7_1_and_7_2(core):
    """The premises of the merge's row skip: ``done[me]`` and ``stable[me]``
    contain every other row (7.1), and ``stable[me]`` is what is done
    everywhere (7.2)."""
    me = core.replica_id
    assert core.done[me] == set().union(*core.done.values())
    assert core.stable[me] == set().union(*core.stable.values())
    assert core.stable[me] == set.intersection(*core.done.values())


def assert_lazy_state(core):
    """The settled set and the worklist, inspected without settling them."""
    everywhere = set.intersection(*core.stable.values())
    fresh, settled = core._stable_fresh, core._stable_settled
    assert fresh <= core.stable[core.replica_id]
    assert settled <= everywhere
    assert settled | (fresh & everywhere) == everywhere


def assert_read_settles(core):
    """A read returns the intersection, empties the worklist and touches no
    authoritative set."""
    everywhere = set.intersection(*core.stable.values())
    before = core.snapshot()
    assert core._stable_all == everywhere
    assert core._stable_fresh == set()
    assert core.snapshot() == before


# --------------------------------------------------------------------------- #
# The audit holds after every action                                          #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [3, 17, 40])
@pytest.mark.parametrize("advert", [True, False], ids=["advert-pull", "eager"])
def test_audit_holds_after_every_action(advert, seed):
    # The recovered replica adopts the folded prefix through a pulled,
    # chunked transfer or from a checkpoint body riding full-state gossip.
    system = build_system(PRODUCTION, min_batch=3, advert=advert)
    # r3 never folds on its own, so after its crash the agreed prefix can
    # only come back as an adopted checkpoint.
    system.replicas["r3"].configure_compaction(enabled=False)
    rng = random.Random(seed)
    generators = {c: OperationIdGenerator(c) for c in CLIENTS}

    def check(core):
        # The lazy state first: the audit's read settles it.
        assert_invariants_7_1_and_7_2(core)
        assert_lazy_state(core)
        assert_read_settles(core)
        assert_mirrors_consistent(core)

    def audit_all(_system=None, _choice=None):
        for core in system.replicas.values():
            check(core)

    submit(system, generators, rng, 12)
    assert system.run_random(rng, steps=250, step_hook=audit_all) == 250
    for core in system.replicas.values():
        core.maybe_compact(force=True)
        check(core)

    submit(system, generators, rng, 8)
    system.run_random(rng, steps=150, step_hook=audit_all)
    system.drain(rng)
    audit_all()
    folded = system.replicas["r1"].checkpoint.count
    assert folded > 0 and system.replicas["r3"].checkpoint.count == 0

    crashed = system.replicas["r3"]
    crashed.crash(volatile_memory=True)
    check(crashed)
    assert crashed._stable_all == set()
    crashed.recover_from_stable_storage()
    check(crashed)
    adoptions = []
    adopted_hook = crashed._on_checkpoint_adopted
    crashed._on_checkpoint_adopted = lambda: (adoptions.append(1), adopted_hook())

    submit(system, generators, rng, 6)
    system.run_random(rng, steps=400, step_hook=audit_all)
    system.drain(rng)
    audit_all()
    # The recovered incarnation adopted the folded prefix wholesale and
    # recomputed the derived set from what survived.
    assert crashed.checkpoint.count >= folded
    assert adoptions


# --------------------------------------------------------------------------- #
# Both predicates equal the reference core's                                  #
# --------------------------------------------------------------------------- #


def drive_twin(core_config, seed, steps):
    """A first wave drained to everywhere-stability (so most of it folds,
    ``min_batch`` leaving a stable tracked remainder), then a second wave
    left wherever *steps* random actions take it."""
    system = build_system(core_config, min_batch=4, advert=False)
    rng = random.Random(seed)
    generators = {c: OperationIdGenerator(c) for c in CLIENTS}
    operations = submit(system, generators, rng, 10)
    system.run_random(rng, steps=60)
    system.drain(rng)
    operations += submit(system, generators, rng, 8)
    system.run_random(rng, steps=steps)
    return system, operations, generators


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=900),
)
def test_predicates_match_reference_core(seed, steps):
    base, operations, generators = drive_twin(ReplicaConfig(), seed, steps)
    twin, twin_operations, _ = drive_twin(PRODUCTION, seed, steps)
    assert operations == twin_operations
    never_seen = [
        make_operation(CounterType.increment(), generators[c].fresh()) for c in CLIENTS
    ]
    for rid in REPLICAS:
        reference, core = base.replicas[rid], twin.replicas[rid]
        assert type(reference) is ReplicaCore and isinstance(core, FastReplicaCore)
        assert core.checkpoint.count == reference.checkpoint.count
        assert core.compactable_prefix() == reference.compactable_prefix()
        for operation in operations + never_seen:
            assert core.is_stable_everywhere(operation) == reference.is_stable_everywhere(
                operation
            ), (rid, operation.id, core.is_compacted(operation.id))
        assert not any(core.is_stable_everywhere(x) for x in never_seen)


# --------------------------------------------------------------------------- #
# Random merge interleavings in lockstep with the reference rows              #
# --------------------------------------------------------------------------- #


def tracked_state(core):
    # Each core holds its own checkpoint object.
    return {k: v for k, v in core.snapshot().items() if k != "checkpoint"}


STEP_KINDS = (
    "request", "request", "do", "send", "send", "deliver", "deliver", "fold", "mark", "read",
)


def lockstep_cores(cls, ids):
    cores = {rid: cls(rid, ids, CounterType()) for rid in ids}
    for core in cores.values():
        # Adverts, never bodies: a coverage the order digest refuses queues
        # a pull (never served here) instead of an adoption.
        core.configure_advert_gossip(True)
    return cores


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.lists(
        st.tuples(st.sampled_from(STEP_KINDS), st.integers(0, 999), st.integers(0, 999)),
        min_size=30,
        max_size=120,
    ),
)
def test_random_merges_keep_the_reference_rows(n, steps):
    """Gossip merges in any delivery order, forced folds and coverage
    marking leave ``stable[me]`` and every done row equal to
    :class:`ReplicaCore`'s; with two replicas the promotion loop visits no
    row at all."""
    ids = [f"r{i}" for i in range(n)]
    reference = lockstep_cores(ReplicaCore, ids)
    twin = lockstep_cores(FastReplicaCore, ids)
    generator = OperationIdGenerator("c")
    in_flight = []
    for kind, a, b in steps:
        rid = ids[a % n]
        ref, core = reference[rid], twin[rid]
        if kind == "request":
            operation = make_operation(CounterType.add(1 + b % 5), generator.fresh())
            for side in (ref, core):
                side.receive_request(RequestMessage(operation=operation))
        elif kind == "do":
            ref.do_all_ready()
            core.do_all_ready()
        elif kind == "send":
            destination = ids[(a + 1 + b % (n - 1)) % n]
            in_flight.append((destination, ref.make_gossip(), core.make_gossip()))
        elif kind == "deliver" and in_flight:
            destination, ref_message, core_message = in_flight.pop(b % len(in_flight))
            ref, core = reference[destination], twin[destination]
            ref.receive_gossip(ref_message)
            core.receive_gossip(core_message)
            assert core.stable[destination] == ref.stable[destination]
            for i in ids:
                assert core.done[i] == ref.done[i]
        elif kind == "fold":
            # The reference picks the prefix, so the twin folds without
            # reading (and so settling) its own set first.
            prefix = [] if ref.catching_up() else ref.compactable_prefix()
            for side in (ref, core) if prefix else ():
                side.configure_compaction(CompactionPolicy(min_batch=1))
                side._prepare_compaction()
                side._compact(prefix)
                side.configure_compaction(enabled=False)
        elif kind == "mark":
            # Sound coverage knowledge: what another replica knows is stable
            # everywhere, restricted to what is tracked here.
            source = reference[ids[b % n]]
            tracked = set.intersection(*source.stable.values()) & ref.done_here()
            ref._mark_coverage_stable(set(tracked))
            core._mark_coverage_stable(set(tracked))
        elif kind == "read":
            assert core._stable_all == set.intersection(*ref.stable.values())
            assert core.compactable_prefix() == ref.compactable_prefix()
        assert tracked_state(core) == tracked_state(ref)
        assert core.checkpoint.count == ref.checkpoint.count
        assert_invariants_7_1_and_7_2(core)
        assert_lazy_state(core)
    for rid in ids:
        assert_read_settles(twin[rid])


# --------------------------------------------------------------------------- #
# Long no-compaction cold catch-up                                            #
# --------------------------------------------------------------------------- #

CATCHUP_CONFIG = ReplicaConfig(
    fast_core=True,
    delta_gossip=True,
    full_state_interval=1 << 30,
    incremental_replay=True,
)


def record_stream(total_ops, writers=4, round_ops=25, seed=1, cores=None):
    """Writers gossip pure deltas to a reader (the ``core_catchup`` shape);
    returns the per-round message batches the reader ingested (and appends
    the writer cores to *cores*, when given)."""
    ids = ["reader"] + [f"w{i}" for i in range(writers)]

    def core(rid):
        built = FastReplicaCore(rid, ids, CounterType())
        CATCHUP_CONFIG.configure_core(built)
        return built

    reader = core("reader")
    writer_cores = [core(f"w{i}") for i in range(writers)]
    if cores is not None:
        cores.extend(writer_cores)
    generators = [OperationIdGenerator(f"c{i}") for i in range(writers)]
    rng = random.Random(seed)
    stream = []
    for _round in range(total_ops // (writers * round_ops)):
        batch = []
        for writer, generator in zip(writer_cores, generators):
            for _ in range(round_ops):
                operation = make_operation(
                    CounterType.add(rng.randint(1, 9)), generator.fresh()
                )
                writer.receive_request(RequestMessage(operation=operation))
            writer.do_all_ready()
            message = writer.make_gossip("reader")
            message.basis = None
            batch.append(message)
        stream.append(batch)
        reader.receive_gossip_batch(batch)
        reader.do_all_ready()
        for writer in writer_cores:
            writer.receive_gossip(reader.make_gossip(writer.replica_id))
    return ids, stream


def test_long_cold_catchup_is_lockstep_identical():
    ids, stream = record_stream(5000)
    readers = {}
    for name, cls in (("base", ReplicaCore), ("production", FastReplicaCore)):
        reader = cls("reader", ids, CounterType())
        CATCHUP_CONFIG.configure_core(reader)
        for batch in stream:
            reader.receive_gossip_batch(batch)
            reader.do_all_ready()
        readers[name] = reader
    def knowledge(reader):
        # Each reader holds its own (empty) checkpoint object.
        return {k: v for k, v in reader.snapshot().items() if k != "checkpoint"}

    base = readers["base"]
    order = base.done_order()
    assert len(order) == 5000
    stable = {x for x in order if base.is_stable_everywhere(x)}
    assert stable, "the stream must carry some everywhere-stable operations"
    reader = readers["production"]
    assert reader.done_order() == order
    assert knowledge(reader) == knowledge(base)
    assert reader._stable_all == stable
    assert reader.compactable_prefix() == base.compactable_prefix()
    assert reader.compute_value(order[-1]) == base.compute_value(order[-1])
    assert_mirrors_consistent(reader)


def test_a_replica_that_never_reads_keeps_its_worklist_small():
    """A writer of the catch-up shape never reads its stable-everywhere set
    (no compaction, no strict operations) and never hears from the other
    writers, so nothing is stable everywhere there: its worklist must stay
    bounded by the smallest other row, not grow with ``stable[me]``."""
    writers = []
    record_stream(2000, cores=writers)
    for writer in writers:
        assert len(writer.stable[writer.replica_id]) > 1000
        assert writer._stable_settled == set()
        assert len(writer._stable_fresh) <= 2 * min(
            len(row) for rid, row in writer.stable.items() if rid != writer.replica_id
        )
        assert_lazy_state(writer)


# --------------------------------------------------------------------------- #
# No write-only private state                                                 #
# --------------------------------------------------------------------------- #

SRC = Path(__file__).resolve().parent.parent / "src"
CORE_MODULES = ("repro/algorithm/fastcore.py",)

#: Methods whose call, used as a statement, only writes to the receiver.
MUTATORS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop", "remove",
    "setdefault", "update",
}  # fmt: skip


def _parents(tree):
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _is_read(node, parents):
    """Whether a ``<expr>._name`` load consults the value rather than only
    naming the container of a write (``x._n[k] = v``, ``x._n[k] |= v``,
    ``del x._n[k]``, or a mutator call used as a statement)."""
    parent = parents[node]
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return isinstance(parent.ctx, ast.Load)
    if isinstance(parent, ast.Attribute) and parent.attr in MUTATORS:
        call = parents[parent]
        if isinstance(call, ast.Call) and call.func is parent:
            return not isinstance(parents[call], ast.Expr)
    return True


def private_reads(source):
    tree = ast.parse(source)
    parents = _parents(tree)
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_")
        and _is_read(node, parents)
    }


def private_self_writes(source):
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr.startswith("_")
    }


def test_guard_sees_through_subscript_and_mutator_writes():
    source = (
        "class C:\n"
        "    def f(self, k, v):\n"
        "        self._bits = {}\n"
        "        self._bits[k] |= v\n"
        "        self._bits[k] = v\n"
        "        self._seen = set()\n"
        "        self._seen.add(k)\n"
        "        self._used = set()\n"
        "        return k in self._used\n"
    )
    assert private_self_writes(source) == {"_bits", "_seen", "_used"}
    assert private_reads(source) == {"_used"}


def test_every_private_attribute_the_cores_write_is_read_somewhere():
    read = set()
    for path in SRC.rglob("*.py"):
        read |= private_reads(path.read_text(encoding="utf-8"))
    for module in CORE_MODULES:
        written = private_self_writes((SRC / module).read_text(encoding="utf-8"))
        assert written, module
        assert written - read == set(), f"{module} writes state nothing reads"
