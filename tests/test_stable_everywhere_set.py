"""The production cores keep one derived knowledge set, ``_stable_all``.

:class:`~repro.algorithm.fastcore.FastReplicaCore` answers
``is_stable_everywhere`` and the ``compactable_prefix`` walk from
``_stable_all`` — the operations present in every ``stable[i]`` — instead of
re-probing each ``stable[i]``.  This suite pins it four ways:

* the audit (``_stable_all`` equals the intersection of the authoritative
  sets; every position below the batch kernel's ``_solid`` is in it and not
  pending) holds after **every** action of a seeded random system, through
  forced folds, a volatile crash, recovery and the checkpoint adoption that
  follows;
* both predicates equal :class:`ReplicaCore`'s on a lockstep twin, for
  tracked, compacted and never-seen identifiers;
* a long no-compaction cold catch-up — the shape on which the derived state
  is widest — leaves base, fast and batch readers identical;
* no private attribute of the two modules is written without being read
  anywhere under ``src/`` (a mirror nothing consults is dead weight on every
  merge).
"""

import ast
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_batchcore import assert_batch_mirrors_consistent
from test_fastcore import assert_mirrors_consistent

from repro.algorithm.batchcore import BatchReplicaCore
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

AUDITS = {
    "fast": (ReplicaConfig(fast_core=True), assert_mirrors_consistent),
    "batch": (
        ReplicaConfig(fast_core=True, batch_replay=True),
        assert_batch_mirrors_consistent,
    ),
}


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


# --------------------------------------------------------------------------- #
# The audit holds after every action                                          #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("variant", sorted(AUDITS))
@pytest.mark.parametrize("seed", [3, 17, 40])
def test_audit_holds_after_every_action(variant, seed):
    core_config, audit = AUDITS[variant]
    system = build_system(core_config, min_batch=3)
    # r3 never folds on its own, so after its crash the agreed prefix can
    # only come back as an adopted checkpoint.
    system.replicas["r3"].configure_compaction(enabled=False)
    rng = random.Random(seed)
    generators = {c: OperationIdGenerator(c) for c in CLIENTS}

    def audit_all(_system=None, _choice=None):
        for core in system.replicas.values():
            audit(core)

    submit(system, generators, rng, 12)
    assert system.run_random(rng, steps=250, step_hook=audit_all) == 250
    for core in system.replicas.values():
        core.maybe_compact(force=True)
        audit(core)

    submit(system, generators, rng, 8)
    system.run_random(rng, steps=150, step_hook=audit_all)
    system.drain(rng)
    audit_all()
    folded = system.replicas["r1"].checkpoint.count
    assert folded > 0 and system.replicas["r3"].checkpoint.count == 0

    crashed = system.replicas["r3"]
    crashed.crash(volatile_memory=True)
    audit(crashed)
    assert crashed._stable_all == set()
    crashed.recover_from_stable_storage()
    audit(crashed)
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
    st.sampled_from(sorted(AUDITS)),
)
def test_predicates_match_reference_core(seed, steps, variant):
    base, operations, generators = drive_twin(ReplicaConfig(), seed, steps)
    twin, twin_operations, _ = drive_twin(AUDITS[variant][0], seed, steps)
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
# Long no-compaction cold catch-up                                            #
# --------------------------------------------------------------------------- #

CATCHUP_CONFIG = ReplicaConfig(
    fast_core=True,
    batch_replay=True,
    delta_gossip=True,
    full_state_interval=1 << 30,
    incremental_replay=True,
)


def record_stream(total_ops, writers=4, round_ops=25, seed=1):
    """Writers gossip pure deltas to a reader (the ``core_catchup`` shape);
    returns the per-round message batches the reader ingested."""
    ids = ["reader"] + [f"w{i}" for i in range(writers)]

    def core(rid):
        built = BatchReplicaCore(rid, ids, CounterType())
        CATCHUP_CONFIG.configure_core(built)
        return built

    reader = core("reader")
    cores = [core(f"w{i}") for i in range(writers)]
    generators = [OperationIdGenerator(f"c{i}") for i in range(writers)]
    rng = random.Random(seed)
    stream = []
    for _round in range(total_ops // (writers * round_ops)):
        batch = []
        for writer, generator in zip(cores, generators):
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
        for writer in cores:
            writer.receive_gossip(reader.make_gossip(writer.replica_id))
    return ids, stream


def test_long_cold_catchup_is_lockstep_identical():
    ids, stream = record_stream(5000)
    readers = {}
    for name, cls in (("base", ReplicaCore), ("fast", FastReplicaCore), ("batch", BatchReplicaCore)):
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
    for name in ("fast", "batch"):
        reader = readers[name]
        assert reader.done_order() == order
        assert knowledge(reader) == knowledge(base)
        assert reader._stable_all == stable
        assert reader.compactable_prefix() == base.compactable_prefix()
        assert reader.compute_value(order[-1]) == base.compute_value(order[-1])
    assert_mirrors_consistent(readers["fast"])
    assert_batch_mirrors_consistent(readers["batch"])


# --------------------------------------------------------------------------- #
# No write-only private state                                                 #
# --------------------------------------------------------------------------- #

SRC = Path(__file__).resolve().parent.parent / "src"
CORE_MODULES = ("repro/algorithm/fastcore.py", "repro/algorithm/batchcore.py")

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
