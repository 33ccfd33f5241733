"""The reference-versus-production differential for :class:`FastReplicaCore`.

The reference :class:`ReplicaCore` runs Fig. 7 and nothing else; the
production core adds cheaper representations and every extension.  Driven
by the same seeded scheduler, a production cluster running an extension
must go through the same responses, the same eventual witness order and
the same final replica states as a reference cluster running none — the
extensions save bytes and memory, never change an execution.  This suite
enforces that three ways:

* **Seeded differential** across the deployment matrix (the production core
  plain, with delta gossip, with compaction, with adverts and pull/transfer;
  counter, register, g-set; unsharded and sharded) against the plain
  reference, comparing responses, failures, the witness order and
  per-replica replayed states, and passing the production side through the
  outcome oracle (``check_outcome``, Section 7/8 invariants included) —
  once undisturbed, once with a replica volatile-crashed mid-load and
  recovered.  The delta row is the lockstep test of
  :mod:`repro.algorithm.delta`'s identical-executions claim.
* **Conformance-corpus replay**: every checked-in vector the reference core
  generated re-runs with ``fast_core=True`` and must match the recorded
  outcome byte for byte (responses, witness, per-replica digests), on the
  simulator and on the wire-codec net twin, whose per-frame delivery drives
  the deferred splices of ``receive_gossip_batch``.  Conversely, every
  vector the production core generated (each runs an extension) re-runs on
  the reference core with its extensions off and must give the recorded
  responses, casualties, states and (outside compaction through a volatile
  crash) witness order, on both runtimes.
* **Mirror audits**: after a twin run, every fast replica's derived state
  (the stable-everywhere set, done index, undone set, packed-key backbone,
  drained splice buffers, solid compaction prefix) is checked against its
  authoritative sets.
"""

import collections
import dataclasses
import functools
import json
import random
from pathlib import Path

import pytest

from repro.algorithm.batchcore import core_factory
from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.labels import Label, label_sort_key
from repro.algorithm.messages import GossipMessage, RequestMessage
from repro.algorithm.replica import ReplicaCore
from repro.common import INFINITY, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.conformance import (
    ScenarioOutcome,
    ScenarioSpec,
    collect_outcome,
    compare_outcomes,
    loads_vector,
    run_scenario,
)
from repro.conformance.scenario import counter_mix, gset_mix, register_mix
from repro.core.operations import make_operation
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.net.codec import encode_message
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.faults import ReplicaCrash
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import (
    KeyedWorkloadSpec,
    WorkloadSpec,
    run_workload,
)
from repro.verification.outcome import check_outcome

VECTOR_DIR = Path(__file__).resolve().parent / "vectors"


def _generated_by_production_core(path):
    return json.loads(path.read_text(encoding="utf-8"))["scenario"]["replica"]["fast_core"]


#: The vectors the reference core generated: those with no extension.
VECTOR_FILES = [
    path for path in sorted(VECTOR_DIR.glob("*.json"))
    if not _generated_by_production_core(path)
]
#: The vectors the production core generated: each runs an extension.
EXTENSION_VECTOR_FILES = [
    path for path in sorted(VECTOR_DIR.glob("*.json"))
    if _generated_by_production_core(path)
]

#: The deployment matrix every twin pair runs under.
CONFIGS = {
    "plain": {},
    "delta-incremental": dict(delta_gossip=True, incremental_replay=True),
    "compaction": dict(
        delta_gossip=True,
        incremental_replay=True,
        compaction=CompactionPolicy(min_batch=8, value_retention=32),
        compaction_interval=10.0,
    ),
    "advert": dict(
        delta_gossip=True,
        incremental_replay=True,
        batch_gossip=True,
        compaction=CompactionPolicy(min_batch=8, value_retention=32),
        compaction_interval=10.0,
        advert_gossip=True,
    ),
}

DATA_TYPES = {
    "counter": (CounterType, counter_mix),
    "register": (RegisterType, register_mix),
    "gset": (GSetType, gset_mix),
}


def run_cluster(data_type_name, config, fast, crash=False):
    """One seeded cluster: the production core under *config*, or (with
    *fast* false) the reference core with no extension."""
    type_factory, mix = DATA_TYPES[data_type_name]
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(fast_core=True, **CONFIGS[config]) if fast else ReplicaConfig(),
    )
    cluster = SimulatedCluster(
        type_factory(), 3, ["c1", "c2"], params=params, seed=11
    )
    if crash:
        # The last replica loses its volatile state mid-load and rejoins; a
        # production replica's mirrors are audited while it is down and
        # after it is back.
        rid = cluster.replica_ids[-1]
        ReplicaCrash(rid, at=6.0, recover_at=12.0).install(cluster)
        if fast:
            for at in (6.5, 12.5):
                cluster.simulator.schedule_at(
                    at, lambda: assert_mirrors_consistent(cluster.replicas[rid])
                )
    spec = WorkloadSpec(
        operations_per_client=40,
        mean_interarrival=0.5,
        strict_fraction=0.2,
        prev_policy="last_own",
        operator_factory=mix,
    )
    run_workload(cluster, spec, seed=7)
    return cluster


@functools.lru_cache(maxsize=None)
def reference_cluster(data_type_name, crash):
    """The reference run every production configuration is compared with
    (read-only, so shared)."""
    return run_cluster(data_type_name, "plain", fast=False, crash=crash)


def assert_twin_equivalent(base, fast):
    assert base.responded == fast.responded
    assert base.failed == fast.failed
    assert base.eventual_order() == fast.eventual_order()
    base_states = {rid: r.replayed_state() for rid, r in base.replicas.items()}
    fast_states = {rid: r.replayed_state() for rid, r in fast.replicas.items()}
    assert base_states == fast_states


def assert_mirrors_consistent(core):
    """Audit every piece of derived state against the authoritative sets."""
    assert core._stable_all == set.intersection(*core.stable.values())
    done_here = core.done[core.replica_id]
    assert core._done_index == {x.id: x for x in done_here}
    assert core._undone == core.rcvd - done_here
    # Cached scheduling keys die with their operation's records (a fold pops
    # them), so the cache stays bounded by what is tracked.
    assert set(core._repr_cache) <= {x.id for x in core.rcvd} | set(core._done_index)
    order = core.done_order()
    keys = core._order_keys
    assert len(keys) == len(order)
    assert keys == sorted(keys)
    # The packed backbone must agree with the label order exactly.
    labels = [core.labels.get(x.id, INFINITY) for x in order]
    assert labels == sorted(labels, key=label_sort_key)
    for key, x in zip(keys, order):
        assert key == core._label_key(core.labels.get(x.id))
    # The replay cache is a prefix of the clean order, one state per row.
    replayed = core._replay_order
    assert replayed == [x.id for x in order[: len(replayed)]]
    assert len(core._replay_states) == len(replayed)
    # Outside an active batch the splice buffers must be drained.
    assert core._batch_depth == 0
    assert not core._deferred_done
    assert not core._deferred_reorders
    # Every position below the solid watermark really is compactable:
    # stable everywhere and not pending.
    assert 0 <= core._solid <= len(order)
    for x in order[: core._solid]:
        assert x in core._stable_all, f"solid position {x.id} not stable"
        assert x not in core.pending, f"solid position {x.id} pending"


class TestCoreFactory:
    def test_factory_selects_reference_or_production(self):
        assert core_factory(ReplicaConfig()) is ReplicaCore
        assert core_factory(ReplicaConfig(fast_core=True)) is FastReplicaCore
        # batch_replay is inert: it selects the same class as fast_core.
        assert core_factory(
            ReplicaConfig(fast_core=True, batch_replay=True)
        ) is core_factory(ReplicaConfig(fast_core=True))


def done_core(replica_id, count):
    """A two-replica production core that has taken and done *count* adds."""
    core = FastReplicaCore(replica_id, ["r1", "r2"], CounterType())
    generator = OperationIdGenerator(f"c-{replica_id}")
    operations = [make_operation(CounterType.add(1), generator.fresh()) for _ in range(count)]
    for operation in operations:
        core.receive_request(RequestMessage(operation=operation))
    core.do_all_ready()
    return core, operations


class TestBatchKernel:
    def test_retransmit_of_a_done_operation_reblocks_the_solid_prefix(self):
        core, operations = done_core("r1", 3)
        for operation in operations:
            core.make_response(operation)
        core._mark_coverage_stable(set(operations))
        assert core.compactable_prefix() == operations
        assert core._solid == 3
        # The retransmit puts the first operation back in pending, so no
        # prefix may be folded past it, however far the memo had reached.
        core.receive_request(RequestMessage(operation=operations[0]))
        assert core.compactable_prefix() == []
        assert_mirrors_consistent(core)

    def test_reading_the_order_mid_batch_applies_the_deferred_splices(self):
        writer, operations = done_core("r2", 3)
        reader = FastReplicaCore("r1", ["r1", "r2"], CounterType())
        assert reader.done_order() == []
        reader._batch_depth = 1  # inside receive_gossip_batch
        reader.receive_gossip(writer.make_gossip("r1"))
        assert set(reader._deferred_done) == {x.id for x in operations}
        assert reader.done_order() == writer.done_order() == operations
        reader._batch_depth = 0
        assert_mirrors_consistent(reader)

    def test_an_explicit_label_extends_the_key_backbone(self):
        # A harness-supplied label goes through the base do_it, which
        # appends to the order; the key backbone and the replay cache must
        # follow it.
        core, operations = done_core("r1", 2)
        assert core.compute_value(operations[1]) == 2  # fills the cache
        extra = make_operation(CounterType.add(1), OperationIdGenerator("x").fresh())
        core.receive_request(RequestMessage(operation=extra))
        core.do_it(extra, Label(10, "r1"))
        assert core.compute_value(extra) == 3
        assert_mirrors_consistent(core)

    def test_fresh_labels_stay_on_the_fast_path_after_an_explicit_one(self, monkeypatch):
        # The explicit label is observed, so the next fresh label exceeds
        # it without the reference's existing-label scan.
        core, _operations = done_core("r1", 2)
        ids = OperationIdGenerator("x")
        extra, later = (make_operation(CounterType.add(1), ids.fresh()) for _ in range(2))
        for operation in (extra, later):
            core.receive_request(RequestMessage(operation=operation))
        core.do_it(extra, Label(10, "r1"))
        reference_calls = []
        monkeypatch.setattr(
            ReplicaCore, "do_it", lambda *args: reference_calls.append(args)
        )
        assert core.do_it(later) == Label(11, "r1")
        assert reference_calls == []
        assert_mirrors_consistent(core)


class TestSeededDifferential:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("data_type_name", sorted(DATA_TYPES))
    def test_production_cluster_matches_reference(self, data_type_name, config):
        reference = reference_cluster(data_type_name, False)
        fast = run_cluster(data_type_name, config, fast=True)
        assert all(
            isinstance(r, FastReplicaCore) for r in fast.replicas.values()
        )
        assert not any(
            isinstance(r, FastReplicaCore) for r in reference.replicas.values()
        )
        assert_twin_equivalent(reference, fast)
        check_outcome(fast).raise_for_failure()
        for core in fast.replicas.values():
            assert_mirrors_consistent(core)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("data_type_name", sorted(DATA_TYPES))
    def test_crashed_production_cluster_matches_reference(self, data_type_name, config):
        # The crash empties the derived state (splice buffers, solid prefix,
        # backbone) and the rejoin rebuilds it from gossip or an adopted
        # checkpoint: the rebuilt replica must go on exactly as the reference.
        reference = reference_cluster(data_type_name, True)
        fast = run_cluster(data_type_name, config, fast=True, crash=True)
        assert_twin_equivalent(reference, fast)
        check_outcome(fast).raise_for_failure()
        rejoined = fast.replicas[fast.replica_ids[-1]]
        assert rejoined._epoch > 0, "the crash never happened"
        for core in fast.replicas.values():
            assert_mirrors_consistent(core)

    def test_sharded_production_matches_reference(self):
        def run(fast):
            params = SimulationParams(
                df=1.0,
                dg=1.0,
                gossip_period=2.0,
                replica=ReplicaConfig(
                    fast_core=True,
                    delta_gossip=True,
                    incremental_replay=True,
                    batch_gossip=True,
                    compaction=CompactionPolicy(min_batch=8, value_retention=64),
                    compaction_interval=10.0,
                ) if fast else ReplicaConfig(batch_gossip=True),
            )
            cluster = ShardedCluster(
                CounterType(),
                num_shards=2,
                replicas_per_shard=3,
                client_ids=["c1", "c2"],
                params=params,
                seed=5,
            )
            spec = KeyedWorkloadSpec(
                operations_per_client=30,
                mean_interarrival=0.5,
                num_keys=6,
                strict_fraction=0.1,
            )
            run_workload(cluster, spec, seed=9)
            return cluster

        base, fast = run(False), run(True)
        assert base.responded == fast.responded
        assert base.failed == fast.failed
        assert base.eventual_orders() == fast.eventual_orders()
        for sid in fast.shard_ids:
            for core in fast.shards[sid].replicas.values():
                assert isinstance(core, FastReplicaCore)
                assert_mirrors_consistent(core)
        fast.check_traces()
        fast.check_invariants()


# --------------------------------------------------------------------------- #
# Differential folds: the production core folds from its replay cache         #
# --------------------------------------------------------------------------- #

FOLD_REPLICAS = ["r1", "r2", "r3"]


def checkpoint_bytes(checkpoint):
    """The codec bytes of *checkpoint* as a full-state gossip body."""
    return encode_message(GossipMessage(
        sender="r1", received=frozenset(), done=frozenset(), checkpoint=checkpoint,
    ))


def assert_same_checkpoint(reference, fast):
    assert fast.base_state == reference.base_state
    assert list(fast.values.items()) == list(reference.values.items())
    assert fast.order_digest == reference.order_digest
    assert fast.digest() == reference.digest()
    assert checkpoint_bytes(fast) == checkpoint_bytes(reference)


class ColdReplicaCore(FastReplicaCore):
    """The production core with its replay cache emptied after every value:
    each fold then applies its whole prefix, as Fig. 7's replay would."""

    def compute_value(self, operation):
        value = super().compute_value(operation)
        self._truncate_replay(0)
        return value


class FoldLog:
    """Every fold one core performs: ``(len(prefix), checkpoint after,
    operator applications the fold performed)``."""

    def __init__(self, core):
        self.core = core
        self.folds = []
        self._applied = 0
        core.on_compact = self.record

    def record(self, prefix, checkpoint):
        applied = self.core.stats.compaction_applications
        self.folds.append((len(prefix), checkpoint, applied - self._applied))
        self._applied = applied


def fold_twins(seed, steps=900):
    """Drive a cold and a production trio in lockstep through one seeded
    schedule (delta gossip, compaction, duplicate submissions, volatile
    crashes) and compare every fold.  Returns the event counts."""
    rng = random.Random(seed)
    policy = CompactionPolicy(min_batch=2, value_retention=5)
    sides = []
    for cls in (ColdReplicaCore, FastReplicaCore):
        cores = {rid: cls(rid, FOLD_REPLICAS, CounterType()) for rid in FOLD_REPLICAS}
        for core in cores.values():
            core.configure_delta_gossip(full_state_interval=3)
            core.configure_compaction(policy)
        sides.append(cores)
    reference, fast = sides
    logs = {rid: (FoldLog(reference[rid]), FoldLog(fast[rid])) for rid in FOLD_REPLICAS}
    generators = {c: OperationIdGenerator(c) for c in ("alice", "bob")}
    #: Replicas whose replay cache a crash dropped and no response refilled.
    cold = set()
    in_flight = []
    events = collections.Counter()
    for _ in range(steps):
        kind = rng.choices(
            ["request", "do", "send", "deliver", "respond", "fold", "crash"],
            weights=[12, 12, 20, 26, 14, 4, 2],
        )[0]
        rid = rng.choice(FOLD_REPLICAS)
        folded_before = {r: len(logs[r][0].folds) for r in FOLD_REPLICAS}
        if kind == "request":
            client = rng.choice(sorted(generators))
            operator = rng.choice([CounterType.add(1 + rng.randrange(5)), CounterType.read()])
            operation = make_operation(operator, generators[client].fresh())
            # Submitting to two replicas lets both label it; a later merge
            # lowers one of the labels.
            for target in rng.sample(FOLD_REPLICAS, rng.choice([1, 2])):
                for cores in sides:
                    cores[target].receive_request(RequestMessage(operation=operation))
        elif kind == "do":
            for cores in sides:
                cores[rid].do_all_ready()
        elif kind == "send":
            destination = rng.choice([r for r in FOLD_REPLICAS if r != rid])
            messages = [cores[rid].make_gossip(destination) for cores in sides]
            in_flight.append((destination, *messages))
        elif kind == "deliver" and in_flight:
            rid, message, fast_message = in_flight.pop(rng.randrange(len(in_flight)))
            receiver = reference[rid]
            done_ids = {x.id for x in receiver.done_here()}
            lowered = any(
                op_id in done_ids and label_sort_key(label) < label_sort_key(receiver.labels[op_id])
                for op_id, label in message.labels.items()
            )
            count_before = receiver.checkpoint.count
            receiver.receive_gossip(message)
            fast[rid].receive_gossip(fast_message)
            new_folds = logs[rid][0].folds[folded_before[rid]:]
            if lowered and new_folds:
                events["lowered_then_folded"] += 1
            if receiver.checkpoint.count > count_before + sum(n for n, _, _ in new_folds):
                events["adopted"] += 1
        elif kind == "respond":
            for operation in reference[rid].ready_responses():
                expected = reference[rid].make_response(operation).value
                assert fast[rid].make_response(operation).value == expected
                cold.discard(rid)
        elif kind == "fold":
            for cores in sides:
                cores[rid].maybe_compact(force=True)
        elif kind == "crash":
            for cores in sides:
                cores[rid].crash(volatile_memory=True)
                cores[rid].recover_from_stable_storage()
            cold.add(rid)
            events["crashed"] += 1
        for r in FOLD_REPLICAS:
            reference_log, fast_log = logs[r]
            assert len(fast_log.folds) == len(reference_log.folds)
            new = zip(reference_log.folds[folded_before[r]:], fast_log.folds[folded_before[r]:])
            for (count, checkpoint, applied), (fast_count, fast_checkpoint, fast_applied) in new:
                assert fast_count == count
                assert_same_checkpoint(checkpoint, fast_checkpoint)
                # The cold core applies every folded operator (Fig. 7); the
                # production core applies none when its cache reaches the
                # fold's boundary, and all of them otherwise.
                assert applied == count
                assert fast_applied in (0, count)
                if r in cold:
                    assert fast_applied == count, "a dropped cache cannot serve a fold"
                    events["cold_fallback"] += 1
                events["from_cache" if fast_applied == 0 else "applied"] += 1
            assert_same_checkpoint(reference[r].checkpoint, fast[r].checkpoint)
    return events


class TestFoldFromReplayCache:
    def test_twins_hold_equal_checkpoints_after_every_fold(self):
        events = collections.Counter()
        for seed in (1, 2, 3):
            events += fold_twins(seed)
        # Every path the differential is about was actually taken.
        for event in ("from_cache", "applied", "cold_fallback", "lowered_then_folded",
                      "adopted", "crashed"):
            assert events[event] > 0, (event, events)

    def test_fold_applications_are_pinned(self):
        """A fold the cache covers applies nothing at the production core;
        after a volatile crash drops the cache, the next fold applies its
        whole prefix.  The cold core applies every fold's prefix."""
        def script(cls):
            core = cls("r1", ["r1", "r2"], CounterType())
            peer = cls("r2", ["r1", "r2"], CounterType())
            log = FoldLog(core)
            core.configure_compaction(CompactionPolicy(min_batch=1))
            generator = OperationIdGenerator("c")
            operations = [make_operation(CounterType.add(1), generator.fresh()) for _ in range(5)]
            for operation in operations:
                core.receive_request(RequestMessage(operation=operation))
            core.do_all_ready()
            for operation in operations:
                core.make_response(operation)  # the first one fills the cache
            peer.receive_gossip(core.make_gossip())
            core._mark_coverage_stable(set(operations[:3]))
            core.maybe_compact(force=True)
            core.crash(volatile_memory=True)
            core.recover_from_stable_storage()
            core.receive_gossip(peer.make_gossip())  # re-learns the last two
            core._mark_coverage_stable(core.done_here())
            core.maybe_compact(force=True)
            assert core.checkpoint.count == 5
            return log.folds

        reference, fast = script(ColdReplicaCore), script(FastReplicaCore)
        assert [(n, applied) for n, _, applied in reference] == [(3, 3), (2, 2)]
        assert [(n, applied) for n, _, applied in fast] == [(3, 0), (2, 2)]
        for (_, checkpoint, _), (_, fast_checkpoint, _) in zip(reference, fast):
            assert_same_checkpoint(checkpoint, fast_checkpoint)


def _fast_spec(doc):
    spec = ScenarioSpec.from_doc(doc["scenario"])
    assert not spec.params.replica.fast_core, "the subject is a vector the reference generated"
    return dataclasses.replace(
        spec,
        params=dataclasses.replace(
            spec.params, replica=dataclasses.replace(spec.params.replica, fast_core=True)
        ),
    )


def reference_replica_config(config):
    """*config* on the reference core with every extension switched off —
    the other side of the differential.  The simulator-only and inert
    fields stay as they are, so the schedule does not change."""
    return dataclasses.replace(
        config,
        fast_core=False,
        batch_replay=False,
        delta_gossip=False,
        compaction=None,
        compaction_interval=None,
        advert_gossip=False,
    )


def _reference_spec(spec):
    assert spec.params.replica.extended, "the subject is a vector that runs an extension"
    return dataclasses.replace(
        spec,
        params=dataclasses.replace(
            spec.params, replica=reference_replica_config(spec.params.replica)
        ),
    )


def _compacts_through_a_volatile_crash(spec):
    return spec.params.replica.compaction is not None and any(
        fault["kind"] == "replica_crash" and fault["volatile_memory"]
        for fault in spec.faults
    )


def assert_reference_reproduces_extension_vector(path, runtime):
    """The reference core, with the vector's extensions switched off, must
    give the recorded responses, failures, casualties and per-replica
    states — and the recorded witness order, except where a compacting
    deployment crashes a replica with volatile memory: its checkpoint keeps
    the agreed labels of the folded operations, which the reference replica
    forgets, so the two may order operations differently.  The reference's
    own witness still passes the oracle that ``collect_outcome`` runs."""
    doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
    spec = ScenarioSpec.from_doc(doc["scenario"])
    expected = ScenarioOutcome.from_doc(doc["expected"])
    observed = collect_outcome(run_scenario(_reference_spec(spec), runtime=runtime))
    if _compacts_through_a_volatile_crash(spec):
        observed = dataclasses.replace(observed, witness=expected.witness)
    mismatches = compare_outcomes(expected, observed)
    assert mismatches == [], f"{path.name}: {mismatches}"


class TestConformanceCorpusReplay:
    @pytest.mark.parametrize("path", VECTOR_FILES, ids=lambda p: p.stem)
    def test_fast_core_reproduces_corpus_vector(self, path):
        doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
        expected = ScenarioOutcome.from_doc(doc["expected"])
        observed = collect_outcome(run_scenario(_fast_spec(doc)))
        mismatches = compare_outcomes(expected, observed)
        assert mismatches == [], f"{path.name}: {mismatches}"

    @pytest.mark.parametrize("path", VECTOR_FILES, ids=lambda p: p.stem)
    def test_fast_core_reproduces_vector_over_net(self, path):
        # Same vectors, but every message crosses the binary wire codec —
        # exercises the coalesced receive_gossip_batch frame path too.
        doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
        expected = ScenarioOutcome.from_doc(doc["expected"])
        observed = collect_outcome(run_scenario(_fast_spec(doc), runtime="net"))
        mismatches = compare_outcomes(expected, observed)
        assert mismatches == [], f"{path.name}: {mismatches}"

    @pytest.mark.parametrize("path", EXTENSION_VECTOR_FILES, ids=lambda p: p.stem)
    def test_reference_core_reproduces_extension_vector(self, path):
        assert_reference_reproduces_extension_vector(path, "sim")

    @pytest.mark.parametrize("path", EXTENSION_VECTOR_FILES, ids=lambda p: p.stem)
    def test_reference_core_reproduces_extension_vector_over_net(self, path):
        assert_reference_reproduces_extension_vector(path, "net")
