"""Advert/pull checkpoint gossip (bounded steady-state payloads).

The load-bearing property mirrors the delta-gossip and compaction arguments:
an advert only ever *replaces* the eager checkpoint body for receivers that
already hold (or have themselves folded) everything it covers — for them the
advert conveys exactly the stability knowledge the body would have — while a
receiver that is genuinely behind obtains the identical body through a
pull/transfer round trip.  A crash-free advert/pull system driven by the
same seeded scheduler therefore goes through an execution with identical
responses and identical invariant obligations as the eager twin, while its
steady-state full-state payload no longer carries the retained-value ledger
(benchmark E11 quantifies the scaling).

The suite covers: advert wire accounting and digests, transfer chunking and
reassembly, lockstep equivalence against eager shipping (action-level for
every replica variant, simulated, sharded), per-step invariants, and the
adversarial delivery cases — pull lost, transfer lost mid-chunk, sender
crash (incarnation bump) between advert and transfer, digest moved on by
concurrent compaction — each converging with clean invariants.
"""

import random

import pytest

from repro.algorithm.checkpoint import Checkpoint, CompactionPolicy
from repro.algorithm.commute import CommuteReplicaCore
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.labels import LabelGenerator
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.messages import checkpoint_transfers
from repro.algorithm.replica import TransferAssembly
from repro.algorithm.system import AlgorithmSystem
from repro.common import ConfigurationError, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import WorkloadSpec, run_workload
from repro.spec.users import SafeUsers
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.outcome import check_trace


# --------------------------------------------------------------------------- #
# Advert, digest and transfer-chunk basics                                    #
# --------------------------------------------------------------------------- #


def small_checkpoint(count=5, retention=None, client="c"):
    """A checkpoint folding *count* increments, built directly."""
    data_type = CounterType()
    gen = OperationIdGenerator(client)
    label_gen = LabelGenerator("r1")
    existing = []
    prefix, labels = [], {}
    for _ in range(count):
        op = make_operation(CounterType.increment(), gen.fresh())
        label = label_gen.fresh(existing)
        existing.append(label)
        labels[op.id] = label
        prefix.append(op)
    checkpoint, _ = Checkpoint.empty(data_type.initial_state()).extend(
        prefix, data_type, labels, value_retention=retention
    )
    return checkpoint, prefix


class TestAdvertBasics:
    def test_advert_covers_exactly_the_folded_ids(self):
        checkpoint, prefix = small_checkpoint(7)
        advert = checkpoint.advert()
        assert advert.count == 7
        assert advert.frontier == checkpoint.frontier
        for op in prefix:
            assert advert.covers(op.id)
        assert not advert.covers(make_operation(CounterType.increment(),
                                                OperationIdGenerator("z").fresh()).id)

    def test_advert_wire_size_is_independent_of_history_and_values(self):
        small, _ = small_checkpoint(5)
        large, _ = small_checkpoint(500)
        # One contiguous per-client interval each: identical advert size, in
        # stark contrast to the bodies (which drag the value ledger along).
        assert small.advert().wire_estimate() == large.advert().wire_estimate()
        assert large.wire_estimate() > 100 * large.advert().wire_estimate()

    def test_empty_checkpoint_has_no_advert(self):
        empty = Checkpoint.empty(0)
        assert empty.advert() is None

    def test_digest_is_deterministic_and_content_sensitive(self):
        a, _ = small_checkpoint(5)
        b, _ = small_checkpoint(5)
        c, _ = small_checkpoint(6)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_value_chunks_preserve_ledger_order(self):
        checkpoint, prefix = small_checkpoint(5)
        chunks = checkpoint.value_chunks(2)
        assert [len(chunk) for chunk in chunks] == [2, 2, 1]
        flattened = {}
        for chunk in chunks:
            flattened.update(chunk)
        assert list(flattened) == list(checkpoint.values)
        assert checkpoint.value_chunks(None) == [dict(checkpoint.values)]

    def test_transfer_chunks_reassemble_to_the_original(self):
        checkpoint, _ = small_checkpoint(7)
        transfers = checkpoint_transfers(
            checkpoint, sender="r1", requester="r2", epoch=3, chunk=3
        )
        assert len(transfers) == 3
        assert all(t.digest == checkpoint.digest() for t in transfers)
        assert [t.carries_state for t in transfers] == [False, False, True]
        assembly = TransferAssembly(
            digest=checkpoint.digest(), epoch=3, frontier=checkpoint.frontier,
            chunk_count=len(transfers),
        )
        for transfer in reversed(transfers):  # order must not matter
            assembly.chunks[transfer.chunk_index] = transfer
        assert assembly.complete()
        rebuilt = assembly.assemble()
        assert rebuilt.base_state == checkpoint.base_state
        assert rebuilt.frontier == checkpoint.frontier
        assert dict(rebuilt.values) == dict(checkpoint.values)
        assert rebuilt.digest() == checkpoint.digest()

    def test_incremental_gossip_carries_the_advert(self):
        """The textbook incremental-gossip helper must stay drop-in
        compatible under advert mode: the advert (like the eager checkpoint
        before it) rides on the incremental message."""
        from repro.algorithm.messages import incremental_gossip

        system, _gen, _rng = compacted_system_with_behind_replica()
        r1 = system.replicas["r1"]
        first = r1.make_gossip()
        second = r1.make_gossip()
        delta = incremental_gossip(first, second)
        assert delta.advert is not None
        assert delta.advert == second.advert
        assert delta.checkpoint is None

    def test_chunk_configuration_validation(self):
        system_kwargs = dict(num_replicas=2)
        with pytest.raises(ConfigurationError):
            ReplicaConfig(checkpoint_chunk=0)
        replica = SimulatedCluster(CounterType(), **system_kwargs).replicas["r0"]
        with pytest.raises(ConfigurationError):
            replica.configure_advert_gossip(True, checkpoint_chunk=0)


# --------------------------------------------------------------------------- #
# Lockstep equivalence: advert/pull vs eager shipping                         #
# --------------------------------------------------------------------------- #


def build_system(advert, factory=None, delta=False, data_type=None, users=None,
                 chunk=None):
    return AlgorithmSystem(
        data_type or CounterType(), ["r1", "r2", "r3"], ["alice", "bob"],
        replica_factory=factory, users=users,
        config=ReplicaConfig(
            delta_gossip=delta,
            full_state_interval=5,
            compaction=CompactionPolicy(min_batch=1),
            advert_gossip=advert,
            checkpoint_chunk=chunk,
        ),
    )


def drive_random(system, seed, requests=8, steps=600, strict_fraction=0.3):
    rng = random.Random(seed)
    clients = list(system.client_ids)
    gens = {c: OperationIdGenerator(c) for c in clients}
    history = []
    for _ in range(requests):
        client = rng.choice(clients)
        operator = rng.choice(
            [CounterType.increment(), CounterType.add(2), CounterType.read()]
        )
        prev = [history[-1].id] if history and rng.random() < 0.5 else []
        op = make_operation(operator, gens[client].fresh(), prev=prev,
                            strict=rng.random() < strict_fraction)
        history.append(op)
        system.request(op)
    system.run_random(rng, steps=steps)
    system.drain(rng)
    system.run_random(rng, steps=steps)
    return system


def gossip_payload(system):
    return sum(ch.sent_payload for ch in system.gossip_channels.values())


class TestAdvertLockstepEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    def test_seeded_executions_are_identical(self, seed, delta):
        eager = drive_random(build_system(advert=False, delta=delta), seed)
        advert = drive_random(build_system(advert=True, delta=delta), seed)

        assert eager.trace.responses == advert.trace.responses
        assert eager.ops() == advert.ops()
        assert eager.eventual_order() == advert.eventual_order()
        folded = sum(r.checkpoint.count for r in advert.replicas.values())
        assert folded > 0
        for rid in eager.replica_ids:
            assert (eager.replicas[rid].checkpoint.count
                    == advert.replicas[rid].checkpoint.count)
        # No replica ever fell behind in a crash-free run, so nothing pulled.
        assert all(not r._pull_queue and not r._transfer_in
                   for r in advert.replicas.values())

    @pytest.mark.parametrize("seed", [0, 11])
    def test_advert_mode_ships_less_payload(self, seed):
        eager = drive_random(build_system(advert=False), seed)
        advert = drive_random(build_system(advert=True), seed)
        assert gossip_payload(advert) < gossip_payload(eager)

    @pytest.mark.parametrize("factory", [
        FastReplicaCore, MemoizedReplicaCore,
    ], ids=["incremental", "memoized"])
    def test_optimized_replicas_agree_under_advert_gossip(self, factory):
        eager = drive_random(build_system(advert=False, factory=factory), seed=17)
        advert = drive_random(build_system(advert=True, factory=factory), seed=17)
        assert eager.trace.responses == advert.trace.responses
        assert sum(r.checkpoint.count for r in advert.replicas.values()) > 0

    def test_commute_replicas_agree_under_advert_gossip(self):
        def commuting_drive(system, seed):
            rng = random.Random(seed)
            gens = {c: OperationIdGenerator(c) for c in system.client_ids}
            for index in range(8):
                client = rng.choice(list(system.client_ids))
                system.request(make_operation(GSetType.insert(index),
                                              gens[client].fresh()))
            system.run_random(rng, steps=600)
            system.drain(rng)
            return system

        eager = commuting_drive(
            build_system(False, factory=CommuteReplicaCore, data_type=GSetType(),
                         users=SafeUsers(GSetType())), 23)
        advert = commuting_drive(
            build_system(True, factory=CommuteReplicaCore, data_type=GSetType(),
                         users=SafeUsers(GSetType())), 23)
        assert eager.trace.responses == advert.trace.responses
        assert sum(r.checkpoint.count for r in advert.replicas.values()) > 0

    def test_invariants_hold_at_every_step(self):
        system = AlgorithmSystem(
            CounterType(), ["r1", "r2"], ["alice"],
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1), advert_gossip=True),
        )
        gen = OperationIdGenerator("alice")
        rng = random.Random(1)
        for index in range(5):
            system.request(
                make_operation(CounterType.increment(), gen.fresh(), strict=(index == 4))
            )
        checker = AlgorithmInvariantChecker(system)
        system.run_random(rng, steps=200, step_hook=checker)
        system.drain(rng)
        checker.check_all()
        assert len(system.trace.responses) == 5
        assert len(system.compaction_ledger.prefix) > 0

    def test_trace_oracle_passes_with_advert_gossip(self):
        system = drive_random(build_system(advert=True, delta=True), seed=13)
        check_trace(system).raise_for_failure()

    def test_simulation_relation_holds_with_advert_gossip(self):
        from repro.verification.simulation_check import AlgorithmToSpecSimulation

        system = AlgorithmSystem(
            RegisterType(), ["r1", "r2"], ["alice"],
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1), advert_gossip=True),
        )
        sim = AlgorithmToSpecSimulation(system)
        gen = OperationIdGenerator("alice")
        rng = random.Random(2)
        for index in range(4):
            sim.request(make_operation(RegisterType.write(index), gen.fresh(),
                                       strict=(index == 3)))
        sim.run_random(rng, steps=250)
        assert sim.report().steps_checked > 0


# --------------------------------------------------------------------------- #
# Pull-based catch-up under adversarial delivery (action-level)               #
# --------------------------------------------------------------------------- #


def compacted_system_with_behind_replica(chunk=2, requests=6):
    """An advert-mode system in which r1/r2 folded everything while r3 (its
    own compaction off) crashed with volatile memory and recovered — so r3
    is missing the whole compacted prefix and must pull it."""
    system = AlgorithmSystem(
        CounterType(), ["r1", "r2", "r3"], ["alice"],
        config=ReplicaConfig(
            compaction=CompactionPolicy(min_batch=1),
            advert_gossip=True,
            checkpoint_chunk=chunk,
        ),
    )
    system.replicas["r3"].configure_compaction(enabled=False)
    gen = OperationIdGenerator("alice")
    rng = random.Random(5)
    operations = [
        make_operation(CounterType.increment(), gen.fresh()) for _ in range(requests)
    ]
    for op in operations:
        system.request(op)
    system.run_random(rng, steps=400)
    system.drain(rng)
    assert system.replicas["r1"].checkpoint.count == requests
    assert system.replicas["r3"].checkpoint.count == 0
    system.replicas["r3"].crash(volatile_memory=True)
    system.replicas["r3"].recover_from_stable_storage()
    return system, gen, rng


def deliver_all(system, channel_key):
    """Deliver every message currently on one gossip channel, in order."""
    channel = system.gossip_channels[channel_key]
    for message in channel.contents():
        system.receive_gossip(channel_key[0], channel_key[1], message)


class TestPullCatchup:
    def test_behind_replica_pulls_and_adopts(self):
        system, _gen, rng = compacted_system_with_behind_replica()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        # Staleness detected: a pull is on its way back to the advertiser.
        pulls = [m for m in system.gossip_channels[("r3", "r1")].contents()
                 if m.kind == "pull"]
        assert len(pulls) == 1
        # The pull echoes the advert's fold identity; the content digest
        # rides on the transfer chunks, where a body actually crosses.
        advertised = system.replicas["r1"].checkpoint
        assert pulls[0].digest == advertised.advert().digest == advertised.identity()
        assert advertised.identity() != advertised.digest()
        deliver_all(system, ("r3", "r1"))
        transfers = [m for m in system.gossip_channels[("r1", "r3")].contents()
                     if m.kind == "transfer"]
        assert len(transfers) == 3  # 6 values in chunks of 2
        assert all(t.digest == advertised.digest() for t in transfers)
        deliver_all(system, ("r1", "r3"))
        assert system.replicas["r3"].checkpoint.count == 6
        system.drain(rng)
        AlgorithmInvariantChecker(system).check_all()

    def test_transfer_chunks_adopt_only_when_complete_in_any_order(self):
        system, _gen, _rng = compacted_system_with_behind_replica()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        deliver_all(system, ("r3", "r1"))
        transfers = [m for m in system.gossip_channels[("r1", "r3")].contents()
                     if m.kind == "transfer"]
        r3 = system.replicas["r3"]
        for transfer in reversed(transfers[1:]):
            system.receive_gossip("r1", "r3", transfer)
            assert r3.checkpoint.count == 0  # incomplete: nothing adopted yet
        system.receive_gossip("r1", "r3", transfers[0])
        assert r3.checkpoint.count == 6

    def test_lost_pull_is_retried_off_the_next_advert(self):
        system, _gen, rng = compacted_system_with_behind_replica()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        channel = system.gossip_channels[("r3", "r1")]
        lost = channel.receive(channel.contents()[0])  # the pull vanishes
        assert lost.kind == "pull"
        assert system.replicas["r3"].checkpoint.count == 0
        # The periodic full-state gossip re-advertises; the pull re-fires.
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        assert any(m.kind == "pull" for m in channel.contents())
        system.drain(rng)
        assert system.replicas["r3"].checkpoint.count == 6
        AlgorithmInvariantChecker(system).check_all()

    def test_transfer_lost_mid_chunk_heals_on_retry(self):
        system, _gen, rng = compacted_system_with_behind_replica()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        deliver_all(system, ("r3", "r1"))
        channel = system.gossip_channels[("r1", "r3")]
        transfers = [m for m in channel.contents() if m.kind == "transfer"]
        system.receive_gossip("r1", "r3", transfers[0])  # first chunk lands
        channel.receive(transfers[1])  # second chunk is lost in transit
        assert system.replicas["r3"].checkpoint.count == 0
        # Re-advert, re-pull: the fresh transfer set completes the assembly
        # (same digest, so the surviving chunk still counts).
        system.send_gossip("r1", "r3")
        system.drain(rng)
        assert system.replicas["r3"].checkpoint.count == 6
        AlgorithmInvariantChecker(system).check_all()

    def test_sender_crash_between_advert_and_transfer(self):
        system, _gen, rng = compacted_system_with_behind_replica()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        deliver_all(system, ("r3", "r1"))
        transfers = [m for m in system.gossip_channels[("r1", "r3")].contents()
                     if m.kind == "transfer"]
        system.receive_gossip("r1", "r3", transfers[0])  # partial assembly
        old_epoch = transfers[0].epoch
        # The advertiser crashes with volatile memory: incarnation bump, but
        # the checkpoint itself is stable storage.
        system.replicas["r1"].crash(volatile_memory=True)
        system.replicas["r1"].recover_from_stable_storage()
        for transfer in transfers[1:]:  # stragglers from the dead incarnation
            system.gossip_channels[("r1", "r3")].receive(transfer)
        # Observing the bumped epoch drops r3's partial assembly...
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        assert "r1" not in system.replicas["r3"]._transfer_in
        # ...and the re-advert re-pulls; the recovered sender answers from
        # its persisted checkpoint under the new epoch.
        system.drain(rng)
        r3 = system.replicas["r3"]
        assert r3.checkpoint.count == 6
        assert system.replicas["r1"]._epoch > old_epoch
        AlgorithmInvariantChecker(system).check_all()

    def test_catching_up_replica_defers_replays_and_compaction(self):
        """The window between advert and completed pull is a genuine hazard:
        the behind replica's label order has a hole below the advertised
        frontier, so a local replay would compute wrong values and a local
        fold would diverge from the agreed prefix.  Both are gated until the
        hole closes."""
        system, gen, rng = compacted_system_with_behind_replica()
        r3 = system.replicas["r3"]
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        assert r3.catching_up()
        # A fresh request reaches the catching-up replica directly: it may
        # do the operation, but must not answer from its holed history...
        op = make_operation(CounterType.increment(), gen.fresh())
        system.request(op)
        system.send_request("alice", "r3", op)
        system.receive_request("alice", "r3")
        r3.do_all_ready()
        assert op in r3.done_here()
        assert not r3.response_ready(op)
        # ...nor compact, even when forced.
        r3.configure_compaction(CompactionPolicy(min_batch=1))
        assert r3.maybe_compact(force=True) == 0
        # Completing the pull closes the hole; the answer then reflects the
        # adopted prefix (6 folded increments) plus the new operation.
        system.drain(rng)
        assert not r3.catching_up()
        assert system.responded[op.id] == 7
        AlgorithmInvariantChecker(system).check_all()

    def test_memoized_state_is_rebuilt_when_catchup_heals_via_gossip(self):
        """The memo hazard behind the heal path: operations learned during
        the catch-up window must not be memoized onto a base missing the
        awaited prefix — and when the window closes through ordinary gossip
        (no adoption hook runs), the poisoned memo must be rebuilt, or a
        later response serves the wrong value."""
        system = AlgorithmSystem(
            CounterType(), ["r1", "r2", "r3"], ["alice"],
            replica_factory=MemoizedReplicaCore,
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1), advert_gossip=True),
        )
        # Only r1 folds, so r2 keeps the full history for the heal path.
        system.replicas["r2"].configure_compaction(enabled=False)
        system.replicas["r3"].configure_compaction(enabled=False)
        gen = OperationIdGenerator("alice")
        rng = random.Random(7)
        for _ in range(5):
            system.request(make_operation(CounterType.increment(), gen.fresh()))
        system.run_random(rng, steps=400)
        system.drain(rng)
        assert system.replicas["r1"].checkpoint.count == 5
        r3 = system.replicas["r3"]
        r3.crash(volatile_memory=True)
        r3.recover_from_stable_storage()
        # A sixth operation lands at r1 only, then r1's gossip reaches r3:
        # the advert opens the window while the payload makes op6 done here.
        op6 = make_operation(CounterType.increment(), gen.fresh())
        system.request(op6)
        system.send_request("alice", "r1", op6)
        system.receive_request("alice", "r1")
        system.replicas["r1"].do_all_ready()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        assert r3.catching_up() and op6 in r3.done_here()
        assert op6 not in r3.memoized  # memoization held back in the window
        # The pull is lost; r2's full-history gossip heals the hole instead.
        channel = system.gossip_channels[("r3", "r1")]
        for message in [m for m in channel.contents() if m.kind == "pull"]:
            channel.receive(message)
        system.send_gossip("r2", "r3")
        deliver_all(system, ("r2", "r3"))
        assert not r3.catching_up()
        # A retransmit to the healed replica must answer with the full
        # history's value (6 increments), not a holed-memo value.
        system.send_request("alice", "r3", op6)
        system.receive_request("alice", "r3")
        assert r3.response_ready(op6)
        assert r3.make_response(op6).value == 6
        system.drain(rng)
        AlgorithmInvariantChecker(system).check_all()

    def test_commute_state_is_rebuilt_when_catchup_heals_via_gossip(self):
        """Same hazard for the Commute variant's ``cs_r`` / ``val_r``."""
        system = AlgorithmSystem(
            GSetType(), ["r1", "r2", "r3"], ["alice"],
            replica_factory=CommuteReplicaCore, users=SafeUsers(GSetType()),
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1), advert_gossip=True),
        )
        system.replicas["r2"].configure_compaction(enabled=False)
        system.replicas["r3"].configure_compaction(enabled=False)
        gen = OperationIdGenerator("alice")
        rng = random.Random(9)
        for index in range(5):
            system.request(make_operation(GSetType.insert(index), gen.fresh()))
        system.run_random(rng, steps=400)
        system.drain(rng)
        assert system.replicas["r1"].checkpoint.count == 5
        r3 = system.replicas["r3"]
        r3.crash(volatile_memory=True)
        r3.recover_from_stable_storage()
        op6 = make_operation(GSetType.insert(99), gen.fresh())
        system.request(op6)
        system.send_request("alice", "r1", op6)
        system.receive_request("alice", "r1")
        system.replicas["r1"].do_all_ready()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        assert r3.catching_up()
        channel = system.gossip_channels[("r3", "r1")]
        for message in [m for m in channel.contents() if m.kind == "pull"]:
            channel.receive(message)
        system.send_gossip("r2", "r3")
        deliver_all(system, ("r2", "r3"))
        assert not r3.catching_up()
        system.send_request("alice", "r3", op6)
        system.receive_request("alice", "r3")
        assert r3.response_ready(op6)
        expected = system.replicas["r1"].compute_value(op6)
        assert r3.make_response(op6).value == expected
        assert r3.replayed_state() == system.replicas["r1"].replayed_state()
        system.drain(rng)
        AlgorithmInvariantChecker(system).check_all()

    def test_catch_up_can_heal_through_ordinary_gossip(self):
        """If some peer still tracks everything the advert covered, plain
        gossip re-delivers the missing operations and catch-up ends without
        any transfer — the advert's stability assertion is absorbed late."""
        system = AlgorithmSystem(
            CounterType(), ["r1", "r2", "r3"], ["alice"],
            config=ReplicaConfig(compaction=CompactionPolicy(min_batch=1), advert_gossip=True),
        )
        # Only r1 compacts; r2 keeps tracking the full history.
        system.replicas["r2"].configure_compaction(enabled=False)
        system.replicas["r3"].configure_compaction(enabled=False)
        gen = OperationIdGenerator("alice")
        rng = random.Random(11)
        for _ in range(5):
            system.request(make_operation(CounterType.increment(), gen.fresh()))
        system.run_random(rng, steps=400)
        system.drain(rng)
        assert system.replicas["r1"].checkpoint.count == 5
        r3 = system.replicas["r3"]
        r3.crash(volatile_memory=True)
        r3.recover_from_stable_storage()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        assert r3.catching_up()
        system.send_gossip("r2", "r3")  # full history, r2 never folded
        deliver_all(system, ("r2", "r3"))
        assert not r3.catching_up()
        assert r3.checkpoint.count == 0  # healed by payload, not transfer
        system.drain(rng)
        AlgorithmInvariantChecker(system).check_all()

    def test_stale_chunks_do_not_clobber_a_newer_assembly(self):
        """Delayed stragglers from a superseded transfer (older digest,
        lower frontier) must be ignored — on the unordered network they can
        interleave with the chunks of the replacement transfer."""
        system, gen, _rng = compacted_system_with_behind_replica()
        r1, r3 = system.replicas["r1"], system.replicas["r3"]
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        pull = next(m for m in system.gossip_channels[("r3", "r1")].contents()
                    if m.kind == "pull")
        old_transfers = r1.receive_pull_request(pull)
        # Model the sender compacting further before the old chunks land:
        # extend its checkpoint directly (two more increments above the
        # frontier) and chunk the newer body.
        label_gen = LabelGenerator("r1")
        label_gen.observed(r1.checkpoint.frontier)
        extra, labels, existing = [], {}, []
        for _ in range(2):
            op = make_operation(CounterType.increment(), gen.fresh())
            label = label_gen.fresh(existing)
            existing.append(label)
            labels[op.id] = label
            extra.append(op)
        newer, _apps = r1.checkpoint.extend(extra, r1.data_type, labels)
        new_transfers = checkpoint_transfers(
            newer, sender="r1", requester="r3", epoch=0, chunk=3
        )
        assert new_transfers[0].digest != old_transfers[0].digest
        # Interleave: new chunk 0, then every old chunk, then the rest new.
        r3.receive_transfer(new_transfers[0])
        for transfer in old_transfers:
            r3.receive_transfer(transfer)  # stragglers: ignored
        assert r3._transfer_in["r1"].digest == new_transfers[0].digest
        assert 0 in r3._transfer_in["r1"].chunks
        for transfer in new_transfers[1:]:
            r3.receive_transfer(transfer)
        assert r3.checkpoint.count == newer.count == 8

    def test_digest_mismatch_after_concurrent_compaction(self):
        system, gen, rng = compacted_system_with_behind_replica()
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        pull = next(m for m in system.gossip_channels[("r3", "r1")].contents()
                    if m.kind == "pull")
        advertised_digest = pull.digest
        # Before the pull is delivered, r1 compacts further (r3 participates
        # in stabilizing the new operations, so the frontier can advance).
        extra = [make_operation(CounterType.increment(), gen.fresh()) for _ in range(3)]
        for op in extra:
            system.request(op)
        system.run_random(rng, steps=300)
        system.drain(rng)
        current = system.replicas["r1"].checkpoint
        assert current.digest() != advertised_digest
        # Answering the stale-digest pull ships the *current* checkpoint —
        # nested over the advertised one, so adoption still catches r3 up.
        transfers = system.replicas["r1"].receive_pull_request(pull)
        assert all(t.digest == current.digest() for t in transfers)
        for transfer in transfers:
            system.replicas["r3"].receive_transfer(transfer)
        assert system.replicas["r3"].checkpoint.count >= 6
        system.drain(rng)
        AlgorithmInvariantChecker(system).check_all()
        states = {rid: r.replayed_state() for rid, r in system.replicas.items()}
        assert len(set(states.values())) == 1


# --------------------------------------------------------------------------- #
# Finer catch-up gating: state-independent values answer early                #
# --------------------------------------------------------------------------- #


def register_system_with_behind_replica(requests=6):
    """Like :func:`compacted_system_with_behind_replica`, over a register."""
    system = AlgorithmSystem(
        RegisterType(), ["r1", "r2", "r3"], ["alice"],
        config=ReplicaConfig(
            compaction=CompactionPolicy(min_batch=1),
            advert_gossip=True,
            checkpoint_chunk=2,
        ),
    )
    system.replicas["r3"].configure_compaction(enabled=False)
    gen = OperationIdGenerator("alice")
    rng = random.Random(5)
    for index in range(requests):
        system.request(make_operation(RegisterType.write(index), gen.fresh()))
    system.run_random(rng, steps=400)
    system.drain(rng)
    assert system.replicas["r1"].checkpoint.count == requests
    assert system.replicas["r3"].checkpoint.count == 0
    system.replicas["r3"].crash(volatile_memory=True)
    system.replicas["r3"].recover_from_stable_storage()
    return system, gen, rng


class TestCatchupStateIndependentGating:
    """The catch-up response gate refuses only what it must: an operation
    whose reported value is the same in every state (a register write) is
    answerable from the holed local replay, because the missing prefix
    cannot change what it reports.  Everything state-dependent still waits
    for the pull — the PR 4 wrong-value hazard."""

    def test_predicate_per_data_type(self):
        from repro.service.keyed import KeyedStore

        register = RegisterType()
        assert register.state_independent(RegisterType.write(3))
        assert not register.state_independent(RegisterType.read())
        counter = CounterType()
        assert not counter.state_independent(CounterType.increment())
        store = KeyedStore(register)
        assert store.state_independent(
            KeyedStore.at("k", RegisterType.write(3)))
        assert not store.state_independent(
            KeyedStore.at("k", RegisterType.read()))
        assert not store.state_independent(KeyedStore.keys_op())

    def catching_up_with_done_op(self, system, gen, operator):
        """Put r3 into catch-up, then hand it one fresh done operation."""
        r3 = system.replicas["r3"]
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        assert r3.catching_up()
        op = make_operation(operator, gen.fresh())
        system.request(op)
        system.send_request("alice", "r3", op)
        system.receive_request("alice", "r3")
        r3.do_all_ready()
        assert op in r3.done_here()
        return r3, op

    def test_write_is_answered_during_catchup(self):
        system, gen, rng = register_system_with_behind_replica()
        r3, op = self.catching_up_with_done_op(
            system, gen, RegisterType.write("fresh"))
        assert r3.catching_up()
        assert r3.response_ready(op)
        system.send_response("r3", op)
        for message in system.response_channels[("r3", "alice")].contents():
            system.receive_response("r3", "alice", message)
        assert system.response(op) == "fresh"
        # Early answering must not weaken the compaction gate.
        r3.configure_compaction(CompactionPolicy(min_batch=1))
        assert r3.maybe_compact(force=True) == 0
        system.drain(rng)
        assert not r3.catching_up()
        AlgorithmInvariantChecker(system).check_all()
        check_trace(system).raise_for_failure()

    def test_read_still_refuses_during_catchup(self):
        system, gen, rng = register_system_with_behind_replica()
        r3, op = self.catching_up_with_done_op(system, gen, RegisterType.read())
        assert not r3.response_ready(op)
        system.drain(rng)
        assert not r3.catching_up()
        assert op.id in system.responded
        AlgorithmInvariantChecker(system).check_all()

    def test_strict_write_still_waits_for_stability(self):
        system, gen, _rng = register_system_with_behind_replica()
        r3 = system.replicas["r3"]
        system.send_gossip("r1", "r3")
        deliver_all(system, ("r1", "r3"))
        op = make_operation(RegisterType.write("s"), gen.fresh(), strict=True)
        system.request(op)
        system.send_request("alice", "r3", op)
        system.receive_request("alice", "r3")
        r3.do_all_ready()
        # Done only here: the strict gate (stable everywhere) still applies
        # on the state-independent early path.
        assert op in r3.done_here()
        assert not r3.response_ready(op)

    def test_counter_increment_still_refuses_during_catchup(self):
        # The original PR 4 hazard: an increment reports the post-state.
        system, gen, _rng = compacted_system_with_behind_replica()
        r3, op = self.catching_up_with_done_op(
            system, gen, CounterType.increment())
        assert not r3.response_ready(op)


# --------------------------------------------------------------------------- #
# Simulated cluster: twins, crash recovery, lossy catch-up                    #
# --------------------------------------------------------------------------- #


def sim_params(advert, retransmit_interval=None, **features):
    defaults = dict(
        compaction=CompactionPolicy(min_batch=4), compaction_interval=8.0,
        advert_gossip=advert,
    )
    return SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0, retransmit_interval=retransmit_interval,
        replica=ReplicaConfig(**{**defaults, **features}),
    )


def run_sim(advert, seed=9, delta=False, ops=40):
    cluster = SimulatedCluster(
        RegisterType(), 3, ["c0", "c1"],
        params=sim_params(advert, delta_gossip=delta), seed=seed,
    )
    spec = WorkloadSpec(
        operations_per_client=ops, mean_interarrival=0.5,
        strict_fraction=0.2, prev_policy="last_own",
        operator_factory=lambda rng, i: (
            RegisterType.write(rng.randint(0, 50))
            if rng.random() < 0.6 else RegisterType.read()),
    )
    run_workload(cluster, spec, seed=31)
    cluster.run_until_idle()
    return cluster


class TestSimulatedAdvertPull:
    @pytest.mark.parametrize("delta", [False, True], ids=["full", "delta"])
    def test_twin_runs_produce_identical_responses(self, delta):
        eager = run_sim(advert=False, delta=delta)
        advert = run_sim(advert=True, delta=delta)
        assert eager.responded == advert.responded
        assert sum(r.checkpoint.count for r in advert.replicas.values()) > 0
        # Crash-free: the catch-up plane stayed silent, yet the wire carried
        # strictly less checkpoint payload.
        assert advert.network.counters.pull == 0
        assert advert.network.counters.transfer == 0
        assert (advert.network.counters.gossip_payload
                < eager.network.counters.gossip_payload)

    def crash_recovery_cluster(self, chunk=3):
        params = sim_params(True, checkpoint_chunk=chunk,
                            compaction=CompactionPolicy(min_batch=1),
                            compaction_interval=4.0, retransmit_interval=4.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=1)
        # r1 never folds on its own, so a volatile crash leaves it without
        # any checkpoint — the pull path is its only way back.
        cluster.replicas["r1"].configure_compaction(enabled=False)
        for _ in range(20):
            cluster.execute("c0", CounterType.increment())
        cluster.run(30)
        assert cluster.replicas["r0"].checkpoint.count == 20
        cluster.crash_replica("r1", volatile_memory=True)
        cluster.run(5)
        cluster.recover_replica("r1")
        cluster.replicas["r1"].configure_compaction(CompactionPolicy(min_batch=1))
        return cluster

    def finish_and_check(self, cluster):
        for _ in range(5):
            cluster.execute("c0", CounterType.increment())
        cluster.run(80)
        assert cluster.fully_converged()
        states = {rid: r.replayed_state() for rid, r in cluster.replicas.items()}
        assert len(set(states.values())) == 1
        AlgorithmInvariantChecker(cluster).check_all()

    def test_crash_recovery_catches_up_via_pull(self):
        cluster = self.crash_recovery_cluster()
        self.finish_and_check(cluster)
        assert cluster.network.counters.pull > 0
        assert cluster.network.counters.transfer > 0
        assert cluster.replicas["r1"].checkpoint.count >= 20

    def test_catch_up_survives_dropped_pulls_and_transfers(self):
        cluster = self.crash_recovery_cluster()
        to_drop = {"pull": 2, "transfer": 3}
        original = cluster.network.should_drop

        def lossy(kind, now, source, destination):
            if to_drop.get(kind, 0) > 0:
                to_drop[kind] -= 1
                cluster.network.counters.dropped += 1
                return True
            return original(kind, now, source, destination)

        cluster.network.should_drop = lossy
        self.finish_and_check(cluster)
        assert to_drop == {"pull": 0, "transfer": 0}  # the drops really hit
        assert cluster.replicas["r1"].checkpoint.count >= 20


# --------------------------------------------------------------------------- #
# Sharded service layer                                                       #
# --------------------------------------------------------------------------- #


class TestShardedAdvertPull:
    def drive(self, advert, seed=41):
        cluster = ShardedCluster(
            CounterType(), num_shards=2, replicas_per_shard=2,
            client_ids=["alice", "bob"], seed=seed,
            config=ReplicaConfig(
                compaction=CompactionPolicy(min_batch=1),
                advert_gossip=advert,
                checkpoint_chunk=2,
            ),
        )
        rng = random.Random(seed)
        keys = ["k0", "k1", "k2"]
        for _ in range(10):
            client = rng.choice(list(cluster.client_ids))
            key = rng.choice(keys)
            cluster.submit(client, key, CounterType.increment())
            cluster.run(0.5)
        cluster.run_until_idle()
        cluster.run(60.0)  # extra gossip so every shard quiesces
        return cluster

    def test_sharded_twins_agree_and_verify(self):
        eager = self.drive(advert=False)
        advert = self.drive(advert=True)
        assert eager.responded == advert.responded
        advert.check_invariants()
        advert.check_traces()
        folded = sum(
            r.checkpoint.count
            for shard in advert.shards.values()
            for r in shard.replicas.values()
        )
        assert folded > 0
