"""Delta gossip (§10.4, ack-based) and the production core's replay cache.

The load-bearing property: delta gossip only ever omits knowledge the
destination has *acknowledged*, so merging a delta leaves the receiver in
exactly the state the corresponding full-state message would have produced.
Consequently a delta-gossip system and a full-gossip system driven by the
same seeded scheduler go through identical executions — same responses, same
``ops``, same ``po`` — while the delta system ships a fraction of the
payload.  Crashes are covered by the incarnation epoch plus the periodic
full-state fallback.
"""

import random

import pytest

from repro.algorithm import fastcore as fastcore_module
from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.delta import PeerInState, PeerOutState
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.messages import RequestMessage
from repro.algorithm.replica import ReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import ConfigurationError, OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType, RegisterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.outcome import check_trace
from repro.verification.simulation_check import AlgorithmToSpecSimulation


def build_system(delta: bool, full_state_interval: int = 5,
                 replica_ids=("r1", "r2", "r3"), clients=("alice", "bob")):
    return AlgorithmSystem(
        CounterType(), list(replica_ids), list(clients),
        config=ReplicaConfig(fast_core=delta, delta_gossip=delta, full_state_interval=full_state_interval),
    )


def drive_random(system: AlgorithmSystem, seed: int, requests: int = 8,
                 steps: int = 600) -> AlgorithmSystem:
    """Issue a seeded workload and schedule with a seeded scheduler."""
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
                            strict=rng.random() < 0.3)
        history.append(op)
        system.request(op)
    system.run_random(rng, steps=steps)
    system.drain(rng)
    system.run_random(rng, steps=steps)
    return system


def gossip_payload(system: AlgorithmSystem) -> int:
    return sum(ch.sent_payload for ch in system.gossip_channels.values())


class TestDeltaFullEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    def test_seeded_executions_are_identical(self, seed):
        full = drive_random(build_system(delta=False), seed)
        delta = drive_random(build_system(delta=True), seed)

        assert full.trace.responses == delta.trace.responses
        assert full.ops() == delta.ops()
        assert set(full.partial_order().pairs) == set(delta.partial_order().pairs)
        assert full.eventual_order() == delta.eventual_order()
        for rid in full.replica_ids:
            assert full.replicas[rid].done_here() == delta.replicas[rid].done_here()
            assert full.replicas[rid].labels == delta.replicas[rid].labels

    @pytest.mark.parametrize("seed", [0, 3, 11, 29])
    def test_delta_ships_less_payload(self, seed):
        full = drive_random(build_system(delta=False), seed)
        delta = drive_random(build_system(delta=True), seed)
        sent_full = gossip_payload(full)
        sent_delta = gossip_payload(delta)
        assert sent_delta < sent_full / 2

    def test_trace_checks_pass_with_delta(self):
        system = drive_random(build_system(delta=True), seed=13)
        check_trace(system).raise_for_failure()


class TestDeltaInvariants:
    def test_invariants_hold_at_every_step(self):
        system = build_system(delta=True, full_state_interval=4,
                              replica_ids=("r1", "r2"), clients=("alice",))
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

    def test_simulation_relation_holds_with_delta(self):
        system = AlgorithmSystem(RegisterType(), ["r1", "r2"], ["alice"],
                                 config=ReplicaConfig(fast_core=True, delta_gossip=True, full_state_interval=3))
        sim = AlgorithmToSpecSimulation(system)
        gen = OperationIdGenerator("alice")
        rng = random.Random(2)
        for index in range(4):
            sim.request(make_operation(RegisterType.write(index), gen.fresh(),
                                       strict=(index == 3)))
        sim.run_random(rng, steps=250)
        assert sim.report().steps_checked > 0


class TestDeltaMechanics:
    def setup_pair(self, full_state_interval=100):
        ids = ["r1", "r2"]
        r1 = FastReplicaCore("r1", ids, CounterType())
        r2 = FastReplicaCore("r2", ids, CounterType())
        for replica in (r1, r2):
            replica.configure_delta_gossip(True, full_state_interval)
        return r1, r2

    def feed(self, replica, count, gen):
        ops = [make_operation(CounterType.increment(), gen.fresh()) for _ in range(count)]
        for op in ops:
            replica.receive_request(RequestMessage(op))
        replica.do_all_ready()
        return ops

    def exchange(self, r1, r2, rounds=1):
        for _ in range(rounds):
            r2.receive_gossip(r1.make_gossip("r2"))
            r1.receive_gossip(r2.make_gossip("r1"))

    def test_steady_state_delta_is_empty(self):
        r1, r2 = self.setup_pair()
        self.feed(r1, 5, OperationIdGenerator("c"))
        self.exchange(r1, r2, rounds=3)
        message = r1.make_gossip("r2")
        assert message.is_delta
        assert message.size_estimate() == 0

    def test_first_message_is_full(self):
        r1, r2 = self.setup_pair()
        self.feed(r1, 3, OperationIdGenerator("c"))
        message = r1.make_gossip("r2")
        assert not message.is_delta
        assert len(message.done) == 3

    def test_delta_carries_only_new_operations(self):
        # The effective views read the basis payload, which the core does not
        # keep: the pair gossips through the harness that materialises it.
        system = AlgorithmSystem(
            CounterType(), ["r1", "r2"], ["c"],
            config=ReplicaConfig(fast_core=True, delta_gossip=True, full_state_interval=100),
        )
        r1 = system.replicas["r1"]
        gen = OperationIdGenerator("c")
        self.feed(r1, 4, gen)
        for _ in range(2):
            for source, destination in (("r1", "r2"), ("r2", "r1")):
                system.receive_gossip(
                    source, destination, system.send_gossip(source, destination)
                )
        fresh = self.feed(r1, 2, gen)
        message = system.send_gossip("r1", "r2")
        assert message.is_delta
        assert message.done == frozenset(fresh)
        # The effective view still describes the sender's full knowledge.
        assert len(message.effective_done()) == 6
        assert {x.id for x in message.effective_done()} == set(message.effective_labels())

    def test_periodic_full_state_fallback(self):
        r1, r2 = self.setup_pair(full_state_interval=3)
        self.feed(r1, 3, OperationIdGenerator("c"))
        self.exchange(r1, r2)  # seqno 1: full (no basis yet)
        kinds = []
        for _ in range(6):
            message = r1.make_gossip("r2")
            kinds.append(message.is_delta)
            r2.receive_gossip(message)
            r1.receive_gossip(r2.make_gossip("r1"))
        # Every third send to the peer reverts to full state.
        assert False in kinds and True in kinds
        assert kinds.count(False) >= 2

    def test_crash_recovery_via_epoch_and_full_state(self):
        r1, r2 = self.setup_pair()
        self.feed(r1, 5, OperationIdGenerator("c"))
        self.exchange(r1, r2, rounds=3)
        assert r1.make_gossip("r2").size_estimate() == 0

        r2.crash(volatile_memory=True)
        r2.recover_from_stable_storage()
        assert not r2.done_here()

        # The recovered replica's first gossip carries its bumped epoch;
        # observing it voids every pre-crash ack, so the reply is full state.
        r1.receive_gossip(r2.make_gossip("r1"))
        message = r1.make_gossip("r2")
        assert not message.is_delta
        r2.receive_gossip(message)
        r2.do_all_ready()
        assert r2.done_here() == r1.done_here()
        assert r2.labels == r1.labels

    def test_delta_gossip_resumes_after_peer_crash(self):
        """After the epoch bump the sender restarts its seqno stream, so once
        the recovered peer acknowledges the new stream, deltas resume (they
        must not stay full-state forever) and the receiver's out-of-order
        buffer stays empty."""
        r1, r2 = self.setup_pair()
        self.feed(r1, 5, OperationIdGenerator("c"))
        self.exchange(r1, r2, rounds=3)
        r2.crash(volatile_memory=True)
        r2.recover_from_stable_storage()
        self.exchange(r1, r2, rounds=2)  # epoch observed, new stream acked
        message = r1.make_gossip("r2")
        assert message.is_delta
        assert message.size_estimate() == 0
        assert r2._peer_in["r1"].above == set()

    def test_lost_message_gap_healed_by_full_state(self):
        """A delta-mode message lost in transit leaves a seqno gap; the next
        full-state message jumps the receiver's frontier over it, so acks
        (and therefore small deltas) resume instead of stalling forever."""
        r1, r2 = self.setup_pair(full_state_interval=3)
        gen = OperationIdGenerator("c")
        self.feed(r1, 3, gen)
        self.exchange(r1, r2, rounds=2)
        r1.make_gossip("r2")  # lost in transit: consumes a seqno, never arrives
        self.feed(r1, 1, gen)
        for _ in range(4):  # within this window a periodic full message fires
            self.exchange(r1, r2)
        assert r2._peer_in["r1"].above == set()
        message = r1.make_gossip("r2")
        assert message.is_delta
        assert message.size_estimate() == 0

    def test_stale_ack_regression_is_sound(self):
        r1, r2 = self.setup_pair()
        gen = OperationIdGenerator("c")
        self.feed(r1, 3, gen)
        self.exchange(r1, r2, rounds=2)
        stale = r2.make_gossip("r1")  # carries the current ack
        self.feed(r1, 2, gen)
        self.exchange(r1, r2, rounds=2)
        # A reordered old message regresses the ack; deltas just get larger.
        r1.receive_gossip(stale)
        message = r1.make_gossip("r2")
        r2.receive_gossip(message)
        assert r2.done_here() == r1.done_here()

    def test_full_state_interval_validation(self):
        r1, _ = self.setup_pair()
        with pytest.raises(ConfigurationError):
            r1.configure_delta_gossip(True, full_state_interval=0)


class TestDeltaInSimulation:
    def run_cluster(self, delta: bool, batch: bool = False, seed: int = 7):
        params = SimulationParams(
            df=1.0, dg=1.0, gossip_period=2.0,
            replica=ReplicaConfig(
                fast_core=delta,
                delta_gossip=delta, full_state_interval=8, batch_gossip=batch
            ),
        )
        cluster = SimulatedCluster(CounterType(), 4, ["c0", "c1"],
                                   params=params, seed=seed)
        spec = WorkloadSpec(operations_per_client=15, mean_interarrival=1.0,
                            strict_fraction=0.3)
        run_workload(cluster, spec, seed=seed + 2)
        return cluster

    def test_delta_cluster_matches_full_cluster(self):
        full = self.run_cluster(delta=False)
        delta = self.run_cluster(delta=True)
        assert full.responded == delta.responded
        assert delta.network.counters.gossip_payload < full.network.counters.gossip_payload

    def test_batched_gossip_answers_everything(self):
        batched = self.run_cluster(delta=True, batch=True)
        assert batched.outstanding_operations() == 0
        assert set(batched.responded) == set(self.run_cluster(delta=True).responded)
        # After the drain phase all replicas have converged.
        done_sets = [frozenset(rep.done_here()) for rep in batched.replicas.values()]
        assert len(set(done_sets)) == 1

    def test_cluster_crash_recovery_with_delta(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0,
                                  replica=ReplicaConfig(fast_core=True, delta_gossip=True, full_state_interval=4))
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=11)
        for _ in range(6):
            cluster.execute("c0", CounterType.increment())
        cluster.crash_replica("r1", volatile_memory=True)
        cluster.run(10.0)
        for _ in range(3):
            cluster.execute("c0", CounterType.increment())
        cluster.recover_replica("r1")
        cluster.run(60.0)
        recovered = cluster.replicas["r1"]
        reference = cluster.replicas["r0"]
        assert recovered.done_here() == reference.done_here()
        _, value = cluster.execute("c0", CounterType.read(), strict=True)
        assert value == 9


def replay_from_scratch(core):
    """Every tracked value as the reference core's Fig. 7 replay finds it."""
    state = core.checkpoint.base_state
    values = {}
    for x in core.done_order():
        state, values[x.id] = core.data_type.apply(state, x.op)
    return values


class TestIncrementalReplay:
    """The replay cache of :class:`FastReplicaCore`, against the reference
    core's from-scratch replay."""

    def test_values_identical_and_replay_work_lower(self):
        def drive(fast, seed=3):
            system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["a"],
                                     config=ReplicaConfig(fast_core=fast))
            gen = OperationIdGenerator("a")
            rng = random.Random(seed)
            for index in range(10):
                system.request(make_operation(CounterType.increment(), gen.fresh(),
                                              strict=(index % 4 == 0)))
            system.run_random(rng, steps=800)
            system.drain(rng)
            system.run_random(rng, steps=800)
            applications = sum(
                r.stats.value_applications for r in system.replicas.values()
            )
            return system, applications

        plain, plain_apps = drive(False)
        fast, fast_apps = drive(True)
        assert plain.trace.responses == fast.trace.responses
        assert fast_apps < plain_apps

    def test_label_reordering_invalidates_cached_suffix(self):
        ids = ["r1", "r2"]
        r1 = FastReplicaCore("r1", ids, RegisterType())
        r2 = ReplicaCore("r2", ids, RegisterType())
        gen = OperationIdGenerator("c")
        a = make_operation(RegisterType.write("a"), gen.fresh())
        b = make_operation(RegisterType.write("b"), gen.fresh())
        # r2 does b first (small label), r1 does a then b's gossip arrives,
        # reordering r1's unstable tail.
        r2.receive_request(RequestMessage(b))
        r2.do_all_ready()
        r1.receive_request(RequestMessage(a))
        r1.do_all_ready()
        assert r1.compute_value(a) == "a"  # warms the replay cache
        r1.receive_gossip(r2.make_gossip())
        r1.do_all_ready()
        order = [x.id for x in r1.done_order()]
        # Recompute after the merge: cached checkpoints for reordered
        # positions must not leak a stale state.
        state = RegisterType().initial_state()
        expected = {}
        for op in r1.done_order():
            state, value = RegisterType().apply(state, op.op)
            expected[op.id] = value
        for op in r1.done_here():
            assert r1.compute_value(op) == expected[op.id]
        assert order == [x.id for x in r1.done_order()]

    def test_crash_clears_the_cache(self):
        ids = ["r1", "r2"]
        replica = FastReplicaCore("r1", ids, CounterType())
        gen = OperationIdGenerator("c")
        op = make_operation(CounterType.increment(), gen.fresh())
        replica.receive_request(RequestMessage(op))
        replica.do_all_ready()
        assert replica.compute_value(op) == 1
        replica.crash(volatile_memory=True)
        assert replica._replay_order == []
        assert replica._replay_values == {}

    @pytest.mark.parametrize("resort", [False, True], ids=["splice", "resort"])
    def test_fold_right_after_a_label_lowering_merge(self, resort):
        """One message lowers a label below a cached position and makes the
        head of the order stable, so the fold runs right after the reorder.
        The splice truncates the cache first — or, when a recovery has left
        the order dirty, the full re-sort the fold's prefix scan triggers —
        so the fold's head-trim never keeps a state that misses an
        operation's effect."""
        ids = ["a", "b"]
        a = FastReplicaCore("a", ids, RegisterType())
        b = FastReplicaCore("b", ids, RegisterType())
        for core in (a, b):
            core.configure_compaction(CompactionPolicy(min_batch=1))
        gen = OperationIdGenerator("c")
        x = make_operation(RegisterType.write("x"), gen.fresh())
        y = make_operation(RegisterType.write("y"), gen.fresh())
        z = make_operation(RegisterType.read(), gen.fresh())
        # b labels y below x; a labels x below both.
        for op in (y, x):
            b.receive_request(RequestMessage(op))
            b.do_all_ready()
        a.receive_request(RequestMessage(x))
        a.do_all_ready()
        a.make_response(x)
        a.receive_gossip(b.make_gossip())  # x and y now stable at a
        b.receive_request(RequestMessage(z))
        b.do_all_ready()
        assert [b.make_response(op).value for op in (y, x, z)] == ["y", "x", "x"]
        assert b._replay_order == [y.id, x.id, z.id]
        if resort:
            # Recovery keeps the cache but marks the order dirty, so the
            # merge below cannot splice.
            b.crash(volatile_memory=False)
            b.recover_from_stable_storage()
            assert b._order_dirty and b._replay_order == [y.id, x.id, z.id]
        b.receive_gossip(a.make_gossip())  # x moves first; x and y fold
        assert b.checkpoint.count == 2
        assert b.done_order() == [z]
        assert b.compute_value(z) == replay_from_scratch(b)[z.id] == "y"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_answer_matches_a_from_scratch_replay(self, seed):
        """Random requests (some done at two replicas, so merges lower
        labels), gossip, responses, folds and crashes on production cores:
        after each step every tracked value at the replicas that acted
        equals the reference replay.  A crashed replica is checked only
        after its next action, so a kept-memory crash's dirty order meets
        merges it cannot splice."""
        ids = ["r1", "r2", "r3"]
        cores = {i: FastReplicaCore(i, ids, RegisterType()) for i in ids}
        for core in cores.values():
            core.configure_compaction(CompactionPolicy(min_batch=1))

        def check(replica):
            expected = replay_from_scratch(replica)
            for op in replica.done_here():
                assert replica.compute_value(op) == expected[op.id]

        rng = random.Random(seed)
        gen = OperationIdGenerator("c")
        for step in range(400):
            rid = rng.choice(ids)
            core = cores[rid]
            roll = rng.random()
            if roll < 0.3:
                operator = RegisterType.write(step) if rng.random() < 0.6 else RegisterType.read()
                op = make_operation(operator, gen.fresh())
                for target in rng.sample(ids, rng.choice([1, 2])):
                    cores[target].receive_request(RequestMessage(op))
                    cores[target].do_all_ready()
                    check(cores[target])
            elif roll < 0.85:
                source = rng.choice([i for i in ids if i != rid])
                core.receive_gossip(cores[source].make_gossip())
                core.do_all_ready()
                check(core)
            elif roll < 0.95:
                for op in core.ready_responses():
                    core.make_response(op)
                check(core)
            else:
                core.crash(volatile_memory=rng.random() < 0.5)
                core.recover_from_stable_storage()
        for core in cores.values():
            check(core)
            assert core.stats.compactions


class TestPeerStateConstruction:
    """Per-peer bookkeeping is get-or-create: nothing is built and thrown
    away on a send or a receipt."""

    def test_one_instance_of_each_class_per_peer(self, monkeypatch):
        built = []

        class CountingIn(PeerInState):
            def __init__(self, *args, **kwargs):
                built.append("in")
                super().__init__(*args, **kwargs)

        class CountingOut(PeerOutState):
            def __init__(self, *args, **kwargs):
                built.append("out")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fastcore_module, "PeerInState", CountingIn)
        monkeypatch.setattr(fastcore_module, "PeerOutState", CountingOut)
        pair = TestDeltaMechanics()
        r1, r2 = pair.setup_pair(full_state_interval=7)
        pair.feed(r1, 3, OperationIdGenerator("c"))
        pair.exchange(r1, r2, rounds=50)  # 100 messages
        assert sorted(built) == ["in", "in", "out", "out"]
        assert r1._peer_in["r2"].frontier == 50
        assert r2.make_gossip("r1").size_estimate() == 0

    def test_epoch_reset_restarts_the_stream_in_place(self):
        pair = TestDeltaMechanics()
        r1, r2 = pair.setup_pair()
        pair.feed(r1, 3, OperationIdGenerator("c"))
        pair.exchange(r1, r2, rounds=2)
        out, in_state = r1._peer_out["r2"], r1._peer_in["r2"]
        stream = out.stream
        r2.crash(volatile_memory=True)
        r1.receive_gossip(r2.make_gossip("r1"))
        assert r1._peer_out["r2"] is out and out.stream == stream + 1
        assert out.basis is None and out.next_seqno == 1
        assert r1._peer_in["r2"] is in_state and in_state.epoch == r2._epoch

    def test_epoch_reset_before_any_send_opens_a_fresh_stream(self):
        # A receipt that first shows a peer's bumped epoch, with nothing
        # sent to it yet, still leaves a reset out-state (stream 1) behind.
        ids = ["r1", "r2"]
        r1 = FastReplicaCore("r1", ids, CounterType())
        r2 = FastReplicaCore("r2", ids, CounterType())
        for replica in (r1, r2):
            replica.configure_delta_gossip(True, 100)
        r1.receive_gossip(r2.make_gossip("r1"))
        r1._peer_out.clear()
        r2.crash(volatile_memory=True)
        r1.receive_gossip(r2.make_gossip("r1"))
        assert r1._peer_out["r2"].stream == 1
