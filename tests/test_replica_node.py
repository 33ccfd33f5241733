"""Tests for the sans-IO :class:`~repro.algorithm.node.ReplicaNode`.

The node is the one place a burst of inbound messages becomes core calls and
an outbox.  Before it existed that sequence was hand-written per input kind
in the simulator and per frame in the asyncio runtime; ``parent_loops`` below
is a transcription of those handlers, kept here as the reference the node is
compared against on twin cores.  The remaining tests pin the frame-level
contract (gossip runs, one sweep per burst, none for pulls, nothing when
crashed) and the call-time method lookup the budget benchmark's tracer
depends on.
"""

import asyncio
from collections import Counter

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.messages import PullRequestMessage, RequestMessage, ResponseMessage
from repro.algorithm.node import ReplicaNode, build_replicas
from repro.common import OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.net.runtime import NetCluster, NetParams
from repro.sim.cluster import SimulatedCluster, SimulationParams

IDS = ("r0", "r1")
CONFIG = ReplicaConfig(
    fast_core=True,
    delta_gossip=True,
    advert_gossip=True,
    compaction=CompactionPolicy(min_batch=1, value_retention=2),
)


def parent_loops(core, rid, messages):
    """What the pre-node drivers sent for one delivery: the simulator's
    ``_process_request`` / ``_process_gossip_batch`` / ``_deliver_pull`` /
    ``_deliver_transfer``, as ``(kind, destination, message)`` in send order."""
    sent = []

    def respond():
        core.do_all_ready()
        for operation in core.ready_responses():
            sent.append(("response", operation.id.client, core.make_response(operation)))

    kind = messages[0].kind
    if kind == "request":
        (message,) = messages
        core.receive_request(message)
        for operation in core.take_stale_nacks():
            nack = ResponseMessage(operation=operation, value=None, stale=True, sender=rid)
            sent.append(("response", operation.id.client, nack))
        respond()
    elif kind == "gossip":
        core.receive_gossip_batch(messages)
        for pull in core.take_pending_pulls():
            sent.append(("pull", pull.target, pull))
        respond()
    elif kind == "pull":
        (message,) = messages
        transfer = core.receive_pull_request(message)
        if transfer is not None:
            sent.append(("transfer", transfer.requester, transfer))
    elif kind == "transfer":
        (message,) = messages
        core.receive_transfer(message)
        respond()
    return sent


class World:
    """Two replicas and a FIFO of replica-bound messages, dispatched either
    through nodes or through the reference loops."""

    def __init__(self, through_node):
        self.cores = build_replicas(CONFIG, IDS, CounterType())
        self.nodes = {rid: ReplicaNode(rid, core) for rid, core in self.cores.items()}
        self.through_node = through_node
        self.in_flight = []
        self.log = []

    def deliver(self, rid, messages):
        if self.through_node:
            outbox = self.nodes[rid].handle(messages)
        else:
            outbox = parent_loops(self.cores[rid], rid, messages)
        self.log.append((rid, messages[0].kind, outbox))
        self.in_flight += [(dest, m) for kind, dest, m in outbox if kind != "response"]
        return outbox

    def drain(self):
        while self.in_flight:
            dest, message = self.in_flight.pop(0)
            self.deliver(dest, [message])

    def gossip(self, source, dest):
        return self.deliver(dest, [self.cores[source].make_gossip(dest)])

    def gossip_rounds(self, rounds):
        for _ in range(rounds):
            self.gossip("r0", "r1")
            self.gossip("r1", "r0")
            self.drain()


def every_input_kind(world):
    """Five operations answered and folded at r0 while r1 (which never folds
    on its own) loses everything in a crash: drives a request, a strict
    response released by gossip, a stale retransmit, a pull, a transfer
    and a response released by the transfer."""
    world.cores["r1"].configure_compaction(enabled=False)
    ids = OperationIdGenerator("c0")
    operations = [
        make_operation(CounterType.increment(), ids.fresh(), strict=(index == 3))
        for index in range(5)
    ]
    for operation in operations:
        world.deliver("r0", [RequestMessage(operation)])
    world.gossip_rounds(4)
    world.deliver("r0", [RequestMessage(operations[0])])  # value aged out: NACK
    world.cores["r1"].crash(volatile_memory=True)
    world.cores["r1"].recover_from_stable_storage()
    world.cores["r1"].configure_compaction(CONFIG.compaction)
    while not world.in_flight:  # until an advert shows r1 behind: a pull in flight
        world.gossip("r0", "r1")
        world.gossip("r1", "r0")
    read = make_operation(CounterType.read(), ids.fresh())
    world.deliver("r1", [RequestMessage(read)])  # catching up: held back
    world.drain()
    world.gossip_rounds(2)
    return world.log


class TestOutboxMatchesTheParentLoops:
    def test_per_input_kind(self):
        through_node = every_input_kind(World(through_node=True))
        reference = every_input_kind(World(through_node=False))

        def comparable(log):
            # Messages of different worlds are distinct objects and not all
            # kinds define equality; their reprs show every field.
            return [
                (rid, kind, [(k, dest, repr(m)) for k, dest, m in outbox])
                for rid, kind, outbox in log
            ]

        assert comparable(through_node) == comparable(reference)

        def outboxes(kind):
            return [
                [(k, dest) for k, dest, _m in outbox]
                for _rid, delivered, outbox in through_node
                if delivered == kind
            ]

        # The script really did exercise every kind (else equality is vacuous).
        assert [("response", "c0")] in outboxes("request")
        assert [("response", "c0")] in outboxes("gossip")  # the strict one
        assert [("pull", "r0")] in outboxes("gossip")
        assert outboxes("pull") == [[("transfer", "r1")]]
        assert outboxes("transfer") == [[("response", "c0")]]  # the held read
        nacks = [
            message
            for _rid, _kind, outbox in through_node
            for _k, _dest, message in outbox
            if getattr(message, "stale", False)
        ]
        assert [(m.sender, m.value) for m in nacks] == [("r0", None)]


def counting(core):
    """Wrap every dispatch-relevant core method with a call counter, the way
    the budget tracer does: ``setattr`` on the instance, after construction."""
    calls = Counter()
    batches = []

    def wrap(name):
        original = getattr(core, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if name == "receive_gossip_batch":
                batches.append(len(args[0]))
            return original(*args, **kwargs)

        setattr(core, name, wrapped)

    for name in (
        "receive_request", "receive_gossip_batch", "receive_pull_request",
        "receive_transfer", "take_pending_pulls", "take_stale_nacks",
        "do_all_ready", "ready_responses", "make_response",
    ):
        wrap(name)
    return calls, batches


def settled_pair():
    """r0 and r1 after three answered operations and enough gossip for both
    to hold a checkpoint."""
    world = World(through_node=True)
    ids = OperationIdGenerator("c0")
    for _ in range(3):
        world.deliver("r0", [RequestMessage(make_operation(CounterType.increment(), ids.fresh()))])
    world.gossip_rounds(4)
    assert all(core.checkpoint.count == 3 for core in world.cores.values())
    return world, ids


class TestFrameContract:
    def test_gossip_runs_merge_as_batches_and_the_sweep_runs_once(self):
        world, ids = settled_pair()
        request = RequestMessage(make_operation(CounterType.increment(), ids.fresh()))
        gossip = [world.cores["r0"].make_gossip("r1") for _ in range(3)]
        calls, batches = counting(world.cores["r1"])
        outbox = world.nodes["r1"].handle([gossip[0], gossip[1], request, gossip[2]])
        assert batches == [2, 1]
        assert calls["take_pending_pulls"] == 2  # after each run
        assert calls["receive_request"] == 1
        assert calls["take_stale_nacks"] == calls["do_all_ready"] == calls["ready_responses"] == 1
        assert [(kind, dest) for kind, dest, _m in outbox] == [("response", "c0")]

    def test_pull_only_frame_does_no_sweep(self):
        world, _ids = settled_pair()
        checkpoint = world.cores["r0"].checkpoint
        pull = PullRequestMessage("r1", "r0", checkpoint.identity(), checkpoint.frontier)
        calls, _batches = counting(world.cores["r0"])
        outbox = world.nodes["r0"].handle([pull, pull])
        assert outbox and {kind for kind, _dest, _m in outbox} == {"transfer"}
        assert all(dest == "r1" for _kind, dest, _m in outbox)
        assert set(calls) == {"receive_pull_request"} and calls["receive_pull_request"] == 2

    def test_crashed_node_returns_nothing_and_touches_nothing(self):
        world, ids = settled_pair()
        node = world.nodes["r1"]
        calls, _batches = counting(node.core)
        before = node.core.snapshot()
        node.crashed = True
        frame = [
            world.cores["r0"].make_gossip("r1"),
            RequestMessage(make_operation(CounterType.increment(), ids.fresh())),
        ]
        assert node.handle(frame) == []
        assert not calls
        assert node.core.snapshot() == before

    def test_empty_burst_is_a_no_op(self):
        world, _ids = settled_pair()
        calls, _batches = counting(world.cores["r0"])
        assert world.nodes["r0"].handle([]) == []
        assert not calls


class TestTracerContract:
    """``benchmarks/budget/tracing.py`` wraps core methods by ``setattr`` on
    the instances of an already-built cluster; the node must call the
    wrapper, i.e. look methods up at call time."""

    CONFIG = ReplicaConfig(fast_core=True, delta_gossip=True)

    def test_simulated_cluster_calls_the_wrapper(self):
        cluster = SimulatedCluster(
            CounterType(), 3, ["c0"],
            params=SimulationParams(replica=self.CONFIG), seed=4,
        )
        calls = {rid: counting(core)[0] for rid, core in cluster.replicas.items()}
        for _ in range(4):
            cluster.execute("c0", CounterType.increment())
        cluster.run(10.0)
        assert all(c["receive_gossip_batch"] > 0 for c in calls.values())
        assert sum(c["receive_request"] for c in calls.values()) == 4
        assert sum(c["make_response"] for c in calls.values()) == 4

    def test_net_cluster_calls_the_wrapper(self):
        async def run():
            cluster = NetCluster(
                CounterType(), 3, ("c0",),
                params=NetParams(gossip_period=0.01), config=self.CONFIG,
            )
            calls = {rid: counting(core)[0] for rid, core in cluster.replicas.items()}
            async with cluster:
                for _ in range(4):
                    await cluster.submit("c0", CounterType.increment())
                assert await cluster.quiesce(timeout=10.0)
            return calls

        calls = asyncio.run(run())
        assert all(c["receive_gossip_batch"] > 0 for c in calls.values())
        assert sum(c["receive_request"] for c in calls.values()) == 4
        assert sum(c["make_response"] for c in calls.values()) == 4


def test_handle_ignores_a_response_sent_to_a_replica():
    world, ids = settled_pair()
    operation = make_operation(CounterType.increment(), ids.fresh())
    stray = ResponseMessage(operation=operation, value=1, stale=False, sender="r1")
    assert world.nodes["r0"].handle([stray]) == []


@pytest.mark.parametrize("through_node", [True, False])
def test_script_converges(through_node):
    """Sanity for the twin script itself: both replicas end in one state."""
    world = World(through_node)
    every_input_kind(world)
    states = {core.replayed_state() for core in world.cores.values()}
    assert states == {5}
