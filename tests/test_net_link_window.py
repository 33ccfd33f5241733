"""Link-scoped descriptor windows (:class:`repro.net.codec.DescriptorWindow`).

Four things are pinned here:

* **Equivalence** — whatever sequence of gossip frames crosses a connection,
  decoding through the paired windows yields exactly what the stateless
  round trip yields, a back-referenced descriptor *is* the object decoded at
  first sight, and the window never holds more than the descriptors first
  sent in the last ``WINDOW_MESSAGES`` gossip messages.
* **Scope** — a window lives exactly as long as its connection: after a
  replica crash/recovery or a dropped connection the first frame on the new
  connection decodes against an *empty* window, and a link whose peer is
  unreachable has no window to advance.
* **Hostile references** — a distance outside the window, an oversized
  ``drop`` or "label unchanged" for an entry that never had one is a
  ``FrameError`` that costs the sender the connection and nothing else.
* **Hostile bytes** — no mutation of any frame kind, windowed or not, gets
  anything but ``FrameError`` or a decoded message out of ``decode_frame``,
  and a megabyte of 0xFF is rejected at once.
"""

import asyncio
import dataclasses
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithm.checkpoint import CheckpointAdvert, CompactionPolicy, OpIdSummary
from repro.algorithm.labels import Label
from repro.algorithm.messages import (
    CheckpointTransferMessage,
    GossipMessage,
    PullRequestMessage,
    RequestMessage,
    ResponseMessage,
)
from repro.common import OperationId
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.datatypes.base import Operator
from repro.net import runtime
from repro.net.codec import (
    MAGIC,
    WINDOW_MESSAGES,
    WIRE_VERSION,
    DescriptorWindow,
    FrameError,
    decode_frame,
    encode_frame,
    encode_message,
    encode_varint,
)

from test_net_runtime import (
    FAST,
    _after_hostile_replica_frame,
    converge_and_check,
    make_cluster,
)

# --------------------------------------------------------------------------- #
# Equivalence with the stateless round trip                                   #
# --------------------------------------------------------------------------- #

#: Distinct identifiers, so the test's own model of "first sight" is exact
#: (an identifier reused by a different descriptor is covered separately).
POPULATION = [
    make_operation(
        Operator("add", (seqno,)),
        OperationId(client, seqno),
        prev=[OperationId(client, seqno - 1)] if seqno % 3 == 0 else (),
        strict=seqno % 5 == 0,
    )
    for client in ("c0", "c1", "c2")
    for seqno in range(1, 9)
]
ADVERT = CheckpointAdvert(
    frontier=Label(7, "r1"), digest="ab" * 8, ids=OpIdSummary({"c0": [(1, 3)]})
)

subsets = st.sets(st.sampled_from(range(len(POPULATION))), max_size=10)
gossip_messages = st.builds(
    lambda received, done, stable, labelled, ranks, delta, advert: GossipMessage(
        sender="r0",
        received=frozenset(POPULATION[i] for i in received),
        done=frozenset(POPULATION[i] for i in done),
        stable=frozenset(POPULATION[i] for i in stable),
        # Two ranks only: labels repeat and change in about equal measure.
        labels={POPULATION[i].id: Label(ranks[i % len(ranks)], "r0") for i in labelled},
        seqno=3,
        is_delta=delta,
        advert=ADVERT if advert else None,
        sent_at=1.5,
    ),
    subsets, subsets, subsets, subsets,
    st.lists(st.integers(0, 1), min_size=1, max_size=4),
    st.booleans(), st.booleans(),
)
frame_sequences = st.lists(st.lists(gossip_messages, min_size=1, max_size=3), max_size=30)


def descriptors_of(message):
    return message.received | message.done | message.stable


@settings(max_examples=120, deadline=None)
@given(frame_sequences)
def test_windowed_round_trip_equals_stateless_and_keeps_identity(frames):
    sender, receiver = DescriptorWindow(), DescriptorWindow()
    first_sight = {}  # descriptor -> (object decoded at first sight, message number)
    last_label = {}  # descriptor -> last windowed label object
    entered = []  # descriptors that crossed in full, per message
    for messages in frames:
        decoded = decode_frame(encode_frame(messages, sender), receiver)
        stateless = decode_frame(encode_frame(messages))
        assert len(decoded) == len(messages)
        for windowed, plain in zip(decoded, stateless):
            # Field for field: the dataclass fields with an __eq__, and the
            # canonical bytes for all of them (adverts compare by identity).
            assert dataclasses.replace(windowed, advert=None) == dataclasses.replace(
                plain, advert=None
            )
            assert encode_message(windowed) == encode_message(plain)

            number = len(entered)
            entered.append(0)
            for op in descriptors_of(windowed):
                known = first_sight.get(op)
                if known is not None and number - known[1] < WINDOW_MESSAGES:
                    assert op is known[0]
                else:
                    first_sight[op] = (op, number)
                    last_label.pop(op, None)
                    entered[-1] += 1
            by_id = {op.id: op for op in first_sight}
            for op_id, label in windowed.labels.items():
                op = by_id.get(op_id)
                if op is None or number - first_sight[op][1] >= WINDOW_MESSAGES:
                    continue  # not in the window: the entry was spelled out
                if last_label.get(op) == label:
                    assert label is last_label[op]
                last_label[op] = label

        # Both ends in step, holding what first crossed in the last W messages.
        assert receiver.ops == sender.ops and receiver.start == sender.start
        assert receiver.labels == sender.labels
        assert len(receiver.ops) == sum(entered[-WINDOW_MESSAGES:])
        assert receiver.start + len(receiver.ops) == sum(entered)


def test_window_forgets_what_it_first_sent_w_messages_ago():
    sender, receiver = DescriptorWindow(), DescriptorWindow()
    op = POPULATION[0]
    message = GossipMessage(sender="r0", received=frozenset([op]), done=frozenset())
    objects = []
    for _ in range(2 * WINDOW_MESSAGES + 1):
        (decoded,) = decode_frame(encode_frame([message], sender), receiver)
        (seen,) = decoded.received
        objects.append(seen)
        assert len(receiver.ops) == len(sender.ops) == 1
    # One parse per W messages: referable for W - 1 repeats, then re-sent.
    first, second, third = (objects[i * WINDOW_MESSAGES] for i in range(3))
    assert all(x is first for x in objects[:WINDOW_MESSAGES])
    assert all(x is second for x in objects[WINDOW_MESSAGES : 2 * WINDOW_MESSAGES])
    assert first is not second and second is not third and first == second == third


def test_identifier_reused_by_a_different_descriptor_stays_lossless():
    # Invariant 4.1 forbids it, but the codec must not be what hides it.
    one = make_operation(Operator("add", (1,)), OperationId("c0", 1))
    other = make_operation(Operator("add", (2,)), OperationId("c0", 1))
    sender, receiver = DescriptorWindow(), DescriptorWindow()
    for op in (one, other, one, other, one):
        message = GossipMessage(
            sender="r0", received=frozenset([op]), done=frozenset(),
            labels={op.id: Label(op.op.args[0], "r0")},
        )
        (decoded,) = decode_frame(encode_frame([message], sender), receiver)
        assert decoded == message
    for _ in range(2 * WINDOW_MESSAGES):
        decode_frame(encode_frame([message], sender), receiver)
    assert len(receiver.ops) == len(sender.ops) == len(sender._index) == 1


def test_stateless_decoder_rejects_a_windowed_payload():
    message = GossipMessage(sender="r0", received=frozenset(POPULATION[:2]), done=frozenset())
    with pytest.raises(FrameError):
        decode_frame(encode_frame([message], DescriptorWindow()))


def test_other_kinds_ignore_the_window():
    op = POPULATION[0]
    messages = [RequestMessage(op), ResponseMessage(op, value=3, sender="r1")]
    window = DescriptorWindow()
    assert encode_frame(messages, window) == encode_frame(messages)
    assert window.ops == [] and window.start == 0


# --------------------------------------------------------------------------- #
# Scope: a window lives exactly as long as its connection                     #
# --------------------------------------------------------------------------- #


class WindowSpy:
    """Wraps the runtime's codec names from outside (as the budget tracer
    does).  The first frame decoded against each receiving window must also
    decode against an *empty* one — a back-reference could not."""

    def __init__(self, monkeypatch):
        self.receiving = {}  # id(window) -> window (kept alive: ids stay unique)
        self.gossip_encoded_against = []  # one window (or None) per gossip frame
        decode, encode = runtime.decode_frame, runtime.encode_frame_detailed

        def spy_decode(frame, window=None):
            if window is not None and id(window) not in self.receiving:
                self.receiving[id(window)] = window
                decode_frame(frame, DescriptorWindow())
            return decode(frame, window)

        def spy_encode(messages, window=None):
            if any(message.kind == "gossip" for message in messages):
                self.gossip_encoded_against.append(window)
            return encode(messages, window)

        monkeypatch.setattr(runtime, "decode_frame", spy_decode)
        monkeypatch.setattr(runtime, "encode_frame_detailed", spy_encode)

    def gossiped(self):
        """Receiving windows that have seen a descriptor."""
        return sum(1 for w in self.receiving.values() if w.start + len(w.ops))


ADVERT_CONFIG = dataclasses.replace(
    FAST, advert_gossip=True, compaction=CompactionPolicy(min_batch=4, value_retention=64)
)


@pytest.mark.parametrize("transport", ["memory", "tcp"])
class TestWindowScope:
    def test_crash_and_recovery_start_every_connection_from_an_empty_window(
        self, transport, monkeypatch
    ):
        spy = WindowSpy(monkeypatch)

        async def run():
            async with make_cluster(transport=transport, config=ADVERT_CONFIG) as cluster:
                for _ in range(6):
                    await cluster.submit("c0", CounterType.increment())
                assert await cluster.quiesce(timeout=30.0)
                before = spy.gossiped()
                assert before == 6  # one per directed replica pair
                await cluster.crash_replica("r1", volatile_memory=True)
                for _ in range(4):
                    await cluster.submit("c1", CounterType.increment(), timeout=10.0)
                await cluster.recover_replica("r1")
                for _ in range(3):
                    await cluster.submit("c1", CounterType.increment())
                await converge_and_check(cluster)
                assert await cluster.submit("c0", CounterType.read()) == 13
                # r1's four links re-dialed, each onto a fresh window pair.
                assert spy.gossiped() >= before + 4

        asyncio.run(run())

    def test_dropped_connection_starts_over_and_converges(self, transport, monkeypatch):
        spy = WindowSpy(monkeypatch)

        async def run():
            async with make_cluster(transport=transport) as cluster:
                for _ in range(5):
                    await cluster.submit("c0", CounterType.increment())
                assert await cluster.quiesce(timeout=30.0)
                link = cluster._endpoints["r0"].links["r1"]
                old_window, before = link.window, spy.gossiped()
                assert old_window is not None and old_window.start + len(old_window.ops) >= 5
                link.conn.transport.close()  # the connection breaks under the link
                for _ in range(5):
                    await cluster.submit("c0", CounterType.increment())
                await converge_and_check(cluster)
                assert link.window is not None and link.window is not old_window
                assert spy.gossiped() == before + 1
                assert await cluster.submit("c1", CounterType.read()) == 10

        asyncio.run(run())

    def test_unreachable_peer_advances_no_window(self, transport, monkeypatch):
        spy = WindowSpy(monkeypatch)

        async def run():
            async with make_cluster(transport=transport, reconnect_delay=0.01) as cluster:
                await cluster.submit("c0", CounterType.increment())
                assert await cluster.quiesce(timeout=30.0)
                await cluster.crash_replica("r2", volatile_memory=False)
                links = [cluster._endpoints[rid].links["r2"] for rid in ("r0", "r1")]
                for _ in range(3):
                    await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                # The peer's close reaches each link within a loop iteration or two.
                while any(link.conn is not None for link in links):
                    await asyncio.sleep(0.01)
                del spy.gossip_encoded_against[:]
                await asyncio.sleep(0.2)  # gossip rounds toward r2 come and go
                for link in links:
                    assert link.conn is None and link.window is None
                    assert not link.closed
                # No gossip was encoded for r2: every gossip frame was spelled
                # against the window of a link that has a connection.
                connected = [
                    link.window
                    for endpoint in cluster._endpoints.values()
                    for link in endpoint.links.values()
                ]
                assert spy.gossip_encoded_against
                assert all(
                    any(window is owned for owned in connected if owned is not None)
                    for window in spy.gossip_encoded_against
                )
                await cluster.recover_replica("r2")
                await converge_and_check(cluster)
                assert all(link.window is not None for link in links)

        asyncio.run(run())


# --------------------------------------------------------------------------- #
# Hostile references                                                          #
# --------------------------------------------------------------------------- #


def windowed_gossip_frame(body: bytes) -> bytes:
    """A one-message frame whose gossip payload is *body* after the flags
    byte (windowed, nothing else set), sender ``r0``."""
    payload = bytes([3, 64]) + body
    return (
        MAGIC + bytes([WIRE_VERSION]) + b"\x01\x02r0" + b"\x01" + encode_varint(len(payload))
        + payload
    )


#: ``add(1)`` by ``r0#1``, spelled in full (wire v4): client reference and
#: body length, then the body — seqno, prev count << 1 | strict, operator value.
FULL_DESCRIPTOR = bytes([0, 12]) + bytes([2, 0]) + bytes([10, 5, 3]) + b"add" + bytes([7, 1, 3, 2])
#: drop, sender, epoch, stream; then the descriptor section; then the labels.
HEAD = b"\x00\x00\x00\x00"
#: Further back than any window in these tests reaches.
FAR = encode_varint(1 << 20)
HOSTILE_REFERENCES = {
    "reference beyond the window": HEAD + b"\x01" + FAR + b"\x01" + b"\x00",
    "drop larger than the window": FAR + b"\x00\x00\x00" + b"\x00" + b"\x00",
    "label reference beyond the window": (
        HEAD + b"\x00" + b"\x01" + encode_varint(1 << 21) + b"\x02\x00"
    ),
    "label reference of distance zero": HEAD + b"\x00" + b"\x01\x01",
    # A valid first sight (distance 0, membership 1), then distance 1 + unchanged.
    "label unchanged for an entry that never had one": (
        HEAD + b"\x01\x00" + FULL_DESCRIPTOR + b"\x01" + b"\x01\x03"
    ),
}


def test_hostile_fixtures_differ_from_valid_in_the_reference_only():
    # The same layouts with honest references decode: the fixtures above are
    # rejected for the reference, not for a slip in the hand-built bytes.
    window = DescriptorWindow()
    first = HEAD + b"\x01\x00" + FULL_DESCRIPTOR + b"\x01" + b"\x01\x02\x08\x00"
    (message,) = decode_frame(windowed_gossip_frame(first), window)
    (op,) = message.received
    assert op.op == Operator("add", (1,)) and message.labels == {op.id: Label(4, "r0")}
    again = HEAD + b"\x01\x01\x03" + b"\x01\x03"
    (message,) = decode_frame(windowed_gossip_frame(again), window)
    assert message.received == message.done == {op} and next(iter(message.done)) is op
    assert message.labels == {op.id: Label(4, "r0")}


@pytest.mark.parametrize("name", sorted(HOSTILE_REFERENCES))
def test_hostile_reference_is_a_frame_error(name):
    frame = windowed_gossip_frame(HOSTILE_REFERENCES[name])
    with pytest.raises(FrameError):
        decode_frame(frame, DescriptorWindow())


@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("name", sorted(HOSTILE_REFERENCES))
def test_hostile_reference_costs_the_connection_only(transport, name):
    frame = windowed_gossip_frame(HOSTILE_REFERENCES[name])
    asyncio.run(_after_hostile_replica_frame(transport, frame))


# --------------------------------------------------------------------------- #
# Hostile bytes                                                               #
# --------------------------------------------------------------------------- #


def fuzz_corpus():
    """``(frame, window_frames)``: every kind statelessly, plus windowed
    gossip frames with the frames that must be decoded first to build the
    receiving window they refer into."""
    x0, x1, x2 = POPULATION[0], POPULATION[2], POPULATION[9]
    summary = OpIdSummary({"c0": [(1, 4)], "c1": [(2, 2), (5, 9)]})
    gossip = GossipMessage(
        sender="r0", received=frozenset([x0, x1, x2]), done=frozenset([x0, x1]),
        labels={x0.id: Label(4, "r0"), x1.id: Label(5, "r2")}, stable=frozenset([x0]),
        epoch=2, stream=1, seqno=9, ack=4, ack_epoch=1, ack_stream=0, is_delta=True,
        advert=ADVERT, sent_at=12.5,
    )
    stateless = [
        RequestMessage(x1),
        ResponseMessage(x0, value={"k": frozenset([1, 2]), "t": ("x", 2.5, None)}, sender="r1"),
        ResponseMessage(x2, value=None, stale=True, sender="r2"),
        gossip,
        PullRequestMessage(
            requester="r1", target="r0", digest="cd" * 8,
            frontier=Label(9, "r0"), have_frontier=Label(2, "r1"),
        ),
        CheckpointTransferMessage(
            sender="r0", requester="r1", digest="ef" * 8, frontier=Label(9, "r0"),
            ids=summary, values={x0.id: 1, x1.id: {1, 2}}, base_state=7, order_digest="01" * 8,
        ),
    ]
    corpus = [(encode_message(message), ()) for message in stateless]
    corpus.append((encode_frame(stateless), ()))
    sender = DescriptorWindow()
    first = encode_frame([gossip], sender)
    follow_up = dataclasses.replace(
        gossip, stable=frozenset([x0, x1]),
        labels={x0.id: Label(4, "r0"), x1.id: Label(3, "r1"), POPULATION[5].id: Label(8, "r0")},
    )
    second = encode_frame([follow_up, gossip], sender)
    corpus += [(first, ()), (second, (first,))]
    return corpus


def window_after(frames) -> DescriptorWindow:
    window = DescriptorWindow()
    for frame in frames:
        decode_frame(frame, window)
    return window


def test_mutation_fuzz_only_frame_error_or_a_message_comes_out():
    rng = random.Random(18)
    corpus = fuzz_corpus()
    outcomes = {"decoded": 0, "rejected": 0}
    for index in range(24_000):
        frame, window_frames = corpus[index % len(corpus)]
        window = window_after(window_frames)
        mutated = bytearray(frame)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            messages = decode_frame(bytes(mutated), window)
        except FrameError:
            outcomes["rejected"] += 1
        else:
            # Anything else raised fails the test by propagating.
            assert all(hasattr(message, "kind") for message in messages)
            outcomes["decoded"] += 1
    # The fuzz reaches both sides of the boundary.
    assert outcomes["decoded"] > 500 and outcomes["rejected"] > 10_000, outcomes


def test_unmutated_fuzz_corpus_decodes():
    for frame, window_frames in fuzz_corpus():
        assert decode_frame(frame, window_after(window_frames))


@pytest.mark.parametrize("prefix", [b"", b"\x00\x01"], ids=["table", "payload"])
def test_a_megabyte_of_0xff_is_rejected_at_once(prefix):
    frame = MAGIC + bytes([WIRE_VERSION]) + prefix + b"\xff" * (1 << 20)
    begin = time.perf_counter()
    with pytest.raises(FrameError):
        decode_frame(frame, DescriptorWindow())
    assert time.perf_counter() - begin < 0.05


def test_value_integers_are_bounded_at_both_ends():
    # 128 bytes of varint: 895 bits and a sign.
    wide = 1 << 895
    for value in (wide - 1, -wide):
        message = ResponseMessage(POPULATION[0], value=value)
        (decoded,) = decode_frame(encode_message(message))
        assert decoded.value == value
    for value in (wide, -wide - 1):
        with pytest.raises(FrameError):
            encode_message(ResponseMessage(POPULATION[0], value=value))
    frame = bytearray(encode_message(ResponseMessage(POPULATION[0], value=wide - 1)))
    at = frame.index(b"\xff" * 100)
    frame[at:at] = b"\xff"  # one continuation byte more than any encoder writes
    with pytest.raises(FrameError, match="varint longer than 128 bytes"):
        decode_frame(bytes(frame))
