"""The columnar gossip body (wire version 7).

Three things are pinned here:

* **Round trip and identity** — sequences of delta and full-state gossip,
  longer than ``WINDOW_MESSAGES`` and holding lowered labels, kept labels and
  an identifier re-sent with a different body, decode through one
  sender/receiver window pair to exactly what was sent; a back-reference and
  an unchanged label decode to the very object decoded at first sight; and a
  frame without a window does not depend on set or dict iteration order.
* **Hostile columns** — a column whose count claims 2^60 entries, or whose
  width tag is not 1, 2, 4 or 8, is refused before anything is allocated,
  and a position at or past the window's end is a ``FrameError``.
* **Mutation fuzz** — no mutation of a valid gossip payload, windowed
  (against a primed window) or stateless, gets anything but ``FrameError``
  or decoded messages out of ``decode_frame``.
"""

import random
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithm.checkpoint import CheckpointAdvert, OpIdSummary
from repro.algorithm.labels import Label
from repro.algorithm.messages import GossipMessage
from repro.common import OperationId
from repro.core.operations import make_operation
from repro.datatypes.base import Operator
from repro.net.codec import (
    MAGIC,
    WINDOW_MESSAGES,
    WIRE_VERSION,
    DescriptorTable,
    DescriptorWindow,
    FrameError,
    decode_frame,
    encode_frame,
    encode_message,
    encode_varint,
)

#: Descriptors of three clients, and a twin of two of them: the same
#: identifier with a different body (Invariant 4.1 forbids it; the codec must
#: stay lossless all the same).
POPULATION = [
    make_operation(
        Operator("add", (seqno,)),
        OperationId(client, seqno),
        prev=[OperationId(client, seqno - 1)] if seqno % 3 == 0 else (),
        strict=seqno % 4 == 0,
    )
    for client in ("c0", "c1", "c10")
    for seqno in range(1, 7)
] + [
    make_operation(Operator("add", (-1,)), OperationId("c0", 1)),
    make_operation(Operator("read", ()), OperationId("c1", 2)),
]
REPLICAS = ("r0", "r1", "r2")
ADVERT = CheckpointAdvert(
    frontier=Label(7, "r1"), digest="ab" * 8, ids=OpIdSummary({"c0": [(1, 3)]})
)

indices = st.sampled_from(range(len(POPULATION)))


@st.composite
def gossip_streams(draw):
    """A stream of gossip messages, longer than a window, whose labels are
    lowered, kept and re-sent as the stream goes."""
    length = draw(st.integers(WINDOW_MESSAGES + 1, 2 * WINDOW_MESSAGES + 4))
    ranks = {}  # identifier -> the rank it was last sent with
    stream = []
    for seqno in range(length):
        # A set holds at most one descriptor per identifier: a twin replaces
        # its original in the message that carries it.
        chosen = {}
        for i in draw(st.lists(indices, max_size=10)):
            chosen[POPULATION[i].id] = POPULATION[i]
        ops = list(chosen.values())
        flags = st.lists(st.booleans(), min_size=len(ops), max_size=len(ops))
        received = [op for op, keep in zip(ops, draw(flags)) if keep]
        done = [op for op, keep in zip(ops, draw(flags)) if keep]
        stable = [op for op in ops if op not in received and op not in done]
        labels = {}
        for op in draw(st.lists(st.sampled_from(ops), max_size=len(ops))) if ops else ():
            move = draw(st.sampled_from(("keep", "lower", "new")))
            rank = ranks.get(op.id, draw(st.integers(0, 300)))
            if move == "lower":
                rank = max(rank - draw(st.integers(1, 40)), -5)
            elif move == "new":
                rank = draw(st.integers(-5, 70_000))
            ranks[op.id] = rank
            labels[op.id] = Label(rank, draw(st.sampled_from(REPLICAS)))
        # Now and then a label of an operation the message does not carry.
        if draw(st.booleans()):
            labels[OperationId("c9", seqno)] = Label(seqno, "r2")
        stream.append(GossipMessage(
            sender="r0",
            received=frozenset(received),
            done=frozenset(done),
            stable=frozenset(stable),
            labels=labels,
            epoch=1,
            stream=0,
            seqno=seqno,
            ack=seqno // 2,
            ack_epoch=1,
            ack_stream=0,
            is_delta=draw(st.booleans()),
            advert=ADVERT if seqno % 5 == 0 else None,
        ))
    return stream


def descriptors_of(message):
    return message.received | message.done | message.stable


def entries(window):
    """``id(descriptor) -> absolute position`` of a sender window's entries."""
    return {id(op): window.start + slot for slot, op in enumerate(window.ops)}


@settings(max_examples=25, deadline=None)
@given(gossip_streams())
def test_round_trip_through_a_window_pair_keeps_identity(stream):
    table = DescriptorTable()
    sender = DescriptorWindow(DescriptorTable())
    # The receiver parses every full form afresh (no table): an object
    # decoded again is then one the window handed back.
    receiver, tabled = DescriptorWindow(), DescriptorWindow(table)
    second = DescriptorWindow(DescriptorTable())
    decoded_as = {}  # id(sent descriptor) -> the object decoded at first sight
    label_as = {}  # receiver position -> (label last sent, its decoded object)
    for message in stream:
        before = entries(sender)
        frame = encode_frame([message], sender)
        after = entries(sender)
        (decoded,) = decode_frame(frame, receiver)
        (through_table,) = decode_frame(encode_frame([message], second), tabled)
        assert decoded == message and through_table == message
        assert encode_message(decoded) == encode_message(message)

        for sets in ("received", "done", "stable"):
            sent = {op: op for op in getattr(message, sets)}
            for got in getattr(decoded, sets):
                op = sent[got]
                if before.get(id(op)) == after[id(op)]:
                    # Referred back to: the very object of the first sight.
                    assert got is decoded_as[id(op)]
                else:
                    decoded_as[id(op)] = got
        # The window's latest entry for each identifier still held.
        latest = {op.id: sender.start + slot for slot, op in enumerate(sender.ops)}
        for op_id, label in decoded.labels.items():
            position = latest.get(op_id)
            if position is None:
                continue  # outside the window: spelled out in a row
            last = label_as.get(position)
            if last is not None and last[0] == label:
                assert label is last[1]
            else:
                label_as[position] = (label, label)
        assert receiver.ops == sender.ops and receiver.start == sender.start
        assert receiver.labels == sender.labels


@settings(max_examples=12, deadline=None)
@given(gossip_streams(), st.randoms(use_true_random=False))
def test_a_frame_without_a_window_ignores_iteration_order(stream, rng):
    for message in stream:
        shuffled = []
        for sets in ("received", "done", "stable"):
            ops = list(getattr(message, sets))
            rng.shuffle(ops)
            shuffled.append(frozenset(ops))
        items = list(message.labels.items())
        rng.shuffle(items)
        twin = GossipMessage(
            sender=message.sender, received=shuffled[0], done=shuffled[1], stable=shuffled[2],
            labels=dict(items), epoch=message.epoch, stream=message.stream,
            seqno=message.seqno, ack=message.ack, ack_epoch=message.ack_epoch,
            ack_stream=message.ack_stream, is_delta=message.is_delta, advert=message.advert,
        )
        assert encode_message(twin) == encode_message(message)
        (decoded,) = decode_frame(encode_message(message))
        assert decoded == message


def test_an_identifier_with_two_bodies_in_one_frame_without_a_window():
    one, other = POPULATION[0], POPULATION[-2]
    assert one.id == other.id and one != other
    frames = {
        encode_message(GossipMessage(
            sender="r0", received=frozenset(pair), done=frozenset([pair[0]]),
            labels={one.id: Label(3, "r1")},
        ))
        for pair in ((one, other), (other, one))
    }
    assert len(frames) == 2  # ``done`` differs; each decodes to itself
    for frame in frames:
        (decoded,) = decode_frame(frame)
        assert decoded.received == {one, other} and encode_message(decoded) == frame
    # The same sets built in either order spell the same bytes.
    assert encode_message(GossipMessage(
        sender="r0", received=frozenset([one, other]), done=frozenset(), labels={},
    )) == encode_message(GossipMessage(
        sender="r0", received=frozenset([other, one]), done=frozenset(), labels={},
    ))


# --------------------------------------------------------------------------- #
# Hostile columns                                                             #
# --------------------------------------------------------------------------- #


def gossip_frame(body: bytes, windowed: bool = True) -> bytes:
    """A one-message frame whose gossip payload is *body* after the flags
    byte and the header (drop when windowed, sender ``r0``, epoch, stream)."""
    payload = bytes([3, 64 if windowed else 0]) + (b"\x00" if windowed else b"") + b"\x00\x00\x00"
    payload += body
    return (
        MAGIC + bytes([WIRE_VERSION]) + b"\x01\x02r0" + b"\x01" + encode_varint(len(payload))
        + payload
    )


#: ``count | width tag`` heads that claim far more than any frame holds, or
#: name a width the codec has no column of.
HOSTILE_HEADS = {
    "2^60 entries": encode_varint(1 << 60) + b"\x08",
    "2^60 one-byte entries": encode_varint(1 << 60) + b"\x01",
    "width tag 3": b"\x01\x03",
    "width tag 0": b"\x01\x00",
    "width tag 16": b"\x01\x10",
}
#: Where a hostile head can sit: back-references of region 1, the client
#: column of its full forms, the unchanged-label positions, the changed-label
#: positions.
HOSTILE_PLACES = {
    "back-references": lambda head: b"\x01\x01" + head,
    "clients": lambda head: b"\x01\x01\x00" + head,
    "kept labels": lambda head: b"\x00" + head,
    "changed labels": lambda head: b"\x00\x00" + head,
}


@pytest.mark.parametrize("place", sorted(HOSTILE_PLACES))
@pytest.mark.parametrize("head", sorted(HOSTILE_HEADS))
def test_a_hostile_column_is_refused_at_once(head, place):
    body = HOSTILE_PLACES[place](HOSTILE_HEADS[head]) + b"\xff" * (1 << 20)
    for windowed in (True, False):
        frame = gossip_frame(body, windowed)
        begin = time.perf_counter()
        with pytest.raises(FrameError):
            decode_frame(frame, DescriptorWindow(DescriptorTable()))
        assert time.perf_counter() - begin < 0.05


def primed_window(size: int) -> DescriptorWindow:
    """A receiving window holding *size* entries, labelled."""
    sender, receiver = DescriptorWindow(), DescriptorWindow()
    message = GossipMessage(
        sender="r0", received=frozenset(POPULATION[:size]), done=frozenset(),
        labels={op.id: Label(1, "r0") for op in POPULATION[:size]},
    )
    decode_frame(encode_frame([message], sender), receiver)
    assert len(receiver.ops) == size
    return receiver


@pytest.mark.parametrize("size", [0, 1, 5])
def test_a_position_at_or_past_the_window_end_is_a_frame_error(size):
    no_labels = b"\x00\x00\x00"
    for position in (size, size + 1, 0xFFFF):
        back_reference = b"\x01\x01" + b"\x01\x02" + struct.pack("<H", position) + b"\x00"
        kept = b"\x00" + b"\x01\x02" + struct.pack("<H", position) + b"\x00\x00"
        changed = (
            b"\x00\x00" + b"\x01\x02" + struct.pack("<H", position) + b"\x00" + b"\x01\x00"
            + b"\x01\x00" + b"\x00"
        )
        for body in (back_reference + no_labels, kept, changed):
            with pytest.raises(FrameError, match="outside"):
                decode_frame(gossip_frame(body), primed_window(size))
    if size:
        # One short of the end is an entry.
        window = primed_window(size)
        last = window.ops[-1]
        at_last = b"\x01\x01" + b"\x01\x02" + struct.pack("<H", size - 1) + b"\x00" + no_labels
        (message,) = decode_frame(gossip_frame(at_last), window)
        assert message.received == {last} and next(iter(message.received)) is last


# --------------------------------------------------------------------------- #
# Mutation fuzz                                                               #
# --------------------------------------------------------------------------- #


def fuzz_corpus():
    """``(frame, priming frames)``: gossip payloads with several regions,
    back-references, kept and changed labels and rows, windowed (after the
    frames that build the receiving window) and stateless."""
    rng = random.Random(47)
    sender = DescriptorWindow()
    frames, corpus = [], []
    for seqno in range(WINDOW_MESSAGES + 3):
        ops = rng.sample(POPULATION[:18], 8)
        message = GossipMessage(
            sender="r0",
            received=frozenset(ops[:6]),
            done=frozenset(ops[3:8]),
            stable=frozenset(ops[5:7]),
            labels={
                **{
                    op.id: Label(rng.choice((4, 300, 70_000)), rng.choice(REPLICAS))
                    for op in ops[:5]
                },
                OperationId("c9", seqno): Label(seqno, "r2"),
            },
            seqno=seqno,
            is_delta=bool(seqno % 2),
        )
        frame = encode_frame([message], sender)
        corpus.append((frame, tuple(frames)))
        corpus.append((encode_message(message), ()))
        frames.append(frame)
    return corpus[-6:]


CORPUS = fuzz_corpus()


def window_after(frames) -> DescriptorWindow:
    window = DescriptorWindow(DescriptorTable())
    for frame in frames:
        decode_frame(frame, window)
    return window


def test_the_fuzz_corpus_decodes():
    for frame, prime in CORPUS:
        assert decode_frame(frame, window_after(prime))


edit_kinds = st.sampled_from(("set", "insert", "delete"))
mutations = st.lists(
    st.tuples(st.integers(0, 1 << 16), st.integers(0, 255), edit_kinds), min_size=1, max_size=4
)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(range(len(CORPUS))), mutations)
def test_a_mutated_gossip_payload_is_a_frame_error_or_messages(which, edits):
    frame, prime = CORPUS[which]
    mutated = bytearray(frame)
    for where, value, how in edits:
        # The frame head (magic, version, table) is other tests' business:
        # the edits land in the gossip payload.
        where = 12 + where % max(len(mutated) - 12, 1)
        if how == "set":
            mutated[where % len(mutated)] = value
        elif how == "insert":
            mutated.insert(where, value)
        elif len(mutated) > 13:
            del mutated[where % len(mutated)]
    try:
        messages = decode_frame(bytes(mutated), window_after(prime))
    except FrameError:
        return
    # Anything else raised fails the test by propagating.
    assert all(message.kind == "gossip" for message in messages)
