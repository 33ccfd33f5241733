"""Endpoint-scoped descriptor tables (:class:`repro.net.codec.DescriptorTable`).

Wire version 4 makes the full form of a descriptor frame-independent and
lets each endpoint — one replica incarnation, one client — remember it.
Five things are pinned here:

* **Equivalence and identity** — whatever frames reach an endpoint over
  whatever links, decoding through windows that share its table yields what
  the stateless decode yields, a descriptor that crossed two links of one
  endpoint *is* one object, and the same bytes at a second endpoint give a
  distinct one; a relay re-sends the bytes it received without spelling.
* **Lifetime** — an entry lives as long as its descriptor: after a
  compaction-heavy run a replica's table holds no more than its core tracks
  plus what its link windows hold, and a recovered incarnation starts empty.
* **Hostile lengths** — a body length past the payload, a body that parses
  shorter or longer than declared, a hit followed by a truncated frame: each
  a ``FrameError`` that costs one connection and nothing else.
* **Hostile bytes** — the mutation fuzz and the megabyte of 0xFF, re-run
  through a table that holds live entries; afterwards the table still maps
  every descriptor it held to itself.
* **Canonical order** — the sender-side sort keys leave every stateless
  frame and ``message_digest`` byte-identical under two hash seeds.
"""

import asyncio
import dataclasses
import gc
import os
import random
import struct
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithm.labels import Label
from repro.algorithm.messages import GossipMessage, RequestMessage, ResponseMessage
from repro.common import OperationId
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.datatypes.base import Operator
from repro.net import codec, runtime
from repro.net.codec import (
    MAGIC,
    WIRE_VERSION,
    DescriptorTable,
    DescriptorWindow,
    FrameError,
    decode_frame,
    encode_frame,
    encode_message,
    encode_varint,
    message_digest,
)

from test_net_link_window import (
    ADVERT,
    ADVERT_CONFIG,
    POPULATION,
    _after_hostile_replica_frame,
    fuzz_corpus,
    gossip_messages,
)
from test_net_runtime import converge_and_check, make_cluster

# --------------------------------------------------------------------------- #
# Equivalence with the stateless decode; identity across links                #
# --------------------------------------------------------------------------- #

client_messages = st.builds(
    lambda i, respond: (
        ResponseMessage(POPULATION[i], value=i, sender="r0")
        if respond
        else RequestMessage(POPULATION[i])
    ),
    st.sampled_from(range(len(POPULATION))),
    st.booleans(),
)
#: ``(link, messages)``: which of the receiver's two inbound links carries
#: the frame, and what is in it.
frames_over_two_links = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.lists(st.one_of(gossip_messages, client_messages), min_size=1, max_size=3),
    ),
    max_size=30,
)


def descriptors_of(message):
    if message.kind == "gossip":
        return message.received | message.done | message.stable
    return {message.operation} if message.kind in ("request", "response") else set()


@settings(max_examples=120, deadline=None)
@given(frames_over_two_links)
def test_shared_table_equals_stateless_and_is_one_object_per_endpoint(frames):
    # Two senders (an endpoint each), one receiver whose two inbound windows
    # share its table, and a bystander endpoint that hears link 0 as well.
    senders = [DescriptorWindow(DescriptorTable()) for _ in range(2)]
    here = DescriptorTable()
    inbound = [DescriptorWindow(here) for _ in range(2)]
    elsewhere = DescriptorWindow(DescriptorTable())
    held = {}  # descriptor -> the one object this endpoint decoded it as
    kept = []  # every decoded message, so no entry dies during the example
    for link, messages in frames:
        frame = encode_frame(messages, senders[link])
        decoded = decode_frame(frame, inbound[link])
        stateless = decode_frame(encode_frame(messages))
        kept.append(decoded)
        assert len(decoded) == len(messages)
        for shared, plain in zip(decoded, stateless):
            # Field for field (adverts compare by identity, so apart from
            # them), and the canonical bytes for everything.
            if shared.kind == "gossip":
                shared_fields = dataclasses.replace(shared, advert=None)
                plain_fields = dataclasses.replace(plain, advert=None)
            else:
                shared_fields, plain_fields = shared, plain
            assert shared_fields == plain_fields
            assert encode_message(shared) == encode_message(plain)
            for op in descriptors_of(shared):
                assert held.setdefault(op, op) is op
        if link == 0:
            remote = decode_frame(frame, elsewhere)
            kept.append(remote)
            for message in remote:
                for op in descriptors_of(message):
                    assert held[op] == op and held[op] is not op
    assert len(here) == len(held)


def test_a_relay_resends_the_bytes_it_received_without_spelling(monkeypatch):
    spelled = []
    spell = codec._spell_descriptor
    monkeypatch.setattr(
        codec, "_spell_descriptor", lambda op: spelled.append(op) or spell(op)
    )
    ops = POPULATION[:6]
    message = GossipMessage(sender="r0", received=frozenset(ops), done=frozenset(ops[:3]))
    origin, relay = DescriptorTable(), DescriptorTable()

    first = encode_frame([message], DescriptorWindow(origin))
    assert sorted(spelled, key=repr) == sorted(ops, key=repr)
    # A second link of the same endpoint: the bytes are known.
    assert encode_frame([message], DescriptorWindow(origin)) == first
    assert len(spelled) == len(ops)

    # The relay holds what it decoded, and passes it on — to a peer and in a
    # response to the client — as the bytes it arrived as.
    (arrived,) = decode_frame(first, DescriptorWindow(relay))
    onward = dataclasses.replace(arrived, sender="r1")
    (there,) = decode_frame(encode_frame([onward], DescriptorWindow(relay)), DescriptorWindow())
    assert there.received == message.received and there.done == message.done
    (op,) = [x for x in arrived.received if x == ops[0]]
    response = ResponseMessage(op, value=1, sender="r1")
    assert len(spelled) == len(ops) and len(relay) == len(ops)
    stateless = encode_message(response)  # no table: spells
    assert encode_frame([response], DescriptorWindow(relay)) == stateless
    assert len(spelled) == len(ops) + 1

    # Without a table there is nothing to remember: every frame spells.
    del spelled[:]
    encode_frame([message], DescriptorWindow())
    encode_message(message)
    assert len(spelled) == 2 * len(ops)


def test_a_request_and_its_response_are_one_object_at_both_ends():
    client, replica = DescriptorTable(), DescriptorTable()
    op = POPULATION[3]
    request = encode_frame([RequestMessage(op)], DescriptorWindow(client))
    (arrived,) = decode_frame(request, DescriptorWindow(replica))
    # Gossip about it from a peer, on another link, names the same object ...
    gossip = GossipMessage(sender="r1", received=frozenset([op]), done=frozenset([op]))
    (heard,) = decode_frame(
        encode_frame([gossip], DescriptorWindow(DescriptorTable())), DescriptorWindow(replica)
    )
    assert next(iter(heard.done)) is arrived.operation is not op
    # ... and the response decodes, at the client, to the request's own.
    response = encode_frame(
        [ResponseMessage(arrived.operation, value=7, sender="r0")], DescriptorWindow(replica)
    )
    (answer,) = decode_frame(response, DescriptorWindow(client))
    assert answer.operation is op and answer.value == 7
    assert len(client) == len(replica) == 1


def test_identifier_resent_with_a_different_body_gets_its_own_entry():
    one = make_operation(Operator("add", (1,)), OperationId("c0", 1))
    other = make_operation(Operator("add", (2,)), OperationId("c0", 1))
    # Equal in Python, different on the wire: the key is the bytes.
    truthy = make_operation(Operator("add", (True,)), OperationId("c0", 1))
    assert truthy == one and codec._spell_descriptor(truthy) != codec._spell_descriptor(one)
    table = DescriptorTable()
    decoded = []
    for op in (one, other, truthy, one, other, truthy):
        (message,) = decode_frame(encode_message(RequestMessage(op)), DescriptorWindow(table))
        assert message.operation == op
        assert type(message.operation.op.args[0]) is type(op.op.args[0])
        decoded.append(message.operation)
    assert len(table) == 3
    assert [decoded[i] is decoded[i + 3] for i in range(3)] == [True] * 3
    assert len({id(op) for op in decoded}) == 3


def test_prev_clients_are_inline_and_a_second_spelling_is_a_second_entry():
    op = make_operation(
        Operator("add", (1,)), OperationId("c0", 7),
        prev=[OperationId("c0", 6), OperationId("c10", 2)], strict=True,
    )
    body = codec._spell_descriptor(op)
    # seqno; two prev and strict; own client as 0, c10 by name; the operator
    # last (wire version 6), so its bytes are the body's tail.
    assert body == (
        bytes([14, 5]) + bytes([0, 12]) + bytes([4]) + b"c10" + bytes([4])
        + bytes([10, 5, 3]) + b"add" + bytes([7, 1, 3, 2])
    )
    # The same descriptor with its own client spelled out: not what the
    # encoder writes, but lossless — and, by its bytes, an entry of its own.
    verbose = body[:2] + bytes([3]) + b"c0" + body[3:]
    table = DescriptorTable()
    decoded = []
    for spelling in (body, verbose, body):
        request = bytes([1, 0]) + encode_varint(len(spelling)) + spelling
        frame = MAGIC + bytes([WIRE_VERSION]) + b"\x01\x02c0" + b"\x01" + bytes([len(request)])
        (message,) = decode_frame(frame + request, DescriptorWindow(table))
        assert message.operation == op
        decoded.append(message.operation)
    assert decoded[0] is decoded[2] is not decoded[1] and len(table) == 2
    # Two spellings of one operator's bytes: the second parse reused it.
    assert decoded[1].op is decoded[0].op
    # Each is relayed as it came.
    for held, spelling in zip(decoded, (body, verbose)):
        assert spelling in encode_frame([RequestMessage(held)], DescriptorWindow(table))


# --------------------------------------------------------------------------- #
# The operator memo: one parse of an operator's bytes per endpoint            #
# --------------------------------------------------------------------------- #


def request_through(window, op):
    (message,) = decode_frame(encode_message(RequestMessage(op)), window)
    return message.operation


def test_an_operator_is_parsed_once_per_endpoint_by_its_exact_bytes():
    add_one, add_true = Operator("add", (1,)), Operator("add", (True,))
    table = DescriptorTable()
    window = DescriptorWindow(table)
    first = request_through(window, make_operation(add_one, OperationId("c0", 1)))
    # Equal operators, different bytes: a memo entry and an object each.
    truthy = request_through(window, make_operation(add_true, OperationId("c0", 2)))
    assert truthy.op == first.op and truthy.op is not first.op
    assert type(truthy.op.args[0]) is bool and type(first.op.args[0]) is int
    # Another client's descriptor with the same operator bytes: a hit is the
    # very object of the earlier parse, and a new descriptor around it.
    again = request_through(window, make_operation(add_one, OperationId("c1", 9)))
    assert again.op is first.op and again is not first and again.id == ("c1", 9)
    assert table.operator(codec._value_bytes(add_one)) is first.op
    assert table.operator(codec._value_bytes(add_true)) is truthy.op
    assert len(table._by_operator) == 2 and len(table) == 3
    # A second endpoint parses for itself.
    elsewhere = request_through(
        DescriptorWindow(DescriptorTable()), make_operation(add_one, OperationId("c1", 9))
    )
    assert elsewhere.op == first.op and elsewhere.op is not first.op


def test_an_operator_entry_dies_with_its_descriptor():
    add_one = Operator("add", (1,))
    spelling = codec._value_bytes(add_one)
    table = DescriptorTable()
    window = DescriptorWindow(table)
    first = request_through(window, make_operation(add_one, OperationId("c0", 1)))
    second = request_through(window, make_operation(add_one, OperationId("c0", 2)))
    assert second.op is first.op
    # Filed under the latest parse: the first one's death leaves it.
    del first
    gc.collect()
    assert table.operator(spelling) is second.op
    del second
    gc.collect()
    assert table.operator(spelling) is None and not table._by_operator and len(table) == 0
    # The next parse files afresh.
    third = request_through(window, make_operation(add_one, OperationId("c0", 3)))
    assert third.op == add_one and table.operator(spelling) is third.op


#: A request for c0's fifth operation with two ``prev`` (c0's third and
#: fourth) whose body declares *cut* bytes: the prev identifiers run past it.
PREV_OP = make_operation(
    CounterType.increment(), OperationId("c0", 5),
    prev=[OperationId("c0", 3), OperationId("c0", 4)],
)
PREV_BODY = codec._spell_descriptor(PREV_OP)


@pytest.mark.parametrize("held", [False, True], ids=["miss", "hit"])
@pytest.mark.parametrize("cut", [2, 3, 4, 5])
def test_prev_identifiers_past_the_declared_length_are_a_frame_error(cut, held):
    # seqno, head, (own client, seqno) twice, then the operator.
    assert PREV_BODY[:6] == bytes([10, 4, 0, 6, 0, 8])
    honest = bytes([1, 1]) + encode_varint(len(PREV_BODY)) + PREV_BODY
    table = DescriptorTable()
    if held:
        # The table holds FIRST_OP, whose operator bytes are PREV_BODY's tail.
        keep = request_through(DescriptorWindow(table), FIRST_OP)
        assert table.operator(PREV_BODY[6:]) is keep.op
    hostile = bytes([1, 1]) + encode_varint(cut) + PREV_BODY
    for window in (DescriptorWindow(table), DescriptorWindow(), None):
        with pytest.raises(FrameError):
            decode_frame(frame_of(hostile), window)
    gc.collect()
    assert len(table) == (1 if held else 0)
    (request,) = decode_frame(frame_of(honest), DescriptorWindow(table))
    assert request.operation == PREV_OP
    if held:
        assert request.operation.op is keep.op


# --------------------------------------------------------------------------- #
# Lifetime: an entry lives exactly as long as its descriptor                  #
# --------------------------------------------------------------------------- #


def test_entries_die_with_their_descriptors():
    table = DescriptorTable()
    frame = encode_message(
        GossipMessage(sender="r0", received=frozenset(POPULATION), done=frozenset())
    )
    (message,) = decode_frame(frame, DescriptorWindow(table))
    assert len(table) == len(POPULATION)
    keep = next(iter(message.received))
    del message
    gc.collect()
    assert len(table) == 1 and table.body_of(keep) is not None
    (again,) = decode_frame(frame, DescriptorWindow(table))
    assert keep in again.received and any(op is keep for op in again.received)
    del again, keep
    gc.collect()
    assert len(table) == 0 and not table._by_spelling
    # The advert memo follows the same rule.
    advert = dataclasses.replace(ADVERT)
    gossip = GossipMessage(sender="r0", received=frozenset(), done=frozenset(), advert=advert)
    encode_frame([gossip], DescriptorWindow(table))
    assert len(table._adverts) == 1
    del gossip, advert
    gc.collect()
    assert not table._adverts


class TableSpy:
    """Collects, from outside (as the budget tracer wraps the codec names),
    every window the runtime hands the codec, by the table it carries."""

    def __init__(self, monkeypatch):
        self.windows = {}  # id(table) -> {id(window): window}
        decode, encode = runtime.decode_frame, runtime.encode_frame_detailed

        def note(window):
            if window is not None and window.table is not None:
                self.windows.setdefault(id(window.table), {})[id(window)] = window

        def spy_decode(frame, window=None):
            note(window)
            return decode(frame, window)

        def spy_encode(messages, window=None):
            note(window)
            return encode(messages, window)

        monkeypatch.setattr(runtime, "decode_frame", spy_decode)
        monkeypatch.setattr(runtime, "encode_frame_detailed", spy_encode)

    def held_by_windows_of(self, table) -> int:
        return sum(len(window.ops) for window in self.windows.get(id(table), {}).values())


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_table_cannot_grow_with_history(transport, monkeypatch):
    spy = TableSpy(monkeypatch)
    total = 240

    async def run():
        clients = tuple(f"c{i}" for i in range(4))
        async with make_cluster(
            transport=transport, clients=clients, config=ADVERT_CONFIG
        ) as cluster:
            for _ in range(total // len(clients)):
                await asyncio.gather(
                    *(cluster.submit(cid, CounterType.increment()) for cid in clients)
                )
            await converge_and_check(cluster)
            assert await cluster.submit("c0", CounterType.read(), strict=True) == total
            assert await cluster.quiesce(timeout=30.0)
            # A few idle rounds: the acks catch up and the senders' snapshots
            # let go of what compaction folded.
            await asyncio.sleep(0.3)
            gc.collect()
            for rid, endpoint in cluster._endpoints.items():
                core = cluster.replicas[rid]
                assert core.checkpoint.count > total // 2, "compaction did not run"
                # Beyond the core and the windows nothing holds a
                # descriptor: a send link lets go of its batch once flushed.
                bound = core.tracked_op_count() + spy.held_by_windows_of(endpoint.table)
                assert len(endpoint.table) <= bound < total // 4, (rid, len(endpoint.table))
            # A client's table knows its own requests, which the deployment's
            # book (``requested``) keeps for the oracles.
            for cid in clients:
                asked = sum(1 for op_id in cluster.requested if op_id.client == cid)
                assert len(cluster._client_tables[cid]) <= asked

    asyncio.run(run())


@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("volatile", [True, False], ids=["volatile", "durable"])
def test_recovered_incarnation_starts_from_an_empty_table(transport, volatile):
    async def run():
        async with make_cluster(
            transport=transport, config=ADVERT_CONFIG, request_retry=0.2
        ) as cluster:
            for _ in range(6):
                await cluster.submit("c0", CounterType.increment())
            assert await cluster.quiesce(timeout=30.0)
            old = cluster._endpoints["r1"].table
            assert len(old) > 0
            await cluster.crash_replica("r1", volatile_memory=volatile)
            for _ in range(4):
                await cluster.submit("c1", CounterType.increment(), timeout=10.0)
            await cluster.recover_replica("r1")
            new = cluster._endpoints["r1"].table
            assert new is not old and len(new) == 0
            for _ in range(3):
                await cluster.submit("c1", CounterType.increment())
            await converge_and_check(cluster)
            assert await cluster.submit("c0", CounterType.read()) == 13
            # Every link of the new incarnation spells through the new table.
            assert all(
                link.window is None or link.window.table is new
                for link in cluster._endpoints["r1"].links.values()
            )

    asyncio.run(run())


# --------------------------------------------------------------------------- #
# Hostile lengths                                                             #
# --------------------------------------------------------------------------- #

#: c0's first operation on a ``make_cluster`` deployment, and its body bytes:
#: a full form every replica's table *hits* once the operation has spread.
FIRST_OP = make_operation(CounterType.increment(), OperationId("c0", 0))
FIRST_BODY = codec._spell_descriptor(FIRST_OP)


def frame_of(*payloads: bytes) -> bytes:
    """A frame whose identifier table is ``r0``, ``c0``."""
    return (
        MAGIC + bytes([WIRE_VERSION]) + b"\x02\x02r0\x02c0" + bytes([len(payloads)])
        + b"".join(encode_varint(len(payload)) + payload for payload in payloads)
    )


#: A windowed gossip payload from ``r0`` up to its one first-sight
#: descriptor's client reference column (``c0``), wire v7: kind, flags,
#: drop, sender, epoch, stream; one region, membership ``received``, no
#: back-references, one full form; the client column (width 1).
HEAD = bytes([3, 64]) + b"\x00\x00\x00\x00" + b"\x01\x01" + b"\x00\x01" + b"\x01\x01"
#: ... and what follows the body: no labels.
TAIL = b"\x00\x00\x00"


def length_column(length: int) -> bytes:
    """A one-entry body-length column: the least width that holds it."""
    widths = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    width, code = next((w, c) for w, c in widths if length < 1 << 8 * w)
    return bytes([width]) + struct.pack("<" + code, length)


HONEST = HEAD + length_column(len(FIRST_BODY)) + FIRST_BODY + TAIL
#: A second message for a length to reach into: a request for the same.
REQUEST = bytes([1, 1]) + encode_varint(len(FIRST_BODY)) + FIRST_BODY


def hostile_lengths():
    size = len(FIRST_BODY)
    assert len(REQUEST) > 10
    return {
        "length past the end of the payload": frame_of(
            HEAD + length_column(size + 10) + FIRST_BODY + TAIL, REQUEST
        ),
        "length past the end of the frame": frame_of(
            HEAD + length_column(1 << 40) + FIRST_BODY + TAIL
        ),
        # The declared bytes hold the body and one byte more.
        "body parses shorter than its length": frame_of(
            HEAD + length_column(size + 1) + FIRST_BODY + b"\x00" + TAIL
        ),
        # The declared bytes stop one short of where the parse ends.
        "body parses longer than its length": frame_of(
            HEAD + length_column(size - 1) + FIRST_BODY + TAIL
        ),
        # Well-formed up to and including a body the receiver already holds
        # (a hit), and nothing behind it.
        "a hit, then the frame ends early": frame_of(
            HEAD + length_column(size) + FIRST_BODY
        ),
    }


HOSTILE_LENGTHS = hostile_lengths()


def test_hostile_length_fixtures_differ_from_valid_in_the_length_only():
    table = DescriptorTable()
    frame = frame_of(HONEST, REQUEST)
    gossip, request = decode_frame(frame, DescriptorWindow(table))
    assert gossip.received == {FIRST_OP} and gossip.sender == "r0"
    assert request.operation is next(iter(gossip.received))
    (again,) = decode_frame(frame_of(HONEST), DescriptorWindow(table))
    assert next(iter(again.received)) is request.operation


@pytest.mark.parametrize("held", [False, True], ids=["miss", "hit"])
@pytest.mark.parametrize("name", sorted(HOSTILE_LENGTHS))
def test_hostile_length_is_a_frame_error(name, held):
    table = DescriptorTable()
    if held:
        keep = decode_frame(encode_message(RequestMessage(FIRST_OP)), DescriptorWindow(table))
    with pytest.raises(FrameError):
        decode_frame(HOSTILE_LENGTHS[name], DescriptorWindow(table))
    with pytest.raises(FrameError):
        decode_frame(HOSTILE_LENGTHS[name], DescriptorWindow())
    gc.collect()
    # Nothing of the rejected frame stays behind.
    assert len(table) == (1 if held else 0)
    if held:
        assert table.find("c0", FIRST_BODY) is keep[0].operation


@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("name", sorted(HOSTILE_LENGTHS))
def test_hostile_length_costs_the_connection_only(transport, name):
    asyncio.run(_after_hostile_replica_frame(transport, HOSTILE_LENGTHS[name]))


# --------------------------------------------------------------------------- #
# Hostile bytes, through a table that holds live entries                      #
# --------------------------------------------------------------------------- #


def decoded_through(table, frames):
    """The receiving window after *frames*, and what they decoded to."""
    window = DescriptorWindow(table)
    return window, [decode_frame(frame, window) for frame in frames]


def test_mutation_fuzz_through_a_live_table_poisons_nothing():
    rng = random.Random(19)
    corpus = fuzz_corpus()
    table = DescriptorTable()
    # The unmutated corpus, decoded once and kept: its descriptors are the
    # table's live entries, so a mutant hits wherever it was not hit.
    kept = [decoded_through(table, prefix + (frame,))[1][-1] for frame, prefix in corpus]
    entries = len(table)
    assert entries > 0
    outcomes = {"decoded": 0, "rejected": 0}
    for index in range(24_000):
        frame, prefix = corpus[index % len(corpus)]
        mutated = bytearray(frame)
        for _ in range(rng.randint(1, 3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        mutated = bytes(mutated)
        window, _held = decoded_through(table, prefix)
        fresh, _held_fresh = decoded_through(DescriptorTable(), prefix)
        try:
            messages = decode_frame(mutated, window)
        except FrameError:
            outcomes["rejected"] += 1
            with pytest.raises(FrameError):
                decode_frame(mutated, fresh)
        else:
            # Anything else raised fails the test by propagating; and a hit
            # is what a parse of the same bytes builds.
            assert encode_frame(messages) == encode_frame(decode_frame(mutated, fresh))
            outcomes["decoded"] += 1
    assert outcomes["decoded"] > 500 and outcomes["rejected"] > 10_000, outcomes
    # Whatever the mutants filed died with them, and every descriptor the
    # table held still decodes to itself.
    del messages, window, fresh, _held, _held_fresh
    gc.collect()
    assert len(table) == entries
    for (frame, prefix), before in zip(corpus, kept):
        after = decoded_through(table, prefix + (frame,))[1][-1]
        for was, now in zip(before, after):
            assert {id(op) for op in descriptors_of(now)} == {
                id(op) for op in descriptors_of(was)
            }


@pytest.mark.parametrize(
    "prefix",
    [b"", b"\x00\x01", b"\x01\x02c0\x01\xff\x7f\x01\x00"],
    ids=["table", "payload", "descriptor-length"],
)
def test_a_megabyte_of_0xff_is_rejected_at_once_with_a_table(prefix):
    frame = MAGIC + bytes([WIRE_VERSION]) + prefix + b"\xff" * (1 << 20)
    begin = time.perf_counter()
    with pytest.raises(FrameError):
        decode_frame(frame, DescriptorWindow(DescriptorTable()))
    assert time.perf_counter() - begin < 0.05


# --------------------------------------------------------------------------- #
# Canonical order under the allocation-free sort keys                         #
# --------------------------------------------------------------------------- #


def canonical_order_fixture():
    """Hex of a stateless gossip frame whose descriptors and labels span
    clients and seqnos (two-digit seqnos and ``c10`` sort differently as
    text), its digest, and a request with a many-client ``prev``."""
    clients = ["c10", "c2", "c0", "b", "c1"]
    ops = [
        make_operation(
            Operator("add", (seqno,)),
            OperationId(client, seqno),
            prev=[OperationId(other, seqno) for other in clients if other < client],
        )
        for client in clients
        for seqno in (11, 2, 7, 100)
    ]
    gossip = GossipMessage(
        sender="r0",
        received=frozenset(ops),
        done=frozenset(ops[::2]),
        labels={op.id: Label(index, "r1") for index, op in enumerate(ops)},
        stable=frozenset(ops[::3]),
    )
    return encode_message(gossip).hex(), message_digest(gossip), encode_message(
        RequestMessage(ops[3])
    ).hex()


_ORDER_FIXTURE = """
import sys
sys.path[:0] = ["src", "tests"]
from test_net_descriptor_table import canonical_order_fixture
print(canonical_order_fixture())
"""


def test_canonical_order_is_by_client_then_seqno():
    frame_hex, _digest, _request = canonical_order_fixture()
    (message,) = decode_frame(bytes.fromhex(frame_hex))
    # dict order of the decoded labels is wire order.
    wire_order = [(op_id.client, op_id.seqno) for op_id in message.labels]
    assert wire_order == sorted(wire_order) and len(wire_order) == 20


@pytest.mark.parametrize("hashseed", ["1", "77"])
def test_canonical_bytes_identical_across_hash_seeds(hashseed):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _ORDER_FIXTURE],
        capture_output=True, text=True, env=env, check=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.stdout.strip() == repr(canonical_order_fixture())
