"""The binary wire codec: round-trip identity, determinism, edge cases.

Three layers of guarantees, each pinned separately:

* **Round-trip identity** — ``decode(encode(m))`` reconstructs every message
  kind field-for-field (``Checkpoint``/``CheckpointAdvert``/``OpIdSummary``
  deliberately have no ``__eq__``, so those compare structurally).
* **Determinism** — same message, same bytes, independent of insertion
  order and ``PYTHONHASHSEED``: the digests over the canonical encoding are
  meaningful identities (a pinned fixture digest is asserted under two
  different hash seeds in a subprocess).
* **Edge cases** — varint/zigzag boundaries, interval delta-packing on
  adjacent/sparse/huge intervals, malformed-frame rejection.

Hypothesis property tests drive randomly generated values and summaries
through the full encode/decode path.
"""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithm.checkpoint import Checkpoint, CheckpointAdvert, OpIdSummary
from repro.algorithm.labels import Label
from repro.algorithm.messages import (
    CheckpointTransferMessage,
    GossipMessage,
    PullRequestMessage,
    RequestMessage,
    ResponseMessage,
)
from repro.common import INFINITY, OperationId
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes.base import Operator
from repro.net.codec import (
    WIRE_VERSION,
    DescriptorTable,
    DescriptorWindow,
    FrameError,
    decode_frame,
    encode_frame,
    encode_frame_detailed,
    encode_message,
    encode_varint,
    frame_digest,
    message_digest,
    unzigzag,
    zigzag,
)

# --------------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------------- #


def op(client="c0", seqno=1, name="add", args=(1,), prev=(), strict=False):
    return make_operation(
        Operator(name, tuple(args)),
        OperationId(client, seqno),
        prev=[OperationId(c, s) for c, s in prev],
        strict=strict,
    )


def sample_checkpoint():
    ids = OpIdSummary({"c0": [(1, 4)], "c1": [(1, 2), (5, 7)]})
    values = {
        OperationId("c0", 1): 1,
        OperationId("c0", 2): None,
        OperationId("c1", 5): "x",
    }
    return Checkpoint(
        base_state=7, frontier=Label(9, "r1"), ids=ids, values=values
    )


def sample_gossip(**overrides):
    x0, x1 = op(seqno=1), op("c1", 3, "read", (), prev=((("c1", 2)),), strict=True)
    fields = dict(
        sender="r0",
        received=frozenset([x0, x1]),
        done=frozenset([x0]),
        labels={x0.id: Label(4, "r0"), x1.id: Label(5, "r2")},
        stable=frozenset([x0]),
        epoch=2,
        stream=1,
        seqno=9,
        ack=4,
        ack_epoch=1,
        ack_stream=0,
        is_delta=True,
        sent_at=12.5,
    )
    fields.update(overrides)
    return GossipMessage(**fields)


def assert_summary_equal(a: OpIdSummary, b: OpIdSummary):
    assert a.ranges == b.ranges
    assert a.count == b.count


def assert_checkpoint_equal(a: Checkpoint, b: Checkpoint):
    assert a.base_state == b.base_state
    assert a.frontier == b.frontier
    assert_summary_equal(a.ids, b.ids)
    # Value order IS part of the contract: insertion order = eviction order.
    assert list(a.values.items()) == list(b.values.items())
    assert a.digest() == b.digest()


# --------------------------------------------------------------------------- #
# Round trips, per kind
# --------------------------------------------------------------------------- #


class TestRoundTrips:
    def test_request(self):
        message = RequestMessage(op(prev=(("c9", 4), ("c0", 1)), strict=True))
        (decoded,) = decode_frame(encode_message(message))
        assert decoded == message

    def test_response_and_stale_nack(self):
        ok = ResponseMessage(op(), value=41, sender="r1")
        nack = ResponseMessage(op(), value=None, stale=True, sender="r2")
        decoded = decode_frame(encode_frame([ok, nack]))
        assert decoded == [ok, nack]

    def test_plain_full_gossip(self):
        message = sample_gossip(
            is_delta=False, seqno=None, ack=None, ack_epoch=None,
            ack_stream=None, sent_at=None,
        )
        (decoded,) = decode_frame(encode_message(message))
        assert decoded == message

    def test_delta_gossip_with_ack_fields(self):
        message = sample_gossip()
        (decoded,) = decode_frame(encode_message(message))
        assert decoded == message
        assert decoded.is_delta and decoded.seqno == 9 and decoded.ack == 4
        assert decoded.sent_at == 12.5
        # The basis is receiver-side knowledge, never transmitted.
        assert decoded.basis is None

    def test_gossip_with_checkpoint_body(self):
        message = sample_gossip(checkpoint=sample_checkpoint(), is_delta=False,
                                seqno=None, ack=None, ack_epoch=None,
                                ack_stream=None)
        (decoded,) = decode_frame(encode_message(message))
        assert_checkpoint_equal(decoded.checkpoint, message.checkpoint)
        assert decoded.advert is None

    def test_gossip_with_advert(self):
        checkpoint = sample_checkpoint()
        advert = CheckpointAdvert(
            frontier=checkpoint.frontier, digest=checkpoint.digest(),
            ids=checkpoint.ids,
        )
        message = sample_gossip(advert=advert)
        (decoded,) = decode_frame(encode_message(message))
        assert decoded.advert.frontier == advert.frontier
        assert decoded.advert.digest == advert.digest
        assert_summary_equal(decoded.advert.ids, advert.ids)
        assert decoded.checkpoint is None
        # The summary is a value: the decoded advert *equals* the sent one
        # (it compared by identity before) and files under the same hash.
        assert decoded.advert.ids is not advert.ids
        assert decoded.advert == advert and hash(decoded.advert) == hash(advert)
        assert decoded == message

    def test_pull(self):
        message = PullRequestMessage(
            requester="r2", target="r0", digest="ab12" * 4,
            frontier=Label(17, "r0"), have_frontier=Label(3, "r2"),
        )
        (decoded,) = decode_frame(encode_message(message))
        assert decoded == message and decoded is not message
        bare = PullRequestMessage("r2", "r0", "00ff", Label(1, "r0"))
        (decoded,) = decode_frame(encode_message(bare))
        assert decoded == bare and decoded.have_frontier is None

    def test_transfer(self):
        checkpoint = sample_checkpoint()
        message = CheckpointTransferMessage(
            sender="r0", requester="r2", digest=checkpoint.digest(),
            frontier=checkpoint.frontier, ids=checkpoint.ids,
            values={OperationId("c1", 5): "x", OperationId("c0", 2): None},
            base_state=7, order_digest="cd34" * 4,
        )
        (decoded,) = decode_frame(encode_message(message))
        assert (decoded.sender, decoded.requester) == ("r0", "r2")
        assert decoded.digest == message.digest
        assert decoded.frontier == message.frontier
        assert_summary_equal(decoded.ids, message.ids)
        assert list(decoded.values.items()) == list(message.values.items())
        assert decoded.base_state == 7
        assert decoded == message
        # A ``None`` base state is a value like any other.
        bare = dataclasses.replace(message, base_state=None)
        assert decode_frame(encode_message(bare)) == [bare]

    def test_mixed_coalesced_frame_with_size_attribution(self):
        messages = [
            RequestMessage(op()),
            sample_gossip(),
            ResponseMessage(op(), value=2),
        ]
        frame, sizes = encode_frame_detailed(messages)
        assert len(sizes) == 3
        # Per-payload sizes partition the frame minus header/table overhead.
        assert sum(sizes) < len(frame)
        assert decode_frame(frame) == messages

    def test_value_zoo_round_trips_inside_operator_args(self):
        # Operator args must stay hashable; unhashable values (dicts) are
        # exercised through response values below.
        zoo = (
            None, True, False, 0, -1, 2**40, 3.5, float("-0.0"), "déjà", b"\x00\xff",
            INFINITY, (1, (2, "x")), frozenset([3, 1, 2]),
            OperationId("cz", 9), Label(1, "r0"), Operator("nested", (7,)),
        )
        message = RequestMessage(op(args=zoo))
        (decoded,) = decode_frame(encode_message(message))
        assert decoded.operation.op.args == zoo
        response = ResponseMessage(op(), value={"b": 1, "a": (None, {"k": 2})})
        (decoded,) = decode_frame(encode_message(response))
        assert decoded == response

    def test_value_objects_dispatch_before_the_generic_tuple_branch(self):
        # OperationId / Label / Operator ARE tuples and equal the plain tuple
        # of their fields, so only the decoded *type* can tell whether the
        # encoder tested for them before ``tuple``.
        value = {"k": (OperationId("c", 1), Label(2, "r0"), Operator("add", (1,)), ("c", 1))}
        message = ResponseMessage(op(), value=value)
        (decoded,) = decode_frame(encode_message(message))
        assert decoded == message
        op_id, label, operator, plain = decoded.value["k"]
        assert type(op_id) is OperationId and type(label) is Label
        assert type(operator) is Operator and type(operator.args) is tuple
        assert type(plain) is tuple and plain == OperationId("c", 1)

    def test_plain_set_and_frozenset_types_survive_decode(self):
        # ``set(x) == frozenset(x)`` in Python, so equality round-trip checks
        # cannot see a frozenset coming back where a plain set went in: the
        # types themselves are the contract here.
        message = ResponseMessage(op(), value=({"a", "b"}, frozenset({"a", "b"})))
        (decoded,) = decode_frame(encode_message(message))
        mutable, frozen = decoded.value
        assert type(mutable) is set and mutable == {"a", "b"}
        assert type(frozen) is frozenset and frozen == {"a", "b"}


# --------------------------------------------------------------------------- #
# Determinism and digests
# --------------------------------------------------------------------------- #

_DIGEST_FIXTURE = """
import sys
sys.path.insert(0, "src")
from tests.test_net_codec import fixture_digests
print(fixture_digests())
"""


def fixture_digests():
    """Digests of a stateless message and frame, and of what a link frame and
    the stateless frame of a larger gossip message decode to.  A link frame
    writes its sets and labels in iteration order, so its bytes may differ
    under another hash seed; what it decodes to may not."""
    gossip = sample_gossip(checkpoint=sample_checkpoint())
    frame = encode_frame([RequestMessage(op()), gossip])
    xs = [op("c%d" % (i % 3), i, args=(i,), prev=(("c9", i),) * (i % 2)) for i in range(16)]
    larger = dataclasses.replace(
        gossip,
        received=gossip.received | frozenset(xs),
        done=gossip.done | frozenset(xs[::2]),
        stable=gossip.stable | frozenset(xs[::4]),
        labels={**gossip.labels, **{x.id: Label(i, "r%d" % (i % 3)) for i, x in enumerate(xs)}},
    )
    link = encode_frame([larger], DescriptorWindow(DescriptorTable()))
    (decoded,) = decode_frame(link, DescriptorWindow(DescriptorTable()))
    (stateless,) = decode_frame(encode_message(larger))
    return (
        message_digest(gossip),
        frame_digest(frame),
        message_digest(decoded),
        message_digest(stateless),
    )


class TestDeterminism:
    def test_set_and_dict_iteration_order_cannot_leak(self):
        xs = [op("c%d" % i, i + 1) for i in range(8)]
        forward = GossipMessage(
            sender="r0",
            received=frozenset(xs),
            done=frozenset(xs[:4]),
            labels={x.id: Label(i, "r1") for i, x in enumerate(xs)},
            stable=frozenset(xs[:2]),
        )
        backward = GossipMessage(
            sender="r0",
            received=frozenset(reversed(xs)),
            done=frozenset(reversed(xs[:4])),
            labels={x.id: Label(i, "r1") for i, x in reversed(list(enumerate(xs)))},
            stable=frozenset(reversed(xs[:2])),
        )
        assert encode_message(forward) == encode_message(backward)

    @pytest.mark.parametrize("hashseed", ["0", "4242"])
    def test_digests_stable_across_hash_seeds(self, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_FIXTURE],
            capture_output=True, text=True, env=env, check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        digests = fixture_digests()
        assert out.stdout.strip() == repr(digests)
        assert digests[2] == digests[3]

    def test_set_valued_checkpoint_digest_survives_decode(self):
        # CPython set iteration order depends on insertion history when
        # elements collide (9 and 1 both land in slot 1 of an 8-slot table),
        # so ``repr(frozenset([9, 1])) != repr(frozenset([1, 9]))``.  A
        # decoded set is rebuilt in canonical encoding order, which means a
        # digest over raw ``repr`` would reject every legitimate set-valued
        # checkpoint at the codec boundary; digests use ``canonical_repr``.
        ids = OpIdSummary({"c0": [(2, 2)]})
        forward = Checkpoint(
            base_state=frozenset([9, 1]), frontier=Label(3, "r0"), ids=ids,
            values={OperationId("c0", 2): frozenset([9, 1])},
        )
        backward = Checkpoint(
            base_state=frozenset([1, 9]), frontier=Label(3, "r0"), ids=ids,
            values={OperationId("c0", 2): frozenset([1, 9])},
        )
        assert forward.digest() == backward.digest()
        gossip = sample_gossip(checkpoint=forward)
        (decoded,) = decode_frame(encode_message(gossip))
        assert decoded.checkpoint.digest() == forward.digest()


# --------------------------------------------------------------------------- #
# Varint / interval edge cases
# --------------------------------------------------------------------------- #


def read_varint(data):
    shift = value = index = 0
    while True:
        byte = data[index]
        value |= (byte & 0x7F) << shift
        shift += 7
        index += 1
        if not byte & 0x80:
            return value, index


class TestVarints:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 129, 16383, 16384, 2**31, 2**63, 2**80]
    )
    def test_varint_round_trip_and_minimality(self, value):
        encoded = encode_varint(value)
        decoded, consumed = read_varint(encoded)
        assert decoded == value and consumed == len(encoded)
        # LEB128 minimality: 7 payload bits per byte.
        assert len(encoded) == max(1, (value.bit_length() + 6) // 7)

    @pytest.mark.parametrize("value", [0, -1, 1, -2, 2, 63, -64, -(2**40), 2**40])
    def test_zigzag_is_a_bijection_onto_unsigned(self, value):
        assert unzigzag(zigzag(value)) == value
        assert zigzag(value) >= 0

    @pytest.mark.parametrize(
        "ranges",
        [
            {},
            {"c0": [(0, 0)]},
            {"c0": [(1, 1), (3, 3), (5, 5)]},
            {"c0": [(1, 10**9)], "c1": [(5, 5), (10**6, 10**6 + 3)]},
            {"c0": [(-4, -2), (0, 2)]},  # negative seqnos survive zigzag
        ],
    )
    def test_interval_packing_round_trips(self, ranges):
        summary = OpIdSummary(ranges)
        message = CheckpointTransferMessage(
            sender="r0", requester="r1", digest="00", frontier=Label(0, "r0"),
            ids=summary, values={}, base_state=0, order_digest="00",
        )
        (decoded,) = decode_frame(encode_message(message))
        assert_summary_equal(decoded.ids, summary)


# --------------------------------------------------------------------------- #
# Stateless frames, pinned byte for byte (wire version 7)
# --------------------------------------------------------------------------- #


def every_kind():
    """One frame's worth of every message kind (both gossip attachments)."""
    checkpoint = sample_checkpoint()
    advert = CheckpointAdvert(
        frontier=checkpoint.frontier, digest="ab12" * 4, ids=checkpoint.ids,
        order_digest="cd34" * 4,
    )
    return [
        RequestMessage(op(prev=(("c9", 4), ("c0", 1)), strict=True)),
        ResponseMessage(op(), value={"b": 1, "a": (None, {2, 3})}, stale=True, sender="r2"),
        sample_gossip(checkpoint=checkpoint),
        sample_gossip(advert=advert, is_delta=False),
        PullRequestMessage("r2", "r0", "ab12" * 4, Label(17, "r0"), Label(3, "r2")),
        CheckpointTransferMessage(
            sender="r0", requester="r2", digest="ef56" * 4,
            frontier=checkpoint.frontier, ids=checkpoint.ids,
            values={OperationId("c1", 5): "x"}, base_state=7, order_digest="cd34" * 4,
        ),
    ]


#: ``encode_frame(every_kind())`` under wire version 7: 409 bytes.  Only the
#: two gossip payloads moved (88 -> 100 and 111 -> 123 bytes; every other
#: payload keeps its bytes, and the version byte is 7).  Each gossip body is
#: now columnar: its two descriptors sit in two membership regions (x1 in
#: ``received`` only, x0 in all three sets), each region giving its code, an
#: empty back-reference column and one full form as a client column, a
#: body-length column and the body; the labels are one column group
#: (positions, a rank base with offsets, replica references) behind an empty
#: "unchanged" count and before an empty row count.  On two descriptors the
#: column heads cost more than the per-entry membership bytes and label heads
#: they replace; on a real payload they cost less.
#: Version 6 moved the operator value of a descriptor with ``prev`` behind its
#: ``prev`` identifiers; version 5 sent the transfer as one message; version 4
#: changed only the full form of the six descriptors against version 3: a
#: body-length varint, a frame-independent body and ``prev`` clients spelled
#: inline.
WIRE_V7_EVERY_KIND = bytes.fromhex(
    "e50d0709026330027232027230026331027231103030303030303030303030303030303010616231"
    "32616231326162313261623132106566353665663536656635366566353610636433346364333463"
    "64333463643334061501001202050002036339080a050361646407010302240203000c02000a0503"
    "6164640701030209020501610702000e020304030605016203020164032f02020109040100020100"
    "010103010d060300040a05047265616407000700010100010c02000a050361646407010302000201"
    "01000801000101020100030e0112040200010203030202010102050300020302000400030a050178"
    "40290000000000007b033602020109040100020100010103010d060300040a050472656164070007"
    "00010100010c02000a05036164640701030200020101000801000101020100120272311061623132"
    "61623132616231326162313210636433346364333463643334636433340202633001020302633102"
    "020101024029000000000000090401010206220206011a0502010708120402000102030302020101"
    "0201030a050178030e"
)


def test_frame_without_a_window_is_the_pinned_wire_v7_fixture():
    # Everything digests, vectors and the wire twin see is encoded without a
    # window: the same layout as on a link, no table, canonical bytes.
    assert WIRE_V7_EVERY_KIND[2] == WIRE_VERSION == 7
    assert encode_frame(every_kind()) == WIRE_V7_EVERY_KIND
    assert encode_frame(every_kind(), None) == WIRE_V7_EVERY_KIND
    assert encode_frame_detailed(every_kind(), window=None)[0] == WIRE_V7_EVERY_KIND
    assert decode_frame(WIRE_V7_EVERY_KIND)[0] == every_kind()[0]


# --------------------------------------------------------------------------- #
# Malformed frames
# --------------------------------------------------------------------------- #


class TestFrameErrors:
    def test_bad_magic(self):
        frame = bytearray(encode_message(RequestMessage(op())))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_unknown_version(self):
        frame = bytearray(encode_message(RequestMessage(op())))
        frame[2] = 0x7F
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_truncation_at_every_prefix_never_crashes(self):
        frame = encode_message(sample_gossip(checkpoint=sample_checkpoint()))
        for cut in range(len(frame)):
            with pytest.raises(FrameError):
                decode_frame(frame[:cut])

    @pytest.mark.parametrize("shape", ["values", "no-values", "no-base-state"])
    def test_transfer_truncation_at_every_prefix_never_crashes(self, shape):
        # A transfer is the one message whose body is a whole checkpoint:
        # a cut anywhere in it, the value list and the base state included,
        # is refused at the wire boundary and never reaches the core.
        checkpoint = sample_checkpoint()
        values = {OperationId("c1", 5): "x", OperationId("c0", 2): (1, None)}
        message = CheckpointTransferMessage(
            sender="r0", requester="r2", digest=checkpoint.digest(),
            frontier=checkpoint.frontier, ids=checkpoint.ids,
            values={} if shape == "no-values" else values,
            base_state=None if shape == "no-base-state" else 7,
            order_digest="cd34" * 4,
        )
        frame = encode_message(message)
        assert decode_frame(frame) == [message]
        for cut in range(len(frame)):
            with pytest.raises(FrameError):
                decode_frame(frame[:cut])

    def test_trailing_garbage_rejected(self):
        frame = encode_message(RequestMessage(op()))
        with pytest.raises(FrameError):
            decode_frame(frame + b"\x00")


# --------------------------------------------------------------------------- #
# Property tests
# --------------------------------------------------------------------------- #

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.just(INFINITY),
    st.builds(OperationId, st.sampled_from(["ca", "cb"]), st.integers(0, 99)),
    st.builds(Label, st.integers(0, 999), st.sampled_from(["r0", "r1"])),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(scalars, max_size=4),  # set elements must be hashable
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_any_value_round_trips_through_response_values(value):
    message = ResponseMessage(op(), value=value)
    (decoded,) = decode_frame(encode_message(message))
    assert decoded == message


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["c0", "c1", "c2"]),
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 80)).map(
                lambda pair: (pair[0], pair[0] + pair[1])
            ),
            max_size=6,
        ),
        max_size=3,
    )
)
def test_any_summary_round_trips(ranges):
    summary = OpIdSummary(ranges)
    message = CheckpointTransferMessage(
        sender="r0", requester="r1", digest="aa", frontier=Label(1, "r0"),
        ids=summary, values={}, base_state=None, order_digest="bb",
    )
    (decoded,) = decode_frame(encode_message(message))
    assert_summary_equal(decoded.ids, summary)
    assert decoded.ids == summary and hash(decoded.ids) == hash(summary)
    assert decoded == message


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["c0", "c1"]),
            st.integers(1, 60),
            st.booleans(),
            st.integers(0, 30),
        ),
        min_size=1,
        max_size=12,
        unique_by=lambda item: (item[0], item[1]),
    )
)
def test_any_gossip_population_round_trips(population):
    xs = [op(c, n, strict=strict) for c, n, strict, _rank in population]
    message = GossipMessage(
        sender="r1",
        received=frozenset(xs),
        done=frozenset(x for x, (_, _, _, rank) in zip(xs, population) if rank % 2),
        labels={
            x.id: Label(rank, "r0")
            for x, (_, _, _, rank) in zip(xs, population)
            if rank % 3
        },
        stable=frozenset(
            x for x, (_, _, _, rank) in zip(xs, population) if rank % 4 == 0
        ),
    )
    (decoded,) = decode_frame(encode_message(message))
    assert decoded == message


# --------------------------------------------------------------------------- #
# Descriptor hashing in the gossip codec
# --------------------------------------------------------------------------- #


def test_gossip_codec_hashes_each_decoded_descriptor_at_most_once(monkeypatch):
    """The encoder cuts the membership union with set algebra (the sets'
    stored hashes) and never hashes a descriptor; the decoder hashes each
    entry once, in its membership group.  All seven membership codes occur."""
    xs = [op("c0", n) for n in range(1, 29)]
    message = sample_gossip(
        received=frozenset(xs[0:16]),
        done=frozenset(xs[8:12] + xs[16:24]),
        stable=frozenset(xs[4:8] + xs[10:14] + xs[20:28]),
        labels={},
    )
    calls = []
    original = OperationDescriptor.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(OperationDescriptor, "__hash__", counting)
    frame = encode_message(message)
    assert calls == []
    (decoded,) = decode_frame(frame)
    assert len(calls) <= len(xs)
    monkeypatch.undo()
    assert decoded == message
