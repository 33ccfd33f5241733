"""The binary wire codec: deterministic, compact, digest-friendly.

Modelled on SSZ (simple-serialize): a small set of fixed composition rules,
no self-describing schema on the wire, and one *canonical* encoding per value
so that content digests can be computed over the bytes themselves.  A
frame without a window is independent of ``PYTHONHASHSEED`` — every set is
sorted before encoding (operation sets by identifier, value-level sets by
their own encoded bytes) — so the same message encodes to the same bytes in
every process, which is what makes :func:`message_digest` a usable content
address.  A link frame (one spelled against a :class:`DescriptorWindow`)
writes its descriptor union and labels in iteration order instead: its
bytes are the link's business, and it decodes to the same message.

Layout of one frame (all integers are LEB128 varints unless noted)::

    magic     2 bytes   0xE5 0x0D
    version   1 byte    WIRE_VERSION
    table_n   varint    interned-identifier table size
    table     table_n x (varint length + utf-8 bytes)
    msg_n     varint    messages in the frame (coalescing batches several)
    msgs      msg_n  x (varint payload length + payload)

A payload is one kind tag byte followed by the kind-specific body.  The
interned table holds the *protocol identifiers* — client ids, replica ids,
checkpoint digests — which repeat heavily within a frame; they are referenced
by varint index.  Operation identifiers outside a descriptor body encode as
``(client ref, seqno)``; compacted-id summaries pack per-client seqno
intervals as delta varints, so a steady-state advert costs a few bytes per
client regardless of history length.  Gossip set triples
(received/done/stable) are encoded as one descriptor union plus a
per-descriptor membership byte, since the three sets overlap almost
completely.

A descriptor has **two forms**.  The *full form* is ``client (frame-table
reference) | varint length | body``; the body — seqno, ``prev`` count and
strict flag in one varint, ``prev`` identifiers with their clients spelled
inline, operator value — holds no table reference, so the same descriptor
has the same body bytes in every frame.  A replica->replica connection is reliable and FIFO, so each
direction of it owns a :class:`DescriptorWindow`: the first time a
descriptor crosses the connection it is spelled in full and appended to the
window at both ends; every later occurrence in a gossip payload on that
connection is the second form, a varint *distance back into the window*,
and decodes to the very object decoded at first sight.  See the class for
the ``drop`` rule that keeps the two ends in step and the window small.

Because the body is frame-independent, an *endpoint* — one incarnation of a
replica, one client — can remember it: all of an endpoint's windows share
one :class:`DescriptorTable`, which maps ``(client, body bytes)`` to the
live descriptor object, each live descriptor back to its bytes, and the
bytes of each parsed operator (the body's tail) to the operator.  Decoding
a full form whose bytes the endpoint already holds skips the body and
returns that object (one slice, one lookup: no parse, no new object);
encoding a descriptor whose bytes are known appends them verbatim (a relay
re-sends what it received, a response reuses the request's bytes).  Frames
encoded without a window — :func:`encode_message`, the wire twin, digests —
use the same layout with no table: every full form is spelled and parsed
afresh, and the bytes are canonical.  There is one encoder and one decoder.

Arbitrary leaf values (operator arguments, data states, response values) use
a self-contained tagged value encoding (no table references, so sorting a
set by element bytes is well defined): ``None``/bools/ints/floats/strings/
bytes/tuples/frozensets/dicts plus the domain atoms ``Operator``,
``OperationId``, ``Label`` and ``INFINITY``.

The transport layer length-prefixes each frame with a 4-byte big-endian
length (:class:`repro.net.runtime.FrameParser` takes the stream apart).  A delta message's ``basis`` is *never* encoded —
the receiver provably already holds it (see
:class:`repro.algorithm.messages.GossipMessage`) — so decoded deltas carry
``basis=None``, exactly like a message that crossed a real network.

Digest note: two 16-hex strings ride in the ``digest`` slots, and they do
different jobs.  Advert and pull frames carry
:meth:`repro.algorithm.checkpoint.Checkpoint.identity` — an O(1) name for
the sender's fold prefix that *identifies* a checkpoint and verifies
nothing.  Transfer frames carry
:meth:`repro.algorithm.checkpoint.Checkpoint.digest` — the PR 4 content
hash that *verifies* a transferred body, computed only when one is sent or
received and deliberately left on its original material so the
checked-in conformance corpus stays valid.  :func:`message_digest` /
:func:`frame_digest` are the wire-level counterparts computed over this
canonical encoding.

Hot-path notes (wire version 6):

* A descriptor is parsed **once per replica** and spelled **once** — by the
  client that issues it.  The link window makes it cross each connection in
  full once (un-acked delta repeats, the periodic full-state message and the
  received -> done -> stable upgrades name it by back-reference, and a label
  entry names its operation the same way, saying "unchanged" in its low bit
  when the label is the last one sent for that entry — decoded as the same
  ``Label`` object, so the fast core's ``current is label`` test hits); the
  endpoint table makes a lookup of the first sight on the second and third
  link, of gossip about a descriptor the replica took as a request, and of
  the response at the client.  The
  copies a replica holds of one descriptor are therefore one object, and the
  window's ``known is op`` test, the gossip encoder's union and the core's
  set algebra all hit identity before they would try ``==``.  A first
  sight of a new descriptor whose operator the endpoint has parsed before
  (``add(k)`` again) parses the seqno and ``prev`` only.
* Encoders append varints in place (no per-varint ``bytes`` allocation) and
  frames are assembled from a pooled grow-only buffer — one payload copy
  into the frame, no intermediate per-payload ``bytes``.  A link frame
  sorts nothing; the canonical ``(client, seqno)`` orders of a frame
  without a window sort on keys built in C, and the decoder builds
  ``OperationId`` and ``Label`` with ``tuple.__new__``.
* A :class:`~repro.algorithm.checkpoint.CheckpointAdvert` encodes
  *self-contained* (length-prefixed strings instead of table references),
  which makes its bytes frame-independent — and therefore memoizable, in
  the endpoint's table (:meth:`DescriptorTable.advert_bytes`): a replica
  re-advertising an unchanged checkpoint every gossip round hits the memo
  every time.  Nothing the codec remembers is module-level: two endpoints
  share no state, in one process or in two.
* :func:`decode_frame` accepts any bytes-like object and decodes through
  one ``memoryview`` — interior slices (strings, floats, raw runs) are
  views, copied only at the leaves that must own their bytes.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import weakref
from collections import deque
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.algorithm.checkpoint import Checkpoint, CheckpointAdvert, OpIdSummary
from repro.algorithm.labels import Label
from repro.algorithm.messages import (
    CheckpointTransferMessage,
    GossipMessage,
    PullRequestMessage,
    RequestMessage,
    ResponseMessage,
)
from repro.common import INFINITY, EsdsError, OperationId
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator

#: Bump on any change to the wire layout.
WIRE_VERSION = 6

MAGIC = b"\xe5\x0d"

#: Message kind tags.
_K_REQUEST = 1
_K_RESPONSE = 2
_K_GOSSIP = 3
_K_PULL = 4
_K_TRANSFER = 5

_KIND_TAGS = {
    "request": _K_REQUEST,
    "response": _K_RESPONSE,
    "gossip": _K_GOSSIP,
    "pull": _K_PULL,
    "transfer": _K_TRANSFER,
}

#: Value encoding tags (self-contained; see module docstring).
_V_NONE = 0
_V_FALSE = 1
_V_TRUE = 2
_V_INT = 3
_V_FLOAT = 4
_V_STR = 5
_V_BYTES = 6
_V_TUPLE = 7
_V_SET = 8
_V_DICT = 9
_V_OPERATOR = 10
_V_OPID = 11
_V_LABEL = 12
_V_INFINITY = 13
#: A *mutable* ``set`` (as opposed to _V_SET's ``frozenset``).  The
#: distinction matters: checkpoint transfer receivers recompute the content
#: digest over ``repr`` of the decoded retained values, and
#: ``repr(set(...))`` differs from ``repr(frozenset(...))`` even though the
#: two compare equal — a codec that normalized one into the other would make
#: every legitimate transfer of a set-valued response look corrupted.
_V_MUTSET = 14


#: A structural varint (count, length, index, seqno, rank) fits 64 bits plus
#: a zigzag sign: ten bytes, shifts 0..63.
_MAX_VARINT_SHIFT = 63
#: A value-level integer is a Python int and may be wider — up to 128 bytes
#: of varint (895 bits and a sign).  Both ends enforce it, so the decoder
#: never shifts an attacker-sized big-int.
_MAX_INT_SHIFT = 7 * 127


class FrameError(EsdsError):
    """A frame failed to encode or decode."""


# --------------------------------------------------------------------------- #
# Endpoint-scoped descriptor tables                                           #
# --------------------------------------------------------------------------- #

class _HeldDescriptor(weakref.ref):
    """A table entry: a weak reference to a descriptor, with the
    ``(client, body bytes)`` it is filed under, the bytes of its operator
    (``None`` when it was spelled here, not parsed) and its ``id()`` (which
    can no longer be asked of it once it has died)."""

    __slots__ = ("key", "operator", "oid")


class DescriptorTable:
    """What one *endpoint* knows about spellings: the descriptors it holds,
    by their exact body bytes, and the body bytes of each descriptor it holds.

    An endpoint is one incarnation of a replica, or one client's connection
    set; every :class:`DescriptorWindow` of its links shares its table, which
    is how the table reaches the codec.  Three properties are the design:

    * **Per endpoint, never per process.**  A replica parses a descriptor
      once however many links relay it, and re-sends the bytes it received —
      which is all a machine of its own could do.  A process-wide table would
      parse once per *process*: a gain only a one-process cluster gets.
    * **Keyed by the exact bytes.**  A hit returns the object an earlier
      parse of those very bytes built, so it equals what a fresh parse would
      build: hostile bytes gain nothing, and an identifier re-sent with a
      different body is a different key.
    * **An entry lives exactly as long as its descriptor.**  Entries are weak:
      when the core has folded a descriptor away and the windows have
      forgotten it, the entry goes with it.  The table has no size.

    A parsed descriptor is also filed under its operator's bytes (the body's
    tail), under the same three rules: :meth:`operator` hands a later body
    with that tail the object the earlier parse built, so ``add(k)`` is
    parsed once per endpoint.

    The advert encode memo lives here under the same rules (see
    :meth:`advert_bytes`), so nothing the codec remembers is shared between
    endpoints.
    """

    __slots__ = (
        "_by_spelling", "_by_object", "_by_operator", "_adverts", "_forget", "__weakref__"
    )

    def __init__(self) -> None:
        self._by_spelling: Dict[Tuple[str, bytes], _HeldDescriptor] = {}
        #: Operator bytes -> the latest descriptor parsed with them.
        self._by_operator: Dict[bytes, _HeldDescriptor] = {}
        #: ``id(descriptor)`` -> its entry.  Sound as a key because the entry
        #: is removed by the descriptor's own death, before its ``id`` can be
        #: reused.
        self._by_object: Dict[int, _HeldDescriptor] = {}
        #: advert -> its encoded bytes (see :meth:`advert_bytes`).
        self._adverts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        # The callback reaches the table weakly: entries must not keep a
        # crashed incarnation's table alive through a reference cycle.
        this = weakref.ref(self)

        def forget(held: _HeldDescriptor) -> None:
            table = this()
            if table is not None:
                del table._by_object[held.oid]
                # An equal twin spelled later is held under the same bytes
                # but is not the filed entry.
                if table._by_spelling.get(held.key) is held:
                    del table._by_spelling[held.key]
                if table._by_operator.get(held.operator) is held:
                    del table._by_operator[held.operator]

        self._forget = forget

    def __len__(self) -> int:
        """Live descriptors this endpoint knows the bytes of."""
        return len(self._by_object)

    def find(self, client: str, body: bytes) -> Optional[OperationDescriptor]:
        """The live descriptor of *client* spelled *body*, if this endpoint
        holds one."""
        held = self._by_spelling.get((client, body))
        return None if held is None else held()

    def body_of(self, op: OperationDescriptor) -> Optional[bytes]:
        """The body bytes *op* arrived as or was spelled as, if known."""
        held = self._by_object.get(id(op))
        return None if held is None else held.key[1]

    def operator(self, spelling: bytes) -> Any:
        """The operator a live descriptor was parsed from *spelling* as, if any."""
        held = self._by_operator.get(spelling)
        op = None if held is None else held()
        return None if op is None else op.op

    def remember(
        self, op: OperationDescriptor, body: bytes, operator: Optional[bytes] = None
    ) -> None:
        """File *op* — just parsed from *body* (its operator from the
        *operator* bytes), or just spelled as it."""
        held = _HeldDescriptor(op, self._forget)
        held.key = key = (op.id.client, body)
        held.operator = operator
        held.oid = oid = id(op)
        self._by_object[oid] = held
        self._by_spelling.setdefault(key, held)
        if operator is not None:
            # The latest parse: descriptors die roughly oldest first.
            self._by_operator[operator] = held

    def advert_bytes(self, advert: CheckpointAdvert) -> bytes:
        """The encoding of *advert*, spelled once per advert.  An advert is
        immutable and encodes self-contained (no frame-table references), so
        its bytes are a function of the advert alone and the advert itself is
        the key.  A checkpoint builds its advert once, so a replica steadily
        re-advertising an unchanged checkpoint pays the encode once per
        checkpoint, not per gossip message; the entry goes when the advert
        does."""
        spelling = self._adverts.get(advert)
        if spelling is None:
            spelling = self._adverts[advert] = _spell_advert(advert)
        return spelling


# --------------------------------------------------------------------------- #
# Link-scoped descriptor windows                                              #
# --------------------------------------------------------------------------- #

#: Gossip messages a descriptor stays referable for after its first sight on
#: a connection.  It has to outlast ``full_state_interval`` (8: the periodic
#: full-state message re-names everything still tracked) plus the few rounds
#: a cumulative ack runs behind at saturation (un-acked deltas repeat).
WINDOW_MESSAGES = 12


class DescriptorWindow:
    """What one direction of one connection has already carried.

    Owned by the *link* — created with the connection, dropped with it — and
    never by the algorithm: "what I wrote on this connection before" is a
    sound basis only because the connection is reliable and FIFO, which the
    paper's channels are not (``repro.algorithm.delta`` cuts deltas from
    the *acked* send for that reason).  The two compose: the acked basis
    decides what knowledge travels, the window decides how each descriptor
    of it is spelled.

    Both ends hold the same two parallel lists, oldest first: the
    descriptors in first-sight order and, per descriptor, the last label a
    windowed label entry carried for it.  The window is sender-driven and
    self-sizing: every windowed gossip payload starts with ``drop``, the
    number of oldest entries both ends forget, and the sender forgets what
    it first sent :data:`WINDOW_MESSAGES` gossip messages ago — so the window
    is as large as the link is busy and no larger.  A distance that reaches
    outside it is a :class:`FrameError`.

    *table* is the :class:`DescriptorTable` of the endpoint this end of the
    connection belongs to; every frame encoded or decoded with the window
    goes through it, whatever its message kinds (a client link carries no
    gossip: its window stays empty and only brings the table along).  The
    three compose: the acked basis decides *what knowledge* travels, the
    window *whether* a descriptor is spelled on this connection, the table
    *what a spelling costs* this endpoint.  Without a table every full form
    is spelled and parsed afresh.
    """

    __slots__ = ("table", "ops", "labels", "start", "_index", "_marks")

    def __init__(self, table: Optional[DescriptorTable] = None) -> None:
        self.table = table
        self.ops: List[OperationDescriptor] = []
        self.labels: List[Optional[Label]] = []
        #: Entries forgotten so far: ``start + len(ops)`` counts every
        #: descriptor that ever crossed in full.
        self.start = 0
        # Sender side only: where each identifier's live entry sits (absolute
        # position) and where the window ended as each recent message began.
        self._index: Dict[OperationId, int] = {}
        self._marks: Deque[int] = deque()

    def forget(self, drop: int) -> None:
        """Forget the *drop* oldest entries (the receiver's half of the
        ``drop`` rule)."""
        if drop > len(self.ops):
            raise FrameError(f"drop of {drop} entries from a window of {len(self.ops)}")
        del self.ops[:drop]
        del self.labels[:drop]
        self.start += drop

    def open_message(self) -> int:
        """Sender: begin a gossip payload.  Forgets what was first sent
        :data:`WINDOW_MESSAGES` messages ago and returns how many entries
        that was — the payload's ``drop``."""
        marks = self._marks
        marks.append(self.start + len(self.ops))
        if len(marks) <= WINDOW_MESSAGES:
            return 0
        marks.popleft()
        drop = marks[0] - self.start
        index = self._index
        for position, op in enumerate(self.ops[:drop], self.start):
            # An identifier re-sent with a different descriptor moved on to
            # a later entry; only the live one is unindexed with its entry.
            if index.get(op.id) == position:
                del index[op.id]
        self.forget(drop)
        return drop

    def refer(self, op: OperationDescriptor) -> int:
        """Sender: the distance back to *op*, or 0 after appending it (first
        sight: the caller spells it in full)."""
        ops = self.ops
        end = self.start + len(ops)
        position = self._index.get(op.id)
        if position is not None:
            known = ops[position - self.start]
            if known is op or known == op:
                return end - position
        self._index[op.id] = end
        ops.append(op)
        self.labels.append(None)
        return 0

    def refer_label(self, op_id: OperationId, label: Label) -> int:
        """Sender: the head of a label entry — 0 when the operation is not in
        the window (the entry is spelled out), else ``distance << 1`` with
        the low bit set when *label* is the last one sent for that entry."""
        position = self._index.get(op_id)
        if position is None:
            return 0
        slot = position - self.start
        head = (len(self.ops) - slot) << 1
        last = self.labels[slot]
        if last is label or last == label:
            return head | 1
        self.labels[slot] = label
        return head


# --------------------------------------------------------------------------- #
# Varints                                                                     #
# --------------------------------------------------------------------------- #

def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    out = bytearray()
    _append_varint(out, value)
    return bytes(out)


def _append_varint(out: bytearray, value: int) -> None:
    """Append one unsigned LEB128 varint in place (the hot-path form: no
    per-varint ``bytes`` allocation)."""
    if value < 0:
        raise FrameError(f"varint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _append_str(out: bytearray, text: str) -> None:
    """Append one length-prefixed utf-8 string (self-contained, no table)."""
    raw = text.encode("utf-8")
    _append_varint(out, len(raw))
    out += raw


def zigzag(value: int) -> int:
    """Map signed integers onto unsigned ones (0, -1, 1, -2 -> 0, 1, 2, 3)."""
    return (value << 1) ^ (value >> (value.bit_length() + 1)) if value < 0 else value << 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# --------------------------------------------------------------------------- #
# Encoder                                                                     #
# --------------------------------------------------------------------------- #

def _value_bytes(value: Any) -> bytes:
    """The self-contained tagged encoding of one leaf value."""
    out = bytearray()
    _encode_value(out, value)
    return bytes(out)


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_V_NONE)
    elif value is INFINITY:
        out.append(_V_INFINITY)
    elif isinstance(value, bool):
        out.append(_V_TRUE if value else _V_FALSE)
    elif isinstance(value, int):
        encoded = zigzag(value)
        if encoded.bit_length() > _MAX_INT_SHIFT + 7:
            raise FrameError(f"integer of {value.bit_length()} bits is too wide for the wire")
        out.append(_V_INT)
        _append_varint(out, encoded)
    elif isinstance(value, float):
        out.append(_V_FLOAT)
        out += struct.pack(">d", value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_V_STR)
        _append_varint(out, len(raw))
        out += raw
    elif isinstance(value, bytes):
        out.append(_V_BYTES)
        _append_varint(out, len(value))
        out += value
    elif isinstance(value, Operator):
        out.append(_V_OPERATOR)
        _encode_value(out, value.name)
        _encode_value(out, value.args)
    elif isinstance(value, OperationId):
        out.append(_V_OPID)
        _encode_value(out, value.client)
        _append_varint(out, zigzag(value.seqno))
    elif isinstance(value, Label):
        out.append(_V_LABEL)
        _append_varint(out, zigzag(value.rank))
        _encode_value(out, value.replica)
    elif isinstance(value, tuple):
        out.append(_V_TUPLE)
        _append_varint(out, len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, (set, frozenset)):
        encoded = sorted(_value_bytes(item) for item in value)
        out.append(_V_SET if isinstance(value, frozenset) else _V_MUTSET)
        _append_varint(out, len(encoded))
        for item in encoded:
            out += item
    elif isinstance(value, dict):
        pairs = sorted(
            (_value_bytes(k), _value_bytes(v)) for k, v in value.items()
        )
        out.append(_V_DICT)
        _append_varint(out, len(pairs))
        for key, val in pairs:
            out += key
            out += val
    else:
        raise FrameError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def _spell_descriptor(op: OperationDescriptor) -> bytes:
    """The *body* of a descriptor's full form: seqno, ``prev count << 1 |
    strict`` (one varint), ``prev`` identifiers, operator value — last, so
    its bytes are the body's tail (see :meth:`DescriptorTable.operator`).  It
    holds no reference into any frame's identifier table — a ``prev``
    identifier spells its client inline, as a string whose length is sent
    plus one, 0 standing for the descriptor's own client (the usual case: a
    client chains on its own operations) — so the bytes are the same in
    every frame and can be remembered, compared and re-sent."""
    out = bytearray()
    op_id = op.id
    _append_varint(out, zigzag(op_id.seqno))
    prev = op.prev
    _append_varint(out, len(prev) << 1 | (1 if op.strict else 0))
    if prev:
        client = op_id.client
        for p in sorted(prev):
            if p.client == client:
                out.append(0)
            else:
                raw = p.client.encode("utf-8")
                _append_varint(out, len(raw) + 1)
                out += raw
            _append_varint(out, zigzag(p.seqno))
    _encode_value(out, op.op)
    return bytes(out)


class _Encoder:
    """Accumulates one frame: an interned identifier table plus payloads."""

    def __init__(self) -> None:
        self._table: Dict[str, int] = {}
        self._order: List[str] = []
        self.out = bytearray()
        #: The link's window for this frame; ``None`` encodes statelessly.
        self.window: Optional[DescriptorWindow] = None
        #: The window's endpoint table; ``None`` spells everything afresh.
        self.descriptors: Optional[DescriptorTable] = None

    def reset(self) -> None:
        """Make this encoder reusable for the next frame (pooling)."""
        self._table.clear()
        self._order.clear()
        del self.out[:]
        self.window = self.descriptors = None

    # -- primitives ----------------------------------------------------------

    def u(self, value: int) -> None:
        _append_varint(self.out, value)

    def s(self, value: int) -> None:
        _append_varint(self.out, zigzag(value))

    def byte(self, value: int) -> None:
        self.out.append(value & 0xFF)

    def ident(self, text: str) -> None:
        """A table-interned identifier reference."""
        index = self._table.get(text)
        if index is None:
            index = len(self._order)
            self._table[text] = index
            self._order.append(text)
        self.u(index)

    def value(self, value: Any) -> None:
        _encode_value(self.out, value)

    # -- domain pieces -------------------------------------------------------

    def op_id(self, op_id: OperationId) -> None:
        self.ident(op_id.client)
        self.s(op_id.seqno)

    def label(self, label: Label) -> None:
        self.s(label.rank)
        self.ident(label.replica)

    def operation(self, op: OperationDescriptor) -> None:
        """The full form: client reference, body length, body.  A descriptor
        whose body bytes the endpoint knows — it arrived as bytes, or was
        spelled once already — is appended verbatim."""
        self.ident(op.id.client)
        descriptors = self.descriptors
        if descriptors is None:
            body = _spell_descriptor(op)
        else:
            body = descriptors.body_of(op)
            if body is None:
                body = _spell_descriptor(op)
                descriptors.remember(op, body)
        out = self.out
        _append_varint(out, len(body))
        out += body

    def summary(self, summary: OpIdSummary) -> None:
        _append_ranges(self.out, summary.ranges, self.ident)

    def checkpoint(self, checkpoint: Checkpoint) -> None:
        self.value(checkpoint.base_state)
        if checkpoint.frontier is None:
            self.byte(0)
        else:
            self.byte(1)
            self.label(checkpoint.frontier)
        self.summary(checkpoint.ids)
        self.ident(checkpoint.order_digest)
        # The retained-value ledger is *insertion ordered* (oldest first) and
        # eviction depends on that order, so it is encoded as an ordered
        # sequence, not a sorted map.  Python dict order is insertion order:
        # deterministic for a given execution, independent of the hash seed.
        self.u(len(checkpoint.values))
        for op_id, value in checkpoint.values.items():
            self.op_id(op_id)
            self.value(value)

    def advert(self, advert: CheckpointAdvert) -> None:
        descriptors = self.descriptors
        self.out += (
            _spell_advert(advert) if descriptors is None else descriptors.advert_bytes(advert)
        )


def _spell_advert(advert: CheckpointAdvert) -> bytes:
    """An advert, self-contained: length-prefixed strings instead of frame
    table references, so the bytes are frame-independent (see
    :meth:`DescriptorTable.advert_bytes`)."""
    out = bytearray()
    _append_varint(out, zigzag(advert.frontier.rank))
    _append_str(out, advert.frontier.replica)
    _append_str(out, advert.digest)
    _append_str(out, advert.order_digest)
    _append_ranges(out, advert.ids.ranges, lambda client: _append_str(out, client))
    return bytes(out)


def _append_ranges(out: bytearray, ranges: Dict[str, Any], client) -> None:
    """Per-client seqno intervals as delta varints (the packing that keeps
    adverts at a few bytes per client); ``client(name)`` appends a name."""
    _append_varint(out, len(ranges))
    for name, intervals in sorted(ranges.items()):
        client(name)
        _append_varint(out, len(intervals))
        prev_hi: Optional[int] = None
        for lo, hi in intervals:
            if prev_hi is None:
                _append_varint(out, zigzag(lo))
            else:
                # Normalized intervals are disjoint and non-adjacent:
                # lo >= prev_hi + 2, so the gap below is non-negative.
                _append_varint(out, lo - prev_hi - 2)
            _append_varint(out, hi - lo)
            prev_hi = hi


# --------------------------------------------------------------------------- #
# Per-kind message bodies                                                     #
# --------------------------------------------------------------------------- #

def _encode_request(enc: _Encoder, message: RequestMessage) -> None:
    enc.operation(message.operation)


def _encode_response(enc: _Encoder, message: ResponseMessage) -> None:
    flags = (1 if message.stale else 0) | (2 if message.sender is not None else 0)
    enc.byte(flags)
    enc.operation(message.operation)
    enc.value(message.value)
    if message.sender is not None:
        enc.ident(message.sender)


_G_DELTA = 1
_G_SEQNO = 2
_G_ACK = 4
_G_CHECKPOINT = 8
_G_ADVERT = 16
_G_SENT_AT = 32
#: The payload is spelled against the link's :class:`DescriptorWindow`.
_G_WINDOW = 64


def _membership_regions(received, done, stable):
    """``(code, region)`` for the non-empty regions of ``received ∪ done ∪
    stable``, where *code* has bit 1 for received, 2 for done, 4 for stable."""
    rd = received & done
    regions = (
        (1, received - done - stable),
        (2, done - received - stable),
        (3, rd - stable),
        (4, stable - received - done),
        (5, (received & stable) - done),
        (6, (done & stable) - received),
        (7, rd & stable),
    )
    return [(code, region) for code, region in regions if region]


def _encode_gossip(enc: _Encoder, message: GossipMessage) -> None:
    window = enc.window
    flags = 0 if window is None else _G_WINDOW
    if message.is_delta:
        flags |= _G_DELTA
    if message.seqno is not None:
        flags |= _G_SEQNO
    if message.ack is not None:
        flags |= _G_ACK
    if message.checkpoint is not None:
        flags |= _G_CHECKPOINT
    if message.advert is not None:
        flags |= _G_ADVERT
    if message.sent_at is not None:
        flags |= _G_SENT_AT
    enc.byte(flags)
    if window is not None:
        enc.u(window.open_message())
    enc.ident(message.sender)
    enc.u(message.epoch)
    enc.u(message.stream)
    if message.seqno is not None:
        enc.u(message.seqno)
    if message.ack is not None:
        enc.u(message.ack)
        enc.u(message.ack_epoch or 0)
        enc.u(message.ack_stream or 0)

    # One union of descriptors with a membership byte each: the three sets
    # overlap almost completely (done and stable are subsets of the sender's
    # knowledge), so each descriptor is encoded exactly once.  The union is
    # the concatenation of its disjoint membership regions, cut by set
    # algebra that reuses the hashes the sets store.  A link frame writes
    # the regions, and the labels, in the order they come: only a frame
    # without a window is canonical (digests, the wire twin, the corpus),
    # and it argsorts the union by id, each entry's code riding along.
    regions = _membership_regions(message.received, message.done, message.stable)
    labels = message.labels
    if window is None:
        ops: List[OperationDescriptor] = []
        codes: List[int] = []
        for code, region in regions:
            ops.extend(region)
            codes.extend([code] * len(region))
        # Identifiers are tuples: ``(client, seqno)``, compared in C.
        ids = [op.id for op in ops]
        enc.u(len(ops))
        for i in sorted(range(len(ops)), key=ids.__getitem__):
            enc.operation(ops[i])
            enc.byte(codes[i])
        enc.u(len(labels))
        for op_id in sorted(labels):
            enc.op_id(op_id)
            enc.label(labels[op_id])
    else:
        enc.u(sum(len(region) for _code, region in regions))
        for code, region in regions:
            for op in region:
                distance = window.refer(op)
                enc.u(distance)
                if not distance:
                    enc.operation(op)
                enc.byte(code)
        enc.u(len(labels))
        for op_id, label in labels.items():
            head = window.refer_label(op_id, label)
            enc.u(head)
            if not head:
                enc.op_id(op_id)
            if not head & 1:
                enc.label(label)

    if message.checkpoint is not None:
        enc.checkpoint(message.checkpoint)
    if message.advert is not None:
        enc.advert(message.advert)
    if message.sent_at is not None:
        enc.out += struct.pack(">d", message.sent_at)


def _encode_pull(enc: _Encoder, message: PullRequestMessage) -> None:
    enc.byte(1 if message.have_frontier is not None else 0)
    enc.ident(message.requester)
    enc.ident(message.target)
    enc.ident(message.digest)
    enc.label(message.frontier)
    if message.have_frontier is not None:
        enc.label(message.have_frontier)


def _encode_transfer(enc: _Encoder, message: CheckpointTransferMessage) -> None:
    enc.ident(message.sender)
    enc.ident(message.requester)
    enc.ident(message.digest)
    enc.ident(message.order_digest)
    enc.label(message.frontier)
    enc.summary(message.ids)
    # The retained values keep the ledger's insertion order (retention
    # eviction depends on it) — ordered pairs, like the checkpoint.
    enc.u(len(message.values))
    for op_id, value in message.values.items():
        enc.op_id(op_id)
        enc.value(value)
    enc.value(message.base_state)


_ENCODERS = {
    _K_REQUEST: _encode_request,
    _K_RESPONSE: _encode_response,
    _K_GOSSIP: _encode_gossip,
    _K_PULL: _encode_pull,
    _K_TRANSFER: _encode_transfer,
}


# --------------------------------------------------------------------------- #
# Frame assembly                                                              #
# --------------------------------------------------------------------------- #

#: Pooled frame encoders: encoder objects (intern table, payload buffer) and
#: frame buffers are reused across frames instead of re-created per call
#: (asyncio runs the send loops on one thread; a concurrent encode simply
#: misses the pool and pays a fresh allocation, so reentrancy is safe, just
#: unpooled).
_ENCODER_POOL: List[Tuple[_Encoder, bytearray]] = []


def encode_frame_detailed(
    messages: Sequence[Any], window: Optional[DescriptorWindow] = None
) -> Tuple[bytes, List[int]]:
    """Like :func:`encode_frame`, also returning each message's encoded
    payload length — the runtime attributes coalesced-frame bytes to message
    kinds with these (the shared magic/table/length overhead is counted as
    framing, not against any kind)."""
    enc, frame = _ENCODER_POOL.pop() if _ENCODER_POOL else (_Encoder(), bytearray())
    if window is not None:
        enc.window = window
        enc.descriptors = window.table
    try:
        spans: List[Tuple[int, int]] = []
        for message in messages:
            tag = _KIND_TAGS.get(getattr(message, "kind", None))
            if tag is None:
                raise FrameError(
                    f"cannot encode message of type {type(message).__name__}"
                )
            start = len(enc.out)
            enc.byte(tag)
            _ENCODERS[tag](enc, message)
            spans.append((start, len(enc.out)))

        frame += MAGIC
        frame.append(WIRE_VERSION)
        _append_varint(frame, len(enc._order))
        for text in enc._order:
            _append_str(frame, text)
        _append_varint(frame, len(spans))
        # One copy per payload, straight from the shared payload buffer into
        # the frame buffer — no intermediate per-payload ``bytes``.
        with memoryview(enc.out) as body:
            for start, end in spans:
                _append_varint(frame, end - start)
                frame += body[start:end]
        return bytes(frame), [end - start for start, end in spans]
    finally:
        enc.reset()
        del frame[:]
        if len(_ENCODER_POOL) < 4:
            _ENCODER_POOL.append((enc, frame))


def encode_frame(messages: Sequence[Any], window: Optional[DescriptorWindow] = None) -> bytes:
    """Encode *messages* (protocol message objects) into one frame.

    Several messages to the same destination share one frame (and one
    interned table) — the runtime's coalescing path; the deterministic wire
    harness sends one message per frame for exact per-kind byte attribution.

    With *window* (the sending half of a connection's
    :class:`DescriptorWindow`) gossip payloads are spelled against it and
    advance it: the frame must then be written to that connection, in
    order, or the connection dropped.  Without one the frame is stateless
    and canonical.
    """
    return encode_frame_detailed(messages, window)[0]


def encode_message(message: Any) -> bytes:
    """A single-message frame (the canonical encoding of one message)."""
    return encode_frame([message])


def frame_digest(frame: bytes) -> str:
    """Short sha-256 content digest of an encoded frame."""
    return hashlib.sha256(frame).hexdigest()[:16]


def message_digest(message: Any) -> str:
    """Content digest of one message, over its canonical encoding.  Stable
    across processes and ``PYTHONHASHSEED`` values (every set is sorted
    before encoding)."""
    return frame_digest(encode_message(message))


# --------------------------------------------------------------------------- #
# Decoder                                                                     #
# --------------------------------------------------------------------------- #

#: The ``prev`` of a descriptor that names no predecessor — most of them.
#: One shared object instead of a fresh empty frozenset per decoded descriptor.
_NO_PREV: FrozenSet[OperationId] = frozenset()

#: ``_new_tuple(OperationId, (client, seqno))`` builds a value object in C,
#: skipping ``_make``'s Python-level length check (the decoder always hands
#: over exactly the fields).
_new_tuple = tuple.__new__


class _Decoder:
    def __init__(
        self,
        data,
        table: Sequence[str],
        pos: int = 0,
        window: Optional[DescriptorWindow] = None,
    ) -> None:
        self.data = data
        self.table = table
        self.pos = pos
        #: The link's window; ``None`` on a stateless decode.
        self.window = window
        #: The window's endpoint table; ``None`` parses everything afresh.
        self.descriptors = None if window is None else window.table
        #: The operator bytes of the last body parsed through the table.
        self.operator_bytes: Optional[bytes] = None

    # -- primitives ----------------------------------------------------------

    def u(self, max_shift: int = _MAX_VARINT_SHIFT) -> int:
        data = self.data
        pos = self.pos
        try:
            byte = data[pos]
            if byte < 0x80:
                self.pos = pos + 1
                return byte
            result = byte & 0x7F
            shift = 7
            while True:
                pos += 1
                byte = data[pos]
                if byte < 0x80:
                    self.pos = pos + 1
                    return result | (byte << shift)
                result |= (byte & 0x7F) << shift
                shift += 7
                # Only a continuation byte gets here: the bound costs the
                # one-byte varints (nearly all of them) nothing, and keeps a
                # run of 0xFF from growing a big-int shift by shift.
                if shift > max_shift:
                    raise FrameError(f"varint longer than {max_shift // 7 + 1} bytes")
        except IndexError:
            raise FrameError("truncated varint") from None

    def s(self) -> int:
        return unzigzag(self.u())

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise FrameError("truncated byte")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def raw(self, n: int):
        """A run of *n* raw bytes.  When the decoder reads a ``memoryview``
        (the zero-copy frame path) the run is a *view*, not a copy — callers
        that must own their bytes convert at the leaf."""
        if self.pos + n > len(self.data):
            raise FrameError("truncated bytes")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def text(self) -> str:
        """One self-contained length-prefixed utf-8 string (no table)."""
        return str(self.raw(self.u()), "utf-8")

    def ident(self) -> str:
        index = self.u()
        if index >= len(self.table):
            raise FrameError(f"identifier reference {index} outside table")
        return self.table[index]

    def value(self) -> Any:
        tag = self.byte()
        if tag == _V_NONE:
            return None
        if tag == _V_INFINITY:
            return INFINITY
        if tag == _V_FALSE:
            return False
        if tag == _V_TRUE:
            return True
        if tag == _V_INT:
            return unzigzag(self.u(_MAX_INT_SHIFT))
        if tag == _V_FLOAT:
            return struct.unpack(">d", self.raw(8))[0]
        if tag == _V_STR:
            return str(self.raw(self.u()), "utf-8")
        if tag == _V_BYTES:
            return bytes(self.raw(self.u()))
        if tag == _V_OPERATOR:
            name = self.value()
            args = self.value()
            return Operator(name, args)
        if tag == _V_OPID:
            client = self.value()
            return OperationId(client, self.s())
        if tag == _V_LABEL:
            rank = self.s()
            return Label(rank, self.value())
        if tag == _V_TUPLE:
            return tuple(self.value() for _ in range(self.u()))
        if tag == _V_SET:
            return frozenset(self.value() for _ in range(self.u()))
        if tag == _V_MUTSET:
            return {self.value() for _ in range(self.u())}
        if tag == _V_DICT:
            return {self.value(): self.value() for _ in range(self.u())}
        raise FrameError(f"unknown value tag {tag}")

    # -- domain pieces -------------------------------------------------------

    def op_id(self) -> OperationId:
        return _new_tuple(OperationId, (self.ident(), self.s()))

    def label(self) -> Label:
        return _new_tuple(Label, (self.s(), self.ident()))

    def operation(self) -> OperationDescriptor:
        """The full form.  When the endpoint already holds a descriptor of
        this client with these exact body bytes — seen on another link, or
        in the client's request — the body is skipped and that object
        returned: no parse, no new object."""
        client = self.ident()
        length = self.u()
        start = self.pos
        end = start + length
        if end > len(self.data):
            raise FrameError("descriptor body runs past the end of the frame")
        descriptors = self.descriptors
        if descriptors is None:
            return self.descriptor_body(client, end)
        body = bytes(self.data[start:end])
        op = descriptors.find(client, body)
        if op is None:
            op = self.descriptor_body(client, end)
            descriptors.remember(op, body, self.operator_bytes)
        else:
            self.pos = end
        return op

    def descriptor_body(self, client: str, end: int) -> OperationDescriptor:
        """Parse one descriptor body in place (mirrors :func:`_spell_descriptor`);
        it must end exactly at *end*.  With a table, the operator (the tail,
        kept in ``operator_bytes``) is looked up by its bytes before a parse."""
        seqno = self.s()
        head = self.u()
        prev = frozenset([self.prev_id(client) for _ in range(head >> 1)]) if head > 1 else _NO_PREV
        descriptors = self.descriptors
        op = None
        if descriptors is not None:
            self.operator_bytes = tail = bytes(self.data[self.pos : end])
            op = descriptors.operator(tail)
        if op is None:
            op = self.value()
        else:
            self.pos = end
        if self.pos != end:
            raise FrameError(
                f"descriptor body ends {self.pos - end:+d} bytes off its declared length"
            )
        return OperationDescriptor(
            op, _new_tuple(OperationId, (client, seqno)), prev, bool(head & 1)
        )

    def prev_id(self, own: str) -> OperationId:
        """One ``prev`` identifier of a descriptor of client *own*."""
        length = self.u()
        client = sys.intern(str(self.raw(length - 1), "utf-8")) if length else own
        return _new_tuple(OperationId, (client, self.s()))

    def summary(self, client=None) -> OpIdSummary:
        """Mirrors :func:`_append_ranges`; ``client()`` reads a name (by
        default a table reference)."""
        client = client or self.ident
        ranges: Dict[str, List[Tuple[int, int]]] = {}
        for _ in range(self.u()):
            name = client()
            intervals: List[Tuple[int, int]] = []
            prev_hi: Optional[int] = None
            for _ in range(self.u()):
                lo = self.s() if prev_hi is None else prev_hi + 2 + self.u()
                hi = lo + self.u()
                intervals.append((lo, hi))
                prev_hi = hi
            ranges[name] = intervals
        return OpIdSummary(ranges)

    def checkpoint(self) -> Checkpoint:
        base_state = self.value()
        frontier = self.label() if self.byte() else None
        ids = self.summary()
        order_digest = self.ident()
        values = {self.op_id(): self.value() for _ in range(self.u())}
        return Checkpoint(
            base_state=base_state,
            frontier=frontier,
            ids=ids,
            values=values,
            order_digest=order_digest,
        )

    def advert(self) -> CheckpointAdvert:
        # Self-contained strings, mirroring ``_spell_advert``.
        frontier = _new_tuple(Label, (self.s(), self.text()))
        digest = self.text()
        order_digest = self.text()
        return CheckpointAdvert(
            frontier=frontier,
            digest=digest,
            ids=self.summary(self.text),
            order_digest=order_digest,
        )


def _decode_request(dec: _Decoder) -> RequestMessage:
    return RequestMessage(operation=dec.operation())


def _decode_response(dec: _Decoder) -> ResponseMessage:
    flags = dec.byte()
    operation = dec.operation()
    value = dec.value()
    sender = dec.ident() if flags & 2 else None
    return ResponseMessage(operation=operation, value=value, stale=bool(flags & 1), sender=sender)


def _members(sets: List[FrozenSet[OperationDescriptor]], bit: int) -> FrozenSet[OperationDescriptor]:
    """The union of the membership groups whose code carries *bit*."""
    parts = [group for code, group in enumerate(sets) if code & bit and group]
    if len(parts) == 1:
        return parts[0]
    return frozenset().union(*parts)


def _decode_gossip(dec: _Decoder) -> GossipMessage:
    flags = dec.byte()
    ops = last_labels = None
    if flags & _G_WINDOW:
        window = dec.window
        if window is None:
            raise FrameError("windowed gossip payload on a link without a window")
        window.forget(dec.u())
        ops, last_labels = window.ops, window.labels
    sender = dec.ident()
    epoch = dec.u()
    stream = dec.u()
    seqno = dec.u() if flags & _G_SEQNO else None
    ack = ack_epoch = ack_stream = None
    if flags & _G_ACK:
        ack = dec.u()
        ack_epoch = dec.u()
        ack_stream = dec.u()

    # Entries grouped by membership code: each group is hashed once, and the
    # three sets are unions of groups (which reuse the stored hashes).
    groups: Tuple[List[OperationDescriptor], ...] = ([], [], [], [], [], [], [], [])
    for _ in range(dec.u()):
        distance = dec.u() if ops is not None else 0
        if distance:
            # Back-reference: the object decoded at first sight, no parse.
            if distance > len(ops):
                raise FrameError(f"descriptor reference {distance} outside the window")
            op = ops[-distance]
        else:
            op = dec.operation()
            if ops is not None:
                ops.append(op)
                last_labels.append(None)
        groups[dec.byte() & 7].append(op)
    sets = [frozenset(group) for group in groups]

    labels: Dict[OperationId, Label] = {}
    for _ in range(dec.u()):
        head = dec.u() if ops is not None else 0
        if not head:
            op_id = dec.op_id()
            label = dec.label()
        else:
            distance = head >> 1
            if not 0 < distance <= len(ops):
                raise FrameError(f"label reference {distance} outside the window")
            op_id = ops[-distance].id
            if head & 1:
                label = last_labels[-distance]
                if label is None:
                    raise FrameError("label marked unchanged for an entry that never had one")
            else:
                label = last_labels[-distance] = dec.label()
        labels[op_id] = label

    checkpoint = dec.checkpoint() if flags & _G_CHECKPOINT else None
    advert = dec.advert() if flags & _G_ADVERT else None
    sent_at = struct.unpack(">d", dec.raw(8))[0] if flags & _G_SENT_AT else None
    return GossipMessage(
        sender=sender,
        received=_members(sets, 1),
        done=_members(sets, 2),
        labels=labels,
        stable=_members(sets, 4),
        epoch=epoch,
        stream=stream,
        seqno=seqno,
        ack=ack,
        ack_epoch=ack_epoch,
        ack_stream=ack_stream,
        is_delta=bool(flags & _G_DELTA),
        basis=None,  # never transmitted; the receiver already holds it
        checkpoint=checkpoint,
        advert=advert,
        sent_at=sent_at,
    )


def _decode_pull(dec: _Decoder) -> PullRequestMessage:
    flags = dec.byte()
    requester = dec.ident()
    target = dec.ident()
    digest = dec.ident()
    frontier = dec.label()
    have_frontier = dec.label() if flags & 1 else None
    return PullRequestMessage(
        requester=requester,
        target=target,
        digest=digest,
        frontier=frontier,
        have_frontier=have_frontier,
    )


def _decode_transfer(dec: _Decoder) -> CheckpointTransferMessage:
    sender = dec.ident()
    requester = dec.ident()
    digest = dec.ident()
    order_digest = dec.ident()
    frontier = dec.label()
    ids = dec.summary()
    values = {dec.op_id(): dec.value() for _ in range(dec.u())}
    return CheckpointTransferMessage(
        sender=sender,
        requester=requester,
        digest=digest,
        frontier=frontier,
        ids=ids,
        values=values,
        base_state=dec.value(),
        order_digest=order_digest,
    )


_DECODERS = {
    _K_REQUEST: _decode_request,
    _K_RESPONSE: _decode_response,
    _K_GOSSIP: _decode_gossip,
    _K_PULL: _decode_pull,
    _K_TRANSFER: _decode_transfer,
}


def decode_frame(frame, window: Optional[DescriptorWindow] = None) -> List[Any]:
    """Decode one frame (any bytes-like object) back into its message
    objects.  Decoding runs over one ``memoryview`` of the input: interior
    runs are sliced as views, so nothing is copied except the leaves that
    must own their bytes (strings, ``bytes`` values).

    *window* is the receiving half of the connection's
    :class:`DescriptorWindow`; without one a windowed payload is rejected.

    The bytes come from outside the program, so **every** failure leaves as
    :class:`FrameError`: a flipped byte can make a string invalid UTF-8, a
    mutable set a dict key, a nested tuple a recursion bomb — the read loops
    catch ``EsdsError``, and an exception of any other type would escape
    their task uncounted.  One ``try`` around the frame, nothing per value.
    """
    try:
        return _decode_frame(frame, window)
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(f"malformed frame ({type(exc).__name__}: {exc})") from exc


def _decode_frame(frame, window: Optional[DescriptorWindow]) -> List[Any]:
    data = frame if isinstance(frame, memoryview) else memoryview(frame)
    if len(data) < 3 or data[:2] != MAGIC:
        raise FrameError("not a wire frame (bad magic)")
    if data[2] != WIRE_VERSION:
        raise FrameError(f"wire version {data[2]}, this codec understands {WIRE_VERSION}")
    head = _Decoder(data, (), pos=3)
    # Interned: every OperationId / Label of a client or replica, in every
    # frame, shares one ``str``.
    table = [sys.intern(head.text()) for _ in range(head.u())]
    dec = _Decoder(data, table, pos=head.pos, window=window)
    messages: List[Any] = []
    for _ in range(dec.u()):
        length = dec.u()
        end = dec.pos + length
        if end > len(data):
            raise FrameError("truncated message payload")
        tag = dec.byte()
        decoder = _DECODERS.get(tag)
        if decoder is None:
            raise FrameError(f"unknown message kind tag {tag}")
        messages.append(decoder(dec))
        if dec.pos != end:
            raise FrameError(
                f"message payload length mismatch (declared {length}, "
                f"consumed {dec.pos - (end - length)})"
            )
    if dec.pos != len(data):
        raise FrameError(f"{len(data) - dec.pos} trailing bytes after last message")
    return messages
