"""Message types exchanged by the algorithm (Section 6.1).

Three message sets are used:

* ``M_req``  — ``("request", x)`` from a front end to a replica;
* ``M_resp`` — ``("response", x, v)`` from a replica to a front end;
* ``M_gossip`` — ``("gossip", R, D, L, S)`` between replicas, where ``R`` is
  the sender's received set, ``D`` its done set, ``L`` its label function and
  ``S`` its stable set.

Gossip label functions are represented sparsely: identifiers absent from
``labels`` implicitly map to ``INFINITY`` ("no label seen").

A gossip message may be *full* (the paper's message: the sender's entire
knowledge) or a *delta* (the Section 10.4 optimization): only the part of the
sender's knowledge not already acknowledged by the destination, plus the
``epoch``/``seqno``/``ack`` bookkeeping described in
:mod:`repro.algorithm.delta`.  A delta message also keeps a (non-transmitted)
reference to the acknowledged ``basis`` snapshot it was computed against, so
that the invariant checkers and the derived ``mc_r(m)`` constraints can be
evaluated on the *effective* message ``delta ∪ basis`` — the knowledge the
message actually conveys, which the receiver reconstructs for free because it
already holds the basis.

With advert/pull gossip (:meth:`repro.algorithm.replica.ReplicaCore.
configure_advert_gossip`) the gossip message carries a compact
:class:`~repro.algorithm.checkpoint.CheckpointAdvert` instead of the
checkpoint body, and two further replica-to-replica message types complete
the protocol: a :class:`PullRequestMessage` from a peer that detected it is
behind the advertised frontier, and the :class:`CheckpointTransferMessage`
chunks that answer it.  They travel on the same gossip channels; harnesses
dispatch on ``message.kind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional

from repro.algorithm.checkpoint import Checkpoint, CheckpointAdvert, OpIdSummary
from repro.algorithm.delta import GossipSnapshot
from repro.algorithm.labels import Label, LabelOrInfinity
from repro.common import INFINITY, OperationId
from repro.core.operations import OperationDescriptor


@dataclass(frozen=True)
class RequestMessage:
    """A ``("request", x)`` message from a front end to a replica."""

    operation: OperationDescriptor

    @property
    def kind(self) -> str:
        return "request"


@dataclass(frozen=True)
class ResponseMessage:
    """A ``("response", x, v)`` message from a replica to a front end.

    ``stale`` marks the NACK variant: the replica compacted the operation and
    its retained value has aged out of the ledger (finite
    ``CompactionPolicy.value_retention``), so this replica can provably never
    answer the retransmitted request.  ``sender`` identifies the NACKing
    replica — a front end declares the operation failed only once *every*
    replica has NACKed it (eviction of a compacted value is permanent, so
    the set of NACKs can only grow).
    """

    operation: OperationDescriptor
    value: Any
    stale: bool = False
    sender: Optional[str] = None

    @property
    def kind(self) -> str:
        return "response"


@dataclass
class GossipMessage:
    """A ``("gossip", R, D, L, S)`` message between replicas.

    ``sender`` is recorded for routing and for the per-sender bookkeeping the
    receiving replica performs (``done_r[r']``, ``stable_r[r']``).

    The remaining fields support delta gossip and are absent (``None`` /
    ``False``) on the paper's plain full-state messages:

    * ``epoch`` — the sender's incarnation number (bumped on a crash with
      volatile memory; kept in stable storage);
    * ``stream`` / ``seqno`` — per-destination stream id and send sequence
      number within it (the stream restarts when the sender abandons it,
      e.g. after observing the destination's crash);
    * ``ack`` / ``ack_epoch`` / ``ack_stream`` — cumulative acknowledgement
      of the destination's own gossip: every message ``1..ack`` of the
      destination's incarnation ``ack_epoch``, stream ``ack_stream``, has
      been received (or was subsumed by a received full-state message);
    * ``is_delta`` — whether ``received``/``done``/``labels``/``stable`` hold
      only the difference against the acknowledged ``basis``;
    * ``basis`` — sender-side reference to the acknowledged snapshot the
      delta was computed against.  It is **not** part of the wire payload
      (the receiver provably already holds it); it exists so invariants and
      message constraints can be checked against the effective knowledge;
    * ``checkpoint`` — the sender's compaction checkpoint
      (:class:`~repro.algorithm.checkpoint.Checkpoint`), attached to
      full-state messages and to deltas whose frontier advanced past the
      acked basis.  It is the catch-up payload for a peer behind the
      frontier: the payload sets above cover only the suffix, and a receiver
      missing part of the compacted prefix adopts the checkpoint wholesale
      instead of a full-history replay.
    * ``advert`` — the advert/pull replacement for ``checkpoint``: a compact
      :class:`~repro.algorithm.checkpoint.CheckpointAdvert` (frontier,
      digest, interval summary) attached under the same conditions.  A
      receiver that is behind pulls the body on demand instead of having it
      shipped eagerly, so the steady-state payload stays bounded.  At most
      one of ``checkpoint`` / ``advert`` is set.
    * ``sent_at`` — the sender's *local-clock* send timestamp, stamped by the
      transport.  Purely observational (lag metrics, the clock-skew
      adversary): the algorithm is asynchronous and never reads it, so a
      skewed or absent timestamp cannot affect correctness.
    """

    sender: str
    received: FrozenSet[OperationDescriptor]
    done: FrozenSet[OperationDescriptor]
    labels: Dict[OperationId, Label] = field(default_factory=dict)
    stable: FrozenSet[OperationDescriptor] = field(default_factory=frozenset)
    epoch: int = 0
    stream: int = 0
    seqno: Optional[int] = None
    ack: Optional[int] = None
    ack_epoch: Optional[int] = None
    ack_stream: Optional[int] = None
    is_delta: bool = False
    basis: Optional[GossipSnapshot] = None
    checkpoint: Optional[Checkpoint] = None
    advert: Optional[CheckpointAdvert] = None
    sent_at: Optional[float] = None

    @property
    def kind(self) -> str:
        return "gossip"

    def label_of(self, op_id: OperationId) -> LabelOrInfinity:
        """``L_m(id)`` with the sparse-infinity convention.

        For a delta message this is the *effective* label: the delta's entry
        when present (it is never larger than the basis's), otherwise the
        basis's entry — i.e. exactly the label a full message sent at the
        same instant would have carried.
        """
        label = self.labels.get(op_id)
        if label is not None:
            return label
        if self.basis is not None:
            return self.basis.labels.get(op_id, INFINITY)
        return INFINITY

    # -- effective (delta ∪ basis) views --------------------------------------

    def effective_received(self) -> FrozenSet[OperationDescriptor]:
        """``R`` of the equivalent full message."""
        if self.basis is None:
            return self.received
        return self.received | self.basis.received

    def effective_done(self) -> FrozenSet[OperationDescriptor]:
        """``D`` of the equivalent full message."""
        if self.basis is None:
            return self.done
        return self.done | self.basis.done

    def effective_stable(self) -> FrozenSet[OperationDescriptor]:
        """``S`` of the equivalent full message."""
        if self.basis is None:
            return self.stable
        return self.stable | self.basis.stable

    def effective_labels(self) -> Dict[OperationId, Label]:
        """``L`` of the equivalent full message (basis overridden by delta)."""
        if self.basis is None:
            return dict(self.labels)
        merged = dict(self.basis.labels)
        merged.update(self.labels)
        return merged

    def effective_checkpoint(self) -> Optional[Checkpoint]:
        """The checkpoint *body* this message conveys: the attached one (sent
        when the frontier advanced) or, for a delta, the acknowledged
        basis's — the receiver provably already holds that one.  An advert is
        deliberately **not** a body: it becomes knowledge at the receiver
        only once the pull it triggers completes, so advert-mode messages
        convey at most the basis's checkpoint here."""
        if self.checkpoint is not None:
            return self.checkpoint
        if self.basis is not None:
            return self.basis.checkpoint
        return None

    def coverage(self):
        """The checkpoint *coverage* attached to this message — the body or
        the advert, whichever travels (both expose ``covers`` / ``frontier``
        / ``count``).  Used by structural sender-side invariant checks; for
        receiver-side effective-knowledge evaluation use
        :meth:`effective_checkpoint`, which excludes adverts."""
        return self.checkpoint if self.checkpoint is not None else self.advert

    def size_estimate(self) -> int:
        """A crude wire-size metric (number of operation references carried),
        used by the message-overhead benchmarks (E8/E11).  Counts only
        transmitted fields — a delta's basis is never transmitted; an
        attached checkpoint body is (one state blob plus its interval summary
        and retained values), while an advert costs only its frontier, digest
        and interval summary."""
        size = len(self.received) + len(self.done) + len(self.labels) + len(self.stable)
        if self.checkpoint is not None:
            size += self.checkpoint.wire_estimate()
        if self.advert is not None:
            size += self.advert.wire_estimate()
        return size


@dataclass(frozen=True)
class PullRequestMessage:
    """A catch-up request from a replica that received a
    :class:`~repro.algorithm.checkpoint.CheckpointAdvert` covering
    identifiers it neither tracks nor has compacted.

    ``requester`` is the behind replica, ``target`` the advertiser it pulls
    from.  ``digest`` / ``frontier`` echo the advert that triggered the pull
    — ``digest`` is that advert's fold *identity*
    (:meth:`~repro.algorithm.checkpoint.Checkpoint.identity`), not a content
    hash; the target answers with its *current* checkpoint (which is nested
    over the advertised one — compaction only ever extends the frozen
    prefix) and never compares the echoed identity with anything, so one
    that has moved on by the time the pull arrives is not an error.
    ``have_frontier`` is the requester's own frontier, carried for
    diagnostics and symmetry with real catch-up protocols.
    """

    requester: str
    target: str
    digest: str
    frontier: Label
    have_frontier: Optional[Label] = None

    @property
    def kind(self) -> str:
        return "pull"

    def size_estimate(self) -> int:
        """Pulls are constant-size control messages."""
        return 3


@dataclass(frozen=True)
class CheckpointTransferMessage:
    """One chunk of a checkpoint body answering a pull request.

    The retained-value ledger is split into label-order slices (contiguous
    client-interval ranges of the folded identifiers) of at most the
    sender's configured chunk size; every chunk repeats the transfer
    header (``digest``, ``frontier``, ``ids``, ``order_digest``,
    ``chunk_count``) so chunks can arrive in any order and partial transfers
    are resumable across re-pulls, and only the **final** assembly needs the
    ``base_state`` blob, carried by the last chunk
    (``chunk_index == chunk_count - 1``).  ``digest`` is the sender's
    *content* digest (:meth:`~repro.algorithm.checkpoint.Checkpoint.digest`,
    computed when the body is cut into chunks): the receiver recomputes it
    over the assembled checkpoint and rejects a mismatch.

    ``epoch`` is the sender's incarnation at send time: a receiver that
    observes a newer epoch from the sender discards its partial assembly
    (the retry path re-pulls from the recovered sender, whose persisted
    checkpoint survives the crash).
    """

    sender: str
    requester: str
    epoch: int
    digest: str
    frontier: Label
    ids: OpIdSummary
    values_chunk: Dict[OperationId, Any]
    chunk_index: int
    chunk_count: int
    base_state: Any = None
    #: The checkpoint's chained fold-order digest, repeated on every chunk
    #: like the rest of the transfer identity (the assembled checkpoint's
    #: content digest covers it, so a corrupted value is rejected with the
    #: body).
    order_digest: str = ""

    @property
    def kind(self) -> str:
        return "transfer"

    @property
    def carries_state(self) -> bool:
        return self.chunk_index == self.chunk_count - 1

    def size_estimate(self) -> int:
        """Wire-size contribution of one chunk: its value slice, plus the
        interval summary repeated for identity, plus the state blob on the
        final chunk."""
        size = 1 + self.ids.interval_count + len(self.values_chunk)
        if self.carries_state:
            size += 1
        return size


def checkpoint_transfers(
    checkpoint: Checkpoint,
    sender: str,
    requester: str,
    epoch: int,
    chunk: Optional[int] = None,
) -> List[CheckpointTransferMessage]:
    """Build the transfer chunks answering a pull with *checkpoint*.

    With ``chunk=None`` the transfer is a single message; otherwise the
    retained-value ledger is streamed in slices of at most *chunk* values so
    a recovering replica catches up from a sequence of bounded messages
    instead of one giant one.
    """
    slices = checkpoint.value_chunks(chunk)
    digest = checkpoint.digest()
    return [
        CheckpointTransferMessage(
            sender=sender,
            requester=requester,
            epoch=epoch,
            digest=digest,
            frontier=checkpoint.frontier,
            ids=checkpoint.ids,
            values_chunk=values,
            chunk_index=index,
            chunk_count=len(slices),
            base_state=checkpoint.base_state if index == len(slices) - 1 else None,
            order_digest=checkpoint.order_digest,
        )
        for index, values in enumerate(slices)
    ]


def incremental_gossip(previous: GossipMessage, current: GossipMessage) -> GossipMessage:
    """The textbook form of the Section 10.4 optimization: send only what
    changed since the last gossip to the same destination (valid over
    reliable FIFO channels).

    The receiver must union rather than replace, which
    :meth:`repro.algorithm.replica.ReplicaCore.receive_gossip` already does,
    so incremental messages are drop-in compatible.  With compaction, an
    operation folded between the two messages leaves *current*'s sets
    entirely; its stability travels via the carried-over checkpoint instead
    of a set difference.  The production path in
    :meth:`repro.algorithm.replica.ReplicaCore.make_gossip` instead computes
    deltas against *acknowledged* state (see :mod:`repro.algorithm.delta`),
    which stays correct over the paper's reorderable, lossy channels.
    """
    return GossipMessage(
        sender=current.sender,
        received=current.received - previous.received,
        done=current.done - previous.done,
        labels={
            op_id: label
            for op_id, label in current.labels.items()
            if previous.labels.get(op_id) != label
        },
        stable=current.stable - previous.stable,
        is_delta=True,
        checkpoint=current.checkpoint,
        advert=current.advert,
    )
