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
``basis``: the core attaches the mark of the acknowledged send it was cut
from, and a harness that checks in-flight messages swaps in its own copy of
the sender's payload at that send, so that the invariant checkers and the
derived ``mc_r(m)`` constraints can be evaluated on the *effective* message
``delta ∪ basis`` — the knowledge the message actually conveys, which the
receiver reconstructs for free because it already holds the basis.

With advert/pull gossip (:meth:`repro.algorithm.fastcore.FastReplicaCore.
configure_advert_gossip`) the gossip message carries a compact
:class:`~repro.algorithm.checkpoint.CheckpointAdvert` instead of the
checkpoint body, and two further replica-to-replica message types complete
the protocol: a :class:`PullRequestMessage` from a peer that detected it is
behind the advertised frontier, and the :class:`CheckpointTransferMessage`
that answers it with the whole checkpoint body.  They travel on the same
gossip channels; harnesses dispatch on ``message.kind``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Union

from repro.algorithm.checkpoint import Checkpoint, CheckpointAdvert, OpIdSummary
from repro.algorithm.delta import PayloadCopy, SendMark
from repro.algorithm.labels import Label, LabelOrInfinity
from repro.common import INFINITY, OperationId, SpecificationError
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
    * ``basis`` — sender-side reference to the acknowledged send the delta
      was cut from.  The core attaches that send's
      :class:`~repro.algorithm.delta.SendMark` (journal positions, no
      payload); :meth:`repro.algorithm.system.AlgorithmSystem.send_gossip`
      replaces it by a :class:`~repro.algorithm.delta.PayloadCopy` of the
      sender's payload at that send, which the effective views below read.
      It is **not** part of the wire payload (the receiver provably already
      holds it), and it stays assignable: a harness that keeps messages
      without checking them sets it to ``None``;
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
    basis: Union[SendMark, PayloadCopy, None] = None
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
        basis = self._basis_payload()
        if basis is not None:
            return basis.labels.get(op_id, INFINITY)
        return INFINITY

    # -- effective (delta ∪ basis) views --------------------------------------

    def _basis_payload(self) -> Optional[PayloadCopy]:
        """The basis's payload, which only a harness's copy holds: a core's
        bare mark cannot answer for the knowledge the delta omits."""
        basis = self.basis
        if isinstance(basis, SendMark):
            raise SpecificationError(
                "a delta's effective views need the basis payload; the sender's "
                "mark carries none (AlgorithmSystem.send_gossip swaps its copy in)"
            )
        return basis

    def effective_received(self) -> FrozenSet[OperationDescriptor]:
        """``R`` of the equivalent full message."""
        basis = self._basis_payload()
        if basis is None:
            return self.received
        return self.received | basis.received

    def effective_done(self) -> FrozenSet[OperationDescriptor]:
        """``D`` of the equivalent full message."""
        basis = self._basis_payload()
        if basis is None:
            return self.done
        return self.done | basis.done

    def effective_stable(self) -> FrozenSet[OperationDescriptor]:
        """``S`` of the equivalent full message."""
        basis = self._basis_payload()
        if basis is None:
            return self.stable
        return self.stable | basis.stable

    def effective_labels(self) -> Dict[OperationId, Label]:
        """``L`` of the equivalent full message (basis overridden by delta)."""
        basis = self._basis_payload()
        if basis is None:
            return dict(self.labels)
        merged = dict(basis.labels)
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
        basis = self._basis_payload()
        if basis is not None:
            return basis.checkpoint
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
    """A whole checkpoint body answering a pull request, in one message.

    It carries the base state, the retained-value ledger (oldest first, the
    order :meth:`~repro.algorithm.checkpoint.Checkpoint.merged_values`'
    eviction depends on), the id summary, the frontier and the fold-order
    digest.  ``digest`` is the sender's *content* digest
    (:meth:`~repro.algorithm.checkpoint.Checkpoint.digest`, computed when
    the pull is answered): the receiver recomputes it over :meth:`body` and
    rejects a mismatch.  A lost or rejected transfer costs one re-pull, as
    a lost gossip message costs one more round.
    """

    sender: str
    requester: str
    digest: str
    frontier: Label
    ids: OpIdSummary
    values: Dict[OperationId, Any]
    base_state: Any
    order_digest: str

    @property
    def kind(self) -> str:
        return "transfer"

    def body(self) -> Checkpoint:
        """The checkpoint this message carries (unverified)."""
        return Checkpoint(
            base_state=self.base_state,
            frontier=self.frontier,
            ids=self.ids,
            values=self.values,
            order_digest=self.order_digest,
        )

    def size_estimate(self) -> int:
        """Wire-size contribution: the state blob, the interval summary and
        the retained values."""
        return 2 + self.ids.interval_count + len(self.values)


def checkpoint_transfer(
    checkpoint: Checkpoint, sender: str, requester: str
) -> CheckpointTransferMessage:
    """The transfer answering a pull with *checkpoint*."""
    return CheckpointTransferMessage(
        sender=sender,
        requester=requester,
        digest=checkpoint.digest(),
        frontier=checkpoint.frontier,
        ids=checkpoint.ids,
        values=dict(checkpoint.values),
        base_state=checkpoint.base_state,
        order_digest=checkpoint.order_digest,
    )


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
    :meth:`repro.algorithm.fastcore.FastReplicaCore.make_gossip` instead computes
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
