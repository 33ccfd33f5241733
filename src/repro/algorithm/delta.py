"""Per-peer bookkeeping for delta gossip (the Section 10.4 optimization,
made incremental and crash-safe).

The base algorithm's gossip message carries the sender's *entire*
``(rcvd, done, label, stable)`` knowledge.  Delta gossip transmits, per
destination, only the part of that knowledge the destination has not yet
*acknowledged*.  Acknowledgements ride on the gossip the peer sends back:

* every delta-mode gossip message carries a per-destination ``seqno`` and the
  sender's cumulative ack of the destination's own gossip stream (``ack`` =
  the largest ``k`` such that every message ``1..k`` from the destination has
  been received);
* the sender keeps one append-only :class:`ChangeJournal` per payload
  component — the sets of operations that entered ``R``, ``D[me]`` and
  ``S[me]`` together, and the identifiers whose label was stored — and
  records, at each send, a
  :class:`SendMark`: the stream, the seqno, the four journal positions, the
  checkpoint and nothing else;
* when the peer acks seqno ``k``, the mark at ``k`` becomes the *basis*, and
  a later delta is the journal slice past the basis's positions restricted
  to what is still live (the union of the slice's sets ``& live``, which
  reuses the hashes the sets store): exactly the live
  payload minus the payload at the basis, at a cost that follows what the
  delta carries rather than the replica's whole history.  A full-state send
  copies the live state directly.

The journals are pruned, as soon as an ack or a reset moves it, to the
oldest mark any peer still *retains* (the basis, or the oldest unacked send
when there is none), so an ack regression onto a retained mark never lands
below the floor, and folded operations leave the journals within a gossip
round of the acks that pass them.  While no peer retains a mark nothing is
journaled at all: a mark taken later starts at the journal's end.

Because the basis is always an **acknowledged** send, the receiver
provably already holds everything the delta omits, so merging a delta leaves
the receiver in exactly the state a full message would have produced — delta
and full gossip induce identical executions under the same scheduler.  (A
delta against merely *sent* state would not have this property over the
paper's reorderable, lossy channels.)  Delta gossip runs on the production
core only, so the claim is checked against Fig. 7 itself: the delta row of
the seeded differential in ``tests/test_fastcore.py`` runs the reference
core's full-state gossip and the production core's deltas in lockstep and
compares responses, witness order and replayed states.

The Section 7 message invariants read a delta through its *effective* views
(delta ∪ basis), which need the basis's payload, not its mark.  The core
keeps no such copy; :class:`~repro.algorithm.system.AlgorithmSystem` — the
one harness whose checker reads in-flight messages — takes its own
:class:`PayloadCopy` of the sender at every send, swaps the copy at the
mark's seqno in for the mark, and checks the delta against it: ``R``, ``D``
and ``S`` must be the live payload minus the copy, ``L`` the entries whose
label differs from it.  The check is thus independent of the journals it
verifies.

Crash recovery (Section 9.3) is handled by an incarnation ``epoch`` kept in
the replica's stable storage alongside its generated labels: a replica that
crashes with volatile memory bumps its epoch, which voids every ack it issued
before the crash, and peers observing the new epoch reset their bookkeeping
and fall back to full-state gossip.  A periodic full-state fallback (every
``full_state_interval``-th send to a peer) bounds the staleness window even
when the new epoch has not been observed yet.

Checkpoint coverage follows the same never-resend-below-the-acked-frontier
rule as the payload sets: a delta attaches the sender's checkpoint (as body
or, under advert/pull gossip, as a compact advert) only when its frontier
advanced past what the acknowledged basis already conveyed — see
``FastReplicaCore._checkpoint_attachment`` — so acked knowledge is never shipped
twice in either mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, NamedTuple, Optional, Set

from repro.algorithm.labels import Label
from repro.common import OperationId, SpecificationError
from repro.core.operations import OperationDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checkpoint uses labels)
    from repro.algorithm.checkpoint import Checkpoint


class ChangeJournal:
    """An append-only log of what entered one payload component (the sets of
    operations that entered it together, or the ids whose label was
    stored), addressed by absolute position: pruning the head moves ``start`` and never renumbers
    what is left, so a position recorded in a :class:`SendMark` stays valid
    for as long as the mark is retained.  Hot paths append to ``entries``
    directly."""

    __slots__ = ("entries", "start")

    def __init__(self) -> None:
        self.entries: List[Any] = []
        #: Absolute position of ``entries[0]``.
        self.start = 0

    @property
    def end(self) -> int:
        """The position the next entry will take."""
        return self.start + len(self.entries)

    def since(self, position: int) -> List[Any]:
        """The entries appended at or after *position*."""
        offset = position - self.start
        if offset < 0:
            raise SpecificationError("change journal pruned past a retained send mark")
        return self.entries[offset:]

    def prune(self, position: int) -> None:
        """Drop the entries before *position*."""
        cut = position - self.start
        if cut > 0:
            del self.entries[:cut]
            self.start = position


class SendMark(NamedTuple):
    """Where one send to a peer left the sender: retained until the peer
    acknowledges it, when it becomes the basis later deltas are cut from.
    ``received`` / ``done`` / ``stable`` / ``labels`` are positions in the
    sender's four change journals; ``checkpoint`` is the sender's compaction
    checkpoint at the send (the payload sets cover only the suffix above its
    frontier, and comparing it with the current one tells the sender whether
    a delta must re-advertise the frontier)."""

    stream: int
    seqno: int
    received: int
    done: int
    stable: int
    labels: int
    checkpoint: "Checkpoint"


@dataclass(frozen=True)
class PayloadCopy:
    """A copy of one replica's whole ``(R, D, L, S)`` payload and checkpoint,
    taken by a harness at a send: what a delta's effective views read as its
    basis once the harness has swapped it in for the core's
    :class:`SendMark`."""

    received: FrozenSet[OperationDescriptor]
    done: FrozenSet[OperationDescriptor]
    labels: Dict[OperationId, Label]
    stable: FrozenSet[OperationDescriptor]
    checkpoint: Optional["Checkpoint"] = None

    @classmethod
    def of(cls, core: Any) -> "PayloadCopy":
        return cls(
            received=frozenset(core.rcvd),
            done=frozenset(core.done_here()),
            labels=dict(core.labels),
            stable=frozenset(core.stable_here()),
            checkpoint=core.checkpoint,
        )


@dataclass
class PeerOutState:
    """What this replica knows about the gossip it has *sent* to one peer."""

    #: Identifier of the current seqno stream toward this peer.  Bumped (and
    #: the seqnos restarted from 1) whenever the stream is reset — e.g. when
    #: the peer is observed to have restarted — so that acknowledgements for
    #: an abandoned stream can never be matched against the new one.
    stream: int = 0
    #: Sequence number of the next gossip message to this peer (1-based).
    next_seqno: int = 1
    #: Marks of the sends not yet acknowledged (and of the acked one), by
    #: seqno, in seqno order.
    marks: Dict[int, SendMark] = field(default_factory=dict)
    #: Largest seqno the peer has cumulatively acknowledged.
    acked_seqno: int = 0
    #: The mark at ``acked_seqno`` (None until the first ack, or when the
    #: acked mark was pruned — both mean "send full state").
    basis: Optional[SendMark] = None
    #: Delta-mode sends since the last full-state send (for the periodic
    #: full-state fallback).
    sends_since_full: int = 0

    #: Retention cap for unacknowledged marks; when exceeded the oldest are
    #: pruned and the sender degrades to full-state gossip until an ack for a
    #: retained seqno arrives.  Bounds what a silent peer pins.
    MAX_RETAINED = 64

    def record_send(self, mark: SendMark) -> bool:
        """Retain *mark*; whether the cap dropped older marks."""
        marks = self.marks
        marks[mark.seqno] = mark
        if len(marks) <= self.MAX_RETAINED:
            return False
        for stale in list(marks)[: len(marks) - self.MAX_RETAINED]:
            del marks[stale]
        return True

    def apply_ack(self, acked: int) -> bool:
        """Adopt a cumulative ack from the peer (for the current stream —
        the caller checks the stream id); whether it changed anything.

        Regressions (an older message arriving late, or a peer that lost its
        state) are accepted: a smaller basis only makes later deltas larger,
        never unsound.
        """
        marks = self.marks
        basis = marks.get(acked)
        if acked == self.acked_seqno and basis is self.basis:
            return False
        self.acked_seqno = acked
        self.basis = basis
        for seqno in [s for s in marks if s < acked]:
            del marks[seqno]
        return True

    def oldest(self) -> Optional[SendMark]:
        """The oldest mark a later delta may still be cut from: the basis,
        else the oldest unacknowledged send (a later ack may land on it)."""
        if self.basis is not None:
            return self.basis
        return next(iter(self.marks.values()), None)

    def reset(self) -> None:
        """Abandon the current stream (the peer lost its state: new epoch
        observed) and start a fresh one so delta gossip can resume once the
        recovered peer starts acknowledging again."""
        self.stream += 1
        self.next_seqno = 1
        self.marks.clear()
        self.acked_seqno = 0
        self.basis = None
        self.sends_since_full = 0


@dataclass
class PeerInState:
    """What this replica has *received* from one peer's gossip stream."""

    #: The peer's incarnation epoch this bookkeeping belongs to.
    epoch: int = 0
    #: The peer's stream id within that epoch (echoed back on acks).
    stream: int = 0
    #: Largest ``k`` such that every seqno ``1..k`` has been received.
    frontier: int = 0
    #: Seqnos received out of order, above the frontier.
    above: Set[int] = field(default_factory=set)

    def record_receipt(self, stream: int, seqno: int, is_full: bool) -> None:
        """Advance the cumulative frontier with one received seqno.

        A newer stream id replaces the old one (the peer restarted its
        stream); seqnos from an older stream are ignored.  A *full-state*
        message at seqno ``s`` conveys everything the sender knew at ``s``,
        so the frontier may jump straight to ``s`` — this is what lets the
        periodic full-state fallback heal seqno gaps left by lost messages
        (and bounds the ``above`` set).
        """
        if stream < self.stream:
            return  # stale stream: the sender has since restarted it
        if stream > self.stream:
            self.stream = stream
            self.frontier = 0
            self.above.clear()
        if is_full and seqno > self.frontier:
            self.frontier = seqno
            self.above = {s for s in self.above if s > seqno}
        if seqno <= self.frontier or seqno in self.above:
            return  # duplicate delivery
        self.above.add(seqno)
        while self.frontier + 1 in self.above:
            self.frontier += 1
            self.above.discard(self.frontier)

    def reset(self, epoch: int) -> None:
        """The peer restarted with a new incarnation: its seqno stream starts
        over and nothing from the old incarnation may be counted."""
        self.epoch = epoch
        self.stream = 0
        self.frontier = 0
        self.above.clear()
