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
* the sender snapshots its payload at each send; when the peer acks seqno
  ``k``, the snapshot at ``k`` becomes the *basis* and subsequent deltas are
  computed against it.

Because the basis is always an **acknowledged** snapshot, the receiver
provably already holds everything the delta omits, so merging a delta leaves
the receiver in exactly the state a full message would have produced — delta
and full gossip induce identical executions under the same scheduler.  (A
delta against merely *sent* state would not have this property over the
paper's reorderable, lossy channels.)  Delta gossip runs on the production
core only, so the claim is checked against Fig. 7 itself: the delta row of
the seeded differential in ``tests/test_fastcore.py`` runs the reference
core's full-state gossip and the production core's deltas in lockstep and
compares responses, witness order and replayed states.

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
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set

from repro.algorithm.labels import Label
from repro.common import OperationId
from repro.core.operations import OperationDescriptor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checkpoint uses labels)
    from repro.algorithm.checkpoint import Checkpoint


@dataclass(frozen=True)
class GossipSnapshot:
    """A frozen copy of one replica's gossip payload at a send point.

    Retained by the sender until the destination acknowledges the
    corresponding seqno; the acknowledged snapshot becomes the basis that
    later deltas are computed against.  ``checkpoint`` records the sender's
    compaction checkpoint at the send point: the payload sets cover only the
    suffix above its frontier, and comparing it against the current one
    tells the sender whether a delta must re-advertise the frontier.
    """

    received: FrozenSet[OperationDescriptor]
    done: FrozenSet[OperationDescriptor]
    labels: Dict[OperationId, Label]
    stable: FrozenSet[OperationDescriptor]
    checkpoint: Optional["Checkpoint"] = None
    #: The sender's label-journal version at the snapshot point: a later
    #: delta against this basis enumerates only label entries journaled
    #: after it instead of scanning the whole label map.
    label_version: int = 0


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
    #: Snapshots of payloads sent but not yet acknowledged, by seqno.
    snapshots: Dict[int, GossipSnapshot] = field(default_factory=dict)
    #: Largest seqno the peer has cumulatively acknowledged.
    acked_seqno: int = 0
    #: The snapshot at ``acked_seqno`` (None until the first ack, or when the
    #: acked snapshot was pruned — both mean "send full state").
    basis: Optional[GossipSnapshot] = None
    #: Delta-mode sends since the last full-state send (for the periodic
    #: full-state fallback).
    sends_since_full: int = 0

    #: Retention cap for unacknowledged snapshots; when exceeded the oldest
    #: are pruned and the sender degrades to full-state gossip until an ack
    #: for a retained seqno arrives.  Bounds memory against silent peers.
    MAX_RETAINED = 64

    def record_send(self, seqno: int, snapshot: GossipSnapshot) -> None:
        self.snapshots[seqno] = snapshot
        if len(self.snapshots) > self.MAX_RETAINED:
            for stale in sorted(self.snapshots)[: len(self.snapshots) - self.MAX_RETAINED]:
                del self.snapshots[stale]

    def apply_ack(self, acked: int) -> None:
        """Adopt a cumulative ack from the peer (for the current stream —
        the caller checks the stream id).

        Regressions (an older message arriving late, or a peer that lost its
        state) are accepted: a smaller basis only makes later deltas larger,
        never unsound.
        """
        self.acked_seqno = acked
        self.basis = self.snapshots.get(acked)
        for seqno in [s for s in self.snapshots if s < acked]:
            del self.snapshots[seqno]

    def reset(self) -> None:
        """Abandon the current stream (the peer lost its state: new epoch
        observed) and start a fresh one so delta gossip can resume once the
        recovered peer starts acknowledging again."""
        self.stream += 1
        self.next_seqno = 1
        self.snapshots.clear()
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
