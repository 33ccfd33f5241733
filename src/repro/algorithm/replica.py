"""The replica state machine (Section 6.3, Fig. 7).

Each replica keeps:

* ``pending`` — requests that still require a response from this replica;
* ``rcvd`` — every operation it has received (directly or via gossip);
* ``done[i]`` — for each replica ``i``, the operations this replica knows are
  done at ``i`` (``done[r]`` for the replica itself is simply "done here");
* ``stable[i]`` — for each replica ``i``, the operations this replica knows
  are stable at ``i``;
* ``labels`` — the minimum label seen for each operation (sparse; missing
  means "no label yet", i.e. the paper's ``oo``).

The local constraints ``lc_r`` order identifiers by label; they totally order
``done[r]`` (Invariant 7.15), so the value returned for an operation is
computed by replaying ``done[r]`` in label order.  This class does exactly
that, from scratch on every response (the paper's unoptimized ``send_rc``);
it is the readable executable specification.  Each other core has one way
of its own to do less replay:

* :class:`repro.algorithm.fastcore.FastReplicaCore`, the production core,
  caches the post-states of its last replay and re-applies only the suffix
  of the label order that changed since;
* :class:`repro.algorithm.memoized.MemoizedReplicaCore` is the paper's own
  Section 10.1 variant, memoizing the *solid* prefix whose order can never
  change again and replaying only the suffix after it;
  :class:`repro.algorithm.commute.CommuteReplicaCore` (Section 10.3) is that
  replica plus a current state, and answers a not-yet-memoized operation
  from the value recorded when it was applied instead of replaying.

Gossip likewise has two paths: the paper's full-state ``send_rr'`` (the
default), and delta gossip (:meth:`ReplicaCore.configure_delta_gossip`), in
which each message carries only the knowledge the destination has not yet
acknowledged — see :mod:`repro.algorithm.delta` for the seqno/ack/epoch
machinery and the argument that the two induce identical executions.

Orthogonally to both, :meth:`ReplicaCore.configure_compaction` enables
stability-driven checkpoint compaction (:mod:`repro.algorithm.checkpoint`):
the stable prefix of the label order is folded into a checkpoint state and
its per-operation records are dropped, bounding the replica's tracked state
by the unstable suffix instead of the total history.  The checkpoint is part
of the replica's stable storage (it survives a crash with volatile memory),
and it rides on full-state / frontier-advancing gossip so a peer that fell
behind the frontier catches up from the checkpoint instead of the full
history.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithm.checkpoint import (
    Checkpoint,
    CheckpointAdvert,
    CompactionPolicy,
    chain_order_digest,
)
from repro.algorithm.delta import GossipSnapshot, PeerInState, PeerOutState
from repro.algorithm.labels import Label, LabelGenerator, LabelOrInfinity, label_min, label_sort_key
from repro.algorithm.messages import (
    CheckpointTransferMessage,
    GossipMessage,
    PullRequestMessage,
    RequestMessage,
    ResponseMessage,
    checkpoint_transfers,
)
from repro.common import INFINITY, ConfigurationError, OperationId, SpecificationError
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType


@dataclass
class TransferAssembly:
    """Receiver-side reassembly state for one in-flight checkpoint transfer
    (keyed per sender; a chunk under a newer digest or sender epoch replaces
    the partial assembly — the newer checkpoint is nested over the older —
    while chunks from an *older* transfer, delayed on the unordered network,
    are ignored rather than allowed to clobber the newer assembly).

    Every chunk repeats the transfer header; one that contradicts the chunks
    already held (:meth:`agrees_with`) is refused, which is what makes
    :meth:`assemble`'s indexing total."""

    digest: str
    epoch: int
    frontier: Label
    chunk_count: int
    chunks: Dict[int, "CheckpointTransferMessage"] = field(default_factory=dict)

    def agrees_with(self, message: "CheckpointTransferMessage") -> bool:
        """Whether *message* repeats the header of the chunks already held
        (``digest`` and ``epoch`` select the assembly and are compared by
        the caller)."""
        held = next(iter(self.chunks.values()), message)
        return (
            message.chunk_count == self.chunk_count
            and message.frontier == self.frontier
            and message.order_digest == held.order_digest
            and message.ids == held.ids
        )

    def complete(self) -> bool:
        return len(self.chunks) == self.chunk_count

    def assemble(self) -> Checkpoint:
        """Rebuild the checkpoint from a complete chunk set (value slices are
        concatenated in chunk order, preserving the ledger's oldest-first
        insertion order)."""
        values: Dict[OperationId, Any] = {}
        for index in range(self.chunk_count):
            values.update(self.chunks[index].values_chunk)
        final = self.chunks[self.chunk_count - 1]
        return Checkpoint(
            base_state=final.base_state,
            frontier=final.frontier,
            ids=final.ids,
            values=values,
            order_digest=final.order_digest,
        )


@dataclass
class ReplicaStats:
    """Counters used by the benchmarks and the optimization ablation (E6)."""

    do_it_count: int = 0
    responses_sent: int = 0
    gossip_sent: int = 0
    gossip_received: int = 0
    #: Number of data-type operator applications performed while computing
    #: response values (the quantity Section 10.1's memoization reduces).
    value_applications: int = 0
    #: Number of operator applications performed while memoizing / updating
    #: the current state (counted separately so the ablation can compare).
    memoized_applications: int = 0
    #: Number of full re-sorts performed by :meth:`ReplicaCore.done_order`
    #: (the sorted-suffix cache turns almost all of them into appends).
    done_order_sorts: int = 0
    #: Checkpoint compactions performed and operations folded into them.
    compactions: int = 0
    compacted_operations: int = 0
    #: Operator applications spent folding operations into the checkpoint
    #: (none for a fold the production core takes from its replay cache).
    compaction_applications: int = 0
    #: Assembled checkpoint transfers discarded because their recomputed
    #: content digest did not match the one the chunks were sent under
    #: (corruption in flight); each rejection is healed by a later re-pull.
    transfer_rejections: int = 0
    #: Coverage absorptions refused because this replica's would-be fold
    #: order did not reproduce the compactor's chained ``order_digest``
    #: (post-crash mislabelled copies); each refusal routes through the
    #: pull/adopt path instead.
    coverage_order_mismatches: int = 0
    #: Delta payloads discarded after a volatile crash because the sender's
    #: delta basis rested on acknowledgements issued by this replica's
    #: previous incarnation (see :meth:`ReplicaCore.receive_gossip`).
    stale_basis_deltas_skipped: int = 0

    def total_applications(self) -> int:
        return self.value_applications + self.memoized_applications


class ReplicaCore:
    """The replica automaton of Fig. 7, as an explicitly drivable state
    machine.

    The surrounding harness (the action-level system driver in
    :mod:`repro.algorithm.system`, the discrete-event simulator in
    :mod:`repro.sim`, or the asyncio TCP runtime of
    :class:`repro.net.runtime.NetCluster`, which speaks the binary wire
    codec of :mod:`repro.net.codec`) decides *when* each step runs; this
    class implements the preconditions and effects.
    """

    def __init__(
        self,
        replica_id: str,
        replica_ids: Sequence[str],
        data_type: SerialDataType,
    ) -> None:
        if replica_id not in replica_ids:
            raise ConfigurationError(f"{replica_id} missing from replica id list")
        if len(set(replica_ids)) < 2:
            raise ConfigurationError("the algorithm assumes at least two replicas")
        self.replica_id = replica_id
        self.replica_ids: Tuple[str, ...] = tuple(replica_ids)
        self.data_type = data_type

        self.pending: Set[OperationDescriptor] = set()
        self.rcvd: Set[OperationDescriptor] = set()
        self.done: Dict[str, Set[OperationDescriptor]] = {i: set() for i in self.replica_ids}
        self.stable: Dict[str, Set[OperationDescriptor]] = {i: set() for i in self.replica_ids}
        self.labels: Dict[OperationId, Label] = {}

        self._label_generator = LabelGenerator(replica_id)
        #: Labels this replica generated locally; kept across a crash with
        #: volatile memory (the "stable storage" of Section 9.3).
        self._stable_storage: Dict[OperationId, Label] = {}
        #: Incarnation number, also kept in stable storage: bumped on every
        #: crash with volatile memory so peers can tell that acknowledgements
        #: issued before the crash are void.
        self._epoch: int = 0

        #: Delta-gossip configuration and per-peer bookkeeping (volatile).
        self.delta_gossip: bool = False
        self.full_state_interval: int = 8
        self._peer_out: Dict[str, PeerOutState] = {}
        self._peer_in: Dict[str, PeerInState] = {}
        #: Peers whose delta gossip cannot be trusted yet because this
        #: replica crashed with volatile memory: until a peer demonstrates a
        #: post-crash basis (any full-state message), its deltas may be
        #: computed against acknowledgements the previous incarnation issued
        #: for knowledge that no longer exists here, and merging them could
        #: absorb stability for operations sitting above an invisible gap.
        self._unsynced_peers: Set[str] = set()

        #: Advert/pull gossip configuration: with it enabled, gossip carries
        #: a compact checkpoint advert instead of the checkpoint body, and a
        #: behind peer pulls the body on demand (optionally chunked).
        self.advert_gossip: bool = False
        self.checkpoint_chunk: Optional[int] = None
        #: Outgoing pull requests queued by staleness detection (volatile);
        #: keyed by the advertising peer, drained by the harness.
        self._pull_queue: Dict[str, CheckpointAdvert] = {}
        #: Partial checkpoint-transfer assemblies, keyed by sender (volatile).
        self._transfer_in: Dict[str, TransferAssembly] = {}
        #: The highest-frontier advert whose coverage this replica detected
        #: itself *missing* part of (volatile).  While set, the replica is in
        #: catch-up: its label order has a hole below the advertised
        #: frontier, so local replays are untrustworthy — it neither answers
        #: tracked requests nor compacts until the hole closes (via an
        #: adopted transfer, or via ordinary gossip from a peer that still
        #: tracks the missing operations).  Eager shipping never needs this:
        #: there the body rides on the very message that reveals the gap.
        self._await: Optional[CheckpointAdvert] = None
        #: Memo for :meth:`catching_up`: (state version it was computed at,
        #: result) — the re-evaluation scans ``done_here``, and response
        #: predicates call it once per pending operation.
        self._await_check: Optional[Tuple[int, bool]] = None

        #: Retransmitted requests whose compacted value aged out of the
        #: ledger: queued for an explicit stale-response NACK instead of
        #: being silently dropped; drained by the harness.
        self._stale_nacks: List[OperationDescriptor] = []
        #: Monotone counter bumped on every state mutation, so make_gossip
        #: can reuse the previous payload snapshot when nothing changed
        #: (idle gossip ticks dominate long runs).
        self._state_version: int = 0
        self._snapshot_cache: Optional[Tuple[int, GossipSnapshot]] = None

        #: Label-change journal (volatile): every store into ``labels`` is
        #: stamped with a monotone version, so a delta send enumerates only
        #: the entries touched since the peer's acked basis instead of
        #: scanning the whole label map.  ``_label_journal_floor`` is the
        #: highest pruned version: a basis at or above it can use the
        #: journal, an older one falls back to the full scan.
        self._label_version: int = 0
        self._label_journal_versions: List[int] = []
        self._label_journal_ids: List[OperationId] = []
        self._label_journal_floor: int = 0

        #: Stability-driven checkpoint compaction (Section 7.2 / Theorem 5.8
        #: made operational — see :mod:`repro.algorithm.checkpoint`).  The
        #: checkpoint lives in stable storage: it survives volatile crashes.
        self.checkpoint: Checkpoint = Checkpoint.empty(data_type.initial_state())
        self.compaction: Optional[CompactionPolicy] = None
        #: Harness hook invoked after each compaction with the folded batch
        #: (in label order) and the new checkpoint; used by the system/sim
        #: layers to keep the shared compacted-prefix ledger.
        self.on_compact: Optional[Callable[[List[OperationDescriptor], Checkpoint], None]] = None

        #: Sorted-suffix cache for :meth:`done_order`: the done set in label
        #: order, kept valid across ``do_it`` (append — the fresh label
        #: exceeds every existing one) and compaction (prefix trim), and
        #: invalidated when gossip lowers an existing label or adds done
        #: operations.
        self._order_cache: List[OperationDescriptor] = []
        self._order_dirty: bool = True

        self.stats = ReplicaStats()

    # ------------------------------------------------------------ configuration

    def configure_delta_gossip(self, enabled: bool = True, full_state_interval: int = 8) -> None:
        """Switch destination-specific delta gossip on or off.

        ``full_state_interval`` is the periodic full-state fallback: every
        that-many sends to a peer, a full message is sent even when a delta
        basis is available, bounding how long a peer that silently lost state
        can stay behind.
        """
        if full_state_interval < 1:
            raise ConfigurationError("full_state_interval must be at least 1")
        self.delta_gossip = enabled
        self.full_state_interval = full_state_interval

    def configure_advert_gossip(
        self, enabled: bool = True, checkpoint_chunk: Optional[int] = None
    ) -> None:
        """Switch advert/pull checkpoint gossip on or off.

        With it on, full-state (and frontier-advancing delta) messages attach
        a :class:`~repro.algorithm.checkpoint.CheckpointAdvert` instead of
        the checkpoint body, bounding their steady-state payload; a receiver
        that detects it is behind the advertised frontier issues a pull
        request and the advertiser streams the body back in
        ``checkpoint_chunk``-sized value slices (``None`` = one message).
        Orthogonal to both delta gossip and the compaction policy itself.
        """
        if checkpoint_chunk is not None and checkpoint_chunk < 1:
            raise ConfigurationError("checkpoint_chunk must be at least 1 or None")
        self.advert_gossip = enabled
        self.checkpoint_chunk = checkpoint_chunk

    def configure_compaction(
        self, policy: Optional[CompactionPolicy] = None, enabled: bool = True
    ) -> None:
        """Switch stability-driven checkpoint compaction on or off.

        With *enabled* true, the replica opportunistically folds the
        stable-everywhere prefix of its label order into the checkpoint after
        gossip merges (once at least ``policy.min_batch`` operations are
        compactable), dropping their per-operation records.  Disabling stops
        further compaction but keeps the existing checkpoint — already-folded
        operations cannot be un-compacted.
        """
        self.compaction = (policy or CompactionPolicy()) if enabled else None

    # ------------------------------------------------------------------ labels

    def label_of(self, op_id: OperationId) -> LabelOrInfinity:
        """``label_r(id)`` with ``INFINITY`` meaning "no label yet"."""
        return self.labels.get(op_id, INFINITY)

    def local_constraints(self) -> Set[Tuple[OperationId, OperationId]]:
        """``lc_r`` — the strict partial order induced on identifiers by the
        label function (only pairs within ``rcvd`` identifiers are material,
        but we follow the paper and compare all labelled identifiers)."""
        ids = list(self.labels)
        constraints: Set[Tuple[OperationId, OperationId]] = set()
        for a in ids:
            for b in ids:
                if a != b and self.labels[a] < self.labels[b]:
                    constraints.add((a, b))
        return constraints

    def done_here(self) -> Set[OperationDescriptor]:
        """``done_r[r]`` — the operations done at this replica."""
        return self.done[self.replica_id]

    def stable_here(self) -> Set[OperationDescriptor]:
        """``stable_r[r]`` — the operations stable at this replica."""
        return self.stable[self.replica_id]

    def is_compacted(self, op_id: OperationId) -> bool:
        """Whether *op_id* has been folded into the checkpoint (its record
        dropped; it is received, done and stable at every replica, and its
        value is fixed forever)."""
        return self.checkpoint.covers(op_id)

    def done_order(self) -> List[OperationDescriptor]:
        """The *tracked* (non-compacted) operations done at this replica, in
        label (``lc_r``) order.

        Served from the sorted-suffix cache; callers must treat the returned
        list as read-only.  ``do_it`` appends in place (a fresh label exceeds
        every existing one) and compaction trims the folded prefix, so a full
        re-sort only happens when gossip actually reorders the suffix.
        """
        if self._order_dirty:
            self._order_cache = sorted(
                self.done_here(), key=lambda x: label_sort_key(self.label_of(x.id))
            )
            self._order_dirty = False
            self.stats.done_order_sorts += 1
        return self._order_cache

    # ------------------------------------------------------------- request path

    def receive_request(self, message: RequestMessage) -> None:
        """``receive_cr(("request", x))``: record the pending request.

        A retransmitted request for an already-compacted operation is queued
        for a response without re-tracking the operation: its value is fixed
        and (retention permitting) retained by the checkpoint.  When the
        value has already aged out of a finite retention window this replica
        can provably never answer it — a permanently unanswerable ``pending``
        entry would grow without bound under retransmission — so the request
        is queued for an explicit stale-response NACK instead (see
        :meth:`take_stale_nacks`): the front end learns the value is gone
        rather than waiting forever.
        """
        operation = message.operation
        if self.is_compacted(operation.id):
            if operation.id in self.checkpoint.values:
                self.pending.add(operation)
                self._state_version += 1
            else:
                self._stale_nacks.append(operation)
            return
        self.pending.add(operation)
        self.rcvd.add(operation)
        self._state_version += 1

    def take_stale_nacks(self) -> List[OperationDescriptor]:
        """Drain the queued stale-response NACKs (retransmits for compacted
        operations whose retained value was evicted).  The harness turns each
        into a ``ResponseMessage(..., stale=True, sender=...)`` so the front
        end can stop waiting once every replica has NACKed."""
        nacks, self._stale_nacks = self._stale_nacks, []
        return nacks

    def can_do(self, operation: OperationDescriptor) -> bool:
        """Precondition of ``do_it_r(x, l)``: received, not yet done here, and
        every operation in ``prev`` already done here (compacted operations
        count as done — they are done everywhere)."""
        if self.is_compacted(operation.id):
            return False
        if operation not in self.rcvd or operation in self.done_here():
            return False
        done_ids = {x.id for x in self.done_here()}
        return all(p in done_ids or self.is_compacted(p) for p in operation.prev)

    def doable_operations(self) -> List[OperationDescriptor]:
        """Operations for which ``do_it`` is currently enabled."""
        return sorted(
            (x for x in self.rcvd - self.done_here() if self.can_do(x)),
            key=lambda x: repr(x.id),
        )

    def do_it(self, operation: OperationDescriptor, label: Optional[Label] = None) -> Label:
        """``do_it_r(x, l)``: assign a fresh label and mark the operation done.

        The label must come from ``L_r`` and exceed the label of every
        operation already done here; when *label* is omitted a suitable one is
        generated.
        """
        if not self.can_do(operation):
            raise SpecificationError(
                f"do_it precondition fails for {operation.id} at replica {self.replica_id}"
            )
        existing = [self.label_of(x.id) for x in self.done_here()]
        if label is None:
            label = self._label_generator.fresh(existing)
        else:
            if label.replica != self.replica_id:
                raise SpecificationError("replicas may only assign labels from their own set")
            if any(label <= other for other in existing if other is not INFINITY):
                raise SpecificationError("new label must exceed labels of done operations")
            if self.checkpoint.frontier is not None and label <= self.checkpoint.frontier:
                raise SpecificationError("new label must exceed the compaction frontier")
        self.done_here().add(operation)
        self.labels[operation.id] = label
        self._note_label_change(operation.id)
        self._stable_storage[operation.id] = label
        if not self._order_dirty:
            # The fresh label exceeds every label of the done set, so the
            # sorted order extends by exactly this operation.
            self._order_cache.append(operation)
        self._state_version += 1
        self.stats.do_it_count += 1
        return label

    def do_all_ready(self) -> List[OperationDescriptor]:
        """Apply ``do_it`` until no operation is ready; returns those done.

        Matches the timing assumption that a ready operation is done
        immediately (Lemma 9.1).
        """
        performed: List[OperationDescriptor] = []
        progressing = True
        while progressing:
            progressing = False
            for operation in self.doable_operations():
                self.do_it(operation)
                performed.append(operation)
                progressing = True
        return performed

    # ------------------------------------------------------------ response path

    def knows_stable(self, operation: OperationDescriptor) -> bool:
        """``x in stable_r[r]`` on the checkpoint + suffix view — the
        predicate convergence checks and stabilization tracking quantify
        over (a compacted operation is stable here by construction)."""
        return operation in self.stable_here() or self.is_compacted(operation.id)

    def is_stable_everywhere(self, operation: OperationDescriptor) -> bool:
        """``x in  ⋂_i stable_r[i]`` — this replica knows the operation is
        stable at every replica (the gate for strict responses).  Compaction
        only ever folds operations already known stable everywhere, so a
        compacted operation passes by construction."""
        if self.is_compacted(operation.id):
            return True
        return all(operation in self.stable[i] for i in self.replica_ids)

    def response_ready(self, operation: OperationDescriptor) -> bool:
        """Precondition of ``send_rc(("response", x, v))``.

        A compacted operation is answerable exactly when its fixed value is
        still retained by the checkpoint (always, under the default unbounded
        ``value_retention``).

        A replica in advert/pull catch-up answers from retained checkpoint
        values, and — the one replay-based exception — operations whose
        reported value is :meth:`~repro.datatypes.base.SerialDataType.\
state_independent`: its tracked history has a hole below the awaited
        frontier, so a local replay could omit compacted effects, but a
        state-independent value is the same over any prefix.  Everything
        else waits; liveness is preserved by the pull retries (or by a
        peer that still tracks everything answering instead).
        """
        if operation not in self.pending:
            return False
        if self.is_compacted(operation.id):
            return operation.id in self.checkpoint.values
        if self.catching_up() and not self.data_type.state_independent(operation.op):
            return False
        if operation not in self.done_here():
            return False
        if operation.strict and not self.is_stable_everywhere(operation):
            return False
        return True

    def ready_responses(self) -> List[OperationDescriptor]:
        """Pending operations for which a response may be sent now."""
        return sorted(
            (x for x in self.pending if self.response_ready(x)),
            key=lambda x: repr(x.id),
        )

    def compute_value(self, operation: OperationDescriptor) -> Any:
        """``v in valset(x, done_r[r], <_lc_r)`` — by Invariant 7.15 the local
        constraints totally order ``done_r[r]``, so the value is unique and is
        obtained by replaying the done operations in label order.

        The replay starts from the checkpoint base state (the initial state
        while nothing has been compacted) and covers the tracked suffix.  The
        value of a compacted operation is fixed and served from the
        checkpoint's retained values.
        """
        if self.is_compacted(operation.id):
            try:
                return self.checkpoint.values[operation.id]
            except KeyError:
                raise SpecificationError(
                    f"value of compacted operation {operation.id} was evicted at "
                    f"{self.replica_id} (raise CompactionPolicy.value_retention)"
                ) from None
        if operation not in self.done_here():
            raise SpecificationError(
                f"cannot compute a value for {operation.id}: not done at {self.replica_id}"
            )
        state = self.checkpoint.base_state
        value: Any = None
        for x in self.done_order():
            state, reported = self.data_type.apply(state, x.op)
            self.stats.value_applications += 1
            if x.id == operation.id:
                value = reported
        return value

    def make_response(self, operation: OperationDescriptor) -> ResponseMessage:
        """``send_rc(("response", x, v))``: compute the value, drop the
        operation from ``pending`` and return the message to send."""
        if not self.response_ready(operation):
            raise SpecificationError(
                f"response precondition fails for {operation.id} at replica {self.replica_id}"
            )
        value = self.compute_value(operation)
        self.pending.discard(operation)
        self.stats.responses_sent += 1
        return ResponseMessage(operation=operation, value=value)

    # -------------------------------------------------------------- gossip path

    def _note_label_change(self, op_id: OperationId) -> None:
        """Record a store into ``labels`` in the label-change journal.

        Every site that inserts or replaces a label entry must call this (or
        inline the equivalent) so delta gossip's changed-since-basis
        enumeration stays exact.  Deletions (compaction, adoption filtering)
        need no entry: a delta iterates the sender's current labels, so a
        deleted entry simply never appears — exactly as under the full scan.
        """
        self._label_version += 1
        self._label_journal_versions.append(self._label_version)
        self._label_journal_ids.append(op_id)

    def make_gossip(self, destination: Optional[str] = None) -> GossipMessage:
        """``send_rr'(("gossip", R, D, L, S))``.

        Without a *destination* (or with delta gossip disabled) the payload is
        the replica's full current received/done/label/stable knowledge, as in
        Fig. 7.  With delta gossip enabled and a destination given, the
        payload carries only what the destination has not acknowledged — see
        :mod:`repro.algorithm.delta`.
        """
        self.stats.gossip_sent += 1
        if not self.delta_gossip or destination is None:
            return GossipMessage(
                sender=self.replica_id,
                received=frozenset(self.rcvd),
                done=frozenset(self.done_here()),
                labels=dict(self.labels),
                stable=frozenset(self.stable_here()),
                epoch=self._epoch,
                **self._checkpoint_attachment(self.checkpoint),
            )
        if destination == self.replica_id:
            raise SpecificationError("a replica does not gossip with itself")
        if destination not in self.done:
            raise SpecificationError(f"gossip to unknown replica {destination!r}")

        out = self._peer_out_state(destination)
        snapshot = self._payload_snapshot()
        seqno = out.next_seqno
        out.next_seqno += 1
        out.record_send(seqno, snapshot)

        basis = out.basis
        send_full = basis is None or out.sends_since_full + 1 >= self.full_state_interval
        ack_state = self._peer_in.get(destination)
        acks = dict(
            ack=ack_state.frontier if ack_state is not None else 0,
            ack_epoch=ack_state.epoch if ack_state is not None else 0,
            ack_stream=ack_state.stream if ack_state is not None else 0,
        )
        if send_full:
            out.sends_since_full = 0
            return GossipMessage(
                sender=self.replica_id,
                received=snapshot.received,
                done=snapshot.done,
                labels=dict(snapshot.labels),
                stable=snapshot.stable,
                epoch=self._epoch,
                stream=out.stream,
                seqno=seqno,
                **acks,
                **self._checkpoint_attachment(snapshot.checkpoint),
            )
        out.sends_since_full += 1
        # A delta never resends knowledge at or below the acked basis — which
        # includes everything compacted since: those operations simply left
        # the payload snapshot.  The checkpoint itself travels (as body or
        # advert) only when the frontier advanced past what the basis already
        # conveyed — the same "nothing below the acked frontier is resent"
        # rule the payload sets follow.
        basis_count = basis.checkpoint.count if basis.checkpoint is not None else 0
        advanced = snapshot.checkpoint is not None and snapshot.checkpoint.count > basis_count
        return GossipMessage(
            sender=self.replica_id,
            received=snapshot.received - basis.received,
            done=snapshot.done - basis.done,
            labels=self._labels_since(snapshot, basis),
            stable=snapshot.stable - basis.stable,
            epoch=self._epoch,
            stream=out.stream,
            seqno=seqno,
            **acks,
            is_delta=True,
            basis=basis,
            **self._checkpoint_attachment(snapshot.checkpoint if advanced else None),
        )

    def _labels_since(self, snapshot: GossipSnapshot, basis: GossipSnapshot) -> Dict[OperationId, Label]:
        """The label entries of *snapshot* that differ from *basis* — the
        delta payload's ``L`` component.

        Labels change only through journaled stores, so when the journal
        still reaches back to the basis version the enumeration walks just
        the entries touched since then (a handful in steady state) and
        produces exactly what the full scan over ``snapshot.labels`` would.
        A basis older than the pruned journal horizon falls back to that
        full scan.
        """
        basis_labels = basis.labels
        snap_labels = snapshot.labels
        if basis.label_version < self._label_journal_floor:
            return {
                op_id: label
                for op_id, label in snap_labels.items()
                if basis_labels.get(op_id) != label
            }
        versions = self._label_journal_versions
        start = bisect_right(versions, basis.label_version)
        delta: Dict[OperationId, Label] = {}
        snap_get = snap_labels.get
        basis_get = basis_labels.get
        for op_id in self._label_journal_ids[start:]:
            label = snap_get(op_id)
            # A journaled id absent from the snapshot was compacted away
            # since the store — the full scan would not have sent it either.
            if label is not None and basis_get(op_id) != label:
                delta[op_id] = label
        if len(versions) > 4096:
            self._prune_label_journal()
        return delta

    def _prune_label_journal(self) -> None:
        """Drop journal entries every peer's acked basis is already past."""
        horizon = min(
            (
                out.basis.label_version
                for out in self._peer_out.values()
                if out.basis is not None
            ),
            default=self._label_version,
        )
        cut = bisect_right(self._label_journal_versions, horizon)
        if cut:
            del self._label_journal_versions[:cut]
            del self._label_journal_ids[:cut]
            self._label_journal_floor = horizon

    def _checkpoint_attachment(self, checkpoint: Optional[Checkpoint]) -> Dict[str, Any]:
        """The checkpoint-coverage field for an outgoing gossip message: the
        body under eager shipping, the compact advert under advert/pull."""
        if checkpoint is None or not checkpoint.count:
            return {}
        if self.advert_gossip:
            return {"advert": checkpoint.advert()}
        return {"checkpoint": checkpoint}

    def _payload_snapshot(self) -> GossipSnapshot:
        """The current ``(R, D, L, S)`` payload, reusing the previous
        immutable snapshot when no state mutation happened since — in steady
        state every gossip tick sends the same (empty-delta) payload, so the
        copies would otherwise dominate the cost the deltas save."""
        if self._snapshot_cache is not None and self._snapshot_cache[0] == self._state_version:
            return self._snapshot_cache[1]
        snapshot = GossipSnapshot(
            received=frozenset(self.rcvd),
            done=frozenset(self.done_here()),
            labels=dict(self.labels),
            stable=frozenset(self.stable_here()),
            checkpoint=self.checkpoint,
            label_version=self._label_version,
        )
        self._snapshot_cache = (self._state_version, snapshot)
        return snapshot

    def receive_gossip(self, message: GossipMessage) -> None:
        """``receive_r'r(("gossip", R, D, L, S))`` — merge the sender's
        knowledge into ours (Fig. 7).

        The merge is a union/minimum either way, so full and delta messages
        go through the same effect; a delta merge simply touches fewer
        elements.  Knowledge at or below this replica's compaction frontier
        is already folded into the checkpoint and is filtered out instead of
        re-tracked; an attached sender checkpoint ahead of ours is merged
        first (see :meth:`_merge_checkpoint`), while an attached *advert* is
        either absorbed as stability knowledge (when everything it covers is
        still tracked or compacted here) or queued for a pull (see
        :meth:`_consider_advert`).  Delta bookkeeping (seqno frontier, acks,
        epochs) is updated afterwards.
        """
        sender = message.sender
        if sender == self.replica_id:
            raise SpecificationError("a replica does not gossip with itself")
        if sender not in self.done:
            raise SpecificationError(f"gossip from unknown replica {sender!r}")

        if message.checkpoint is not None:
            self._merge_checkpoint(message.checkpoint)
        elif message.advert is not None:
            self._consider_advert(sender, message.advert)

        if not self._delta_basis_trusted(message):
            # The sender has not yet observed our post-crash incarnation: its
            # delta was computed against acknowledgements we issued before
            # losing our volatile state, so it can silently omit operations
            # (and their labels) that we no longer hold while still asserting
            # stability for operations ordered after them.  Merging such a
            # payload can convince us to compact a prefix with a hole in it.
            # Discard the payload (the self-contained checkpoint/advert above
            # were still processed) and do not acknowledge the seqno: the
            # unacked knowledge stays in the sender's window and is re-sent —
            # at the latest as the full state it falls back to once it sees
            # our bumped epoch or our ack regression.
            self.stats.stale_basis_deltas_skipped += 1
            self._record_gossip_bookkeeping(message, merged=False)
            self.stats.gossip_received += 1
            self._post_merge()
            return

        checkpoint = self.checkpoint
        if checkpoint.count:
            received = {x for x in message.received if not checkpoint.covers(x.id)}
            done = {
                x for x in (message.done | message.stable) if not checkpoint.covers(x.id)
            }
            stable = {x for x in message.stable if not checkpoint.covers(x.id)}
        else:
            received = message.received
            done = message.done | message.stable
            stable = message.stable

        done_before = len(self.done_here())
        self.rcvd |= received
        self.done[sender] |= done
        self.done[self.replica_id] |= done
        for replica in self.replica_ids:
            if replica not in (self.replica_id, sender):
                self.done[replica] |= stable

        # label_r <- min(label_r, L)
        label_lowered = False
        for op_id, label in message.labels.items():
            self._label_generator.observed(label)
            if checkpoint.count and checkpoint.covers(op_id):
                # Our archived label for a compacted operation is the global
                # minimum (Invariant 7.19): the incoming one cannot beat it.
                continue
            current = self.labels.get(op_id)
            merged = label_min(INFINITY if current is None else current, label)
            if merged is not INFINITY and merged is not current:
                self.labels[op_id] = merged
                self._note_label_change(op_id)
                if current is not None:
                    label_lowered = True

        if label_lowered or len(self.done_here()) != done_before:
            self._order_dirty = True

        self.stable[sender] |= stable
        self.stable[self.replica_id] |= stable
        self._promote_stable()
        self._state_version += 1
        self._record_gossip_bookkeeping(message)
        self.stats.gossip_received += 1
        self._post_merge()

    def receive_gossip_batch(self, messages: Sequence[GossipMessage]) -> None:
        """Merge a coalesced batch of gossip messages delivered in one
        wakeup (the simulator's ``batch_gossip`` coalescing and the net
        runtime's per-frame delivery both produce these).

        The default is the sequential per-message merge, so every variant
        accepts batches; :class:`~repro.algorithm.fastcore.FastReplicaCore`
        overrides it to defer the order splices across the whole batch."""
        for message in messages:
            self.receive_gossip(message)

    def _post_merge(self) -> None:
        """Post-gossip hook: opportunistic compaction (subclasses that keep
        derived prefix state — the memoizing variants — advance it first)."""
        if self.compaction is not None:
            self.maybe_compact()

    def _delta_basis_trusted(self, message: GossipMessage) -> bool:
        """Whether a gossip payload's basis is sound to merge.

        Full-state payloads are self-contained and always trusted; a trusted
        full state also re-synchronises the sender after our own volatile
        crash.  A delta is only trusted once the sender has demonstrated a
        post-crash basis, because the acknowledgements our previous
        incarnation issued described knowledge that was wiped."""
        sender = message.sender
        if not message.is_delta:
            self._unsynced_peers.discard(sender)
            return True
        return sender not in self._unsynced_peers

    def _peer_out_state(self, peer: str) -> PeerOutState:
        """The send-side delta bookkeeping toward *peer*, created on first
        use (not built and thrown away on every send and receipt)."""
        out = self._peer_out.get(peer)
        if out is None:
            out = self._peer_out[peer] = PeerOutState()
        return out

    def _record_gossip_bookkeeping(self, message: GossipMessage,
                                   merged: bool = True) -> None:
        """Advance the delta-gossip seqno/ack/epoch state for one receipt.

        With ``merged=False`` (a skipped stale-basis delta) the seqno is not
        recorded: acknowledging a payload we discarded would let the sender
        drop that knowledge from every future delta."""
        sender = message.sender
        in_state = self._peer_in.get(sender)
        if in_state is None:
            in_state = self._peer_in[sender] = PeerInState(epoch=message.epoch)
        if message.epoch > in_state.epoch:
            # The sender restarted: its seqno streams start over and every
            # acknowledgement it issued before the crash is void.  A partial
            # checkpoint transfer from the old incarnation is abandoned too —
            # the persisted checkpoint survives the crash, so the retry pull
            # fetches the same (or a newer, nested) body.
            in_state.reset(message.epoch)
            self._peer_out_state(sender).reset()
            self._transfer_in.pop(sender, None)
        if merged and message.seqno is not None and message.epoch == in_state.epoch:
            in_state.record_receipt(message.stream, message.seqno,
                                    is_full=not message.is_delta)
        out = self._peer_out_state(sender)
        if (message.ack is not None
                and message.ack_epoch == self._epoch
                and message.ack_stream == out.stream):
            out.apply_ack(message.ack)

    def _promote_stable(self) -> None:
        """``stable_r[r] <- stable_r[r] u ⋂_i done_r[i]`` — operations this
        replica knows are done everywhere become stable here."""
        everywhere = set.intersection(*(self.done[i] for i in self.replica_ids))
        self.stable[self.replica_id] |= everywhere

    # ------------------------------------------------------ checkpoint compaction

    def compactable_prefix(self) -> List[OperationDescriptor]:
        """The longest label-order prefix of the tracked done set that can be
        folded into the checkpoint: every operation in it is known stable at
        every replica and is not awaiting a response here."""
        prefix: List[OperationDescriptor] = []
        for x in self.done_order():
            if x in self.pending or not self.is_stable_everywhere(x):
                break
            prefix.append(x)
        return prefix

    def maybe_compact(self, force: bool = False) -> int:
        """Fold the compactable prefix into the checkpoint when the policy
        says so (*force* ignores the ``min_batch`` amortization gate — the
        simulator's interval-driven compaction tick uses it).  Returns the
        number of operations folded.

        A replica in advert/pull catch-up never compacts: its label order is
        missing part of the agreed prefix, so what it would fold is not a
        prefix of the system-wide order (the ledger would flag the
        divergence).  Compaction resumes once the hole closes."""
        if self.compaction is None or self.catching_up():
            return 0
        prefix = self.compactable_prefix()
        if not prefix or (not force and len(prefix) < self.compaction.min_batch):
            return 0
        self._prepare_compaction()
        return self._compact(prefix)

    def _prepare_compaction(self) -> None:
        """Hook for subclasses whose derived prefix state must cover the
        compactable prefix before it is dropped (the memoizing variants fold
        everything solid into their memo state here).  Runs only once a fold
        is actually about to happen — the cheap prefix/min_batch gate comes
        first, so a gossip tick that folds nothing pays nothing extra.
        ``compactable_prefix`` depends only on stability and pending state,
        which the hook never changes."""

    def _compact(self, prefix: List[OperationDescriptor]) -> int:
        """Fold *prefix* into the checkpoint and drop its per-operation
        records from every tracked structure."""
        self.checkpoint, applications = self.checkpoint.extend(
            prefix, self.data_type, self.labels,
            value_retention=self.compaction.value_retention,
            replayed=self._replayed_prefix(len(prefix)),
        )
        self.stats.compaction_applications += applications
        removed = set(prefix)
        removed_ids = {x.id for x in prefix}
        self.rcvd -= removed
        for i in self.replica_ids:
            self.done[i] -= removed
            self.stable[i] -= removed
        for op_id in removed_ids:
            self.labels.pop(op_id, None)
            self._stable_storage.pop(op_id, None)
        # Locally generated labels must keep exceeding the frontier even
        # though the compacted labels left the generator's inputs.
        self._label_generator.observed(self.checkpoint.frontier)
        self._drop_unanswerable_pending()
        if not self._order_dirty:
            if [x.id for x in self._order_cache[: len(prefix)]] == [x.id for x in prefix]:
                del self._order_cache[: len(prefix)]
            else:  # pragma: no cover - defensive; the prefix is the cache head
                self._order_dirty = True
        self._after_compaction(removed)
        self._state_version += 1
        self.stats.compactions += 1
        self.stats.compacted_operations += len(prefix)
        if self.on_compact is not None:
            self.on_compact(prefix, self.checkpoint)
        return len(prefix)

    def _replayed_prefix(self, count: int) -> Optional[Tuple[Any, List[Any]]]:
        """The post-state and values of the first *count* done-order
        operations, when a replay already holds them (``None`` here: the
        reference core keeps no replay, so a fold applies every operator
        as Fig. 7's replay would)."""
        return None

    def _after_compaction(self, removed: Set[OperationDescriptor]) -> None:
        """Hook for subclasses to drop their own per-operation records."""

    def _coverage_position(self, coverage) -> Tuple[Set[OperationDescriptor], int]:
        """How much of *coverage* (a checkpoint body or advert — anything
        with ``covers``/``ids``/``count``) this replica already holds:
        the covered operations still tracked here, and the number of covered
        identifiers missing entirely (neither tracked nor in our own
        checkpoint)."""
        tracked = {x for x in self.done_here() if coverage.covers(x.id)}
        covered = len(tracked) + self.checkpoint.ids.intersection_count(coverage.ids)
        return tracked, coverage.count - covered

    def _behind_frontier(self, frontier: Label) -> bool:
        """Whether *frontier* is ahead of our own compaction frontier."""
        ours = self.checkpoint.frontier
        return ours is None or label_sort_key(ours) < label_sort_key(frontier)

    def _mark_coverage_stable(self, tracked: Set[OperationDescriptor]) -> None:
        """Absorb a checkpoint's stability assertion for operations still
        tracked here (sound: the sender verified ``x in stable_sender[i]``
        for every replica ``i`` before compacting, and ``stable_sender[i]``
        is within ``stable_i[i]``)."""
        if not tracked:
            return
        for i in self.replica_ids:
            self.done[i] |= tracked
            self.stable[i] |= tracked
        self._state_version += 1

    def _absorb_coverage(self, coverage, tracked: Set[OperationDescriptor]) -> bool:
        """Absorb *coverage*'s everywhere-stability assertion — but only
        after verifying that folding the still-tracked covered operations
        onto our own checkpoint in **our** label order reproduces the
        compactor's chained fold order (``order_digest``).

        The assertion alone names identifiers, not labels.  In normal
        operation knowing "done at ``i``" implies having merged ``i``'s
        label, so every replica that reaches everywhere-stability holds the
        agreed minimum and folds the same order.  A volatile crash breaks
        that implication: the recovered replica can re-learn (or re-do,
        via retransmission) every covered operation yet hold labels that
        are *not* the agreed minima — its merged-label knowledge was
        volatile, and peers that already compacted those operations can
        never re-teach it.  Folding by those labels would break the
        stable-prefix agreement (Invariant 7.2), so on a digest mismatch
        this returns ``False`` and the caller must pull/adopt the body,
        which replaces the mislabelled copies wholesale.
        """
        if not tracked:
            return True  # nothing new to absorb (nested or already-absorbed)
        ordered = sorted(tracked, key=lambda x: label_sort_key(self.label_of(x.id)))
        simulated = chain_order_digest(
            self.checkpoint.order_digest, (x.id for x in ordered)
        )
        if simulated != coverage.order_digest:
            self.stats.coverage_order_mismatches += 1
            return False
        self._mark_coverage_stable(tracked)
        self._note_coverage_absorbed(coverage.frontier)
        return True

    def _note_coverage_absorbed(self, frontier: Label) -> None:
        """Hook: a coverage up to *frontier* was verified and fully absorbed
        (the fast core memoizes this to skip re-scanning nested adverts)."""

    def _consider_advert(self, sender: str, advert: CheckpointAdvert) -> None:
        """Staleness detection against a received checkpoint advert.

        When everything the advert covers is still tracked (or compacted)
        here *and* our would-be fold order matches the advertised
        ``order_digest`` (see :meth:`_absorb_coverage`), the advert alone
        conveys the stability knowledge the body would have — no transfer
        needed, which is the steady-state path that keeps the wire payload
        flat.  Otherwise this replica is behind the advertised frontier or
        holds mislabelled copies (crash recovery, late join): it queues a
        pull request toward the advertiser and enters catch-up (see
        ``_await``); the queue entry survives lost pulls and transfers
        because every subsequent advert re-runs this check.
        """
        if advert.count == 0 or not self._behind_frontier(advert.frontier):
            return
        tracked, missing = self._coverage_position(advert)
        if missing == 0 and self._absorb_coverage(advert, tracked):
            self._refresh_await()
        else:
            self._pull_queue[sender] = advert
            if self._await is None or label_sort_key(advert.frontier) > label_sort_key(
                self._await.frontier
            ):
                self._await = advert
                self._await_check = None

    def catching_up(self) -> bool:
        """Whether this replica currently knows it is missing part of an
        advertised compacted prefix (the advert/pull catch-up window).
        Memoized per state version: the answer can only change when state
        changes, and callers probe it once per pending operation."""
        if self._await is None:
            return False
        if self._await_check is not None and self._await_check[0] == self._state_version:
            return self._await_check[1]
        self._refresh_await()
        result = self._await is not None
        self._await_check = (self._state_version, result)
        return result

    def _refresh_await(self) -> None:
        """Re-evaluate the catch-up condition against the awaited advert.

        The hole can close two ways: a transfer was adopted (our frontier
        moved past the awaited one), or ordinary gossip from peers that
        still track the missing operations re-delivered them all — in which
        case the advert's stability assertion now applies and is absorbed,
        exactly as if ``missing`` had been zero on first receipt.
        """
        if self._await is None:
            return
        if not self._behind_frontier(self._await.frontier):
            # Our frontier moved past the awaited one: only adoption can do
            # that while compaction is gated, and the adoption hook already
            # rebuilt any derived state.
            self._await = None
            return
        tracked, missing = self._coverage_position(self._await)
        if missing == 0 and self._absorb_coverage(self._await, tracked):
            self._await = None
            # The hole closed through ordinary gossip (no adoption ran):
            # derived state computed against the holed history — the
            # memoizing variants' memo/current state — must be rebuilt now
            # that the full prefix is tracked again.
            self._on_catchup_healed()

    def take_pending_pulls(self) -> List[PullRequestMessage]:
        """Drain the queued pull requests as sendable messages.

        Dropped pulls (or transfers) re-queue themselves: the next advert
        from a peer we are still behind re-enters the queue via
        :meth:`_consider_advert`, so retry needs no timer of its own.
        """
        pulls = [
            PullRequestMessage(
                requester=self.replica_id,
                target=peer,
                digest=advert.digest,
                frontier=advert.frontier,
                have_frontier=self.checkpoint.frontier,
            )
            for peer, advert in self._pull_queue.items()
        ]
        self._pull_queue.clear()
        return pulls

    def receive_pull_request(self, message: PullRequestMessage) -> List[CheckpointTransferMessage]:
        """Answer a pull with transfer chunks of our *current* checkpoint.

        The pull's ``digest`` echoes the identity of the advert that
        triggered it and is not compared with anything: the current
        checkpoint may have advanced past it (concurrent compaction), and
        that is fine — checkpoints are nested, so the newer body covers
        everything the requester asked for.  This is where the content
        digest is computed, once per body cut into chunks.  An empty
        checkpoint (possible after a volatile crash wiped nothing but the
        peer pulled against a stale advert from a previous incarnation — the
        checkpoint itself persists, so in practice only when nothing was
        ever compacted) yields no chunks; the requester retries off later
        adverts.
        """
        if message.target != self.replica_id:
            raise SpecificationError(
                f"pull request for {message.target!r} delivered to {self.replica_id!r}"
            )
        if self.checkpoint.count == 0:
            return []
        return checkpoint_transfers(
            self.checkpoint,
            sender=self.replica_id,
            requester=message.requester,
            epoch=self._epoch,
            chunk=self.checkpoint_chunk,
        )

    def receive_transfer(self, message: CheckpointTransferMessage) -> None:
        """Accumulate one transfer chunk; adopt the checkpoint when the
        assembly completes.

        Chunks are keyed per sender: a chunk under a newer digest (the
        sender compacted again mid-transfer) or a newer sender epoch (the
        sender crashed and recovered) replaces the partial assembly — in
        both cases the replacement checkpoint is nested over the abandoned
        one, so nothing is lost beyond the re-pulled chunks.

        The assembled body is verified against the content digest *its own
        chunks* carry, never against the advert that prompted the pull.  A
        malformed chunk or a body that fails the check is rejected and
        re-pulled (``stats.transfer_rejections``); nothing a peer can put in
        a chunk makes this raise.
        """
        if message.requester != self.replica_id:
            raise SpecificationError(
                f"transfer for {message.requester!r} delivered to {self.replica_id!r}"
            )
        if not self._behind_frontier(message.frontier):
            self._transfer_in.pop(message.sender, None)
            return  # already caught up through another peer's transfer
        assembly = self._transfer_in.get(message.sender)
        if assembly is not None and (
            message.epoch < assembly.epoch
            or label_sort_key(message.frontier) < label_sort_key(assembly.frontier)
        ):
            return  # delayed straggler from an older, superseded transfer
        if assembly is not None and (
            assembly.digest != message.digest or assembly.epoch != message.epoch
        ):
            assembly = None  # a newer transfer replaces the partial assembly
        if not 0 <= message.chunk_index < message.chunk_count or (
            assembly is not None and not assembly.agrees_with(message)
        ):
            # A chunk header corrupted in flight (or hostile): an index no
            # assembly of ``chunk_count`` chunks has, or a header that
            # contradicts the chunks already held — there is no telling
            # which side is the intact one, so the whole assembly goes.
            self._reject_transfer(message.sender)
            return
        if assembly is None:
            assembly = TransferAssembly(
                digest=message.digest,
                epoch=message.epoch,
                frontier=message.frontier,
                chunk_count=message.chunk_count,
            )
            self._transfer_in[message.sender] = assembly
        assembly.chunks[message.chunk_index] = message
        if not assembly.complete():
            return
        assembled = assembly.assemble()
        if assembled.digest() != assembly.digest:
            # The body was corrupted in flight: the chunks were sent under
            # the sender's content digest, and the checkpoint reassembled
            # from them no longer hashes to it.
            self._reject_transfer(message.sender)
            return
        del self._transfer_in[message.sender]
        self._merge_checkpoint(assembled)
        self._post_merge()

    def _reject_transfer(self, sender: str) -> None:
        """Discard *sender*'s assembly and re-queue the pull right away:
        waiting for the next advert is not enough on its own — a cluster
        that has quiesced (or one whose compaction stopped advancing) may
        never advertise again, and a corrupted *final* transfer would strand
        the catch-up."""
        self.stats.transfer_rejections += 1
        self._transfer_in.pop(sender, None)
        if self._await is not None:
            self._pull_queue[sender] = self._await

    def _merge_checkpoint(self, incoming: Checkpoint) -> None:
        """Merge a checkpoint body ahead of our frontier (eager gossip
        attaches it to messages; advert/pull delivers it via transfers).

        The checkpoint asserts that everything it covers is stable at every
        replica.  If we still track all of its operations *and* our fold
        order matches its ``order_digest`` (:meth:`_absorb_coverage`) we
        simply record that stability (and let our own policy fold them); if
        some are missing or our labels disagree — we are recovering from a
        crash with volatile memory, or joined a stream late — we adopt the
        checkpoint wholesale as our new base instead of waiting for a
        full-history replay that compacted peers can no longer send.
        """
        ours = self.checkpoint
        if incoming.count == 0 or not self._behind_frontier(incoming.frontier):
            return  # nested checkpoints: ours already covers the incoming one
        tracked, missing = self._coverage_position(incoming)
        if missing == 0 and self._absorb_coverage(incoming, tracked):
            self._refresh_await()
            return
        if not ours.ids.issubset(incoming.ids):  # pragma: no cover - defensive
            raise SpecificationError(
                f"non-nested checkpoints at {self.replica_id}: the stable prefix "
                "is totally ordered, so a larger frontier must cover a smaller one"
            )
        retention = self.compaction.value_retention if self.compaction is not None else None
        self.checkpoint = Checkpoint(
            base_state=incoming.base_state,
            frontier=incoming.frontier,
            ids=incoming.ids,
            values=ours.merged_values(incoming.values, retention),
            order_digest=incoming.order_digest,
        )
        covers = self.checkpoint.covers
        self.rcvd = {x for x in self.rcvd if not covers(x.id)}
        for i in self.replica_ids:
            self.done[i] = {x for x in self.done[i] if not covers(x.id)}
            self.stable[i] = {x for x in self.stable[i] if not covers(x.id)}
        self.labels = {op_id: l for op_id, l in self.labels.items() if not covers(op_id)}
        for op_id in [op_id for op_id in self._stable_storage if covers(op_id)]:
            del self._stable_storage[op_id]
        self._drop_unanswerable_pending()
        self._label_generator.observed(self.checkpoint.frontier)
        # Queued pulls the adopted frontier now satisfies would only fetch
        # bodies we already hold.
        self._pull_queue = {
            peer: advert
            for peer, advert in self._pull_queue.items()
            if self._behind_frontier(advert.frontier)
        }
        self._order_dirty = True
        self._on_checkpoint_adopted()
        self._refresh_await()
        self._state_version += 1

    def _drop_unanswerable_pending(self) -> None:
        """Prune pending entries this replica can provably never answer: a
        compacted operation whose retained value has been evicted (by a local
        fold under finite retention, or by an adopted checkpoint whose sender
        evicted it).  Left in place they would sit in ``pending`` forever —
        ``response_ready`` can never become true for them again."""
        if not self.pending:
            return
        self.pending = {
            op
            for op in self.pending
            if not (self.checkpoint.covers(op.id) and op.id not in self.checkpoint.values)
        }

    def _on_checkpoint_adopted(self) -> None:
        """Hook for subclasses to rebuild derived state after a wholesale
        checkpoint adoption (crash recovery catch-up)."""

    def _on_catchup_healed(self) -> None:
        """Hook for subclasses whose derived state advanced against a holed
        history: called when an advert/pull catch-up window closes through
        ordinary gossip re-delivery instead of a transfer adoption."""

    # ------------------------------------------------------------- state sizing

    def tracked_op_count(self) -> int:
        """Number of operations this replica keeps per-operation records for
        (the quantity compaction bounds; the checkpoint's folded operations
        are excluded — they cost an interval summary entry, not a record)."""
        return len(self.rcvd)

    def replayed_state(self) -> Any:
        """The data state after the full history as seen here: the checkpoint
        base plus the tracked done suffix in label order.  Inspection helper
        (does not touch the stats counters)."""
        state = self.checkpoint.base_state
        for x in self.done_order():
            state, _value = self.data_type.apply(state, x.op)
        return state

    # ----------------------------------------------------- crash/recovery (9.3)

    def crash(self, volatile_memory: bool = True) -> None:
        """Simulate a crash.  With non-volatile memory nothing is lost (a
        crash is indistinguishable from message delay); with volatile memory
        everything except the stable storage — the locally generated labels,
        the incarnation epoch, and the compaction checkpoint — is discarded,
        including all delta-gossip bookkeeping.

        Persisting the checkpoint is what makes compaction crash-safe: the
        forgotten per-operation records below the frontier can never be
        re-learned from peers (they may have compacted too), so the folded
        base state must survive.  Recovery then only needs gossip for the
        unstable suffix.
        """
        if not volatile_memory:
            return
        self.pending = set()
        self.rcvd = set()
        self.done = {i: set() for i in self.replica_ids}
        self.stable = {i: set() for i in self.replica_ids}
        self.labels = {}
        self._epoch += 1
        self._peer_out = {}
        self._peer_in = {}
        # Until a peer shows us a post-crash basis (a full-state message),
        # its deltas may rest on acks our previous incarnation issued.
        self._unsynced_peers = {i for i in self.replica_ids if i != self.replica_id}
        self._pull_queue = {}
        self._transfer_in = {}
        self._await = None
        self._await_check = None
        self._stale_nacks = []
        self._state_version += 1
        self._snapshot_cache = None
        # The rebuilt label map starts empty (recovery re-inserts below);
        # no pre-crash basis survives (_peer_out was just cleared), so the
        # journal restarts with the floor at the current version.
        self._label_journal_versions = []
        self._label_journal_ids = []
        self._label_journal_floor = self._label_version
        self._order_cache = []
        self._order_dirty = True
        self._on_crash()

    def _on_crash(self) -> None:
        """Hook for subclasses to discard derived volatile state on a crash
        with volatile memory (the persisted checkpoint is the restart
        point)."""

    def recover_from_stable_storage(self) -> None:
        """Reload the locally generated labels after a crash with volatile
        memory.  The key property (Section 9.3) is that after recovery the
        replica's label for each operation is no greater than the label it had
        before the crash; restoring the locally generated labels guarantees
        this, and gossip fills in everything else (peers fall back to
        full-state gossip once they observe the bumped epoch, or at the
        latest after ``full_state_interval`` sends)."""
        for op_id, label in self._stable_storage.items():
            if self.is_compacted(op_id):
                continue  # folded into the persisted checkpoint
            merged = label_min(self.label_of(op_id), label)
            if merged is not INFINITY:
                self.labels[op_id] = merged
                self._note_label_change(op_id)
        self._order_dirty = True
        self._state_version += 1

    # ----------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Any]:
        """A copy of the replica state used by invariant checks and the
        simulation-relation harness."""
        return {
            "replica_id": self.replica_id,
            "pending": set(self.pending),
            "rcvd": set(self.rcvd),
            "done": {i: set(ops) for i, ops in self.done.items()},
            "stable": {i: set(ops) for i, ops in self.stable.items()},
            "labels": dict(self.labels),
            "checkpoint": self.checkpoint,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Replica({self.replica_id}, done={len(self.done_here())}, "
            f"stable={len(self.stable_here())}, pending={len(self.pending)})"
        )

