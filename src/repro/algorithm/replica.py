"""The replica state machine (Section 6.3, Fig. 7) with crash recovery
from stable storage (Section 9.3).

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
computed by replaying ``done[r]`` in label order from the initial state.
:class:`ReplicaCore` does exactly that, from scratch on every response (the
paper's unoptimized ``send_rc``), gossips its full knowledge (``send_rr'``)
and merges what it receives by union and label minimum.  A crash with
volatile memory keeps only the locally generated labels (Section 9.3).
That is all it does: it is the readable executable specification, and the
oracle the production core is checked against.

Every other core derives from it:

* :class:`repro.algorithm.fastcore.FastReplicaCore`, the production core,
  computes the same values through interned keys, derived indexes and a
  replay cache, and alone carries the extensions the paper does not have:
  delta gossip (:mod:`repro.algorithm.delta`), checkpoint compaction
  (:mod:`repro.algorithm.checkpoint`), advert/pull catch-up and
  stale-response NACKs;
* :class:`repro.algorithm.memoized.MemoizedReplicaCore` is the paper's own
  Section 10.1 variant, memoizing the *solid* prefix whose order can never
  change again and replaying only the suffix after it;
  :class:`repro.algorithm.commute.CommuteReplicaCore` (Section 10.3) is that
  replica plus a current state, and answers a not-yet-memoized operation
  from the value recorded when it was applied instead of replaying.

The harnesses drive every core through the same calls.  The two queues only
the production core can fill — pull requests and stale-response NACKs — are
drained here too, and are always empty; ``checkpoint`` is the empty
checkpoint, which covers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithm.checkpoint import Checkpoint
from repro.algorithm.labels import Label, LabelGenerator, LabelOrInfinity, label_min, label_sort_key
from repro.algorithm.messages import GossipMessage, RequestMessage, ResponseMessage
from repro.common import INFINITY, ConfigurationError, OperationId, SpecificationError
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType


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
    #: Checkpoint transfers discarded because their recomputed content
    #: digest did not match the one they were sent under (corruption in
    #: flight); each rejection is healed by a re-pull.
    transfer_rejections: int = 0
    #: Coverage absorptions refused because this replica's would-be fold
    #: order did not reproduce the compactor's chained ``order_digest``
    #: (post-crash mislabelled copies); each refusal routes through the
    #: pull/adopt path instead.
    coverage_order_mismatches: int = 0
    #: Delta payloads discarded after a volatile crash because the sender's
    #: delta basis rested on acknowledgements issued by this replica's
    #: previous incarnation (see
    #: :meth:`~repro.algorithm.fastcore.FastReplicaCore.receive_gossip`).
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

        #: The compacted prefix every harness reads.  This core never
        #: compacts, so it stays the empty checkpoint: it covers nothing and
        #: its base state is the initial state.
        self.checkpoint: Checkpoint = Checkpoint.empty(data_type.initial_state())

        #: Sorted-suffix cache for :meth:`done_order`: the done set in label
        #: order, kept valid across ``do_it`` (append — the fresh label
        #: exceeds every existing one) and invalidated when gossip lowers an
        #: existing label or adds done operations.
        self._order_cache: List[OperationDescriptor] = []
        self._order_dirty: bool = True

        self.stats = ReplicaStats()

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

    def done_order(self) -> List[OperationDescriptor]:
        """The operations done at this replica, in label (``lc_r``) order.

        Served from the sorted-suffix cache; callers must treat the returned
        list as read-only.  ``do_it`` appends in place (a fresh label exceeds
        every existing one), so a full re-sort only happens when gossip
        actually reorders the order.
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
        """``receive_cr(("request", x))``: record the pending request."""
        operation = message.operation
        self.pending.add(operation)
        self.rcvd.add(operation)

    def take_stale_nacks(self) -> List[OperationDescriptor]:
        """Drain the queued stale-response NACKs.  Only a compacting core
        can lose a value, so this queue is always empty here."""
        return []

    def can_do(self, operation: OperationDescriptor) -> bool:
        """Precondition of ``do_it_r(x, l)``: received, not yet done here, and
        every operation in ``prev`` already done here."""
        return self._can_do(operation, {x.id for x in self.done_here()})

    def _can_do(self, operation: OperationDescriptor, done_ids: Set[OperationId]) -> bool:
        if operation not in self.rcvd or operation in self.done_here():
            return False
        return all(p in done_ids for p in operation.prev)

    def doable_operations(self) -> List[OperationDescriptor]:
        """Operations for which ``do_it`` is currently enabled (the done-id
        set is built once per scan, not once per candidate)."""
        done_ids = {x.id for x in self.done_here()}
        return sorted(
            (x for x in self.rcvd - self.done_here() if self._can_do(x, done_ids)),
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
        self.done_here().add(operation)
        self.labels[operation.id] = label
        self._stable_storage[operation.id] = label
        if not self._order_dirty:
            # The fresh label exceeds every label of the done set, so the
            # sorted order extends by exactly this operation.
            self._order_cache.append(operation)
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
        """``x in stable_r[r]`` — the predicate convergence checks and
        stabilization tracking quantify over."""
        return operation in self.stable_here()

    def is_stable_everywhere(self, operation: OperationDescriptor) -> bool:
        """``x in  ⋂_i stable_r[i]`` — this replica knows the operation is
        stable at every replica (the gate for strict responses)."""
        return all(operation in self.stable[i] for i in self.replica_ids)

    def response_ready(self, operation: OperationDescriptor) -> bool:
        """Precondition of ``send_rc(("response", x, v))``: pending, done
        here, and — for a strict operation — stable everywhere."""
        if operation not in self.pending or operation not in self.done_here():
            return False
        return not operation.strict or self.is_stable_everywhere(operation)

    def ready_responses(self) -> List[OperationDescriptor]:
        """Pending operations for which a response may be sent now."""
        return sorted(
            (x for x in self.pending if self.response_ready(x)),
            key=lambda x: repr(x.id),
        )

    def compute_value(self, operation: OperationDescriptor) -> Any:
        """``v in valset(x, done_r[r], <_lc_r)`` — by Invariant 7.15 the local
        constraints totally order ``done_r[r]``, so the value is unique and is
        obtained by replaying the done operations in label order from the
        initial state."""
        if operation not in self.done_here():
            raise SpecificationError(
                f"cannot compute a value for {operation.id}: not done at {self.replica_id}"
            )
        state = self.data_type.initial_state()
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

    def make_gossip(self, destination: Optional[str] = None) -> GossipMessage:
        """``send_rr'(("gossip", R, D, L, S))``: the replica's full current
        received/done/label/stable knowledge, whatever the destination."""
        self.stats.gossip_sent += 1
        return GossipMessage(
            sender=self.replica_id,
            received=frozenset(self.rcvd),
            done=frozenset(self.done_here()),
            labels=dict(self.labels),
            stable=frozenset(self.stable_here()),
        )

    def take_pending_pulls(self) -> List[Any]:
        """Drain the queued checkpoint pull requests.  Only a core that
        gossips checkpoint adverts queues any, so this is always empty here."""
        return []

    def receive_gossip(self, message: GossipMessage) -> None:
        """``receive_r'r(("gossip", R, D, L, S))`` — merge the sender's
        knowledge into ours (Fig. 7): union ``R`` into ``rcvd``, ``D`` and
        ``S`` into the done rows the message speaks for, ``S`` into the
        stable rows, and take the minimum of every label."""
        sender = message.sender
        if sender == self.replica_id:
            raise SpecificationError("a replica does not gossip with itself")
        if sender not in self.done:
            raise SpecificationError(f"gossip from unknown replica {sender!r}")
        done = message.done | message.stable
        stable = message.stable

        done_before = len(self.done_here())
        self.rcvd |= message.received
        self.done[sender] |= done
        self.done[self.replica_id] |= done
        for replica in self.replica_ids:
            if replica not in (self.replica_id, sender):
                self.done[replica] |= stable

        # label_r <- min(label_r, L)
        label_lowered = False
        for op_id, label in message.labels.items():
            self._label_generator.observed(label)
            current = self.labels.get(op_id)
            merged = label_min(INFINITY if current is None else current, label)
            if merged is not INFINITY and merged is not current:
                self.labels[op_id] = merged
                if current is not None:
                    label_lowered = True

        if label_lowered or len(self.done_here()) != done_before:
            self._order_dirty = True

        self.stable[sender] |= stable
        self.stable[self.replica_id] |= stable
        self._promote_stable()
        self.stats.gossip_received += 1

    def receive_gossip_batch(self, messages: Sequence[GossipMessage]) -> None:
        """Merge a coalesced batch of gossip messages delivered in one
        wakeup (the simulator's ``batch_gossip`` coalescing and the net
        runtime's per-frame delivery both produce these).

        The default is the sequential per-message merge, so every variant
        accepts batches; :class:`~repro.algorithm.fastcore.FastReplicaCore`
        overrides it to defer the order splices across the whole batch."""
        for message in messages:
            self.receive_gossip(message)

    def _promote_stable(self) -> None:
        """``stable_r[r] <- stable_r[r] u ⋂_i done_r[i]`` — operations this
        replica knows are done everywhere become stable here."""
        everywhere = set.intersection(*(self.done[i] for i in self.replica_ids))
        self.stable[self.replica_id] |= everywhere

    # ------------------------------------------------------------- state sizing

    def tracked_op_count(self) -> int:
        """Number of operations this replica keeps per-operation records for
        (what compaction bounds on the production core)."""
        return len(self.rcvd)

    def replayed_state(self) -> Any:
        """The data state after the full history as seen here: the done set
        in label order, from the initial state.  Inspection helper (does not
        touch the stats counters)."""
        state = self.data_type.initial_state()
        for x in self.done_order():
            state, _value = self.data_type.apply(state, x.op)
        return state

    # ----------------------------------------------------- crash/recovery (9.3)

    def crash(self, volatile_memory: bool = True) -> None:
        """Simulate a crash.  With non-volatile memory nothing is lost (a
        crash is indistinguishable from message delay); with volatile memory
        everything except the stable storage — the locally generated
        labels — is discarded."""
        if not volatile_memory:
            return
        self.pending = set()
        self.rcvd = set()
        self.done = {i: set() for i in self.replica_ids}
        self.stable = {i: set() for i in self.replica_ids}
        self.labels = {}
        self._order_cache = []
        self._order_dirty = True
        self._on_crash()

    def _on_crash(self) -> None:
        """Hook for subclasses to discard derived volatile state on a crash
        with volatile memory."""

    def recover_from_stable_storage(self) -> None:
        """Reload the locally generated labels after a crash with volatile
        memory.  The key property (Section 9.3) is that after recovery the
        replica's label for each operation is no greater than the label it had
        before the crash; restoring the locally generated labels guarantees
        this, and gossip fills in everything else."""
        for op_id, label in self._stable_storage.items():
            merged = label_min(self.label_of(op_id), label)
            if merged is not INFINITY:
                self.labels[op_id] = merged
        self._order_dirty = True

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
