"""The production replica core: :class:`FastReplicaCore`.

A :class:`~repro.algorithm.replica.ReplicaCore` subclass that keeps the
*authoritative* state exactly as the reference automaton does (``pending`` /
``rcvd`` / ``done[i]`` / ``stable[i]`` / ``labels`` — so ``snapshot()``, the
invariant checker and every harness keep working unchanged), re-implements
the profiled hot paths with interned keys and derived indexes, and is the
one home of the extensions the paper does not have.  It is the one
production path beside the reference automaton, selected by
``fast_core=True`` on :class:`~repro.config.ReplicaConfig`.

Extensions
----------

Each is switched on by its ``configure_*`` method (which
:meth:`~repro.config.ReplicaConfig.configure_core` calls); with all of them
off this core runs Fig. 7 exactly as the reference does.

* **Delta gossip** (:meth:`FastReplicaCore.configure_delta_gossip`) — each
  message to a peer carries only the knowledge that peer has not
  acknowledged (:mod:`repro.algorithm.delta` holds the seqno/ack/epoch
  machinery).  Append-only change journals of ``R``, ``D[me]``, ``S[me]``
  and the label stores, with one journal-position mark per send, let a
  delta walk just what entered the payload since the peer's acked send; an
  incarnation ``epoch`` in stable storage voids the acknowledgements a
  volatile crash wiped, and deltas resting on them are refused until a full
  state arrives.
* **Checkpoint compaction** (:meth:`FastReplicaCore.configure_compaction`) —
  the stable-everywhere prefix of the label order is folded into a
  :class:`~repro.algorithm.checkpoint.Checkpoint` and its per-operation
  records are dropped, bounding the tracked state by the unstable suffix.
  The checkpoint is stable storage (it survives a volatile crash), rides on
  full-state and frontier-advancing gossip, and a peer that fell behind the
  frontier adopts it wholesale.  A coverage is absorbed only after this
  replica's would-be fold order reproduces its chained ``order_digest``.
* **Adverts and pull/transfer** (:meth:`FastReplicaCore.configure_advert_gossip`)
  — gossip attaches a compact advert instead of the checkpoint body; a
  replica behind the advertised frontier queues a pull, enters catch-up
  (no replay-based answers, no compaction) and adopts the body once one
  transfer message carrying it matches its content digest.
* **Stale-response NACKs** — a retransmit for a compacted operation whose
  retained value aged out is answered with an explicit NACK.

The reference core runs none of these, so the lockstep differential in
``tests/test_fastcore.py`` checks each one against the paper: delta gossip
must give identical executions, compaction equal responses and replayed
states, and adverts with pull/transfer the outcome oracle and the Section
7/8 invariants.

Hot paths
---------

* **Label interning** — a finite label ``(rank, replica)`` packs into the
  single int ``rank * len(replicas) + replica_index`` (replica indices
  assigned in sorted-id order), which is order-isomorphic to
  :func:`~repro.algorithm.labels.label_sort_key` (``INFINITY`` maps to
  ``float("inf")``, after every finite key).  ``done_order`` re-sorts on int
  keys instead of ``(int, int, str)`` tuples.
* **One derived knowledge set, settled on read** — ``_stable_all`` is the
  set of operations present in every ``stable[i]``.  ``is_stable_everywhere``
  is one set probe and ``compactable_prefix`` walks the order against it,
  replacing per-element ``all(x in stable[i] ...)`` probes.  It is the only
  copy of knowledge kept beside the authoritative sets, kept as a settled
  part plus a worklist that a read intersects with the rows other than
  ``me``; nothing reads it during an ingest without compaction.
* **Set-difference gossip merges** — ``receive_gossip`` merges via C-speed
  set differences, tests checkpoint coverage only on elements not already
  tracked (sound because compaction removes folded records from *every*
  set: tracked implies not covered), and promotes stability incrementally —
  only operations newly added to a peer's done set this merge can newly
  become done-everywhere, because ``done[self]`` always contains every other
  ``done[i]`` (Invariant 7.1: gossip unions the incoming done set into both)
  so local ``do_it`` can never change the intersection.  The same invariant
  puts every candidate in ``done[me] ∩ done[sender]`` after the merge, so
  only the other rows are probed, one at a time; and since ``stable[me]``
  is the everywhere-done set (Invariant 7.2), an incoming stable operation
  already stable here is in every done row and is not pushed again.
* **Batched do/undone mirrors** — ``_undone`` (``rcvd - done_here``) and the
  done-id set are maintained incrementally so a ``do_all_ready`` sweep scans
  only candidates instead of rebuilding set differences and id sets per
  pass; ``repr``-based scheduling sort keys are cached per id.
* **O(1) fresh labels** — every label entering ``labels`` passes through
  ``fresh``/``observed`` (gossip merges note the maximum incoming rank), so
  the generator's next rank already exceeds every tracked label and
  ``do_it`` skips the existing-label scan entirely
  (:meth:`~repro.algorithm.labels.LabelGenerator.fresh_monotone`).  An
  explicitly supplied label (harness-driven ``do_it(x, label)``) takes the
  reference path, which validates it against the done set, and is then
  observed like a gossiped one.
* **Order splices, deferred across a batch** — a gossip merge splices the
  operations it makes done, and the done operations whose label it lowers,
  into the sorted order by bisecting the key backbone, instead of marking
  the order dirty.  :meth:`receive_gossip_batch` defers the splices of a
  whole wakeup's messages into two buffers (``_deferred_done`` /
  ``_deferred_reorders``) and applies them in one pass when the batch ends
  — or earlier, the moment anything reads the order (``done_order`` flushes
  first; with compaction enabled every per-message ``_post_merge`` flushes,
  so fold boundaries land exactly where the sequential path puts them).
  The buffers dedupe: an operation that entered ``done`` this batch is
  inserted once under its final label; a label lowered twice records only
  the oldest key (the one still in the backbone).
* **Verified-solid compaction prefix** — ``_solid`` counts the leading
  done-order positions already verified stable-everywhere and not pending,
  so the per-gossip ``compactable_prefix`` walk resumes where the previous
  one stopped.  It is clamped by the first position a splice touches and
  reset by re-sorts, folds, rebuilds, and by the one event that can
  re-block a solid position: a retransmitted request re-entering
  ``pending`` for an already-done operation.
* **Replay cache** — the reference core replays the whole done order on
  every response (Fig. 7); this core keeps the ids, post-states and values
  of its last replay and applies only the positions past them.  The cache
  is always a prefix of the clean order: ``do_it`` appends past it, a splice
  truncates it at the first position it touches, a fold head-trims it with
  the order, a full re-sort truncates it at the first position whose id
  moved, and a volatile crash or a checkpoint adoption drops it.  A fold
  therefore needs no check that the cache's head is the folded prefix: both
  are heads of the same order.  A post-state depends only on the operations
  before it, not on their labels, so ids are all a row needs.

Equivalence argument: every override either computes the same value through
a cheaper representation (int sort keys, one derived set, set differences),
skips work that is provably a no-op under a maintained invariant (fresh
label scan, coverage tests on tracked elements, stability probes of rows
that cannot refuse, replaying an order prefix whose post-states are
cached), defers work to before its first reader (the splice buffers), or
memoizes a predicate that is monotone between the events that reset it
(the solid prefix).  ``_stable_all`` is settled
on read from ``_stable_settled`` and the ``_stable_fresh`` worklist, which
has three maintenance sites: a gossip merge adds the operations that just
entered ``stable[me]`` or ``stable[sender]`` — no other row changes in a
merge, so nothing else can
newly be in every row, and an operation the merge itself promotes is not in
``stable[sender]`` yet — a compaction fold prunes what it removed, and the
wholesale sites (checkpoint adoption, volatile crash) clear it and
recompute the settled part from the authoritative sets.
``_mark_coverage_stable`` puts its argument in every row and settles it
outright.  The worklist is a subset of ``stable[me]``, and by Invariant 7.1
``stable[me]`` contains every other row, so a read only intersects the
worklist with the rows other than ``me``; an operation such a read drops
re-enters the worklist when it next enters a row.  A merge also settles a
worklist grown past twice the smallest other row (which bounds the
everywhere-stable set), so a replica that never reads holds no more than
the eager set would.  The lockstep differential against
:class:`~repro.algorithm.replica.ReplicaCore` (responses, witness order,
replayed states) and the conformance corpus enforce the argument in CI.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithm.checkpoint import (
    Checkpoint,
    CheckpointAdvert,
    CompactionPolicy,
    chain_order_digest,
)
from repro.algorithm.delta import ChangeJournal, PeerInState, PeerOutState, SendMark
from repro.algorithm.labels import Label, label_sort_key
from repro.algorithm.messages import (
    CheckpointTransferMessage,
    GossipMessage,
    PullRequestMessage,
    RequestMessage,
    checkpoint_transfer,
)
from repro.algorithm.replica import ReplicaCore
from repro.common import ConfigurationError, OperationId, SpecificationError
from repro.core.operations import OperationDescriptor

#: Sort key of "no label yet": after every finite packed label key.
_INFINITE_KEY = float("inf")

_ID = attrgetter("id")

#: Unions over journal chunks start here: set arguments lend their stored
#: hashes, where a list of descriptors would call ``__hash__`` per element.
_EMPTY: frozenset = frozenset()


def _iter_interval_diff(theirs, mine):
    """Yield the seqnos covered by *theirs* but not by *mine* (both sorted
    disjoint ``(lo, hi)`` interval sequences, as stored by ``OpIdSummary``)."""
    j = 0
    n = len(mine)
    for lo, hi in theirs:
        seq = lo
        while seq <= hi:
            while j < n and mine[j][1] < seq:
                j += 1
            if j < n and mine[j][0] <= seq:
                seq = mine[j][1] + 1
                continue
            end = hi if j >= n else min(hi, mine[j][0] - 1)
            for value in range(seq, end + 1):
                yield value
            seq = end + 1


class FastReplicaCore(ReplicaCore):
    """The production core.  With no extension switched on it is externally
    indistinguishable from :class:`ReplicaCore` (same responses, witness
    order, digests, message payloads); only wall-clock time and the counter
    of replay work (``value_applications``) may differ."""

    def __init__(self, replica_id, replica_ids, data_type) -> None:
        super().__init__(replica_id, replica_ids, data_type)
        ordered = sorted(self.replica_ids)
        #: Replica-id interning for packed label keys: indices follow the
        #: sorted id order so the packed int is order-isomorphic to the
        #: ``(rank, replica)`` lexicographic order.
        self._replica_index: Dict[str, int] = {r: i for i, r in enumerate(ordered)}
        self._rank_stride = len(ordered)
        self._my_index = self._replica_index[self.replica_id]
        #: Packed label keys parallel to ``_order_cache`` (valid while the
        #: order is clean) — the sorted backbone for bisect insertion.
        self._order_keys: List[int] = []
        #: The one derived knowledge set, the operations present in every
        #: ``stable[i]`` (what ``is_stable_everywhere`` and the compaction
        #: walk ask about), kept lazily: a settled part plus the worklist of
        #: operations that entered ``stable[me]`` or ``stable[sender]`` since
        #: the last read.  ``_stable_all`` settles the two on read.
        self._stable_settled: Set[Any] = set()
        self._stable_fresh: Set[Any] = set()
        #: Mirrors of done-here (id -> descriptor) and of ``rcvd - done_here``.
        self._done_index: Dict[Any, Any] = {}
        self._undone: Set[Any] = set()
        #: Cached ``repr(id)`` scheduling sort keys.
        self._repr_cache: Dict[Any, str] = {}
        #: Replay cache (volatile), always a prefix of the clean done order:
        #: the ids of the replayed operations, the state after each, and the
        #: value each reported (entries past a truncation are stale until
        #: the next replay overwrites them; nothing reads them before).
        self._replay_order: List[Any] = []
        self._replay_states: List[Any] = []
        self._replay_values: Dict[Any, Any] = {}
        #: Frontier of the largest checkpoint coverage fully absorbed (every
        #: covered operation marked done+stable everywhere, or folded).  A
        #: nested coverage re-attached to later gossip is a no-op.
        self._absorbed_frontier: Optional[Label] = None
        #: Depth of the active ``receive_gossip_batch`` (0 = not batching).
        self._batch_depth = 0
        #: Batch buffers: op id -> descriptor newly done this batch, and
        #: op id -> the *oldest* superseded label of a lowered entry (the
        #: key still present in the sorted backbone).
        self._deferred_done: Dict[Any, Any] = {}
        self._deferred_reorders: Dict[Any, Label] = {}
        #: Leading done-order positions verified stable-everywhere and not
        #: pending by a previous ``compactable_prefix`` walk.
        self._solid = 0

        #: Incarnation number, kept in stable storage: bumped on every crash
        #: with volatile memory so peers can tell that acknowledgements
        #: issued before the crash are void.
        self._epoch: int = 0
        #: Monotone counter bumped on every state mutation (the catch-up
        #: memo is keyed by it).
        self._state_version: int = 0

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
        #: Change journals (volatile): the sets of operations that entered
        #: ``rcvd``, ``done[me]`` and ``stable[me]`` together (one per merge,
        #: request or ``do_it``), and the ids whose label was stored, each in
        #: order, so a delta send walks only what changed since the peer's
        #: acked mark instead of copying the whole payload.
        self._rcvd_journal = ChangeJournal()
        self._done_journal = ChangeJournal()
        self._stable_journal = ChangeJournal()
        self._label_journal = ChangeJournal()
        #: The oldest mark any peer retains, which the journals are pruned
        #: to — marks are taken in time order, so its positions are the
        #: smallest in every journal — or None while no peer retains one,
        #: when nothing is journaled (a later mark starts at the ends).
        self._floor: Optional[SendMark] = None

        #: Stability-driven checkpoint compaction (Section 7.2 / Theorem 5.8
        #: made operational — see :mod:`repro.algorithm.checkpoint`).  The
        #: checkpoint lives in stable storage: it survives volatile crashes.
        self.compaction: Optional[CompactionPolicy] = None
        #: Harness hook invoked after each compaction with the folded batch
        #: (in label order) and the new checkpoint; used by the system/sim
        #: layers to keep the shared compacted-prefix ledger.
        self.on_compact: Optional[Callable[[List[OperationDescriptor], Checkpoint], None]] = None
        #: Retransmitted requests whose compacted value aged out of the
        #: ledger: queued for an explicit stale-response NACK instead of
        #: being silently dropped; drained by the harness.
        self._stale_nacks: List[OperationDescriptor] = []

        #: Advert/pull gossip configuration: with it enabled, gossip carries
        #: a compact checkpoint advert instead of the checkpoint body, and a
        #: behind peer pulls the body on demand.
        self.advert_gossip: bool = False
        #: Outgoing pull requests queued by staleness detection (volatile);
        #: keyed by the advertising peer, drained by the harness.
        self._pull_queue: Dict[str, CheckpointAdvert] = {}
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

    def configure_advert_gossip(self, enabled: bool = True) -> None:
        """Switch advert/pull checkpoint gossip on or off.

        With it on, full-state (and frontier-advancing delta) messages attach
        a :class:`~repro.algorithm.checkpoint.CheckpointAdvert` instead of
        the checkpoint body, bounding their steady-state payload; a receiver
        that detects it is behind the advertised frontier issues a pull
        request and the advertiser sends the body back in one message.
        Orthogonal to both delta gossip and the compaction policy itself.
        """
        self.advert_gossip = enabled

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

    # ------------------------------------------------------------- interning

    def _label_key(self, label) -> Any:
        """Packed int sort key, order-isomorphic to ``label_sort_key``."""
        if label is None or not isinstance(label, Label):
            return _INFINITE_KEY
        return label.rank * self._rank_stride + self._replica_index[label.replica]

    def _sort_repr(self, op_id) -> str:
        key = self._repr_cache.get(op_id)
        if key is None:
            key = repr(op_id)
            # A fold evicts the entries of what it removes; a compacted id
            # (a retransmit answered from retained values) is never folded
            # again, so nothing would evict its entry.
            if not self.checkpoint.covers(op_id):
                self._repr_cache[op_id] = key
        return key

    def _rebuild_fast_state(self) -> None:
        """Re-derive every mirror from the authoritative sets after a
        wholesale checkpoint adoption or a volatile crash.  Both mark the
        order dirty, so buffered splices are subsumed by the coming re-sort,
        and both void the marking knowledge behind the absorbed memo and
        every cached replay state."""
        self._stable_settled = set.intersection(*self.stable.values())
        self._stable_fresh = set()
        done_here = self.done[self.replica_id]
        self._done_index = {x.id: x for x in done_here}
        self._undone = self.rcvd - done_here
        self._repr_cache = {}
        self._absorbed_frontier = None
        self._deferred_done = {}
        self._deferred_reorders = {}
        self._solid = 0
        self._replay_order = []
        self._replay_states = []
        self._replay_values = {}

    _on_crash = _rebuild_fast_state

    def _truncate_replay(self, length: int) -> None:
        del self._replay_order[length:]
        del self._replay_states[length:]

    # ------------------------------------------------------------------ order

    def is_compacted(self, op_id: OperationId) -> bool:
        """Whether *op_id* has been folded into the checkpoint (its record
        dropped; it is received, done and stable at every replica, and its
        value is fixed forever).  Tracked implies not compacted, so a
        done-here operation (the common case on the response path) skips
        the interval bisect entirely."""
        if op_id in self._done_index:
            return False
        return self.checkpoint.covers(op_id)

    def done_order(self) -> List:
        """The *tracked* (non-compacted) done operations in label order;
        a fold trims the folded prefix off the cached order."""
        if self._deferred_done or self._deferred_reorders:
            self._flush_order_changes()
        if self._order_dirty:
            self._solid = 0  # the re-sort may move any position
            labels = self.labels
            stride = self._rank_stride
            index = self._replica_index
            items = list(self.done[self.replica_id])
            keys: List[Any] = []
            for x in items:
                label = labels.get(x.id)
                keys.append(
                    _INFINITE_KEY
                    if label is None
                    else label.rank * stride + index[label.replica]
                )
            # Stable, so equal keys (only the infinite ones can collide)
            # keep their input order.
            ranked = sorted(range(len(keys)), key=keys.__getitem__)
            self._order_cache = [items[i] for i in ranked]
            self._order_keys = [keys[i] for i in ranked]
            self._order_dirty = False
            self.stats.done_order_sorts += 1
            # The cached replay stays valid up to the first position whose
            # operation the re-sort moved.
            replayed = self._replay_order
            order = self._order_cache
            keep = 0
            limit = min(len(replayed), len(order))
            while keep < limit and replayed[keep] == order[keep].id:
                keep += 1
            self._truncate_replay(keep)
        return self._order_cache

    # ----------------------------------------------------------- request path

    def receive_request(self, message: RequestMessage) -> None:
        """``receive_cr(("request", x))``.

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
        tracked = len(self.rcvd)
        super().receive_request(message)
        if self._floor is not None and len(self.rcvd) != tracked:
            self._rcvd_journal.entries.append({operation})
        self._state_version += 1
        if operation.id in self._done_index:
            # Retransmit of an already-done operation: it re-enters pending,
            # so a previously verified-solid position may block again — the
            # one event that shrinks the solid prefix.
            self._solid = 0
        else:
            self._undone.add(operation)

    def take_stale_nacks(self) -> List[OperationDescriptor]:
        """Drain the queued stale-response NACKs (retransmits for compacted
        operations whose retained value was evicted).  The harness turns each
        into a ``ResponseMessage(..., stale=True, sender=...)`` so the front
        end can stop waiting once every replica has NACKed."""
        nacks, self._stale_nacks = self._stale_nacks, []
        return nacks

    def can_do(self, operation) -> bool:
        # Compacted operations count as done (they are done everywhere).  A
        # compacted operation is never in ``rcvd``, so it fails the first
        # test.
        if operation not in self.rcvd or operation in self.done[self.replica_id]:
            return False
        prev = operation.prev
        if not prev:
            return True
        done_ids = self._done_index
        checkpoint = self.checkpoint
        if checkpoint.count:
            covered = checkpoint.ids
            return all(p in done_ids or p in covered for p in prev)
        return all(p in done_ids for p in prev)

    def doable_operations(self) -> List:
        ready = [x for x in self._undone if self.can_do(x)]
        ready.sort(key=lambda x: self._sort_repr(x.id))
        return ready

    def do_it(self, operation, label: Optional[Label] = None) -> Label:
        if label is not None:
            # An explicit label (harness-driven) goes through the reference's
            # validation once; observing it keeps fresh_monotone valid.
            frontier = self.checkpoint.frontier
            if frontier is not None and label <= frontier:
                raise SpecificationError("new label must exceed the compaction frontier")
            assigned = super().do_it(operation, label)
            self._label_generator.observed(assigned)
            self._note_label_change(operation.id)
            if self._floor is not None:
                self._done_journal.entries.append({operation})
            self._state_version += 1
            if not self._order_dirty:
                # The reference appended to the order (the label exceeds
                # every done label); the key backbone must follow.
                self._order_keys.append(self._label_key(assigned))
            self._register_done_here(operation)
            return assigned
        if not self.can_do(operation):
            raise SpecificationError(
                f"do_it precondition fails for {operation.id} at replica {self.replica_id}"
            )
        # Every tracked label passed through fresh()/observed(), so the
        # generator's next rank already exceeds all of them: the reference's
        # existing-label scan would find nothing to skip past.
        assigned = self._label_generator.fresh_monotone()
        self.done[self.replica_id].add(operation)
        self.labels[operation.id] = assigned
        if self._floor is not None:
            self._done_journal.entries.append({operation})
            self._label_journal.entries.append(operation.id)
        self._stable_storage[operation.id] = assigned
        if not self._order_dirty:
            # fresh_monotone's rank exceeds every tracked rank, so the new
            # packed key is strictly greatest: appending keeps both sorted.
            self._order_cache.append(operation)
            self._order_keys.append(assigned.rank * self._rank_stride + self._my_index)
        self._state_version += 1
        self.stats.do_it_count += 1
        self._register_done_here(operation)
        return assigned

    def _register_done_here(self, operation) -> None:
        self._done_index[operation.id] = operation
        self._undone.discard(operation)

    # ---------------------------------------------------------- response path

    def knows_stable(self, operation) -> bool:
        # A compacted operation is stable here by construction.
        return operation in self.stable_here() or self.is_compacted(operation.id)

    def ready_responses(self) -> List:
        ready = [x for x in self.pending if self.response_ready(x)]
        ready.sort(key=lambda x: self._sort_repr(x.id))
        return ready

    def response_ready(self, operation) -> bool:
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
        # Tracked implies not compacted: the done index decides first.
        done = operation.id in self._done_index
        if not done and self.checkpoint.covers(operation.id):
            return operation.id in self.checkpoint.values
        if self.catching_up() and not self.data_type.state_independent(operation.op):
            return False
        if not done:
            return False
        return not operation.strict or self.is_stable_everywhere(operation)

    @property
    def _stable_all(self) -> Set[Any]:
        """The operations present in every ``stable[i]``, settled on read."""
        if self._stable_fresh:
            self._settle_stable()
        return self._stable_settled

    def _other_stable_rows(self) -> List[Set[Any]]:
        me = self.replica_id
        return [row for replica, row in self.stable.items() if replica != me]

    def _settle_stable(self) -> None:
        """Move the worklist's everywhere-stable operations to the settled
        set and empty it.  The worklist is a subset of ``stable[me]``, which
        contains every other row (Invariant 7.1), so the other rows decide,
        smallest first; what fails them now re-enters the worklist when it
        next enters a row."""
        fresh = self._stable_fresh
        for row in sorted(self._other_stable_rows(), key=len):
            fresh &= row
            if not fresh:
                break
        self._stable_settled |= fresh
        self._stable_fresh = set()

    def is_stable_everywhere(self, operation) -> bool:
        if operation in self._stable_all:
            return True
        # Tracked implies not compacted; an untracked operation is
        # stable-everywhere iff compacted (compaction only ever folds
        # operations already known stable everywhere).
        return self.is_compacted(operation.id)

    def compute_value(self, operation) -> Any:
        """The reference replay, resumed past the cached prefix: only the
        positions of the done order not yet replayed are applied, on top of
        the checkpoint base state.  The value of a compacted operation is
        fixed and served from the checkpoint's retained values."""
        if operation.id not in self._done_index:
            if self.checkpoint.covers(operation.id):
                try:
                    return self.checkpoint.values[operation.id]
                except KeyError:
                    raise SpecificationError(
                        f"value of compacted operation {operation.id} was evicted at "
                        f"{self.replica_id} (raise CompactionPolicy.value_retention)"
                    ) from None
            raise SpecificationError(
                f"cannot compute a value for {operation.id}: not done at {self.replica_id}"
            )
        order = self.done_order()  # flushes splices; a re-sort trims the cache
        replayed = self._replay_order
        states = self._replay_states
        start = len(states)
        if start < len(order):
            values = self._replay_values
            apply = self.data_type.apply
            state = states[-1] if start else self.checkpoint.base_state
            for x in order[start:]:
                state, reported = apply(state, x.op)
                replayed.append(x.id)
                states.append(state)
                values[x.id] = reported
            self.stats.value_applications += len(order) - start
        return self._replay_values[operation.id]

    # ------------------------------------------------------------ gossip path

    def _note_label_change(self, op_id: OperationId) -> None:
        """Record a store into ``labels`` in the label journal.

        Every site that inserts or replaces a label entry must call this (or
        inline the equivalent) so delta gossip's changed-since-basis
        enumeration stays exact.  Deletions (compaction, adoption filtering)
        need no entry: a delta reads each journaled id's current label, so a
        deleted entry simply never appears.
        """
        if self._floor is not None:
            self._label_journal.entries.append(op_id)

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
        seqno = out.next_seqno
        out.next_seqno += 1
        checkpoint = self.checkpoint
        mark = SendMark(
            out.stream, seqno, self._rcvd_journal.end, self._done_journal.end,
            self._stable_journal.end, self._label_journal.end, checkpoint,
        )
        if self._floor is None:
            self._floor = mark  # the journals are empty: they start here
        if out.record_send(mark):  # the cap dropped marks, perhaps the floor
            self._prune_journals()

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
                received=frozenset(self.rcvd),
                done=frozenset(self.done_here()),
                labels=dict(self.labels),
                stable=frozenset(self.stable_here()),
                epoch=self._epoch,
                stream=out.stream,
                seqno=seqno,
                **acks,
                **self._checkpoint_attachment(checkpoint),
            )
        out.sends_since_full += 1
        # A delta never resends knowledge at or below the acked basis — which
        # includes everything compacted since: those operations are no longer
        # live, so the journal slices drop them.  The checkpoint itself
        # travels (as body or advert) only when the frontier advanced past
        # what the basis already conveyed — the same "nothing below the acked
        # frontier is resent" rule the payload sets follow.
        advanced = checkpoint.count > basis.checkpoint.count
        return GossipMessage(
            sender=self.replica_id,
            received=_EMPTY.union(*self._rcvd_journal.since(basis.received)) & self.rcvd,
            done=_EMPTY.union(*self._done_journal.since(basis.done)) & self.done_here(),
            labels=self._labels_since(basis),
            stable=_EMPTY.union(*self._stable_journal.since(basis.stable)) & self.stable_here(),
            epoch=self._epoch,
            stream=out.stream,
            seqno=seqno,
            **acks,
            is_delta=True,
            basis=basis,
            **self._checkpoint_attachment(checkpoint if advanced else None),
        )

    def _labels_since(self, basis: SendMark) -> Dict[OperationId, Label]:
        """The label entries that differ from the ones at *basis* — the delta
        payload's ``L`` component.

        Labels change only through journaled stores, and a stored label
        differs from every label the id had before (an insertion follows no
        label — a deleted entry belonged to a folded id, which is never
        re-labelled — and a merge only ever lowers), so every journaled id
        that still has a label is in the delta, with its current label."""
        labels_get = self.labels.get
        delta: Dict[OperationId, Label] = {}
        for op_id in self._label_journal.since(basis.labels):
            label = labels_get(op_id)
            if label is not None:
                delta[op_id] = label
        return delta

    def _prune_journals(self) -> None:
        """Re-find the floor — the oldest mark any peer retains: its basis,
        or its oldest unacked send, which a later ack may make the basis —
        and drop the journal entries below it.  A later mark's positions are
        nowhere smaller, so the smallest position sum is the oldest mark.
        With none retained the journals empty and stop recording until the
        next send."""
        self._floor = floor = min(
            (mark for mark in (out.oldest() for out in self._peer_out.values())
             if mark is not None),
            key=lambda mark: mark.received + mark.done + mark.stable + mark.labels,
            default=None,
        )
        if floor is None:
            for journal in (self._rcvd_journal, self._done_journal,
                            self._stable_journal, self._label_journal):
                journal.prune(journal.end)
            return
        self._rcvd_journal.prune(floor.received)
        self._done_journal.prune(floor.done)
        self._stable_journal.prune(floor.stable)
        self._label_journal.prune(floor.labels)

    def _checkpoint_attachment(self, checkpoint: Optional[Checkpoint]) -> Dict[str, Any]:
        """The checkpoint-coverage field for an outgoing gossip message: the
        body under eager shipping, the compact advert under advert/pull."""
        if checkpoint is None or not checkpoint.count:
            return {}
        if self.advert_gossip:
            return {"advert": checkpoint.advert()}
        return {"checkpoint": checkpoint}

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
        me = self.replica_id
        if sender == me:
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

        received = message.received
        done = message.done | message.stable
        stable = message.stable
        checkpoint = self.checkpoint
        done_me = self.done[me]
        if checkpoint.count:
            # Compaction removed folded records from every set, so anything
            # already tracked is not covered: coverage only needs testing on
            # elements genuinely new here (few, in steady state).  ``done``
            # covers ``stable``'s candidates, and anything covered is absent
            # from both ``rcvd`` and ``done[me]``.
            maybe_new = (received - self.rcvd) | (done - done_me)
            if maybe_new:
                covers = checkpoint.covers
                blocked = {x for x in maybe_new if covers(x.id)}
                if blocked:
                    received = received - blocked
                    done = done - blocked
                    stable = stable - blocked

        journaling = self._floor is not None
        new_rcvd = received - self.rcvd
        if new_rcvd:
            self.rcvd |= new_rcvd
            if journaling:
                self._rcvd_journal.entries.append(new_rcvd)

        done_sender = self.done[sender]
        new_done_sender = done - done_sender
        if new_done_sender:
            done_sender |= new_done_sender
        promote = set(new_done_sender)

        new_done_me = done - done_me
        if new_done_me:
            done_me |= new_done_me
            if journaling:
                self._done_journal.entries.append(new_done_me)
            self._done_index.update(zip(map(_ID, new_done_me), new_done_me))
            self._undone -= new_done_me
        if new_rcvd:
            self._undone |= new_rcvd - done_me

        # Invariant 7.2: whatever is already stable here is in every done
        # row, so only the incoming stable operations new to ``stable[me]``
        # can be missing from another peer's row.  The same set is the
        # stable merge's ``changed`` below.
        stable_me = self.stable[me]
        changed = stable - stable_me
        if changed:
            for replica, target in self.done.items():
                if replica == me or replica == sender:
                    continue
                new_other = changed - target
                if new_other:
                    target |= new_other
                    promote |= new_other

        # label_r <- min(label_r, L); note the maximum incoming rank so the
        # generator invariant behind fresh_monotone() is maintained (the
        # reference calls observed() per entry).  Lowered labels of
        # previously done operations are collected for the incremental
        # order-maintenance pass below.
        newly_done_ids = {x.id for x in new_done_me} if new_done_me else frozenset()
        reorders: List[Tuple[Label, Any]] = []
        if message.labels:
            labels = self.labels
            covers = checkpoint.covers if checkpoint.count else None
            done_ids = self._done_index
            labels_get = labels.get
            journal = self._label_journal.entries if journaling else None
            max_rank = -1
            for op_id, label in message.labels.items():
                current = labels_get(op_id)
                if current is label:
                    # The sender re-sent the very object we already track (a
                    # merge stores the sender's instances, so steady-state
                    # re-deliveries hit this).  Its rank was counted toward
                    # the generator bound when it was first stored.
                    continue
                rank = label.rank
                if rank > max_rank:
                    max_rank = rank
                if current is None:
                    # A compacted operation's label was archived at the
                    # global minimum (Invariant 7.19); never re-track it.
                    if covers is None or not covers(op_id):
                        labels[op_id] = label
                        if journal is not None:
                            journal.append(op_id)
                elif rank < current.rank or (
                    rank == current.rank and label.replica < current.replica
                ):
                    labels[op_id] = label
                    if journal is not None:
                        journal.append(op_id)
                    if op_id in done_ids and op_id not in newly_done_ids:
                        reorders.append((current, op_id))
            generator = self._label_generator
            if max_rank >= generator._next_rank:
                generator._next_rank = max_rank + 1

        # Instead of marking the order dirty (a full re-sort downstream),
        # splice the changes into the sorted order in place and truncate the
        # replay cache at the first affected position — at once, or when the
        # active batch ends.  Label lowerings of *undone* operations do not
        # move anything in the order and need no bookkeeping at all.
        if reorders or new_done_me:
            if self._batch_depth:
                deferred_done = self._deferred_done
                for x in new_done_me:
                    deferred_done[x.id] = x
                deferred_reorders = self._deferred_reorders
                for old_label, op_id in reorders:
                    # Keep only the oldest superseded key per operation (the
                    # one still in the backbone); insertions this batch read
                    # their final label at flush time and need no reorder.
                    if op_id not in deferred_done and op_id not in deferred_reorders:
                        deferred_reorders[op_id] = old_label
            elif not self._order_dirty:
                self._apply_order_changes(reorders, new_done_me)

        stable_sender = self.stable[sender]
        new_stable_sender = stable - stable_sender
        if new_stable_sender:
            stable_sender |= new_stable_sender
        if changed:
            stable_me |= changed
            if journaling:
                self._stable_journal.entries.append(changed)
        # Only an operation that just entered ``stable[sender]`` or
        # ``stable[me]`` can newly be in every ``stable[i]`` (a merge
        # touches no other row): queue it for the next read to settle.  One
        # promoted below is not in ``stable[sender]`` (that row is within
        # ``stable[me]``, which lacked it), so it waits until it gets there.
        if changed or new_stable_sender:
            fresh = self._stable_fresh
            fresh |= changed
            fresh |= new_stable_sender
            # Every row bounds the everywhere-stable set, so a worklist over
            # twice the smallest other row is mostly operations that cannot
            # settle yet (a replica that never reads and never hears from
            # some peer would otherwise queue all of stable[me]): settle it
            # now, which starting from the smallest row makes cheap.
            if len(fresh) > 2 * min(map(len, self._other_stable_rows())):
                self._settle_stable()

        # Incremental stability promotion: only operations newly added to a
        # peer's done set can newly enter the everywhere-done intersection
        # (done[me] contains every other done[i], so local do_it never
        # changes it; see the module docstring).  Every candidate is in
        # done[me] and done[sender] by construction, so only the other rows
        # can say no; a 2-replica candidate is promoted without a probe.
        promote -= stable_me
        if promote:
            for replica, row in self.done.items():
                if replica == me or replica == sender:
                    continue
                promote &= row
                if not promote:
                    break
            if promote:
                stable_me |= promote
                if journaling:
                    self._stable_journal.entries.append(promote)

        self._state_version += 1
        self._record_gossip_bookkeeping(message)
        self.stats.gossip_received += 1
        self._post_merge()

    def receive_gossip_batch(self, messages: Sequence[GossipMessage]) -> None:
        if len(messages) <= 1:
            for message in messages:
                self.receive_gossip(message)
            return
        self._batch_depth += 1
        try:
            for message in messages:
                self.receive_gossip(message)
        finally:
            self._batch_depth -= 1
            if not self._batch_depth:
                self._flush_order_changes()

    def _flush_order_changes(self) -> None:
        """Apply (or, when a full re-sort is already pending, discard) the
        batch's deferred order splices.  Runs before anything reads the
        order; outside a batch the buffers are always empty."""
        if not (self._deferred_done or self._deferred_reorders):
            return
        reorders = [
            (old_label, op_id)
            for op_id, old_label in self._deferred_reorders.items()
        ]
        new_done = list(self._deferred_done.values())
        self._deferred_reorders = {}
        self._deferred_done = {}
        if not self._order_dirty:
            self._apply_order_changes(reorders, new_done)

    def _post_merge(self) -> None:
        if self.compaction is not None:
            # The compaction scan reads the order: bring it current first so
            # fold boundaries land exactly where the sequential path puts
            # them.  Without compaction nothing reads the order mid-batch
            # and the flush waits for the batch to end.
            self._flush_order_changes()
            self.maybe_compact()

    def _apply_order_changes(self, reorders, new_done_me) -> None:
        """Splice a gossip merge's order changes into the sorted done order.

        *reorders* are ``(old_label, op_id)`` pairs for already-done
        operations whose label was lowered; *new_done_me* are operations that
        just entered ``done[me]``.  Packed keys are unique (labels are
        globally unique and each done operation has exactly one), so
        ``bisect_left`` on the key backbone locates elements exactly.  The
        replay cache is truncated at the first affected position — entries
        below it were never moved, so it remains a prefix of the new order —
        and the solid-prefix memo is clamped at it.  A splice that bails out
        to a full re-sort sets ``_order_dirty``, whose re-sort trims the
        cache and resets the memo.
        """
        keys = self._order_keys
        cache = self._order_cache
        labels = self.labels
        stride = self._rank_stride
        index = self._replica_index
        min_pos = len(self._replay_order)
        for old_label, op_id in reorders:
            old_key = old_label.rank * stride + index[old_label.replica]
            pos = bisect_left(keys, old_key)
            if pos >= len(keys) or cache[pos].id != op_id:  # pragma: no cover
                # Mirror out of sync (an op done without a tracked label):
                # fall back to a full re-sort, which also trims the replay
                # cache to the prefix that did not move.
                self._order_dirty = True
                return
            x = cache.pop(pos)
            del keys[pos]
            if pos < min_pos:
                min_pos = pos
            label = labels[op_id]
            new_key = label.rank * stride + index[label.replica]
            pos = bisect_left(keys, new_key)
            keys.insert(pos, new_key)
            cache.insert(pos, x)
            if pos < min_pos:
                min_pos = pos
        for x in new_done_me:
            label = labels.get(x.id)
            if label is None:  # pragma: no cover - defensive
                # Done without a label (gossip never produces this): the
                # sorted backbone cannot place it; re-sort instead.
                self._order_dirty = True
                return
            new_key = label.rank * stride + index[label.replica]
            pos = bisect_left(keys, new_key)
            keys.insert(pos, new_key)
            cache.insert(pos, x)
            if pos < min_pos:
                min_pos = pos
        self._truncate_replay(min_pos)
        if min_pos < self._solid:
            self._solid = min_pos

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
        out = self._peer_out_state(sender)
        # Only the peer holding the floor can move it.
        holds_floor = self._floor is not None and out.oldest() is self._floor
        moved = False
        if message.epoch > in_state.epoch:
            # The sender restarted: its seqno streams start over and every
            # acknowledgement it issued before the crash is void.
            in_state.reset(message.epoch)
            out.reset()
            moved = True
        if merged and message.seqno is not None and message.epoch == in_state.epoch:
            in_state.record_receipt(message.stream, message.seqno,
                                    is_full=not message.is_delta)
        if (message.ack is not None
                and message.ack_epoch == self._epoch
                and message.ack_stream == out.stream):
            moved = out.apply_ack(message.ack) or moved
        if moved and holds_floor:
            self._prune_journals()

    def _mark_coverage_stable(self, tracked: Set[OperationDescriptor]) -> None:
        """Absorb a checkpoint's stability assertion for operations still
        tracked here (sound: the sender verified ``x in stable_sender[i]``
        for every replica ``i`` before compacting, and ``stable_sender[i]``
        is within ``stable_i[i]``)."""
        if not tracked:
            return
        if self._floor is not None:
            # Every tracked operation is done here already (the coverage
            # walk finds them in the done index), so only ``S[me]`` grows.
            self._stable_journal.entries.append(tracked - self.stable_here())
        for i in self.replica_ids:
            self.done[i] |= tracked
            self.stable[i] |= tracked
        self._state_version += 1
        # Now in every row: settled outright.
        self._stable_settled |= tracked

    # --------------------------------------------------- checkpoint compaction

    def compactable_prefix(self) -> List:
        # Resume the walk at the verified-solid watermark.
        order = self.done_order()
        stable_all = self._stable_all
        pending = self.pending
        pos = self._solid
        if pos > len(order):  # pragma: no cover - defensive
            pos = 0
        n = len(order)
        while pos < n:
            x = order[pos]
            if x in pending or x not in stable_all:
                break
            pos += 1
        self._solid = pos
        return order[:pos]

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
        return self._compact(prefix)

    def _compact(self, prefix: List[OperationDescriptor]) -> int:
        """Fold *prefix* into the checkpoint and drop its per-operation
        records from every tracked structure.

        The fold is the head of the clean order (``compactable_prefix`` read
        it) and the replay cache a prefix of the same order, so a cache that
        reaches the fold's boundary holds the fold's post-state and values,
        and trimming the folded head off both keeps the cache a prefix."""
        count = len(prefix)
        states = self._replay_states
        replayed = None
        if len(states) >= count:
            values = self._replay_values
            replayed = states[count - 1], [values[op_id] for op_id in self._replay_order[:count]]
        self.checkpoint, applications = self.checkpoint.extend(
            prefix, self.data_type, self.labels,
            value_retention=self.compaction.value_retention,
            replayed=replayed,
        )
        self.stats.compaction_applications += applications
        removed = set(prefix)
        self.rcvd -= removed
        for i in self.replica_ids:
            self.done[i] -= removed
            self.stable[i] -= removed
        done_index = self._done_index
        repr_cache = self._repr_cache
        values = self._replay_values
        for x in prefix:
            op_id = x.id
            self.labels.pop(op_id, None)
            self._stable_storage.pop(op_id, None)
            done_index.pop(op_id, None)
            repr_cache.pop(op_id, None)
            values.pop(op_id, None)
        # Locally generated labels must keep exceeding the frontier even
        # though the compacted labels left the generator's inputs.
        self._label_generator.observed(self.checkpoint.frontier)
        self._drop_unanswerable_pending()
        order = self._order_cache
        if (
            not self._order_dirty
            and len(self._order_keys) == len(order)
            and [x.id for x in order[:count]] == [x.id for x in prefix]
        ):
            del order[:count]
            del self._order_keys[:count]
            del self._replay_order[:count]
            del self._replay_states[:count]
        else:  # pragma: no cover - defensive; the prefix is the order's head
            self._order_dirty = True
            self._truncate_replay(0)
        # The fold removed *removed* from every row.
        self._stable_settled -= removed
        self._stable_fresh -= removed
        self._solid = 0
        self._state_version += 1
        self.stats.compactions += 1
        self.stats.compacted_operations += count
        if self.on_compact is not None:
            self.on_compact(prefix, self.checkpoint)
        return count

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

    # ------------------------------------------------------- checkpoint coverage

    def _coverage_position(self, coverage) -> Tuple[Set[OperationDescriptor], int]:
        """How much of *coverage* (a checkpoint body or advert — anything
        with ``covers``/``ids``/``count``) this replica already holds:
        the covered operations still tracked here, and the number of covered
        identifiers missing entirely (neither tracked nor in our own
        checkpoint)."""
        # Absorbed memo: once a coverage with this (or a larger) frontier has
        # been fully absorbed — every covered operation marked done+stable
        # everywhere or folded into our own checkpoint — a nested coverage
        # conveys nothing new.  The stable prefix is totally ordered, so an
        # equal-or-smaller frontier means an equal-or-smaller id set; both
        # callers (`_merge_checkpoint`, `_consider_advert`/`_refresh_await`)
        # treat ``(set(), 0)`` as already absorbed (`_absorb_coverage`
        # accepts an empty tracked set without re-verifying the order).
        frontier = coverage.frontier
        absorbed = self._absorbed_frontier
        if absorbed is not None and label_sort_key(frontier) <= label_sort_key(absorbed):
            return set(), 0
        # Scanning every done-here operation against the incoming coverage
        # would run per attached checkpoint, on every gossip message.  In
        # steady state the incoming summary covers only slightly more than our
        # own checkpoint, so enumerate that interval difference instead and
        # probe the done index: tracked operations are never covered by our
        # own checkpoint (compaction drops their records), so every done-here
        # operation the coverage covers lies in the difference.
        ours = self.checkpoint.ids
        cov_ids = coverage.ids
        done_index = self._done_index
        diff_count = coverage.count - ours.intersection_count(cov_ids)
        if diff_count > 2 * len(done_index) + 64 or (
            ours.count and not ours.issubset(cov_ids)
        ):
            # Far behind (crash recovery) or non-nested summaries: the scan
            # over done-here is the cheaper/safer path.
            tracked = {x for x in self.done_here() if coverage.covers(x.id)}
            missing = diff_count - len(tracked)
        else:
            tracked = set()
            missing = 0
            ours_ranges = ours.ranges
            for client, theirs in cov_ids.ranges.items():
                mine = ours_ranges.get(client, ())
                for seqno in _iter_interval_diff(theirs, mine):
                    x = done_index.get(OperationId(client, seqno))
                    if x is not None:
                        tracked.add(x)
                    else:
                        missing += 1
        return tracked, missing


    def _behind_frontier(self, frontier: Label) -> bool:
        """Whether *frontier* is ahead of our own compaction frontier."""
        ours = self.checkpoint.frontier
        return ours is None or label_sort_key(ours) < label_sort_key(frontier)

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
        # Memoize only once the absorption actually happened — a refused
        # coverage must be re-examined by every subsequent advert until the
        # body is adopted.
        self._absorbed_frontier = coverage.frontier
        return True

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
        self._rebuild_fast_state()
        self._refresh_await()
        self._state_version += 1

    # ------------------------------------------------------- advert/pull catch-up

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
            # that while compaction is gated, and adoption already rebuilt
            # the derived state.
            self._await = None
            return
        tracked, missing = self._coverage_position(self._await)
        if missing == 0 and self._absorb_coverage(self._await, tracked):
            self._await = None

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

    def receive_pull_request(
        self, message: PullRequestMessage
    ) -> Optional[CheckpointTransferMessage]:
        """Answer a pull with a transfer of our *current* checkpoint.

        The pull's ``digest`` echoes the identity of the advert that
        triggered it and is not compared with anything: the current
        checkpoint may have advanced past it (concurrent compaction), and
        that is fine — checkpoints are nested, so the newer body covers
        everything the requester asked for.  This is where the content
        digest is computed, once per answered pull.  An empty checkpoint
        (possible after a volatile crash wiped nothing but the peer pulled
        against a stale advert from a previous incarnation — the checkpoint
        itself persists, so in practice only when nothing was ever
        compacted) yields no transfer; the requester retries off later
        adverts.
        """
        if message.target != self.replica_id:
            raise SpecificationError(
                f"pull request for {message.target!r} delivered to {self.replica_id!r}"
            )
        if self.checkpoint.count == 0:
            return None
        return checkpoint_transfer(
            self.checkpoint, sender=self.replica_id, requester=message.requester
        )

    def receive_transfer(self, message: CheckpointTransferMessage) -> None:
        """Adopt the checkpoint a transfer carries.

        The body is verified against the content digest the message
        itself carries, never against the advert that prompted the pull.
        A body that fails the check is rejected and re-pulled
        (``stats.transfer_rejections``); nothing a peer can put in a
        transfer makes this raise.
        """
        if message.requester != self.replica_id:
            raise SpecificationError(
                f"transfer for {message.requester!r} delivered to {self.replica_id!r}"
            )
        if not self._behind_frontier(message.frontier):
            return  # already caught up through another peer's transfer
        body = message.body()
        if body.digest() != message.digest:
            # The body was corrupted in flight: it was sent under the
            # sender's content digest and no longer hashes to it.
            self._reject_transfer(message.sender)
            return
        self._merge_checkpoint(body)
        self._post_merge()

    def _reject_transfer(self, sender: str) -> None:
        """Re-queue the pull to *sender* right away: waiting for the next
        advert is not enough on its own — a cluster that has quiesced (or
        one whose compaction stopped advancing) may never advertise again,
        and a corrupted transfer would strand the catch-up."""
        self.stats.transfer_rejections += 1
        if self._await is not None:
            self._pull_queue[sender] = self._await

    # ------------------------------------------------------------- state sizing

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
        """Simulate a crash.  Beside the reference core's stable storage
        (the locally generated labels), the incarnation epoch and the
        compaction checkpoint survive a crash with volatile memory; all
        delta-gossip, catch-up and NACK bookkeeping is discarded.

        Persisting the checkpoint is what makes compaction crash-safe: the
        forgotten per-operation records below the frontier can never be
        re-learned from peers (they may have compacted too), so the folded
        base state must survive.  Recovery then only needs gossip for the
        unstable suffix.
        """
        if not volatile_memory:
            return
        self._epoch += 1
        self._peer_out = {}
        self._peer_in = {}
        # Until a peer shows us a post-crash basis (a full-state message),
        # its deltas may rest on acks our previous incarnation issued.
        self._unsynced_peers = {i for i in self.replica_ids if i != self.replica_id}
        self._pull_queue = {}
        self._await = None
        self._await_check = None
        self._stale_nacks = []
        self._state_version += 1
        # No pre-crash mark survives (_peer_out was just cleared), so
        # nothing reads the journals until the next send.
        self._prune_journals()
        super().crash(volatile_memory)

    def recover_from_stable_storage(self) -> None:
        """Reload the locally generated labels (peers fall back to full-state
        gossip once they observe the bumped epoch, or at the latest after
        ``full_state_interval`` sends).  Stable storage never holds a
        compacted identifier — a fold and an adoption prune it — so every
        reloaded label is tracked, and each one it changes is journaled (a
        recovery that kept its memory changes none)."""
        labels = self.labels
        before = {op_id: labels.get(op_id) for op_id in self._stable_storage}
        super().recover_from_stable_storage()
        for op_id, label in before.items():
            if labels[op_id] is not label:
                self._note_label_change(op_id)
        self._state_version += 1
