"""The production replica core: :class:`FastReplicaCore`.

A drop-in :class:`~repro.algorithm.replica.ReplicaCore` subclass that keeps
the *authoritative* state exactly as the base class does (``pending`` /
``rcvd`` / ``done[i]`` / ``stable[i]`` / ``labels`` — so ``snapshot()``, the
invariant checker and every harness keep working unchanged) but re-implements
the profiled hot paths with interned keys and derived indexes.  It is the
one optimised path beside the reference automaton, selected by
``fast_core=True`` on :class:`~repro.config.ReplicaConfig`:

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
  (:meth:`~repro.algorithm.labels.LabelGenerator.fresh_monotone`).  The
  first explicitly supplied label (harness-driven ``do_it(x, label)``)
  permanently falls back to the base path, which re-validates against the
  done set.
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
has three maintenance sites: a gossip merge (and a direct
``_promote_stable``) adds the operations that just entered ``stable[me]`` or
``stable[sender]`` — no other row changes in a merge, so nothing else can
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
the eager set would.  Lockstep seeded twins
against :class:`ReplicaCore` (responses, witness order, state digests) and
the conformance corpus enforce the argument in CI.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithm.labels import Label, label_sort_key
from repro.algorithm.messages import GossipMessage, RequestMessage
from repro.algorithm.replica import ReplicaCore
from repro.common import OperationId, SpecificationError

#: Sort key of "no label yet": after every finite packed label key.
_INFINITE_KEY = float("inf")

_ID = attrgetter("id")


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
    """The production core.  Externally indistinguishable from
    :class:`ReplicaCore` (same responses, witness order, digests, message
    payloads); only wall-clock time and the counter of replay work
    (``value_applications``) may differ."""

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
        #: Set once a label is supplied explicitly; disables the O(1)
        #: fresh-label path (the monotonicity invariant no longer holds).
        self._explicit_labels = False
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

    def _truncate_replay(self, length: int) -> None:
        del self._replay_order[length:]
        del self._replay_states[length:]

    # ------------------------------------------------------------------ order

    def done_order(self) -> List:
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
        super().receive_request(message)
        operation = message.operation
        if operation.id in self._done_index:
            # Retransmit of an already-done operation: it re-enters pending,
            # so a previously verified-solid position may block again — the
            # one event that shrinks the solid prefix.
            self._solid = 0
        elif operation in self.rcvd:
            self._undone.add(operation)

    def can_do(self, operation) -> bool:
        # Tracked implies not compacted, so membership in ``rcvd`` subsumes
        # the base class's coverage pre-check; a compacted operation is
        # never in ``rcvd`` and fails here exactly as it does there.
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
        if label is not None or self._explicit_labels:
            if label is not None:
                self._explicit_labels = True
            assigned = super().do_it(operation, label)
            if not self._order_dirty:
                # The base class appended to the order (the label exceeds
                # every done label); the key backbone must follow.
                self._order_keys.append(self._label_key(assigned))
            self._register_done_here(operation)
            return assigned
        if not self.can_do(operation):
            raise SpecificationError(
                f"do_it precondition fails for {operation.id} at replica {self.replica_id}"
            )
        # Every tracked label passed through fresh()/observed(), so the
        # generator's next rank already exceeds all of them: the base
        # class's existing-label scan would find nothing to skip past.
        assigned = self._label_generator.fresh_monotone()
        self.done[self.replica_id].add(operation)
        self.labels[operation.id] = assigned
        self._note_label_change(operation.id)
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

    def is_compacted(self, op_id) -> bool:
        # Tracked implies not compacted, so a done-here operation (the common
        # case on the response path) skips the interval bisect entirely.
        if op_id in self._done_index:
            return False
        return self.checkpoint.covers(op_id)

    # ---------------------------------------------------------- response path

    def ready_responses(self) -> List:
        ready = [x for x in self.pending if self.response_ready(x)]
        ready.sort(key=lambda x: self._sort_repr(x.id))
        return ready

    def response_ready(self, operation) -> bool:
        # The common case — a tracked, done-here operation outside catch-up —
        # resolves on the done index and the stable-everywhere set alone.  Tracked
        # implies not compacted, so the base class's coverage branch cannot
        # apply; everything else (compacted values, catch-up gating, the
        # not-done cases) delegates so the semantics stay in one place.
        if operation not in self.pending:
            return False
        if operation.id in self._done_index:
            if self.catching_up():
                return super().response_ready(operation)
            if operation.strict and not self.is_stable_everywhere(operation):
                return False
            return True
        return super().response_ready(operation)

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
        # stable-everywhere iff compacted (the base class's first branch).
        return self.is_compacted(operation.id)

    def compute_value(self, operation) -> Any:
        """The reference replay, resumed past the cached prefix: only the
        positions of the done order not yet replayed are applied."""
        if operation.id not in self._done_index:
            # Compacted (answered from the checkpoint) or not done here
            # (refused): the reference path handles both.
            return super().compute_value(operation)
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

    def receive_gossip(self, message: GossipMessage) -> None:
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
            # Stale-basis delta after our volatile crash — same refusal as the
            # base class: keep the self-contained attachments, drop the
            # payload, and do not acknowledge the seqno.
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

        new_rcvd = received - self.rcvd
        if new_rcvd:
            self.rcvd |= new_rcvd

        done_sender = self.done[sender]
        new_done_sender = done - done_sender
        if new_done_sender:
            done_sender |= new_done_sender
        promote = set(new_done_sender)

        new_done_me = done - done_me
        if new_done_me:
            done_me |= new_done_me
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
        # base class calls observed() per entry).  Lowered labels of
        # previously done operations are collected for the incremental
        # order-maintenance pass below.
        newly_done_ids = {x.id for x in new_done_me} if new_done_me else frozenset()
        reorders: List[Tuple[Label, Any]] = []
        if message.labels:
            labels = self.labels
            covers = checkpoint.covers if checkpoint.count else None
            done_ids = self._done_index
            labels_get = labels.get
            journal_versions = self._label_journal_versions
            journal_ids = self._label_journal_ids
            version = self._label_version
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
                        version += 1
                        journal_versions.append(version)
                        journal_ids.append(op_id)
                elif rank < current.rank or (
                    rank == current.rank and label.replica < current.replica
                ):
                    labels[op_id] = label
                    version += 1
                    journal_versions.append(version)
                    journal_ids.append(op_id)
                    if op_id in done_ids and op_id not in newly_done_ids:
                        reorders.append((current, op_id))
            self._label_version = version
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
        changed |= new_stable_sender
        # Only an operation that just entered ``stable[sender]`` or
        # ``stable[me]`` can newly be in every ``stable[i]`` (a merge
        # touches no other row): queue it for the next read to settle.  One
        # promoted below is not in ``stable[sender]`` (that row is within
        # ``stable[me]``, which lacked it), so it waits until it gets there.
        if changed:
            fresh = self._stable_fresh
            fresh |= changed
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

    def _promote_stable(self) -> None:
        # Direct calls (the fast receive_gossip promotes inline).  done[me]
        # contains every other row (Invariant 7.1), so the others decide.
        me = self.replica_id
        stable_me = self.stable[me]
        done = self.done
        new = done[me].intersection(*(row for i, row in done.items() if i != me))
        new -= stable_me
        if new:
            stable_me |= new
            self._stable_fresh |= new

    def _mark_coverage_stable(self, tracked) -> None:
        super()._mark_coverage_stable(tracked)
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

    def _replayed_prefix(self, count):
        # The fold is the head of the clean order (``compactable_prefix``
        # read it) and the cache a prefix of the same order, so a cache
        # reaching the fold's boundary holds the fold's post-state and values.
        states = self._replay_states
        if len(states) < count:
            return None
        values = self._replay_values
        return states[count - 1], [values[op_id] for op_id in self._replay_order[:count]]

    def _after_compaction(self, removed) -> None:
        # The base class already head-trimmed ``_order_cache`` by the folded
        # prefix; trim the key backbone and the replay cache to match.  The
        # replay cache is a prefix of the same clean order, so its head is
        # the folded prefix (or a head of it) and the trim keeps it a prefix.
        count = len(removed)
        if not self._order_dirty:
            if len(self._order_keys) == len(self._order_cache) + count:
                del self._order_keys[:count]
            else:  # pragma: no cover - defensive
                self._order_dirty = True
        if self._order_dirty:  # pragma: no cover - defensive
            self._truncate_replay(0)
        else:
            del self._replay_order[:count]
            del self._replay_states[:count]
        # The fold removed *removed* from every row.
        self._stable_settled -= removed
        self._stable_fresh -= removed
        self._solid = 0
        done_index = self._done_index
        repr_cache = self._repr_cache
        values = self._replay_values
        for x in removed:
            done_index.pop(x.id, None)
            repr_cache.pop(x.id, None)
            values.pop(x.id, None)

    def _coverage_position(self, coverage):
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
        # The base class scans every done-here operation against the incoming
        # coverage — per attached checkpoint, on every gossip message.  In
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
            # Far behind (crash recovery) or non-nested summaries: the base
            # scan over done-here is the cheaper/safer path.
            tracked, missing = super()._coverage_position(coverage)
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

    def _note_coverage_absorbed(self, frontier) -> None:
        # Memoize only once the absorption actually happened — a
        # zero-missing scan can still be refused by the fold-order check
        # (`_absorb_coverage`), and a refused coverage must be re-examined
        # by every subsequent advert until the body is adopted.
        self._absorbed_frontier = frontier

    _on_checkpoint_adopted = _on_crash = _rebuild_fast_state
