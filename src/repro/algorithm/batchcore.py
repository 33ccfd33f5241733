"""Struct-of-arrays batch replay kernel: :class:`BatchReplicaCore`.

A drop-in :class:`~repro.algorithm.fastcore.FastReplicaCore` subclass (and
therefore a :class:`~repro.algorithm.replica.ReplicaCore` — the
authoritative ``pending`` / ``rcvd`` / ``done[i]`` / ``stable[i]`` /
``labels`` sets stay exactly as the base class keeps them) that batches the
remaining per-element hot loops into array-level sweeps.  Selected with
``batch_replay=True`` on :class:`~repro.config.ReplicaConfig` (which
requires ``fast_core=True``: the kernel extends the fast core's derived
state rather than replacing it).

On top of the fast core's packed-int label keys and its stable-everywhere
set, the kernel adds:

* **Coalesced gossip ingestion** — :meth:`receive_gossip_batch` merges a
  whole wakeup's worth of gossip messages with the order splices *deferred*:
  each message runs the normal authoritative merge (per-message seqno/ack
  bookkeeping, stats, attachments and ``_post_merge`` exactly as the
  sequential path), but the sorted-order insertions and replay-cache
  truncations accumulate in batch buffers (``_deferred_done`` /
  ``_deferred_reorders``) and are applied as one splice pass when the batch
  ends — or earlier, the moment anything reads the order (``done_order``
  flushes first; with compaction enabled every per-message ``_post_merge``
  flushes, preserving fold-boundary timing exactly).  Deferral is sound
  because nothing reads the order between the merges of one batch, and the
  buffers dedupe: an operation that entered ``done`` this batch is inserted
  once under its final label; a label lowered twice records only the oldest
  key (the one still in the backbone).
* **Verified-solid-prefix memo for compaction scans** — ``_solid`` counts
  the leading done-order positions already verified stable-everywhere and
  not pending, so the per-gossip ``compactable_prefix`` walk resumes where
  the previous one stopped instead of re-walking the whole prefix.  The memo
  is clamped by the first order position a splice touches (labels of
  stable-everywhere operations are normally final, but the clamp makes no
  assumption), reset by re-sorts, folds, rebuilds, and by the one event that
  can re-block a solid position: a retransmitted request re-entering
  ``pending`` for an already-done operation.
* **Prev-dependency ready queue** — ``_unmet`` (per-operation count of
  prevs not yet done-or-compacted), ``_waiters`` (prev id → operations
  waiting on it) and ``_ready`` (tracked undone operations with no unmet
  prevs).  ``doable_operations`` filters the ready set through the
  authoritative ``can_do`` instead of re-scanning every undone operation per
  ``do_all_ready`` sweep; completions drain waiter lists incrementally.  The
  queue is a *superset hint* — false positives are filtered by ``can_do``,
  and the maintenance sites are chosen so false negatives cannot occur (the
  wholesale-replacement sites rebuild it).
* **Int-keyed replay prefix comparison** — on an order-epoch mismatch the
  fast core falls back to the base path, which rebuilds per-operation
  ``label_sort_key`` tuples (two dict probes per replayed position).  The
  kernel compares the cached ``(packed key, id)`` rows directly against the
  freshly re-sorted key backbone: packed keys are injective on labels, so
  the longest-matching prefix is identical, without a single hash.

Equivalence argument: every structure above is either a deferred form of
work the fast core does eagerly (the splice buffers — applied before any
reader), a memo of a predicate that is monotone between the events that
reset it (the solid prefix), or a superset hint filtered through the
authoritative predicate (the ready queue).  Lockstep seeded twins against
:class:`FastReplicaCore` across the config matrix, the conformance corpus
on both runtimes and the fuzz oracles enforce the argument in CI
(``tests/test_batchcore.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.labels import Label
from repro.algorithm.messages import GossipMessage, RequestMessage
from repro.algorithm.replica import ReplicaCore


def core_factory(config) -> type:
    """The replica-core class a :class:`~repro.config.ReplicaConfig`
    selects: base, fast, or the batch kernel (``batch_replay`` implies
    ``fast_core`` — the config validates the combination)."""
    if config.batch_replay:
        return BatchReplicaCore
    if config.fast_core:
        return FastReplicaCore
    return ReplicaCore


class BatchReplicaCore(FastReplicaCore):
    """The batch kernel.  Externally indistinguishable from
    :class:`FastReplicaCore` (same responses, witness order, digests and
    message payloads); only wall-clock time and the stats counters that
    measure *avoided* work (``value_applications``) differ."""

    def __init__(self, replica_id, replica_ids, data_type) -> None:
        super().__init__(replica_id, replica_ids, data_type)
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
        #: Ready queue: unmet-prev counts, prev id -> waiting descriptors,
        #: and the tracked undone operations with no unmet prevs.
        self._unmet: Dict[Any, int] = {}
        self._waiters: Dict[Any, List[Any]] = {}
        self._ready: Dict[Any, Any] = {}

    # ------------------------------------------------------------ ready queue

    def _track_undone(self, operation) -> None:
        """Register a newly tracked undone operation with the ready queue."""
        op_id = operation.id
        if op_id in self._unmet or op_id in self._ready or op_id in self._done_index:
            return
        done_index = self._done_index
        unmet = 0
        for prev in set(operation.prev):
            if prev in done_index or self.is_compacted(prev):
                continue
            self._waiters.setdefault(prev, []).append(operation)
            unmet += 1
        if unmet:
            self._unmet[op_id] = unmet
        else:
            self._ready[op_id] = operation

    def _complete_op(self, operation) -> None:
        """An operation became done here: retire its queue entry and release
        its waiters (stale waiter references — operations that completed
        through gossip before their prevs — skip via the ``_unmet`` guard)."""
        op_id = operation.id
        self._unmet.pop(op_id, None)
        self._ready.pop(op_id, None)
        waiters = self._waiters.pop(op_id, None)
        if waiters:
            unmet = self._unmet
            ready = self._ready
            for waiter in waiters:
                count = unmet.get(waiter.id)
                if count is None:
                    continue
                if count == 1:
                    del unmet[waiter.id]
                    ready[waiter.id] = waiter
                else:
                    unmet[waiter.id] = count - 1

    def doable_operations(self) -> List:
        # The ready set over-approximates the doable set (can_do prunes the
        # rest), and cannot under-approximate it: every transition that makes
        # can_do true — tracking, a prev done locally or via gossip, a prev
        # compacted (adoption rebuild) — updates the queue.
        if not self._ready:
            return []
        ready = [x for x in self._ready.values() if self.can_do(x)]
        ready.sort(key=lambda x: self._sort_repr(x.id))
        return ready

    def _register_done_here(self, operation) -> None:
        super()._register_done_here(operation)
        self._complete_op(operation)

    # ----------------------------------------------------------- request path

    def receive_request(self, message: RequestMessage) -> None:
        super().receive_request(message)
        operation = message.operation
        if operation in self.pending:
            if operation.id in self._done_index:
                # Retransmit of an already-done operation: it re-enters
                # pending, so a previously verified-solid position may block
                # again — the one event that shrinks the solid prefix.
                self._solid = 0
            elif operation in self.rcvd:
                self._track_undone(operation)
            # else: a compacted retransmit answered from retained values —
            # never in the done order, nothing to keep.

    # ------------------------------------------------------------ gossip path

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

    def _note_gossip_merge(self, reorders, new_done_me, new_undone) -> None:
        if new_done_me:
            for x in new_done_me:
                self._complete_op(x)
        if new_undone:
            for x in new_undone:
                self._track_undone(x)
        if not (reorders or new_done_me):
            return
        if self._batch_depth:
            deferred_done = self._deferred_done
            for x in new_done_me:
                deferred_done[x.id] = x
            deferred_reorders = self._deferred_reorders
            for old_label, op_id in reorders:
                # Keep only the oldest superseded key per operation (it is
                # the one still in the backbone); insertions this batch read
                # their final label at flush time and need no reorder.
                if op_id not in deferred_done and op_id not in deferred_reorders:
                    deferred_reorders[op_id] = old_label
            return
        if not self._order_dirty:
            self._splice_order_changes(reorders, new_done_me)

    def _splice_order_changes(self, reorders, new_done_me) -> None:
        min_pos = self._apply_order_changes(reorders, new_done_me)
        if min_pos is None:
            self._solid = 0
        elif min_pos < self._solid:
            self._solid = min_pos

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
            self._splice_order_changes(reorders, new_done)

    def _post_merge(self) -> None:
        if self.compaction is not None:
            # The compaction scan reads the order: bring it current first so
            # fold boundaries land exactly where the sequential path puts
            # them.  Without compaction nothing reads the order mid-batch
            # and the flush waits for the batch to end.
            self._flush_order_changes()
            self.maybe_compact()

    # ------------------------------------------------------------------ order

    def done_order(self) -> List:
        if self._deferred_done or self._deferred_reorders:
            self._flush_order_changes()
        if self._order_dirty:
            self._solid = 0  # the re-sort may move any position
        return super().done_order()

    # ---------------------------------------------------------- response path

    def _compute_value_incremental(self, operation) -> Any:
        order = self.done_order()  # flushes splices, may re-sort
        if self._replay_epoch == self._order_epoch:
            # Same epoch: the fast core's append-only tail replay.
            return super()._compute_value_incremental(operation)
        # Epoch mismatch (a full re-sort happened): instead of the base
        # path's per-position label_sort_key/labels.get rebuild, compare the
        # cached (packed key, id) rows directly against the fresh backbone.
        # Packed keys are injective on labels, so the longest matching
        # prefix is exactly the base path's (tuple-keyed entries from the
        # base fallback compare unequal to ints and simply shorten the
        # prefix — replaying more of the tail is always sound).
        keys = self._order_keys
        replay_order = self._replay_order
        prefix = 0
        limit = min(len(keys), len(replay_order))
        while prefix < limit:
            cached_key, cached_id = replay_order[prefix]
            if cached_key != keys[prefix] or cached_id != order[prefix].id:
                break
            prefix += 1
        values = self._replay_values
        if prefix == len(keys) and operation.id in values:
            self._replay_epoch = self._order_epoch
            return values[operation.id]
        del replay_order[prefix:]
        del self._replay_states[prefix:]
        retained = {op_id for _key, op_id in replay_order}
        values = self._replay_values = {
            op_id: v for op_id, v in values.items() if op_id in retained
        }
        states = self._replay_states
        state = states[prefix - 1] if prefix else self.checkpoint.base_state
        apply = self.data_type.apply
        for i in range(prefix, len(order)):
            x = order[i]
            state, reported = apply(state, x.op)
            replay_order.append((keys[i], x.id))
            states.append(state)
            values[x.id] = reported
        self.stats.value_applications += len(order) - prefix
        self._replay_epoch = self._order_epoch
        return values[operation.id]

    # --------------------------------------------------- checkpoint compaction

    def compactable_prefix(self) -> List:
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

    def _after_compaction(self, removed) -> None:
        super()._after_compaction(removed)
        waiters = self._waiters
        for x in removed:
            waiters.pop(x.id, None)
        self._solid = 0

    # ---------------------------------------------------------------- rebuild

    def _rebuild_fast_state(self) -> None:
        super()._rebuild_fast_state()
        self._solid = 0
        self._unmet = {}
        self._waiters = {}
        self._ready = {}
        for x in self._undone:
            self._track_undone(x)

    def _on_checkpoint_adopted(self) -> None:
        # The adoption set _order_dirty; the buffered splices (if a batch is
        # active) are subsumed by the coming re-sort.
        self._deferred_done = {}
        self._deferred_reorders = {}
        super()._on_checkpoint_adopted()

    def _on_crash(self) -> None:
        self._deferred_done = {}
        self._deferred_reorders = {}
        super()._on_crash()
