"""The ``Commute`` replica (Section 10.3, Fig. 11).

When clients promise to explicitly order every pair of non-commuting
operations (the ``SafeUsers`` discipline), Lemma 10.6 guarantees that the
*final state* after applying a set of operations is the same for every total
order consistent with the client-specified constraints.  A replica may then
maintain a single *current state* ``cs_r`` updated as each operation is done
(in arrival order), and compute each operation's value once, when it is done,
instead of replaying history for every response.

Fig. 11 is the memoizing replica of Fig. 10 plus ``cs_r`` and the recorded
values ``val_r``, so this class extends
:class:`~repro.algorithm.memoized.MemoizedReplicaCore`, which owns the
memoized prefix (``memoized``, ``ms``, the label-order memoize pass, its
compaction and reset hooks).  For strict operations the value must also
agree with the eventual total order: a response returns the memoized value
once the operation is memoized (its position is then fixed) and ``val_r``
before that, and strict responses are gated on
``x in ⋂_i stable_r[i] ∩ memoized_r``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set

from repro.algorithm.labels import Label
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.messages import GossipMessage
from repro.common import SpecificationError
from repro.core.operations import OperationDescriptor, client_specified_constraints
from repro.core.orders import topological_total_order
from repro.datatypes.base import SerialDataType


class CommuteReplicaCore(MemoizedReplicaCore):
    """Replica variant that exploits commutativity (Fig. 11)."""

    def __init__(self, replica_id: str, replica_ids: Sequence[str], data_type: SerialDataType) -> None:
        super().__init__(replica_id, replica_ids, data_type)
        #: ``cs_r`` — state after applying every operation done here, in the
        #: order they were done here.
        self.current_state: Any = data_type.initial_state()
        #: ``val_r`` — the value recorded for each operation whose effect is
        #: in ``cs_r``.
        self.values: Dict[OperationDescriptor, Any] = {}

    # ------------------------------------------------------------------- do_it

    def do_it(self, operation: OperationDescriptor, label: Optional[Label] = None) -> Label:
        """As in Fig. 11: also advance ``cs_r`` and record ``val_r(x)``."""
        assigned = super().do_it(operation, label)
        self.current_state, value = self.data_type.apply(self.current_state, operation.op)
        self.stats.memoized_applications += 1
        self.values[operation] = value
        return assigned

    # ------------------------------------------------------------------ gossip

    def _post_merge(self) -> None:
        """Compaction is deferred to the end of :meth:`receive_gossip`: the
        base hook would fold an operation learned in this very message before
        the ``newly_done`` replay below applies it to ``cs_r``, permanently
        dropping its effect from the current state."""

    def receive_gossip(self, message: GossipMessage) -> None:
        """Merge gossip and advance memoization; newly learned done
        operations are applied to ``cs_r`` in an order consistent with the
        client-specified constraints among them (Fig. 11's receive loop).
        Compaction runs only after that.

        During an advert/pull catch-up window the derived state is left
        alone: ``cs_r`` is missing the awaited compacted prefix, so folding
        more operations into it would only deepen the corruption.  The
        window-closing hooks rebuild everything from the (possibly adopted)
        checkpoint base; the ``x not in self.values`` filter below keeps
        that rebuild and this incremental path from double-applying an
        operation.
        """
        previously_done = set(self.done_here())
        super().receive_gossip(message)
        if self.catching_up():
            return
        self._apply_in_csc_order({
            x for x in self.done_here() - previously_done if x not in self.values
        })
        if self.compaction is not None:
            self.maybe_compact()

    def _apply_in_csc_order(self, operations: Set[OperationDescriptor]) -> None:
        """Fold *operations* into ``cs_r`` in an order consistent with the
        client-specified constraints among them (sound under the SafeUsers
        discipline, Lemma 10.6), recording each value.  The applications
        count as bookkeeping (``memoized_applications``), like every other
        current-state update of this variant."""
        if not operations:
            return
        csc = client_specified_constraints(operations)
        order = topological_total_order(csc, {x.id for x in operations})
        by_id = {x.id: x for x in operations}
        for op_id in order:
            operation = by_id[op_id]
            self.current_state, value = self.data_type.apply(
                self.current_state, operation.op
            )
            self.stats.memoized_applications += 1
            self.values[operation] = value

    # ---------------------------------------------------------------- responses

    def response_ready(self, operation: OperationDescriptor) -> bool:
        """Fig. 11 strengthens the strict gate: the operation must also be
        memoized (its eventual-order value is then fixed).  A retransmitted
        compacted operation keeps the base-class contract — answerable from
        the checkpoint's retained values."""
        if operation not in self.pending:
            return False
        if self.is_compacted(operation.id):
            return operation.id in self.checkpoint.values
        if self.catching_up():
            # Advert/pull catch-up: ``cs_r`` / ``val_r`` are missing the
            # effects of the awaited compacted prefix (same replay gate as
            # the base replica).
            return False
        if operation not in self.done_here():
            return False
        if operation.strict:
            if not self.is_stable_everywhere(operation):
                return False
            if operation not in self.memoized:
                # Try to advance memoization before giving up; memoize is an
                # internal action that is always enabled once solid.
                self.memoize_all_available()
                if operation not in self.memoized:
                    return False
        return True

    def compute_value(self, operation: OperationDescriptor) -> Any:
        """The memoized value once the operation is memoized (or compacted),
        ``v = val_r(x)`` before that — no replay at response time."""
        if operation in self.memo_values or self.is_compacted(operation.id):
            return super().compute_value(operation)
        if operation not in self.values:
            raise SpecificationError(
                f"no recorded value for {operation.id} at replica {self.replica_id}"
            )
        return self.values[operation]

    # ------------------------------------------------------ compaction interplay

    def _after_compaction(self, removed) -> None:
        super()._after_compaction(removed)
        for operation in removed:
            self.values.pop(operation, None)

    def _on_crash(self) -> None:
        """``cs_r`` / ``val_r`` are volatile too: a crash with volatile
        memory restarts them with the memo prefix from the persisted
        checkpoint's base state (re-learned operations are re-applied by the
        gossip path)."""
        super()._on_crash()
        self.current_state = self.checkpoint.base_state
        self.values = {}

    def _on_checkpoint_adopted(self) -> None:
        """Rebuild the derived state after wholesale checkpoint adoption, or
        after a catch-up window closed through gossip re-delivery (``cs_r`` /
        ``val_r`` advanced by ``do_it`` during the window miss the re-tracked
        prefix): the remaining done operations are re-applied onto the base
        in an order consistent with the client-specified constraints (sound
        under the SafeUsers discipline, Lemma 10.6), and memoization
        restarts."""
        self._on_crash()
        self._apply_in_csc_order(set(self.done_here()))

    _on_catchup_healed = _on_checkpoint_adopted

    # ----------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Any]:
        data = super().snapshot()
        data["current_state"] = self.current_state
        data["values"] = dict(self.values)
        return data
