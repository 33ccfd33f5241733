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
reset hook).  For strict operations the value must also
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

    def receive_gossip(self, message: GossipMessage) -> None:
        """Merge gossip and advance memoization; newly learned done
        operations are applied to ``cs_r`` in an order consistent with the
        client-specified constraints among them (Fig. 11's receive loop)."""
        previously_done = set(self.done_here())
        super().receive_gossip(message)
        self._apply_in_csc_order(self.done_here() - previously_done)

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
        memoized (its eventual-order value is then fixed)."""
        if operation not in self.pending or operation not in self.done_here():
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
        """The memoized value once the operation is memoized, ``v = val_r(x)``
        before that — no replay at response time."""
        if operation in self.memo_values:
            return super().compute_value(operation)
        if operation not in self.values:
            raise SpecificationError(
                f"no recorded value for {operation.id} at replica {self.replica_id}"
            )
        return self.values[operation]

    def _on_crash(self) -> None:
        """``cs_r`` / ``val_r`` are volatile too: a crash with volatile
        memory restarts them with the memo prefix from the initial state
        (re-learned operations are re-applied by the gossip path)."""
        super()._on_crash()
        self.current_state = self.data_type.initial_state()
        self.values = {}

    # ----------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Any]:
        data = super().snapshot()
        data["current_state"] = self.current_state
        data["values"] = dict(self.values)
        return data
