"""The memoizing replica ESDS-Alg' (Section 10.1, Fig. 10).

The base replica replays its whole ``done`` set in label order to compute
each response value (Fig. 7's ``send_rc``).  This class is the paper's own
optimization: once an operation is *solid* — stable at this replica, or
locally constrained to precede an operation stable here — its place in the
eventual total order is fixed (Lemma 10.2), so its value can be memoized
and never recomputed.  The memoizing replica keeps

* ``memoized`` — the operations whose values have been memoized (a prefix of
  the label order contained in ``solid``),
* ``memo_state`` (the paper's ``ms``) — the data state after applying exactly
  the memoized operations in label order, from the initial state,
* ``memo_values`` (``mv``) — the memoized value of each memoized operation,

and computes a response by starting from ``ms`` and replaying only the
non-memoized suffix (``done[r] - memoized``).

This class owns the memoized prefix for both Section 10 variants: the
Commute replica (:mod:`repro.algorithm.commute`, Fig. 11) is this replica
plus a current state, and only changes how a not-yet-memoized value is
found.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set

from repro.algorithm.labels import label_sort_key
from repro.algorithm.replica import ReplicaCore
from repro.common import SpecificationError
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType


class MemoizedReplicaCore(ReplicaCore):
    """ESDS-Alg' replica: identical external behaviour, memoized computation."""

    def __init__(self, replica_id: str, replica_ids: Sequence[str], data_type: SerialDataType) -> None:
        super().__init__(replica_id, replica_ids, data_type)
        self._restart_memo()

    # --------------------------------------------------------------- solid set

    def solid_operations(self) -> Set[OperationDescriptor]:
        """``solid_r`` — operations stable here or locally ordered before one
        that is (the derived variable of Fig. 10).

        By Invariant 10.1, when ``stable_r[r]`` is nonempty this is the label
        prefix of ``done_r[r]`` up to the largest stable label — so every
        done operation ordered before a solid one is solid too.
        """
        stable_here = self.stable_here()
        if not stable_here:
            return set()
        frontier = max(label_sort_key(self.label_of(x.id)) for x in stable_here)
        return {x for x in self.done_here() if label_sort_key(self.label_of(x.id)) <= frontier}

    # -------------------------------------------------------------- memoization

    def memoize(self, operation: OperationDescriptor) -> Any:
        """``memoize_r(x)``: fold the operation into the memoized state and
        record its value.  Enabled when *operation* is solid, not yet
        memoized, and every locally earlier done operation is memoized.
        Returns the memoized value."""
        key = label_sort_key(self.label_of(operation.id))
        if (
            operation in self.memoized
            or operation not in self.solid_operations()
            or any(
                y not in self.memoized
                for y in self.done_here()
                if label_sort_key(self.label_of(y.id)) < key
            )
        ):
            raise SpecificationError(
                f"memoize precondition fails for {operation.id} at replica {self.replica_id}"
            )
        return self._memoize(operation)

    def _memoize(self, operation: OperationDescriptor) -> Any:
        self.memo_state, value = self.data_type.apply(self.memo_state, operation.op)
        self.stats.memoized_applications += 1
        self.memo_values[operation] = value
        self.memoized.add(operation)
        return value

    def memoize_all_available(self) -> List[OperationDescriptor]:
        """Memoize every operation that can currently be memoized: the solid
        operations not yet memoized, in label order.  ``solid`` is a label
        prefix of ``done`` and ``memoized`` a prefix of ``solid``, so one
        ordered pass enables each ``memoize_r(x)`` in turn."""
        performed = sorted(
            self.solid_operations() - self.memoized,
            key=lambda op: label_sort_key(self.label_of(op.id)),
        )
        for operation in performed:
            self._memoize(operation)
        return performed

    def _restart_memo(self) -> None:
        """Restart memoization from the initial state: the memo prefix is
        volatile (a crash wipes its operations).  It re-advances on the next
        gossip."""
        self.memoized: Set[OperationDescriptor] = set()
        #: ``ms_r`` — state after applying the memoized prefix in label order.
        self.memo_state: Any = self.data_type.initial_state()
        #: ``mv_r`` — memoized value per memoized operation.
        self.memo_values: Dict[OperationDescriptor, Any] = {}

    _on_crash = _restart_memo

    # ---------------------------------------------------------- value computation

    def compute_value(self, operation: OperationDescriptor) -> Any:
        """Use the memoized value when available; otherwise replay only the
        non-memoized suffix starting from ``ms_r`` (Fig. 10's send_rc)."""
        if operation not in self.done_here():
            raise SpecificationError(
                f"cannot compute a value for {operation.id}: not done at {self.replica_id}"
            )
        if operation in self.memo_values:
            return self.memo_values[operation]

        state = self.memo_state
        value: Any = None
        found = False
        for x in self.done_order():
            if x in self.memoized:
                continue
            state, reported = self.data_type.apply(state, x.op)
            self.stats.value_applications += 1
            if x.id == operation.id:
                value = reported
                found = True
        if not found:  # pragma: no cover - defensive; cannot happen when done
            raise SpecificationError(f"operation {operation.id} missing from replay")
        return value

    # -------------------------------------------------------------- gossip hook

    def receive_gossip(self, message) -> None:  # type: ignore[override]
        """Merge gossip as usual, then opportunistically advance memoization.

        Memoizing eagerly after each gossip keeps ``ms`` close to the stable
        frontier, which is what a production implementation would do; it does
        not change external behaviour (memoize is an internal action).
        """
        super().receive_gossip(message)
        self.memoize_all_available()

    # ----------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Any]:
        data = super().snapshot()
        data["memoized"] = set(self.memoized)
        data["memo_state"] = self.memo_state
        data["memo_values"] = dict(self.memo_values)
        return data
