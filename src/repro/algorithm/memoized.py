"""The memoizing replica ESDS-Alg' (Section 10.1, Fig. 10).

The base replica replays its ``done`` set in label order to compute response
values (from scratch by default; with
:meth:`repro.algorithm.replica.ReplicaCore.enable_incremental_replay` it
re-applies only the suffix that changed since the previous replay).  This
class is the paper's own optimization: once an operation is *solid* — stable
at this replica,
or locally constrained to precede an operation stable here — its place in the
eventual total order is fixed (Lemma 10.2), so its value can be memoized and
never recomputed.  The memoizing replica keeps

* ``memoized`` — the operations whose values have been memoized (a prefix of
  the label order contained in ``solid``),
* ``ms`` — the data state after applying exactly the memoized operations in
  label order,
* ``mv`` — the memoized value of each memoized operation,

and computes a response by starting from ``ms`` and replaying only the
non-memoized suffix (``done[r] - memoized``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set

from repro.algorithm.labels import label_sort_key
from repro.algorithm.replica import ReplicaCore
from repro.common import SpecificationError
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType


def solid_set(replica: ReplicaCore) -> Set[OperationDescriptor]:
    """``solid_r`` — operations stable at *replica* or locally ordered
    before one that is (the derived variable of Fig. 10, shared by the
    memoizing and the Commute replica).

    By Invariant 10.1, when ``stable_r[r]`` is nonempty this is the label
    prefix of ``done_r[r]`` up to the largest stable label.
    """
    stable_here = replica.stable_here()
    if not stable_here:
        return set()
    max_stable_label = max(
        (replica.label_of(x.id) for x in stable_here), key=label_sort_key
    )
    return {
        x
        for x in replica.done_here()
        if label_sort_key(replica.label_of(x.id)) <= label_sort_key(max_stable_label)
    }


class MemoizedReplicaCore(ReplicaCore):
    """ESDS-Alg' replica: identical external behaviour, memoized computation."""

    def __init__(self, replica_id: str, replica_ids: Sequence[str], data_type: SerialDataType) -> None:
        super().__init__(replica_id, replica_ids, data_type)
        self.memoized: Set[OperationDescriptor] = set()
        #: ``ms_r`` — state after applying the memoized prefix in label order.
        self.memo_state: Any = data_type.initial_state()
        #: ``mv_r`` — memoized value per memoized operation.
        self.memo_values: Dict[OperationDescriptor, Any] = {}

    # --------------------------------------------------------------- solid set

    solid_operations = solid_set

    # -------------------------------------------------------------- memoization

    def memoizable_operations(self) -> List[OperationDescriptor]:
        """Operations for which ``memoize_r(x)`` is enabled: solid, not yet
        memoized, and every locally earlier done operation already memoized."""
        solid = self.solid_operations()
        candidates: List[OperationDescriptor] = []
        for x in sorted(solid - self.memoized, key=lambda op: label_sort_key(self.label_of(op.id))):
            earlier = {
                y
                for y in self.done_here()
                if label_sort_key(self.label_of(y.id)) < label_sort_key(self.label_of(x.id))
            }
            if earlier <= self.memoized:
                candidates.append(x)
        return candidates

    def memoize(self, operation: OperationDescriptor) -> Any:
        """``memoize_r(x)``: fold the operation into the memoized state and
        record its value.  Returns the memoized value."""
        if operation not in self.memoizable_operations():
            raise SpecificationError(
                f"memoize precondition fails for {operation.id} at replica {self.replica_id}"
            )
        self.memo_state, value = self.data_type.apply(self.memo_state, operation.op)
        self.stats.memoized_applications += 1
        self.memo_values[operation] = value
        self.memoized.add(operation)
        return value

    def memoize_all_available(self) -> List[OperationDescriptor]:
        """Memoize every operation that can currently be memoized, in order."""
        performed: List[OperationDescriptor] = []
        candidates = self.memoizable_operations()
        while candidates:
            target = candidates[0]
            self.memoize(target)
            performed.append(target)
            candidates = self.memoizable_operations()
        return performed

    # ---------------------------------------------------------- value computation

    def compute_value(self, operation: OperationDescriptor) -> Any:
        """Use the memoized value when available; otherwise replay only the
        non-memoized suffix starting from ``ms_r`` (Fig. 10's send_rc).  The
        value of a compacted operation is served from the checkpoint."""
        if self.is_compacted(operation.id):
            return ReplicaCore.compute_value(self, operation)
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

        Not during an advert/pull catch-up window, though: ``ms`` would fold
        operations on top of a base that is missing the awaited compacted
        prefix, and a memo poisoned that way would outlive the window when
        it closes through gossip re-delivery.  The window-closing hooks
        (:meth:`_on_checkpoint_adopted` / :meth:`_on_catchup_healed`) reset
        the memo, and memoization simply resumes afterwards.
        """
        super().receive_gossip(message)
        if not self.catching_up():
            self.memoize_all_available()

    # ------------------------------------------------------ compaction interplay

    def _prepare_compaction(self) -> None:
        """Fold everything solid into ``ms`` first, so the compactable prefix
        (stable everywhere, within solid) is always covered by the memoized
        prefix when its records are dropped — ``ms`` then remains the state
        after exactly ``checkpoint + memoized`` in label order."""
        self.memoize_all_available()

    def _after_compaction(self, removed) -> None:
        """Compacted operations leave the memoized bookkeeping; their effect
        is already inside ``ms`` (which equals the checkpoint base plus the
        remaining memoized prefix) and their values moved to the checkpoint."""
        self.memoized -= removed
        for operation in removed:
            self.memo_values.pop(operation, None)

    def _on_checkpoint_adopted(self) -> None:
        """After wholesale adoption (crash-recovery catch-up) the old memo
        prefix no longer matches the history: restart memoization from the
        adopted base state."""
        self.memoized = set()
        self.memo_state = self.checkpoint.base_state
        self.memo_values = {}

    def _on_crash(self) -> None:
        """The memo prefix is volatile (its operations were wiped); restart
        from the persisted checkpoint's base state."""
        self.memoized = set()
        self.memo_state = self.checkpoint.base_state
        self.memo_values = {}

    def _on_catchup_healed(self) -> None:
        """A catch-up window closed through gossip re-delivery: anything
        memoized against the holed history is invalid — restart memoization
        from the checkpoint base (it re-advances on the next gossip)."""
        self.memoized = set()
        self.memo_state = self.checkpoint.base_state
        self.memo_values = {}

    # ----------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, Any]:
        data = super().snapshot()
        data["memoized"] = set(self.memoized)
        data["memo_state"] = self.memo_state
        data["memo_values"] = dict(self.memo_values)
        return data
