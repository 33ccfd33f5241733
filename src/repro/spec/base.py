"""Shared machinery of the ESDS-I and ESDS-II specification automata.

Both automata (Figs. 2 and 3) have the same signature and the same state
variables:

* ``wait`` — requested operations not yet responded to;
* ``rept`` — pairs ``(x, v)`` that may be returned to clients;
* ``ops`` — operations that have been *entered*;
* ``po`` — a strict partial order on identifiers constraining the order in
  which entered operations may be applied;
* ``stabilized`` — the stable operations.

They differ only in the preconditions of ``enter`` and ``stabilize``; the
subclasses override :meth:`EsdsSpecBase._enter_enabled` and
:meth:`EsdsSpecBase._stabilize_enabled`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.automata.automaton import Action, IOAutomaton, Signature
from repro.common import OperationId
from repro.core.operations import OperationDescriptor, client_specified_constraints
from repro.core.orders import PartialOrder, valset
from repro.datatypes.base import SerialDataType


class EsdsSpecBase(IOAutomaton):
    """Common state, effects and candidate generation for ESDS-I / ESDS-II."""

    name = "ESDS-spec"
    signature = Signature(
        inputs=frozenset({"request"}),
        outputs=frozenset({"response"}),
        internals=frozenset({"enter", "stabilize", "calculate", "add_constraints"}),
    )

    #: Cap on the number of linear extensions enumerated when sampling values
    #: for ``calculate`` candidates (the *check* of a given value is exact).
    candidate_valset_limit = 24

    def __init__(self, data_type: SerialDataType) -> None:
        self.data_type = data_type
        self.wait: Set[OperationDescriptor] = set()
        self.rept: Set[Tuple[OperationDescriptor, Any]] = set()
        self.ops: Set[OperationDescriptor] = set()
        self.po: PartialOrder = PartialOrder()
        self.stabilized: Set[OperationDescriptor] = set()

    # ------------------------------------------------------------------ state

    @property
    def ops_ids(self) -> Set[OperationId]:
        """``ops.id``."""
        return {x.id for x in self.ops}

    # -------------------------------------------------------------- conditions

    def _enter_enabled(self, x: OperationDescriptor, new_po: PartialOrder) -> bool:
        raise NotImplementedError

    def _stabilize_enabled(self, x: OperationDescriptor) -> bool:
        raise NotImplementedError

    def _enter_common_enabled(self, x: OperationDescriptor, new_po: PartialOrder) -> bool:
        """The clauses of ``enter`` shared by ESDS-I and ESDS-II."""
        if not x.prev <= self.ops_ids:
            return False
        if not new_po.span() <= self.ops_ids | {x.id}:
            return False
        if not self.po <= new_po:
            return False
        if not client_specified_constraints({x}) <= set(new_po.pairs):
            return False
        stable_before = {(y.id, x.id) for y in self.stabilized}
        if not stable_before <= set(new_po.pairs):
            return False
        return True

    def _calculate_enabled(self, x: OperationDescriptor, value: Any) -> bool:
        if x not in self.ops:
            return False
        if x.strict and x not in self.stabilized:
            return False
        values = valset(self.data_type, x, self.ops, self.po)
        return value in values

    def _add_constraints_enabled(self, new_po: PartialOrder) -> bool:
        return new_po.span() <= self.ops_ids and self.po <= new_po

    def _response_enabled(self, x: OperationDescriptor, value: Any) -> bool:
        return (x, value) in self.rept and x in self.wait

    # ------------------------------------------------------------ precondition

    def precondition(self, action: Action) -> bool:
        kind = action.kind
        if kind == "enter":
            return self._enter_enabled(action["operation"], action["new_po"])
        if kind == "stabilize":
            return self._stabilize_enabled(action["operation"])
        if kind == "calculate":
            return self._calculate_enabled(action["operation"], action["value"])
        if kind == "add_constraints":
            return self._add_constraints_enabled(action["new_po"])
        if kind == "response":
            return self._response_enabled(action["operation"], action["value"])
        return True

    # ----------------------------------------------------------------- effects

    def apply(self, action: Action) -> None:
        kind = action.kind
        if kind == "request":
            self.wait.add(action["operation"])
        elif kind == "enter":
            self.ops.add(action["operation"])
            self.po = action["new_po"]
        elif kind == "stabilize":
            self.stabilized.add(action["operation"])
        elif kind == "calculate":
            x = action["operation"]
            if x in self.wait:
                self.rept.add((x, action["value"]))
        elif kind == "add_constraints":
            self.po = action["new_po"]
        elif kind == "response":
            x = action["operation"]
            self.wait.discard(x)
            self.rept = {(y, v) for (y, v) in self.rept if y != x}
        else:  # pragma: no cover - guarded by signature
            raise ValueError(f"unexpected action {kind!r}")

    # -------------------------------------------------------------- candidates

    def _minimal_new_po_for(self, x: OperationDescriptor) -> Optional[PartialOrder]:
        """The smallest ``new_po`` satisfying the ``enter`` constraints for
        *x*, or ``None`` if the required constraints are cyclic."""
        required = set(client_specified_constraints({x}))
        required |= {(y.id, x.id) for y in self.stabilized}
        try:
            return self.po.extended_with(required)
        except ValueError:
            return None

    def candidate_actions(self, rng: random.Random) -> List[Action]:
        candidates: List[Action] = []

        # enter: pick waiting operations whose prev sets are satisfied.
        for x in sorted(self.wait, key=lambda op: repr(op.id)):
            new_po = self._minimal_new_po_for(x)
            if new_po is None:
                continue
            if self._enter_enabled(x, new_po):
                candidates.append(Action("enter", operation=x, new_po=new_po))

        # stabilize: any operation whose precondition holds.
        for x in sorted(self.ops, key=lambda op: repr(op.id)):
            if self._stabilize_enabled(x):
                candidates.append(Action("stabilize", operation=x))

        # calculate: sample a value from the valset of each eligible op.
        for x in sorted(self.ops, key=lambda op: repr(op.id)):
            if x.strict and x not in self.stabilized:
                continue
            if x not in self.wait:
                continue
            values = valset(
                self.data_type, x, self.ops, self.po, limit=self.candidate_valset_limit
            )
            if values:
                value = rng.choice(sorted(values, key=repr))
                candidates.append(Action("calculate", operation=x, value=value))

        # add_constraints: occasionally propose ordering one incomparable pair.
        unordered = self._one_unordered_pair(rng)
        if unordered is not None:
            a, b = unordered
            try:
                extended = self.po.extended_with({(a, b)})
            except ValueError:
                extended = None
            if extended is not None:
                candidates.append(Action("add_constraints", new_po=extended))

        # response: anything sitting in rept for a waiting operation.
        for x, value in sorted(self.rept, key=repr):
            if x in self.wait:
                candidates.append(Action("response", operation=x, value=value))

        return candidates

    def _one_unordered_pair(self, rng: random.Random) -> Optional[Tuple[OperationId, OperationId]]:
        ids = sorted(self.ops_ids, key=repr)
        if len(ids) < 2:
            return None
        for _ in range(4):
            a, b = rng.sample(ids, 2)
            if not self.po.comparable(a, b):
                return (a, b)
        return None

    # ------------------------------------------------------------ derived sets

    def snapshot(self) -> Dict[str, Any]:
        return {
            "wait": set(self.wait),
            "rept": set(self.rept),
            "ops": set(self.ops),
            "po": self.po,
            "stabilized": set(self.stabilized),
        }
