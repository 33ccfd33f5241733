"""Relations, partial orders, and the ``outcome``/``val``/``valset`` semantics
(Sections 2.1 and 2.3 of the paper).

The specification automata manipulate *strict partial orders* on operation
identifiers, and compute return values for operations with respect to total
orders consistent with those partial orders:

* ``outcome(X, <)`` — the state after applying the operations of ``X`` in the
  total order ``<`` starting from the data type's initial state;
* ``val(x, X, <)`` — the value reported for ``x`` when the operations of ``X``
  are applied in the total order ``<``;
* ``valset(x, X, R)`` — the set of values ``val(x, X, <)`` over all total
  orders ``<`` on ``X`` consistent with the partial order ``R``.

``valset`` enumerates linear extensions and is therefore exponential in the
worst case; it is intended for the specification automata and the
verification harness on modest operation counts.  The algorithm itself never
calls it on more than one linear extension (replicas order their done set
totally by labels, Invariant 7.15).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType, apply_sequence

Pair = Tuple[Any, Any]


def transitive_closure(pairs: Iterable[Pair]) -> Set[Pair]:
    """Return ``TC(R)``, the transitive closure of the relation *pairs*.

    Uses repeated relational composition over an adjacency-map encoding,
    which is O(n * e) in practice for the small relations handled by the
    specification automata.
    """
    succ: Dict[Any, Set[Any]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure: Dict[Any, Set[Any]] = {}
    for start in succ:
        # Depth-first reachability from each element of the domain.
        reached: Set[Any] = set()
        stack = list(succ.get(start, ()))
        while stack:
            node = stack.pop()
            if node in reached:
                continue
            reached.add(node)
            stack.extend(succ.get(node, ()))
        closure[start] = reached
    return {(a, b) for a, reachable in closure.items() for b in reachable}


def is_irreflexive(pairs: Iterable[Pair]) -> bool:
    """Is the relation irreflexive (no ``(x, x)`` pair)?"""
    return all(a != b for a, b in pairs)


def is_strict_partial_order(pairs: Set[Pair]) -> bool:
    """Is *pairs* transitive and irreflexive (hence a strict partial order,
    Lemma 2.1)?"""
    if not is_irreflexive(pairs):
        return False
    return transitive_closure(pairs) <= pairs


def is_consistent(first: Iterable[Pair], second: Iterable[Pair]) -> bool:
    """Are two relations consistent, i.e. is ``TC(R u R')`` a partial order?

    Following Section 2.1 we check that the transitive closure of the union is
    antisymmetric with no cycles through distinct elements; reflexive pairs
    arising from the union indicate a cycle and make the relations
    inconsistent when the inputs were strict orders.
    """
    union = set(first) | set(second)
    closure = transitive_closure(union)
    return all(a != b for a, b in closure)


def span(pairs: Iterable[Pair]) -> Set[Any]:
    """``span(R)`` — every element appearing on either side of *pairs*."""
    result: Set[Any] = set()
    for a, b in pairs:
        result.add(a)
        result.add(b)
    return result


def induced_order(pairs: Iterable[Pair], subset: Iterable[Any]) -> Set[Pair]:
    """The relation induced by *pairs* on *subset* (``R n (S' x S')``)."""
    members = set(subset)
    return {(a, b) for a, b in pairs if a in members and b in members}


class PartialOrder:
    """A strict partial order on an arbitrary set of hashable elements.

    Internally stores the full set of ordered pairs (transitively closed),
    which keeps membership queries O(1) and matches the paper's set-of-pairs
    formulation of ``po``, ``lc_r`` and ``sc``.
    """

    def __init__(self, pairs: Optional[Iterable[Pair]] = None) -> None:
        raw = set(pairs) if pairs is not None else set()
        closed = transitive_closure(raw) | raw
        if not is_irreflexive(closed):
            raise ValueError("relation has a cycle; not a strict partial order")
        self._pairs: Set[Pair] = closed

    # -- basic queries -------------------------------------------------------

    @property
    def pairs(self) -> FrozenSet[Pair]:
        """The full (transitively closed) set of ordered pairs."""
        return frozenset(self._pairs)

    def precedes(self, a: Any, b: Any) -> bool:
        """Does ``a`` strictly precede ``b``?"""
        return (a, b) in self._pairs

    def comparable(self, a: Any, b: Any) -> bool:
        """Are ``a`` and ``b`` ordered (either way) or equal?"""
        return a == b or (a, b) in self._pairs or (b, a) in self._pairs

    def span(self) -> Set[Any]:
        """Every element mentioned by the order."""
        return span(self._pairs)

    def predecessors(self, element: Any, universe: Iterable[Any]) -> Set[Any]:
        """``S|_<x`` — the elements of *universe* strictly preceding *element*."""
        return {y for y in universe if (y, element) in self._pairs}

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialOrder):
            return NotImplemented
        return self._pairs == other._pairs

    def __le__(self, other: "PartialOrder") -> bool:
        """Subset (refinement) check: every constraint of self is in other."""
        return self._pairs <= other._pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartialOrder({sorted(map(str, self._pairs))})"

    # -- construction --------------------------------------------------------

    def extended_with(self, pairs: Iterable[Pair]) -> "PartialOrder":
        """Return a new order containing this order plus *pairs*.

        Raises ``ValueError`` if the result would contain a cycle, i.e. if the
        new constraints are inconsistent with the existing ones.
        """
        return PartialOrder(self._pairs | set(pairs))

    def restricted_to(self, subset: Iterable[Any]) -> "PartialOrder":
        """The order induced on *subset* (Lemma 2.2 guarantees this is a
        partial order)."""
        return PartialOrder(induced_order(self._pairs, subset))

    def is_consistent_with(self, pairs: Iterable[Pair]) -> bool:
        """Would adding *pairs* keep the relation acyclic?"""
        return is_consistent(self._pairs, pairs)

    # -- totality ------------------------------------------------------------

    def totally_orders(self, subset: Iterable[Any]) -> bool:
        """Does this order induce a total order on *subset*?"""
        members = list(set(subset))
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if not self.comparable(a, b):
                    return False
        return True

    def linear_extensions(
        self, subset: Iterable[Any], limit: Optional[int] = None
    ) -> Iterator[List[Any]]:
        """Enumerate total orders of *subset* consistent with this order."""
        return linear_extensions(self._pairs, subset, limit=limit)


def topological_total_order(pairs: Iterable[Pair], subset: Iterable[Any]) -> List[Any]:
    """A deterministic topological sort of *subset* under *pairs*.

    Raises ``ValueError`` if the induced relation has a cycle.
    """
    members = set(subset)
    relation = induced_order(pairs, members)
    indegree: Dict[Any, int] = {m: 0 for m in members}
    succ: Dict[Any, Set[Any]] = {m: set() for m in members}
    for a, b in relation:
        if b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1
    ready = sorted((m for m in members if indegree[m] == 0), key=repr)
    order: List[Any] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        newly_ready = []
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                newly_ready.append(nxt)
        if newly_ready:
            ready.extend(newly_ready)
            ready.sort(key=repr)
    if len(order) != len(members):
        raise ValueError("relation has a cycle on the given subset")
    return order


def linear_extensions(
    pairs: Iterable[Pair],
    subset: Iterable[Any],
    limit: Optional[int] = None,
) -> Iterator[List[Any]]:
    """Enumerate every total order of *subset* consistent with *pairs*.

    Standard backtracking enumeration; ``limit`` caps the number of
    extensions yielded (useful to bound work in property-based tests).
    """
    members = set(subset)
    relation = induced_order(pairs, members)
    succ: Dict[Any, Set[Any]] = {m: set() for m in members}
    indegree: Dict[Any, int] = {m: 0 for m in members}
    for a, b in relation:
        if b not in succ[a]:
            succ[a].add(b)
            indegree[b] += 1

    count = 0
    prefix: List[Any] = []

    def backtrack() -> Iterator[List[Any]]:
        nonlocal count
        if limit is not None and count >= limit:
            return
        if len(prefix) == len(members):
            count += 1
            yield list(prefix)
            return
        available = sorted(
            (m for m in members if indegree[m] == 0 and m not in prefix), key=repr
        )
        for node in available:
            prefix.append(node)
            for nxt in succ[node]:
                indegree[nxt] -= 1
            yield from backtrack()
            for nxt in succ[node]:
                indegree[nxt] += 1
            prefix.pop()
            if limit is not None and count >= limit:
                return

    return backtrack()


# ---------------------------------------------------------------------------
# outcome / val / valset (Section 2.3)
# ---------------------------------------------------------------------------


def _order_operations(
    operations: Iterable[OperationDescriptor],
    total_order_ids: Sequence[Any],
) -> List[OperationDescriptor]:
    by_id = {x.id: x for x in operations}
    missing = [i for i in total_order_ids if i not in by_id]
    if missing:
        raise ValueError(f"total order mentions unknown operations: {missing}")
    return [by_id[i] for i in total_order_ids]


def outcome(
    data_type: SerialDataType,
    operations: Iterable[OperationDescriptor],
    total_order_ids: Sequence[Any],
    state: Any = None,
) -> Any:
    """``outcome_sigma(X, <)`` — the state after applying *operations* in the
    order given by *total_order_ids* (a sequence of identifiers covering X)."""
    ordered = _order_operations(operations, total_order_ids)
    return apply_sequence(data_type, [x.op for x in ordered], state)[0]


def val(
    data_type: SerialDataType,
    target: OperationDescriptor,
    operations: Iterable[OperationDescriptor],
    total_order_ids: Sequence[Any],
    state: Any = None,
) -> Any:
    """``val_sigma(x, X, <)`` — the value reported for *target* when the
    operations are applied in the given total order."""
    ops = list(operations)
    if target.id not in {x.id for x in ops}:
        raise ValueError(f"target {target.id} is not in the operation set")
    ordered = _order_operations(ops, total_order_ids)
    values = apply_sequence(data_type, [x.op for x in ordered], state)[1]
    by_id = dict(zip([x.id for x in ordered], values))
    if target.id not in by_id:
        raise ValueError(f"total order does not include target {target.id}")
    return by_id[target.id]


def valset(
    data_type: SerialDataType,
    target: OperationDescriptor,
    operations: Iterable[OperationDescriptor],
    order: PartialOrder,
    state: Any = None,
    limit: Optional[int] = None,
) -> Set[Any]:
    """``valset_sigma(x, X, R)`` — all values for *target* over total orders of
    *operations* consistent with *order* (Section 2.3).

    By Lemma 2.5 the result is nonempty whenever *order* restricted to the
    operation identifiers is a partial order.  ``limit`` bounds the number of
    linear extensions enumerated; ``None`` enumerates all of them.
    """
    ops = list(operations)
    ids = [x.id for x in ops]
    values: Set[Any] = set()
    for extension in order.linear_extensions(ids, limit=limit):
        values.add(val(data_type, target, ops, extension, state=state))
    return values


def value_under_prefix_order(
    data_type: SerialDataType,
    target: OperationDescriptor,
    ordered_prefix: Sequence[OperationDescriptor],
    state: Any = None,
) -> Any:
    """Value of *target* when it is the last element of *ordered_prefix*.

    This is the common case used by replicas (Lemma 2.7 / Invariant 5.6): the
    value of a stable operation is determined by the totally ordered prefix of
    operations preceding it.
    """
    if not ordered_prefix or ordered_prefix[-1].id != target.id:
        raise ValueError("target must be the final element of the prefix")
    return apply_sequence(data_type, [x.op for x in ordered_prefix], state)[1][-1]
