"""Operation labels (Section 6.3).

Labels are taken from a well-ordered set ``L`` partitioned into per-replica
sets ``L_r``; replica ``r`` only ever *generates* labels from ``L_r``, which
makes generated labels globally unique.  For any finite set of labels and any
replica ``r`` there is a label in ``L_r`` greater than all of them, so a
replica can never get stuck.

We realise ``L`` as pairs ``(rank, replica_id)`` ordered lexicographically
(rank first, replica identifier as tie-breaker); ``L_r`` is the set of pairs
whose second component is ``r``.  The paper's ``oo`` ("no label yet") is the
shared :data:`repro.common.INFINITY` object, which compares greater than
every label.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Union

from repro.common import INFINITY, Infinity

LabelOrInfinity = Union["Label", Infinity]


class Label(NamedTuple):
    """A label ``(rank, replica)`` in ``L_replica``.

    A tuple, ordered lexicographically in C; a comparison against
    ``INFINITY`` is not a tuple comparison and resolves through
    :class:`~repro.common.Infinity`'s reflected methods.
    """

    rank: int
    replica: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.rank}@{self.replica}"


def label_min(a: LabelOrInfinity, b: LabelOrInfinity) -> LabelOrInfinity:
    """Pointwise minimum used when merging gossip (``min(label_r, L_m)``)."""
    if a is INFINITY:
        return b
    if b is INFINITY:
        return a
    return a if a <= b else b


def label_sort_key(label: LabelOrInfinity):
    """A sort key placing finite labels in order and ``INFINITY`` last."""
    if label is INFINITY:
        return (1, 0, "")
    return (0, label.rank, label.replica)


class LabelGenerator:
    """Generates fresh labels from ``L_r`` for one replica.

    Every generated label is strictly greater than all labels passed to the
    previous :meth:`fresh` calls' ``greater_than`` arguments and strictly
    greater than every label generated before, matching the ``do_it``
    precondition (the new label must exceed the label of every operation
    already done at the replica).
    """

    def __init__(self, replica: str, start_rank: int = 0) -> None:
        self.replica = replica
        self._next_rank = start_rank

    def fresh(self, greater_than: Iterable[LabelOrInfinity] = ()) -> Label:
        """A new label in ``L_replica`` greater than everything in
        *greater_than* (``INFINITY`` entries are ignored — they mean "no
        label yet", and new labels need not exceed them)."""
        floor = self._next_rank
        for label in greater_than:
            if label is INFINITY or label is None:
                continue
            if label.rank >= floor:
                floor = label.rank + 1
        label = Label._make((floor, self.replica))
        self._next_rank = floor + 1
        return label

    def fresh_monotone(self) -> Label:
        """A new label above everything ever generated *or observed*.

        Equivalent to ``fresh(existing)`` whenever every label in *existing*
        has previously passed through :meth:`fresh` or :meth:`observed` —
        then ``_next_rank`` already exceeds every existing rank and the scan
        in :meth:`fresh` is a no-op.  :class:`~repro.algorithm.fastcore.
        FastReplicaCore` maintains exactly this invariant and uses this
        constant-time path on ``do_it``.
        """
        label = Label._make((self._next_rank, self.replica))
        self._next_rank += 1
        return label

    def observed(self, label: Optional[LabelOrInfinity]) -> None:
        """Note a label seen via gossip so future local labels stay above it.

        This is not required for correctness (``fresh`` already takes the
        labels of done operations into account) but keeps locally generated
        labels monotone with respect to everything the replica has seen,
        which reduces reordering in practice.
        """
        if label is None or label is INFINITY:
            return
        if isinstance(label, Label) and label.rank >= self._next_rank:
            self._next_rank = label.rank + 1
