"""Shared small utilities for the ESDS reproduction.

This module contains exceptions, identifier helpers and tiny value types that
are used across the specification, the algorithm and the simulator.  It is
intentionally dependency-free.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Optional, Sequence


class EsdsError(Exception):
    """Base class for all errors raised by the repro library."""


class WellFormednessError(EsdsError):
    """A client violated the well-formedness assumptions of Section 4.

    Raised when an operation identifier is reused, or when a ``prev`` set
    refers to an operation that has not been requested yet.
    """


class SpecificationError(EsdsError):
    """An automaton action was applied while its precondition was false."""


class InvariantViolation(EsdsError):
    """A runtime invariant check (Sections 5, 7, 8 or 10) failed."""


class SimulationRelationError(EsdsError):
    """A forward-simulation step check (Section 8) failed."""


class ConfigurationError(EsdsError):
    """The system was configured inconsistently (e.g. fewer than 2 replicas)."""


class MetricsError(EsdsError):
    """A metric was requested that the collected data cannot support
    (e.g. the mean latency of a run in which nothing completed)."""


class StaleValueError(EsdsError):
    """A retransmitted operation can never be answered: its response value
    was compacted and then aged out of every replica's retained-value ledger
    (finite ``CompactionPolicy.value_retention``).  Surfaced by the service
    layer once every replica has NACKed the retransmit."""


def ensure_not_stale(failed, op_id) -> None:
    """Raise :class:`StaleValueError` when *op_id* is in a frontend's map of
    failed operations — the shared guard of every ``value_of`` facade."""
    if op_id in failed:
        raise StaleValueError(
            f"value of {op_id} aged out of every replica's ledger "
            f"({failed[op_id]})"
        )


class OperationId(NamedTuple):
    """Globally unique operation identifier.

    The paper assumes clients encode their identity into the operation
    identifier via a static function ``client : I -> C`` (Section 6.2).  We
    make this explicit: an identifier is a ``(client, seqno)`` pair, and
    ``client`` is recoverable directly from the identifier.

    A tuple, so the hash, ``==`` and the lexicographic order that every
    knowledge set and label lookup runs millions of times are C code; it
    therefore equals the plain tuple ``(client, seqno)``, and a generic
    encoder must test for this type *before* ``tuple``.
    """

    client: str
    seqno: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.client}#{self.seqno}"


class OperationIdGenerator:
    """Per-client generator of fresh :class:`OperationId` values."""

    def __init__(self, client: str, start: int = 0) -> None:
        self.client = client
        self._counter = itertools.count(start)

    def fresh(self) -> OperationId:
        """Return a new, never previously returned identifier."""
        return OperationId._make((self.client, next(self._counter)))

    def __iter__(self) -> Iterator[OperationId]:
        while True:
            yield self.fresh()


def client_of(op_id: OperationId) -> str:
    """The static ``client`` function of Section 6.2."""
    return op_id.client


def freeze_ids(ids) -> frozenset:
    """Return *ids* as a frozenset, accepting any iterable of identifiers."""
    return frozenset(ids)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence: the smallest sample
    with at least *fraction* of the samples at or below it (always a sample,
    never an interpolation).  ``0.0`` when there is no sample."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(fraction * len(sorted_values))
    return sorted_values[min(len(sorted_values) - 1, max(0, rank - 1))]


class Infinity:
    """A single object greater than every label (the paper's ``oo``).

    Replica label functions map operation identifiers that have not yet been
    assigned a label to ``INFINITY`` (Section 6.3).
    """

    _instance: Optional["Infinity"] = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "oo"

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("Infinity")


INFINITY = Infinity()
