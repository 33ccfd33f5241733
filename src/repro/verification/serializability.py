"""End-to-end eventual-serializability checks on observed traces.

These helpers tie the Section 5.2 guarantees to the algorithm: the algorithm's
system-wide minimum labels provide the witness eventual total order, and the
trace recorded by the system (or by the simulator) is checked against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common import InvariantViolation, OperationId
from repro.deployment import Deployment
from repro.spec.guarantees import (
    TraceRecord,
    check_all_responses_explained,
    check_eventual_total_order,
    check_strict_responses_explained,
)


def check_system_trace(
    system: Deployment,
    check_nonstrict: bool = False,
    search_limit: int = 5000,
) -> None:
    """Check the guarantees of Theorems 5.7/5.8 on the trace of *system*.

    * every strict response must be explained by the witness eventual total
      order (Theorem 5.8);
    * with ``check_nonstrict=True``, every response (strict or not) must be
      explained by *some* total order consistent with the client-specified
      constraints (Theorem 5.7) — this uses bounded search and is meant for
      small traces.

    Raises :class:`~repro.common.InvariantViolation` on failure.
    """
    trace = system.trace
    witness = system.eventual_order()
    if not check_eventual_total_order(system.data_type, trace, witness):
        if not check_strict_responses_explained(
            system.data_type, trace, eventual_order=None, search_limit=search_limit
        ):
            raise InvariantViolation(
                "Theorem 5.8 violated: no eventual total order explains the strict responses"
            )
    if check_nonstrict:
        if not check_all_responses_explained(system.data_type, trace, search_limit):
            raise InvariantViolation(
                "Theorem 5.7 violated: some response has no explaining total order"
            )


def check_recorded_trace(
    data_type,
    trace: TraceRecord,
    witness: Optional[Sequence[OperationId]] = None,
    check_nonstrict: bool = False,
    search_limit: int = 5000,
) -> None:
    """Like :func:`check_system_trace` but for a bare recorded trace and an
    explicit witness (e.g. one that places a crash's casualties last)."""
    if not check_strict_responses_explained(
        data_type, trace, eventual_order=witness, search_limit=search_limit
    ):
        raise InvariantViolation(
            "Theorem 5.8 violated: strict responses not explained by the eventual order"
        )
    if check_nonstrict:
        if not check_all_responses_explained(data_type, trace, search_limit):
            raise InvariantViolation(
                "Theorem 5.7 violated: some response has no explaining total order"
            )
