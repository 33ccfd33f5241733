"""Response-time bounds of Theorems 9.3 and 9.4.

Under the timing assumptions of Section 9.1 — message delays bounded by
``df`` (front end <-> replica) and ``dg`` (replica <-> replica), gossip sent
at least every ``g`` time units, negligible local computation — every
requested operation ``x`` receives a response within ``delta(x)`` of its
request, where::

    delta(x) = 2*df                      if not x.strict and x.prev == {}
    delta(x) = 2*df + g + dg             if not x.strict and x.prev != {}
    delta(x) = 2*df + 3*(g + dg)         if x.strict

Theorem 9.4 extends this to recovery: if the timing assumptions hold from
time ``t`` onwards, an operation requested by time ``t`` is answered within
``[t, t + delta(x)]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.operations import OperationDescriptor
from repro.sim.metrics import LatencyRecord, classify_operation


@dataclass(frozen=True)
class TimingAssumptions:
    """The Section 9.1 timing parameters."""

    df: float
    dg: float
    gossip_period: float

    @property
    def gossip_round(self) -> float:
        """``g + dg`` — the worst-case time for one round of gossip to land."""
        return self.gossip_period + self.dg


def response_time_bound(operation: OperationDescriptor, timing: TimingAssumptions) -> float:
    """``delta(x)`` — the Theorem 9.3 response-time bound for *operation*."""
    return bound_by_class(timing)[classify_operation(operation)]


def bound_by_class(timing: TimingAssumptions) -> Dict[str, float]:
    """The delta table keyed by operation class (the rows of Theorem 9.3)."""
    return {
        "nonstrict_no_prev": 2 * timing.df,
        "nonstrict_with_prev": 2 * timing.df + timing.gossip_round,
        "strict": 2 * timing.df + 3 * timing.gossip_round,
    }


def stabilization_time_bound(timing: TimingAssumptions) -> float:
    """Worst-case time from request until the operation is stable at every
    replica *and* some replica knows it (the Lemma 9.2 + two-extra-rounds
    argument): ``df + 3*(g + dg)``."""
    return timing.df + 3 * timing.gossip_round


def check_latency_records_against_bounds(
    records: Iterable[LatencyRecord],
    timing: TimingAssumptions,
    resume_time: float = 0.0,
    tolerance: float = 1e-9,
) -> List[Tuple[LatencyRecord, float]]:
    """Return the records violating Theorem 9.3 / 9.4 (empty list == all good).

    ``resume_time`` is the ``t`` of Theorem 9.4: for operations requested
    before it, the bound applies from ``resume_time`` rather than from the
    request time.
    """
    violations: List[Tuple[LatencyRecord, float]] = []
    for record in records:
        bound = response_time_bound(record.operation, timing)
        start = max(record.request_time, resume_time)
        deadline = start + bound + tolerance
        if record.response_time > deadline:
            violations.append((record, bound))
    return violations


def summarize_bounds_vs_measured(
    records: Iterable[LatencyRecord],
    timing: TimingAssumptions,
) -> Dict[str, Dict[str, float]]:
    """Per operation class: the analytic bound and the measured maximum /
    mean latency — the table printed by benchmark E3."""
    bounds = bound_by_class(timing)
    by_class: Dict[str, List[float]] = {name: [] for name in bounds}
    for record in records:
        by_class.setdefault(record.category, []).append(record.latency)
    summary: Dict[str, Dict[str, float]] = {}
    for name, bound in bounds.items():
        latencies = by_class.get(name, [])
        summary[name] = {
            "bound": bound,
            "count": float(len(latencies)),
            "max": max(latencies) if latencies else float("nan"),
            "mean": sum(latencies) / len(latencies) if latencies else float("nan"),
        }
    return summary
