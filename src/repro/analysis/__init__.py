"""Analytic performance bounds (Section 9) and helpers to compare them
against simulated measurements."""

from repro.analysis.bounds import (
    TimingAssumptions,
    response_time_bound,
    check_latency_records_against_bounds,
    stabilization_time_bound,
)

__all__ = [
    "TimingAssumptions",
    "response_time_bound",
    "check_latency_records_against_bounds",
    "stabilization_time_bound",
]
