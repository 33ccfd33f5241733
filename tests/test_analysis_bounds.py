"""Tests for the Theorem 9.3 / 9.4 bound calculator."""

import math

import pytest

from repro.analysis.bounds import (
    TimingAssumptions,
    bound_by_class,
    check_latency_records_against_bounds,
    response_time_bound,
    stabilization_time_bound,
    summarize_bounds_vs_measured,
)
from repro.common import OperationIdGenerator
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.sim.metrics import LatencyRecord, classify_operation

TIMING = TimingAssumptions(df=1.0, dg=2.0, gossip_period=3.0)


@pytest.fixture
def gen():
    return OperationIdGenerator("c")


class TestBoundValues:
    def test_delta_table(self, gen):
        plain = make_operation(CounterType.increment(), gen.fresh())
        dep = make_operation(CounterType.increment(), gen.fresh(), prev=[plain.id])
        strict = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        assert response_time_bound(plain, TIMING) == 2.0
        assert response_time_bound(dep, TIMING) == 2.0 + 5.0
        assert response_time_bound(strict, TIMING) == 2.0 + 15.0

    def test_bound_by_class_matches_per_operation(self, gen):
        table = bound_by_class(TIMING)
        plain = make_operation(CounterType.increment(), gen.fresh())
        assert table[classify_operation(plain)] == response_time_bound(plain, TIMING)
        assert set(table) == {"nonstrict_no_prev", "nonstrict_with_prev", "strict"}

    def test_bounds_are_ordered(self):
        table = bound_by_class(TIMING)
        assert table["nonstrict_no_prev"] < table["nonstrict_with_prev"] < table["strict"]

    def test_stabilization_bound(self):
        assert stabilization_time_bound(TIMING) == 1.0 + 3 * 5.0

    def test_gossip_round(self):
        assert TIMING.gossip_round == 5.0


class TestViolationChecker:
    def test_within_bound_passes(self, gen):
        op = make_operation(CounterType.increment(), gen.fresh())
        record = LatencyRecord(op, request_time=0.0, response_time=2.0)
        assert check_latency_records_against_bounds([record], TIMING) == []

    def test_violation_reported(self, gen):
        op = make_operation(CounterType.increment(), gen.fresh())
        record = LatencyRecord(op, request_time=0.0, response_time=2.5)
        violations = check_latency_records_against_bounds([record], TIMING)
        assert len(violations) == 1
        assert violations[0][1] == 2.0

    def test_resume_time_shifts_deadline(self, gen):
        """Theorem 9.4: the bound is measured from max(request, resume)."""
        op = make_operation(CounterType.increment(), gen.fresh())
        record = LatencyRecord(op, request_time=0.0, response_time=11.0)
        assert check_latency_records_against_bounds([record], TIMING)
        assert check_latency_records_against_bounds([record], TIMING, resume_time=9.0) == []

    def test_summary_table(self, gen):
        plain = make_operation(CounterType.increment(), gen.fresh())
        strict = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        records = [
            LatencyRecord(plain, 0.0, 1.5),
            LatencyRecord(strict, 0.0, 12.0),
        ]
        summary = summarize_bounds_vs_measured(records, TIMING)
        assert summary["nonstrict_no_prev"]["max"] == 1.5
        assert summary["strict"]["bound"] == 17.0
        assert math.isnan(summary["nonstrict_with_prev"]["max"])
