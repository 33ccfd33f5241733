"""Tests for the behavioural guarantee checkers (Theorems 5.7, 5.8, Cor. 5.9)."""

import pytest

from repro.common import OperationIdGenerator
from repro.core.operations import make_operation
from repro.datatypes import CounterType, RegisterType
from repro.spec.guarantees import (
    TraceRecord,
    check_all_responses_explained,
    check_atomicity_when_all_strict,
    check_eventual_total_order,
    check_strict_responses_explained,
    find_explaining_total_order,
)


@pytest.fixture
def gen():
    return OperationIdGenerator("alice")


class CountingCounter(CounterType):
    """A counter that counts its ``apply`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.applications = 0

    def apply(self, state, operator):
        self.applications += 1
        return super().apply(state, operator)


class TestTraceRecord:
    def test_requests_and_responses_views(self, gen):
        trace = TraceRecord()
        op = make_operation(CounterType.increment(), gen.fresh())
        trace.record_request(op)
        trace.record_response(op, 1)
        assert trace.requests == [op]
        assert trace.responses == [(op, 1)]

    def test_indices_and_earlier_strict(self, gen):
        trace = TraceRecord()
        a = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        b = make_operation(CounterType.read(), gen.fresh())
        trace.record_request(a)
        trace.record_response(a, 1)
        trace.record_request(b)
        trace.record_response(b, 1)
        assert trace.request_index(a.id) == 0
        assert trace.response_index(b.id) == 3
        assert trace.strict_responses_before(trace.request_index(b.id)) == [(a, 1)]
        assert trace.request_index(gen.fresh()) is None

    def test_csc(self, gen):
        trace = TraceRecord()
        a = make_operation(CounterType.increment(), gen.fresh())
        b = make_operation(CounterType.read(), gen.fresh(), prev=[a.id])
        trace.record_request(a)
        trace.record_request(b)
        assert trace.csc() == {(a.id, b.id)}


class TestEventualTotalOrder:
    def _make_trace(self, gen):
        counter = CounterType(initial=1)
        inc = make_operation(CounterType.increment(), gen.fresh())
        double = make_operation(CounterType.double(), gen.fresh())
        read = make_operation(CounterType.read(), gen.fresh(),
                              prev=[inc.id, double.id], strict=True)
        trace = TraceRecord()
        for op in (inc, double, read):
            trace.record_request(op)
        return counter, inc, double, read, trace

    def test_witness_explaining_strict_response(self, gen):
        counter, inc, double, read, trace = self._make_trace(gen)
        trace.record_response(read, 4)  # inc then double from 1 -> 4
        assert check_eventual_total_order(counter, trace, [inc.id, double.id, read.id])
        assert not check_eventual_total_order(counter, trace, [double.id, inc.id, read.id])

    def test_witness_must_respect_csc(self, gen):
        counter, inc, double, read, trace = self._make_trace(gen)
        trace.record_response(read, 4)
        assert not check_eventual_total_order(counter, trace, [read.id, inc.id, double.id])

    def test_witness_must_cover_all_requests(self, gen):
        counter, inc, double, read, trace = self._make_trace(gen)
        trace.record_response(read, 4)
        assert not check_eventual_total_order(counter, trace, [inc.id, read.id])

    def test_search_without_witness(self, gen):
        counter, inc, double, read, trace = self._make_trace(gen)
        trace.record_response(read, 3)  # double then inc
        assert check_strict_responses_explained(counter, trace)

    def test_unexplainable_strict_response_detected(self, gen):
        counter, inc, double, read, trace = self._make_trace(gen)
        trace.record_response(read, 7)  # impossible under any order
        assert not check_strict_responses_explained(counter, trace)

    def test_nonstrict_responses_do_not_constrain_the_witness(self, gen):
        counter, inc, double, read, trace = self._make_trace(gen)
        nonstrict = make_operation(CounterType.read(), gen.fresh())
        trace.record_request(nonstrict)
        trace.record_response(nonstrict, 1)  # stale read, fine for nonstrict
        trace.record_response(read, 4)
        assert check_eventual_total_order(
            counter, trace, [inc.id, double.id, read.id, nonstrict.id]
        )


    def test_witness_check_is_one_replay(self, gen):
        """Linear in the trace: n operations with m strict responses cost n
        applications (one replay of the witness), not n per strict response;
        the search replays once per linear extension, and a prev chain has
        exactly one."""
        counter = CountingCounter()
        trace = TraceRecord()
        history = []
        for index in range(30):
            prev = [history[-1].id] if history else []
            strict = index % 3 == 0
            op = make_operation(CounterType.increment(), gen.fresh(), prev=prev, strict=strict)
            history.append(op)
            trace.record_request(op)
            trace.record_response(op, index + 1)
        assert check_eventual_total_order(counter, trace, [op.id for op in history])
        assert counter.applications == 30
        counter.applications = 0
        assert check_strict_responses_explained(counter, trace)
        assert counter.applications == 30


class TestPerResponseExplanations:
    def test_every_response_has_an_order(self, gen):
        register = RegisterType()
        w1 = make_operation(RegisterType.write("a"), gen.fresh())
        w2 = make_operation(RegisterType.write("b"), gen.fresh())
        r = make_operation(RegisterType.read(), gen.fresh())
        trace = TraceRecord()
        for op in (w1, w2, r):
            trace.record_request(op)
        trace.record_response(r, "a")
        assert find_explaining_total_order(register, trace, (r, "a")) is not None
        assert check_all_responses_explained(register, trace)

    def test_impossible_response_has_no_order(self, gen):
        register = RegisterType()
        w1 = make_operation(RegisterType.write("a"), gen.fresh())
        r = make_operation(RegisterType.read(), gen.fresh(), prev=[w1.id])
        trace = TraceRecord()
        trace.record_request(w1)
        trace.record_request(r)
        trace.record_response(r, "zzz")
        assert find_explaining_total_order(register, trace, (r, "zzz")) is None
        assert not check_all_responses_explained(register, trace)

    def test_earlier_strict_responses_must_also_be_explained(self, gen):
        counter = CounterType(initial=1)
        inc = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        double = make_operation(CounterType.double(), gen.fresh(), strict=True)
        trace = TraceRecord()
        trace.record_request(inc)
        trace.record_request(double)
        # Both strict responses claim to have gone first: inconsistent.
        trace.record_response(inc, 2)     # inc applied to 1 -> 2 (first)
        trace.record_response(double, 2)  # double applied to 1 -> 2 (first)
        late_read = make_operation(CounterType.read(), gen.fresh())
        trace.record_request(late_read)
        trace.record_response(late_read, 4)
        assert find_explaining_total_order(counter, trace, (late_read, 4)) is None


class TestAtomicityCorollary:
    def test_all_strict_trace_is_atomic(self, gen):
        counter = CounterType()
        a = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        b = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        trace = TraceRecord()
        trace.record_request(a)
        trace.record_request(b)
        trace.record_response(a, 1)
        trace.record_response(b, 2)
        assert check_atomicity_when_all_strict(counter, trace)
        assert check_atomicity_when_all_strict(counter, trace, eventual_order=[a.id, b.id])
        assert not check_atomicity_when_all_strict(counter, trace, eventual_order=[b.id, a.id])

    def test_witness_omitting_an_answered_operation_is_rejected(self, gen):
        counter = CounterType()
        a = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        b = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        trace = TraceRecord()
        trace.record_request(a)
        trace.record_request(b)
        trace.record_response(a, 1)
        trace.record_response(b, 2)
        assert not check_atomicity_when_all_strict(counter, trace, eventual_order=[a.id])

    def test_rejects_traces_with_nonstrict_requests(self, gen):
        counter = CounterType()
        a = make_operation(CounterType.increment(), gen.fresh())
        trace = TraceRecord()
        trace.record_request(a)
        with pytest.raises(ValueError):
            check_atomicity_when_all_strict(counter, trace)
