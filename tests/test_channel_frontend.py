"""Tests for the channel and front-end automata (§6.1, §6.2)."""

import random

import pytest

from repro.algorithm.channel import Channel
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.messages import ResponseMessage
from repro.common import OperationIdGenerator, SpecificationError
from repro.core.operations import make_operation
from repro.datatypes import CounterType


class TestChannel:
    def test_send_receive_roundtrip(self):
        channel = Channel("a", "b")
        channel.send("m1")
        assert channel.receive("m1") == "m1"
        assert len(channel) == 0

    def test_receive_specific_message(self):
        channel = Channel("a", "b")
        channel.send("m1")
        channel.send("m2")
        assert channel.receive("m2") == "m2"
        assert channel.contents() == ["m1"]

    def test_receive_empty_raises(self):
        with pytest.raises(LookupError):
            Channel("a", "b").receive()

    def test_receive_unknown_message_raises(self):
        channel = Channel("a", "b")
        channel.send("m1")
        with pytest.raises(LookupError):
            channel.receive("m2")

    def test_multiset_semantics(self):
        channel = Channel("a", "b")
        channel.send("m")
        channel.send("m")
        channel.receive("m")
        assert len(channel) == 1

    def test_non_fifo_delivery_possible(self):
        channel = Channel("a", "b")
        for i in range(10):
            channel.send(i)
        rng = random.Random(3)
        received = [channel.receive(rng=rng) for _ in range(10)]
        assert sorted(received) == list(range(10))
        assert received != list(range(10))  # some reordering happened


@pytest.fixture
def gen():
    return OperationIdGenerator("alice")


class TestFrontEnd:
    def test_request_and_sendable(self, gen):
        frontend = FrontEndCore("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        frontend.request(op)
        assert op in frontend.wait

    def test_rejects_foreign_operations(self):
        frontend = FrontEndCore("alice")
        other = OperationIdGenerator("bob")
        with pytest.raises(SpecificationError):
            frontend.request(make_operation(CounterType.increment(), other.fresh()))

    def test_request_message_counts_sends(self, gen):
        frontend = FrontEndCore("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        frontend.request(op)
        frontend.make_request_message(op)
        frontend.make_request_message(op)
        assert frontend.requests_sent == 2

    def test_request_message_requires_pending(self, gen):
        frontend = FrontEndCore("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        with pytest.raises(SpecificationError):
            frontend.make_request_message(op)

    def test_response_recorded_only_when_pending(self, gen):
        frontend = FrontEndCore("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        stale = ResponseMessage(op, 1)
        assert frontend.receive_response(stale) is False
        frontend.request(op)
        assert frontend.receive_response(ResponseMessage(op, 1)) is True
        assert frontend.response_candidates() == [(op, 1)]

    def test_respond_clears_all_values(self, gen):
        frontend = FrontEndCore("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        frontend.request(op)
        frontend.receive_response(ResponseMessage(op, 1))
        frontend.receive_response(ResponseMessage(op, 2))
        value = frontend.respond(op)
        assert value in (1, 2)
        assert op not in frontend.wait
        assert frontend.rept == set()

    def test_respond_without_value_raises(self, gen):
        frontend = FrontEndCore("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        frontend.request(op)
        with pytest.raises(SpecificationError):
            frontend.respond(op)

    def test_pending_count_and_snapshot(self, gen):
        frontend = FrontEndCore("alice")
        op = make_operation(CounterType.increment(), gen.fresh())
        frontend.request(op)
        assert len(frontend.wait) == 1
        snapshot = frontend.snapshot()
        assert snapshot["wait"] == {op}
        snapshot["wait"].clear()
        assert frontend.wait == {op}  # snapshot is a copy
