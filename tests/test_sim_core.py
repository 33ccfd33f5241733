"""Tests for the discrete-event core: event queue, network model, metrics."""

import math
import random

import pytest

from repro.common import ConfigurationError, OperationIdGenerator
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.sim.events import EventQueue, Simulator
from repro.sim.metrics import LatencyRecord, LatencySummary, MetricsCollector, classify_operation
from repro.sim.cluster import SimulationParams
from repro.sim.faults import DelaySpike, GossipOutage
from repro.sim.network import SimulatedNetwork


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_times(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        event.cancelled = True
        assert queue.pop() is None
        assert len(queue) == 0


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.schedule(2.0, lambda: times.append(sim.now))
        while sim.step():
            pass
        assert times == [2.0, 5.0]
        assert sim.now == 5.0

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run_until(5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        while sim.step():
            pass
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(event)
        while sim.step():
            pass
        assert fired == []

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        while sim.step():
            pass
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0


class TestSimulatedNetwork:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationParams(df=-1)
        with pytest.raises(ConfigurationError):
            SimulationParams(jitter=2.0)
        with pytest.raises(ConfigurationError):
            SimulationParams(loss_probability=1.0)

    def test_deterministic_delays(self):
        network = SimulatedNetwork(SimulationParams(df=2.0, dg=3.0), random.Random(0), Simulator())
        assert network.delay_for("request", now=0.0) == 2.0
        assert network.delay_for("response", now=0.0) == 2.0
        assert network.delay_for("gossip", now=0.0) == 3.0

    def test_jitter_stays_below_bound(self):
        network = SimulatedNetwork(
            SimulationParams(df=2.0, dg=3.0, jitter=0.5), random.Random(0), Simulator()
        )
        for _ in range(50):
            assert 1.0 <= network.delay_for("request", 0.0) <= 2.0
            assert 1.5 <= network.delay_for("gossip", 0.0) <= 3.0

    def test_delay_spike(self):
        network = SimulatedNetwork(SimulationParams(spike_factor=5.0), random.Random(0), Simulator())
        network.windows.append(DelaySpike(start=0.0, end=10.0))  # what opening does
        assert network.delay_for("request", now=5.0) == 5.0
        assert network.delay_for("request", now=15.0) == 1.0

    def test_partition_drops(self):
        network = SimulatedNetwork(SimulationParams(), random.Random(0), Simulator())
        network.windows.append(GossipOutage("r1", start=0.0, end=10.0))
        assert network.should_drop("gossip", 5.0, "r0", "r1")
        assert network.should_drop("gossip", 5.0, "r1", "r0")
        assert not network.should_drop("gossip", 10.0, "r0", "r1")
        assert network.counters.dropped == 2

    def test_loss_probability_one_sided(self):
        always = SimulatedNetwork(
            SimulationParams(loss_probability=0.999), random.Random(1), Simulator()
        )
        dropped = sum(always.should_drop("request", 0.0, "a", "b") for _ in range(100))
        assert dropped > 90

    def test_record_sent_counts(self):
        network = SimulatedNetwork(SimulationParams(), random.Random(0), Simulator())
        network.record_sent("request")
        network.record_sent("response")
        network.record_sent("gossip", payload_size=7)
        assert network.counters.total() == 3
        assert network.counters.gossip_payload == 7
        with pytest.raises(ValueError):
            network.record_sent("bogus")


class TestMetrics:
    def _operation(self, strict=False, prev=()):
        gen = OperationIdGenerator("c", start=random.randint(0, 10**6))
        return make_operation(CounterType.increment(), gen.fresh(), prev=prev, strict=strict)

    def test_classification(self):
        gen = OperationIdGenerator("c")
        plain = make_operation(CounterType.increment(), gen.fresh())
        dep = make_operation(CounterType.increment(), gen.fresh(), prev=[plain.id])
        strict = make_operation(CounterType.increment(), gen.fresh(), strict=True)
        assert classify_operation(plain) == "nonstrict_no_prev"
        assert classify_operation(dep) == "nonstrict_with_prev"
        assert classify_operation(strict) == "strict"

    def test_latency_record(self):
        record = LatencyRecord(self._operation(), request_time=1.0, response_time=3.5)
        assert record.latency == 2.5

    def test_summary_statistics(self):
        summary = LatencySummary.from_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.p50 == 2.0
        assert summary.p95 == 4.0

    def test_empty_summary_is_nan(self):
        summary = LatencySummary.from_latencies([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_collector_roundtrip(self):
        collector = MetricsCollector()
        op = self._operation()
        collector.record_request(op, 1.0)
        assert collector.outstanding == 1
        collector.record_response(op, 1, 4.0)
        assert collector.completed == 1
        assert collector.outstanding == 0
        assert collector.latency_summary().mean == 3.0
        collector.started_at, collector.finished_at = 0.0, 10.0
        assert collector.throughput() == 0.1

    def test_response_without_request_ignored(self):
        collector = MetricsCollector()
        collector.record_response(self._operation(), 1, 4.0)
        assert collector.completed == 0

    def test_stabilization_summary(self):
        collector = MetricsCollector()
        op = self._operation()
        collector.record_request(op, 2.0)
        collector.record_stabilization(op.id, 8.0)
        collector.record_stabilization(op.id, 9.0)  # only the first counts
        assert collector.stabilization_summary().mean == 6.0
