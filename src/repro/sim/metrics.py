"""Latency, throughput and stabilization metrics for simulated runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.common import MetricsError, OperationId, percentile
from repro.core.operations import OperationDescriptor


def classify_operation(operation: OperationDescriptor) -> str:
    """The three operation classes of Theorem 9.3."""
    if operation.strict:
        return "strict"
    if operation.prev:
        return "nonstrict_with_prev"
    return "nonstrict_no_prev"


@dataclass
class LatencyRecord:
    """One completed operation."""

    operation: OperationDescriptor
    request_time: float
    response_time: float
    value: Any = None

    @property
    def latency(self) -> float:
        return self.response_time - self.request_time

    @property
    def category(self) -> str:
        return classify_operation(self.operation)


@dataclass
class LatencySummary:
    """Aggregate statistics over a set of latency records."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    @classmethod
    def from_latencies(cls, latencies: Iterable[float]) -> "LatencySummary":
        values = sorted(latencies)
        if not values:
            return cls(count=0, mean=math.nan, minimum=math.nan, maximum=math.nan,
                       p50=math.nan, p95=math.nan)
        return cls(
            count=len(values),
            mean=sum(values) / len(values),
            minimum=values[0],
            maximum=values[-1],
            p50=percentile(values, 0.50),
            p95=percentile(values, 0.95),
        )


class MetricsCollector:
    """Collects per-operation and system-wide measurements during a run."""

    def __init__(self) -> None:
        self.records: List[LatencyRecord] = []
        self._request_times: Dict[OperationId, float] = {}
        #: Simulation time at which each operation was first observed stable
        #: at every replica (filled in by the cluster's gossip handler).
        self.stabilization_times: Dict[OperationId, float] = {}
        #: Peak / latest per-replica tracked-operation counts (the memory
        #: quantity checkpoint compaction bounds), sampled by the cluster at
        #: gossip ticks and after compactions.
        self.tracked_ops_peak: Dict[str, int] = {}
        self.tracked_ops_last: Dict[str, int] = {}
        self.started_at: float = 0.0
        self.finished_at: float = 0.0

    # -- recording -------------------------------------------------------------

    def record_request(self, operation: OperationDescriptor, time: float) -> None:
        self._request_times[operation.id] = time

    def record_response(self, operation: OperationDescriptor, value: Any, time: float) -> None:
        request_time = self._request_times.get(operation.id)
        if request_time is None:
            return
        self.records.append(
            LatencyRecord(
                operation=operation,
                request_time=request_time,
                response_time=time,
                value=value,
            )
        )

    def record_stabilization(self, op_id: OperationId, time: float) -> None:
        self.stabilization_times.setdefault(op_id, time)

    def record_tracked_ops(self, replica_id: str, count: int) -> None:
        """Sample one replica's tracked-operation count (state-size metric)."""
        self.tracked_ops_last[replica_id] = count
        if count > self.tracked_ops_peak.get(replica_id, 0):
            self.tracked_ops_peak[replica_id] = count

    # -- summaries ---------------------------------------------------------------

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def outstanding(self) -> int:
        answered = {record.operation.id for record in self.records}
        return len(set(self._request_times) - answered)

    def latency_summary(self, category: Optional[str] = None) -> LatencySummary:
        latencies = [
            record.latency
            for record in self.records
            if category is None or record.category == category
        ]
        return LatencySummary.from_latencies(latencies)

    def throughput(self, duration: Optional[float] = None) -> float:
        """Completed operations per unit simulated time."""
        span = duration if duration is not None else (self.finished_at - self.started_at)
        if span <= 0:
            return 0.0
        return self.completed / span

    def stabilization_summary(self) -> LatencySummary:
        """Time from request to system-wide stability."""
        values = []
        for op_id, stable_time in self.stabilization_times.items():
            request_time = self._request_times.get(op_id)
            if request_time is not None:
                values.append(stable_time - request_time)
        return LatencySummary.from_latencies(values)

    def peak_tracked_ops(self) -> int:
        """The largest tracked-operation count any replica reached (0 when
        state sampling never ran)."""
        return max(self.tracked_ops_peak.values(), default=0)


class PerShardMetrics:
    """Aggregates the per-shard :class:`MetricsCollector` instances of a
    sharded deployment into whole-service summaries plus per-shard
    breakdowns (the load-balance view benchmark E9 reports)."""

    def __init__(self, collectors: Dict[str, MetricsCollector]) -> None:
        if not collectors:
            raise ValueError("PerShardMetrics needs at least one collector")
        self.collectors = dict(collectors)

    # -- whole-service summaries ---------------------------------------------

    @property
    def completed(self) -> int:
        """Completed operations across every shard."""
        return sum(collector.completed for collector in self.collectors.values())

    @property
    def outstanding(self) -> int:
        """Unanswered operations across every shard."""
        return sum(collector.outstanding for collector in self.collectors.values())

    def latency_summary(
        self, *, shard: Optional[str] = None, category: Optional[str] = None
    ) -> LatencySummary:
        """Latency statistics over one shard or (default) all of them.

        Keyword-only on purpose: the single-cluster ``latency_summary`` takes
        a *category* first, so a positional string here would silently filter
        the wrong axis.
        """
        if shard is not None and shard not in self.collectors:
            raise MetricsError(
                f"unknown shard {shard!r}; shards are {sorted(self.collectors)} "
                f"(pass category=... to filter by operation class)"
            )
        collectors = (
            [self.collectors[shard]] if shard is not None else list(self.collectors.values())
        )
        latencies = [
            record.latency
            for collector in collectors
            for record in collector.records
            if category is None or record.category == category
        ]
        return LatencySummary.from_latencies(latencies)

    def throughput(self, duration: float) -> float:
        """Total committed-ops throughput over *duration*."""
        if duration <= 0:
            return 0.0
        return self.completed / duration

    # -- per-shard breakdowns --------------------------------------------------

    def completed_by_shard(self) -> Dict[str, int]:
        return {sid: collector.completed for sid, collector in self.collectors.items()}

    def throughput_by_shard(self, duration: float) -> Dict[str, float]:
        if duration <= 0:
            return {sid: 0.0 for sid in self.collectors}
        return {
            sid: collector.completed / duration
            for sid, collector in self.collectors.items()
        }

    def imbalance(self) -> float:
        """Peak-to-mean ratio of per-shard completed counts (1.0 = perfectly
        balanced; rises with key skew).  0.0 when nothing completed."""
        counts = list(self.completed_by_shard().values())
        total = sum(counts)
        if total == 0:
            return 0.0
        mean = total / len(counts)
        return max(counts) / mean

    def peak_tracked_ops(self) -> int:
        """Largest tracked-operation count any replica of any shard reached."""
        return max(
            (collector.peak_tracked_ops() for collector in self.collectors.values()),
            default=0,
        )
