"""Shared plumbing for the baseline services.

Every baseline is a small discrete-event service with the same client-facing
surface as :class:`~repro.sim.cluster.SimulatedCluster`: clients ``submit``
operation descriptors (the ``strict`` flag and ``prev`` sets are accepted for
interface compatibility even where the baseline's consistency model makes
them redundant), messages take ``df`` / ``dg`` time, servers have a
per-operation service time, and completed operations are recorded in a
:class:`~repro.sim.metrics.MetricsCollector`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.common import ConfigurationError, OperationId, OperationIdGenerator
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes.base import Operator, SerialDataType
from repro.sim.cluster import SimulationParams, drive_until
from repro.sim.events import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.network import SimulatedNetwork
from repro.spec.guarantees import TraceRecord


class BaselineServiceBase:
    """Common client plumbing for the baseline services."""

    def __init__(
        self,
        data_type: SerialDataType,
        client_ids: Sequence[str],
        params: Optional[SimulationParams] = None,
        seed: int = 0,
    ) -> None:
        if not client_ids:
            raise ConfigurationError("at least one client is required")
        self.data_type = data_type
        self.params = params or SimulationParams()
        self.rng = random.Random(seed)
        self.simulator = Simulator()
        self.network = SimulatedNetwork(self.params, self.rng)
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.id_generators: Dict[str, OperationIdGenerator] = {
            c: OperationIdGenerator(c) for c in self.client_ids
        }
        self.metrics = MetricsCollector()
        self.trace = TraceRecord()
        self.requested: Dict[OperationId, OperationDescriptor] = {}
        self.responded: Dict[OperationId, Any] = {}
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.metrics.started_at = self.simulator.now
        self._on_start()

    def _on_start(self) -> None:
        """Hook for subclasses (e.g. to start background propagation timers)."""

    @property
    def now(self) -> float:
        return self.simulator.now

    def run(self, duration: float, max_events: Optional[int] = None) -> None:
        self.start()
        self.simulator.run_until(self.simulator.now + duration, max_events)
        self.metrics.finished_at = self.simulator.now

    def run_until_idle(self, max_time: float = 10_000.0, max_events: int = 5_000_000) -> None:
        self.start()
        drive_until(
            self.simulator, lambda: not self.outstanding_operations(), max_time, max_events
        )
        self.metrics.finished_at = self.simulator.now

    def outstanding_operations(self) -> int:
        # Responses are only ever recorded for requested operations.
        return len(self.requested) - len(self.responded)

    # -- client interface ----------------------------------------------------------

    def make_operation(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
    ) -> OperationDescriptor:
        self.data_type.check_operator(operator)
        return make_operation(operator, self.id_generators[client].fresh(), frozenset(prev), strict)

    def submit(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        at: Optional[float] = None,
    ) -> OperationDescriptor:
        self.start()
        operation = self.make_operation(client, operator, prev, strict)
        self.requested[operation.id] = operation
        when = self.simulator.now if at is None else at
        self.simulator.schedule_at(when, lambda op=operation: self._client_request(op))
        return operation

    def execute(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        max_time: float = 10_000.0,
    ) -> Tuple[OperationDescriptor, Any]:
        operation = self.submit(client, operator, prev, strict)
        drive_until(self.simulator, lambda: operation.id in self.responded, max_time)
        if operation.id not in self.responded:
            raise RuntimeError(f"operation {operation.id} received no response")
        return operation, self.responded[operation.id]

    # -- shared internals -------------------------------------------------------------

    def _client_request(self, operation: OperationDescriptor) -> None:
        self.metrics.record_request(operation, self.simulator.now)
        self.trace.record_request(operation)
        self._dispatch(operation)

    def _dispatch(self, operation: OperationDescriptor) -> None:
        """Subclasses route the request into the service."""
        raise NotImplementedError

    def _complete(self, operation: OperationDescriptor, value: Any) -> None:
        """Deliver the response back to the client after a ``df`` delay."""
        self.network.record_sent("response")
        delay = self.network.delay_for("response", self.simulator.now)
        self.simulator.schedule(delay, lambda: self._deliver_response(operation, value))

    def _deliver_response(self, operation: OperationDescriptor, value: Any) -> None:
        if operation.id in self.responded:
            return
        self.responded[operation.id] = value
        self.metrics.record_response(operation, value, self.simulator.now)
        self.trace.record_response(operation, value)
