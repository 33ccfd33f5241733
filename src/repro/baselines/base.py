"""Shared plumbing for the baseline services.

Every baseline is a small discrete-event service with the same client-facing
surface as :class:`~repro.sim.cluster.SimulatedCluster`: clients ``submit``
operation descriptors (the ``strict`` flag and ``prev`` sets are accepted for
interface compatibility even where the baseline's consistency model makes
them redundant), servers have a per-operation service time, and completed
operations are recorded in a :class:`~repro.sim.metrics.MetricsCollector`.

Every message crosses :meth:`~repro.sim.network.SimulatedNetwork.send`
between its real endpoints (client, server, replica), so it takes ``df`` /
``dg`` time and is counted like the cluster's.  The baselines have no
retransmission, so they reject ``loss_probability > 0`` at construction: a
lost message would leave its operation unanswered for ever.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.common import ConfigurationError, OperationId, OperationIdGenerator
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes.base import Operator, SerialDataType
from repro.sim.cluster import SimulatedService, SimulationParams
from repro.sim.events import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.network import SimulatedNetwork
from repro.spec.guarantees import TraceRecord


class BaselineServiceBase(SimulatedService):
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
        if self.params.loss_probability > 0:
            raise ConfigurationError(
                "the baseline services have no retransmission: loss_probability must be 0"
            )
        self.rng = random.Random(seed)
        self.simulator = Simulator()
        self.network = SimulatedNetwork(self.params, self.rng, self.simulator)
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.id_generators: Dict[str, OperationIdGenerator] = {
            c: OperationIdGenerator(c) for c in self.client_ids
        }
        self.metrics = MetricsCollector()
        self.trace = TraceRecord()
        self.requested: Dict[OperationId, OperationDescriptor] = {}
        self.responded: Dict[OperationId, Any] = {}

    # -- lifecycle ---------------------------------------------------------------

    def _on_start(self) -> None:
        """Extended by subclasses (e.g. to start background propagation timers)."""
        self.metrics.started_at = self.simulator.now

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
        # Validate the submission time before any bookkeeping: a rejected
        # submit must not leave a phantom operation outstanding for ever.
        when = self.simulator.now if at is None else at
        if when < self.simulator.now:
            raise ConfigurationError(
                f"cannot submit in the past (at={when}, now={self.simulator.now})"
            )
        operation = self.make_operation(client, operator, prev, strict)
        self.requested[operation.id] = operation
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
        return operation, self._await(operation, self.responded, max_time)

    # -- shared internals -------------------------------------------------------------

    def _client_request(self, operation: OperationDescriptor) -> None:
        self.metrics.record_request(operation, self.simulator.now)
        self.trace.record_request(operation)
        self._dispatch(operation)

    def _dispatch(self, operation: OperationDescriptor) -> None:
        """Subclasses route the request into the service."""
        raise NotImplementedError

    def _complete(self, server: str, operation: OperationDescriptor, value: Any) -> None:
        """Send the response from *server* back to the client."""
        self.network.send(
            "response", server, operation.id.client, self._deliver_response, (operation, value)
        )

    def _deliver_response(self, client: str, response: Tuple[OperationDescriptor, Any]) -> None:
        operation, value = response
        if operation.id in self.responded:
            return
        self.responded[operation.id] = value
        self.metrics.record_response(operation, value, self.simulator.now)
        self.trace.record_response(operation, value)
