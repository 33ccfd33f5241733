"""Centralized atomic object — the non-replicated baseline of Section 1.1.

A single server holds the only copy of the data, processes requests in
arrival order with a per-operation service time, and answers each client.
Every response is trivially consistent with a single total order (the
processing order), i.e. the object is atomic, but throughput is capped by the
one server and every request pays the full round trip to it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType
from repro.sim.cluster import SimulationParams
from repro.sim.events import FifoServer
from repro.baselines.base import BaselineServiceBase

#: The one server's endpoint name on the simulated network.
SERVER = "server"


class CentralizedAtomicService(BaselineServiceBase):
    """One server, one copy, FIFO processing."""

    def __init__(
        self,
        data_type: SerialDataType,
        client_ids: Sequence[str],
        params: Optional[SimulationParams] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(data_type, client_ids, params, seed)
        self._state = data_type.initial_state()
        self._server = FifoServer(self.simulator)
        #: The serialization actually applied, for the atomicity tests.
        self.applied_order: List[OperationDescriptor] = []

    def _dispatch(self, operation: OperationDescriptor) -> None:
        self.network.send("request", operation.id.client, SERVER, self._arrive, operation)

    def _arrive(self, server: str, operation: OperationDescriptor) -> None:
        self._server.serve(self.params.service_time, self._process, operation)

    def _process(self, operation: OperationDescriptor) -> None:
        self._state, value = self.data_type.apply(self._state, operation.op)
        self.applied_order.append(operation)
        self._complete(SERVER, operation, value)

    # -- inspection ---------------------------------------------------------------

    def current_state(self) -> Any:
        """The server's current data state."""
        return self._state

    def serialization(self) -> List[OperationDescriptor]:
        """The total order in which operations were applied."""
        return list(self.applied_order)
