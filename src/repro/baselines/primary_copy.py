"""Primary-copy replication with synchronous (write-all) propagation.

An atomic replicated object in the style of [1, 23, 26] of the paper: every
operation is forwarded to the primary, which orders it, applies it, pushes
the update synchronously to every backup and waits for their acknowledgements
before answering the client.  Reads could be served by backups in more
refined variants; here every operation goes through the primary so the
service is linearizable, at the cost of two extra message delays and a
throughput ceiling at the primary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.common import OperationId
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType
from repro.sim.cluster import SimulationParams
from repro.sim.events import FifoServer
from repro.baselines.base import BaselineServiceBase


class PrimaryCopyService(BaselineServiceBase):
    """Primary orders and applies; backups acknowledge before the response."""

    def __init__(
        self,
        data_type: SerialDataType,
        num_replicas: int = 3,
        client_ids: Sequence[str] = ("c0",),
        params: Optional[SimulationParams] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(data_type, client_ids, params, seed)
        if num_replicas < 1:
            raise ValueError("at least one replica (the primary) is required")
        self.num_replicas = num_replicas
        self.replica_ids = tuple(f"r{i}" for i in range(num_replicas))
        self._primary_state = data_type.initial_state()
        self._backup_states: Dict[str, Any] = {
            rid: data_type.initial_state() for rid in self.replica_ids[1:]
        }
        self._primary = FifoServer(self.simulator)
        self._pending_acks: Dict[OperationId, int] = {}
        self._pending_values: Dict[OperationId, Any] = {}
        self.applied_order: List[OperationDescriptor] = []

    # -- request path -------------------------------------------------------------

    def _dispatch(self, operation: OperationDescriptor) -> None:
        primary = self.replica_ids[0]
        self.network.send("request", operation.id.client, primary, self._arrive, operation)

    def _arrive(self, primary: str, operation: OperationDescriptor) -> None:
        self._primary.serve(self.params.service_time, self._apply_at_primary, operation)

    def _apply_at_primary(self, operation: OperationDescriptor) -> None:
        self._primary_state, value = self.data_type.apply(self._primary_state, operation.op)
        self.applied_order.append(operation)
        primary, *backups = self.replica_ids
        if not backups:
            self._complete(primary, operation, value)
            return
        self._pending_acks[operation.id] = len(backups)
        self._pending_values[operation.id] = value
        for backup in backups:
            self.network.send("gossip", primary, backup, self._apply_at_backup, operation)

    def _apply_at_backup(self, backup: str, operation: OperationDescriptor) -> None:
        state, _ = self.data_type.apply(self._backup_states[backup], operation.op)
        self._backup_states[backup] = state
        # Acknowledgement travels back to the primary.
        self.network.send("gossip", backup, self.replica_ids[0], self._ack, operation)

    def _ack(self, primary: str, operation: OperationDescriptor) -> None:
        remaining = self._pending_acks.get(operation.id)
        if remaining is None:
            return
        remaining -= 1
        if remaining > 0:
            self._pending_acks[operation.id] = remaining
            return
        del self._pending_acks[operation.id]
        value = self._pending_values.pop(operation.id)
        self._complete(primary, operation, value)

    # -- inspection ---------------------------------------------------------------

    def serialization(self) -> List[OperationDescriptor]:
        """The primary's application order (the object's linearization)."""
        return list(self.applied_order)

    def replica_states(self) -> Dict[str, Any]:
        """Primary and backup states (for convergence checks)."""
        states = {"r0": self._primary_state}
        states.update(self._backup_states)
        return states
