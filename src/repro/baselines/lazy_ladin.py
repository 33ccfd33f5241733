"""Lazy replication with multipart timestamps, after Ladin, Liskov, Shrira
and Ghemawat (1992) — the algorithm ESDS generalizes (Section 1.2).

This baseline reproduces the shape of the original scheme rather than every
engineering detail:

* operations are split into **updates** (write-only) and **queries**
  (read-only), as the original requires;
* every replica keeps a **multipart timestamp** (one component per replica,
  i.e. a vector clock) ``rep_ts`` describing the updates it has applied, and
  a log of update records;
* a client (front end) presents a dependency timestamp ``prev_ts`` with each
  request; the replica may serve it only once its ``rep_ts`` dominates the
  dependency (causal consistency);
* an **update** is accepted by one replica, which assigns it the next value
  of its own timestamp component, merges it into its log and returns the new
  timestamp to the client; updates reach other replicas by periodic gossip of
  the log;
* **forced** updates are totally ordered with respect to each other by being
  routed through a fixed sequencer replica (a simplification of the original
  primary-commit scheme);
* queries return the value computed from the replica's applied prefix.

The important contrast with ESDS (exercised in benchmark E7 and in the unit
tests) is that ordering classes are attached to *operator kinds* at system
configuration time — the application developer decides which updates are
forced — whereas ESDS lets each request choose ``strict`` at run time, and
ESDS supports arbitrary read-modify-write operators rather than pure
updates/queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common import OperationId
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator, SerialDataType
from repro.sim.cluster import SimulationParams
from repro.baselines.base import BaselineServiceBase


@dataclass(frozen=True)
class MultipartTimestamp:
    """A vector timestamp with one non-negative component per replica."""

    components: Tuple[int, ...]

    @classmethod
    def zero(cls, size: int) -> "MultipartTimestamp":
        return cls(tuple(0 for _ in range(size)))

    def merge(self, other: "MultipartTimestamp") -> "MultipartTimestamp":
        return MultipartTimestamp(
            tuple(max(a, b) for a, b in zip(self.components, other.components))
        )

    def dominates(self, other: "MultipartTimestamp") -> bool:
        return all(a >= b for a, b in zip(self.components, other.components))

    def bump(self, index: int) -> "MultipartTimestamp":
        components = list(self.components)
        components[index] += 1
        return MultipartTimestamp(tuple(components))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "<" + ",".join(map(str, self.components)) + ">"


@dataclass
class UpdateRecord:
    """A log entry describing one accepted update."""

    operation: OperationDescriptor
    timestamp: MultipartTimestamp
    dependency: MultipartTimestamp
    origin: int
    forced_seqno: Optional[int] = None


class _LadinReplica:
    """One replica of the lazy-replication service."""

    def __init__(self, index: int, num_replicas: int, data_type: SerialDataType) -> None:
        self.index = index
        self.data_type = data_type
        self.rep_ts = MultipartTimestamp.zero(num_replicas)
        self.val_ts = MultipartTimestamp.zero(num_replicas)
        self.value = data_type.initial_state()
        self.log: List[UpdateRecord] = []
        self.applied: Set[OperationId] = set()
        self.next_forced_applied = 0

    def accept_update(
        self,
        operation: OperationDescriptor,
        dependency: MultipartTimestamp,
        forced_seqno: Optional[int],
    ) -> UpdateRecord:
        self.rep_ts = self.rep_ts.bump(self.index)
        record = UpdateRecord(
            operation=operation,
            timestamp=dependency.merge(self.rep_ts),
            dependency=dependency,
            origin=self.index,
            forced_seqno=forced_seqno,
        )
        self.log.append(record)
        self.apply_ready()
        return record

    def merge_log(self, records: Iterable[UpdateRecord]) -> None:
        known = {record.operation.id for record in self.log}
        for record in records:
            if record.operation.id not in known:
                self.log.append(record)
                known.add(record.operation.id)
                self.rep_ts = self.rep_ts.merge(record.timestamp)
        self.apply_ready()

    def apply_ready(self) -> None:
        """Apply logged updates whose dependencies are satisfied, in timestamp
        order (forced updates additionally wait for their sequence turn)."""
        progressing = True
        while progressing:
            progressing = False
            pending = [r for r in self.log if r.operation.id not in self.applied]
            pending.sort(key=lambda r: (sum(r.timestamp.components), r.timestamp.components))
            for record in pending:
                if not self.val_ts.dominates(record.dependency):
                    continue
                if record.forced_seqno is not None and record.forced_seqno != self.next_forced_applied:
                    continue
                self.value, _ = self.data_type.apply(self.value, record.operation.op)
                self.val_ts = self.val_ts.merge(record.timestamp)
                self.applied.add(record.operation.id)
                if record.forced_seqno is not None:
                    self.next_forced_applied += 1
                progressing = True

    def can_answer(self, dependency: MultipartTimestamp) -> bool:
        return self.val_ts.dominates(dependency)

    def query_value(self, operation: OperationDescriptor) -> Any:
        _, value = self.data_type.apply(self.value, operation.op)
        return value


class LadinLazyReplicationService(BaselineServiceBase):
    """The lazy-replication baseline service.

    ``forced_operators`` names the operator kinds that must be totally
    ordered (chosen by the "application developer"); everything else that is
    not read-only is a causal update.
    """

    def __init__(
        self,
        data_type: SerialDataType,
        num_replicas: int = 3,
        client_ids: Sequence[str] = ("c0",),
        params: Optional[SimulationParams] = None,
        forced_operators: Iterable[str] = (),
        seed: int = 0,
    ) -> None:
        super().__init__(data_type, client_ids, params, seed)
        if num_replicas < 2:
            raise ValueError("lazy replication needs at least two replicas")
        self.num_replicas = num_replicas
        self.replica_ids = tuple(f"r{i}" for i in range(num_replicas))
        self.forced_operators = frozenset(forced_operators)
        self.replicas = [_LadinReplica(i, num_replicas, data_type) for i in range(num_replicas)]
        #: Per-client dependency timestamps (what the client has observed).
        self.client_ts: Dict[str, MultipartTimestamp] = {
            c: MultipartTimestamp.zero(num_replicas) for c in self.client_ids
        }
        self._forced_counter = 0
        self._sequencer_index = 0
        self._rr = 0
        self._retry_queue: List[Tuple[OperationDescriptor, int]] = []

    # -- lifecycle ------------------------------------------------------------------

    def _on_start(self) -> None:
        super()._on_start()
        self.simulator.schedule(self.params.gossip_period, self._gossip_tick)

    def _gossip_tick(self) -> None:
        for source in self.replicas:
            for destination in self.replicas:
                if source.index == destination.index:
                    continue
                self.network.send(
                    "gossip",
                    self.replica_ids[source.index],
                    self.replica_ids[destination.index],
                    lambda _rid, records, d=destination: self._deliver_gossip(d, records),
                    list(source.log),
                    size=len,
                )
        self.simulator.schedule(self.params.gossip_period, self._gossip_tick)

    def _deliver_gossip(self, destination: _LadinReplica, records: List[UpdateRecord]) -> None:
        destination.merge_log(records)
        self._retry_pending()

    # -- request handling --------------------------------------------------------------

    def _classify(self, operator: Operator) -> str:
        if self.data_type.is_read_only(operator):
            return "query"
        if operator.name in self.forced_operators:
            return "forced"
        return "causal"

    def _pick_replica(self, kind: str) -> int:
        if kind == "forced":
            return self._sequencer_index
        index = self._rr % self.num_replicas
        self._rr += 1
        return index

    def _dispatch(self, operation: OperationDescriptor) -> None:
        kind = self._classify(operation.op)
        replica_index = self._pick_replica(kind)
        self.network.send(
            "request",
            operation.id.client,
            self.replica_ids[replica_index],
            lambda _rid, op: self._arrive(op, replica_index),
            operation,
        )

    def _arrive(self, operation: OperationDescriptor, replica_index: int) -> None:
        kind = self._classify(operation.op)
        if kind == "query":
            # Answered once the replica has applied what the client has seen.
            self._retry_queue.append((operation, replica_index))
            self._retry_pending()
            return

        forced_seqno = None
        if kind == "forced":
            forced_seqno = self._forced_counter
            self._forced_counter += 1
        client = operation.id.client
        record = self.replicas[replica_index].accept_update(
            operation, self.client_ts[client], forced_seqno
        )
        self.client_ts[client] = self.client_ts[client].merge(record.timestamp)
        # An update's value is its timestamp acknowledgement.
        self._complete(self.replica_ids[replica_index], operation, record.timestamp)
        self._retry_pending()

    def _retry_pending(self) -> None:
        still_waiting: List[Tuple[OperationDescriptor, int]] = []
        for operation, replica_index in self._retry_queue:
            replica = self.replicas[replica_index]
            dependency = self.client_ts[operation.id.client]
            if replica.can_answer(dependency):
                value = replica.query_value(operation)
                self._complete(self.replica_ids[replica_index], operation, value)
            else:
                still_waiting.append((operation, replica_index))
        self._retry_queue = still_waiting

    # -- inspection ------------------------------------------------------------------

    def replica_values(self) -> List[Any]:
        """The applied value at each replica (for convergence tests)."""
        return [replica.value for replica in self.replicas]

    def converged(self) -> bool:
        """Have all replicas applied the same set of updates?"""
        applied_sets = [replica.applied for replica in self.replicas]
        return all(s == applied_sets[0] for s in applied_sets)
