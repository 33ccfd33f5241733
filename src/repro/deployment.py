"""What every deployment of the algorithm keeps, whatever moves its messages.

:class:`Deployment` is the plain base class of the seeded simulator and the
asyncio runtime: the replica group built from one
:class:`~repro.config.ReplicaConfig` (cores, their sans-IO nodes, the
compaction ledger), the clients (front ends, identifier counters, affinity
replicas) and the client book — ``requested`` / ``responded`` / ``failed`` /
``trace`` — with the rules for minting an operation and accepting a
response.  The quiescence oracles read only that state, so they live here
and run unmodified against either driver; a subclass supplies the transport
and the clock.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algorithm.checkpoint import CompactionLedger
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.labels import label_min, label_sort_key
from repro.algorithm.messages import ResponseMessage
from repro.algorithm.node import ReplicaFactory, ReplicaNode, build_replicas
from repro.algorithm.replica import ReplicaCore
from repro.algorithm.system import AlgorithmSystem
from repro.common import (
    INFINITY,
    ConfigurationError,
    OperationId,
    OperationIdGenerator,
)
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes.base import Operator, SerialDataType
from repro.spec.guarantees import TraceRecord
from repro.spec.users import Users


class Deployment:
    """Replica group, clients and client book of one ESDS deployment."""

    def __init__(
        self,
        data_type: SerialDataType,
        num_replicas: int,
        client_ids: Sequence[str],
        config: ReplicaConfig,
        replica_factory: Optional[ReplicaFactory] = None,
    ) -> None:
        if num_replicas < 2:
            raise ConfigurationError("the algorithm assumes at least two replicas")
        self.data_type = data_type
        self.replica_ids: Tuple[str, ...] = tuple(f"r{i}" for i in range(num_replicas))
        self.replicas: Dict[str, ReplicaCore] = build_replicas(
            config, self.replica_ids, data_type, replica_factory
        )
        #: The agreed compacted stable prefix across the whole deployment (the
        #: replicas themselves forget the order; witnesses and audits need it).
        self.compaction_ledger = CompactionLedger()
        for rid, core in self.replicas.items():
            core.on_compact = partial(self._record_compaction, rid)
        #: The dispatch seam: every inbound message reaches a core through
        #: its node's ``handle``.
        self.nodes: Dict[str, ReplicaNode] = {
            rid: ReplicaNode(rid, core) for rid, core in self.replicas.items()
        }

        self.client_ids: Tuple[str, ...] = ()
        self.frontends: Dict[str, FrontEndCore] = {}
        self.id_generators: Dict[str, OperationIdGenerator] = {}
        self._affinity: Dict[str, str] = {}
        for cid in client_ids:
            self.ensure_client(cid)

        self.trace = TraceRecord()
        self.requested: Dict[OperationId, OperationDescriptor] = {}
        #: Values delivered to clients, by operation identifier.
        self.responded: Dict[OperationId, Any] = {}
        #: Operations declared unanswerable (stale-value NACK from every
        #: replica), with the failure reason.
        self.failed: Dict[OperationId, str] = {}

    def _record_compaction(self, replica: str, batch, checkpoint) -> None:
        """Every core's ``on_compact`` hook (*replica* names the reporter)."""
        self.compaction_ledger.record(batch, checkpoint)

    def live_replica_ids(self) -> List[str]:
        """Replicas not currently crashed, in identifier order."""
        nodes = self.nodes
        return [rid for rid in self.replica_ids if not nodes[rid].crashed]

    # -- clients ---------------------------------------------------------------

    def ensure_client(self, client_id: str) -> None:
        """Admit a client identity (idempotent): a front end, an identifier
        counter, an affinity replica.

        Also the post-construction path live resharding needs: migrated
        operations keep their original ``client@shard`` minting identity, so
        the destination hosts a front end for every such foreign client."""
        if client_id in self.frontends:
            return
        self.client_ids = self.client_ids + (client_id,)
        self.frontends[client_id] = FrontEndCore(client_id, self.replica_ids)
        self.id_generators[client_id] = OperationIdGenerator(client_id)
        self._affinity[client_id] = self.replica_ids[len(self._affinity) % len(self.replica_ids)]

    def make_operation(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
    ) -> OperationDescriptor:
        """Build a fresh, well-formed operation descriptor for *client*."""
        if client not in self.id_generators:
            raise ConfigurationError(f"unknown client {client!r}")
        self.data_type.check_operator(operator)
        prev_ids = frozenset(prev)
        if prev_ids:
            self.require_known(prev_ids)
        return make_operation(operator, self.id_generators[client].fresh(), prev_ids, strict)

    def require_known(self, prev: Iterable[OperationId], allowed: Collection = ()) -> None:
        """Reject ``prev`` identifiers that name operations never requested
        here (nor *allowed*: announced, but still on their way in)."""
        # Membership probes against the dict, not a per-call set() of all
        # identifiers ever requested (which made submission O(history)).
        unknown = {p for p in prev if p not in self.requested and p not in allowed}
        if unknown:
            raise ConfigurationError(
                f"prev references operations never requested: {sorted(map(str, unknown))}"
            )

    def accept_response(self, client: str, message: ResponseMessage) -> bool:
        """Front-end bookkeeping for one delivered response message.

        ``True`` when the message settled its operation — now in
        ``responded``, or in ``failed`` because this stale-value NACK was the
        last replica's — so the driver can stop waiting for it; ``False``
        for a duplicate or a NACK that is not yet a verdict."""
        frontend = self.frontends[client]
        op_id = message.operation.id
        if not frontend.receive_response(message):
            if message.stale and op_id in frontend.failed and op_id not in self.failed:
                self.failed[op_id] = frontend.failed[op_id]
                return True
            return False
        value = frontend.respond(message.operation)
        self.responded[op_id] = value
        # A late genuine value resurrects a prematurely failed operation
        # (the response outran the NACKs on the unordered network).
        self.failed.pop(op_id, None)
        self.trace.record_response(message.operation, value)
        return True

    # -- quiescence oracles ----------------------------------------------------

    def minlabel(self, op_id: OperationId):
        """The system-wide minimum label of *op_id* (``INFINITY`` if none)."""
        best = INFINITY
        for replica in self.replicas.values():
            best = label_min(best, replica.label_of(op_id))
        return best

    def eventual_order(self) -> List[OperationId]:
        """Identifiers of all requested operations ordered by system-wide
        minimum label (unlabelled operations last, deterministically).

        The compacted stable prefix comes first in its agreed (ledger) order:
        the labels below the frontier are deliberately forgotten, and every
        tracked label exceeds them."""
        compacted = self.compaction_ledger.ids
        labels = {
            op_id: self.minlabel(op_id) for op_id in self.requested if op_id not in compacted
        }
        labelled = sorted(
            (op_id for op_id, label in labels.items() if label is not INFINITY),
            key=lambda op_id: label_sort_key(labels[op_id]),
        )
        unlabelled = sorted(
            (op_id for op_id, label in labels.items() if label is INFINITY), key=repr
        )
        return [x.id for x in self.compaction_ledger.prefix] + labelled + unlabelled

    def algorithm_view(self) -> AlgorithmSystem:
        """An :class:`~repro.algorithm.system.AlgorithmSystem`-shaped view of
        this deployment, for the Section 7/8 invariant checker and the trace
        oracles.

        In-flight messages sit inside the transport (scheduled events or
        sockets) rather than in explicit channels, so the view models every
        channel as empty — it is faithful exactly when the network is quiet
        and gossip has converged (:meth:`fully_converged`)."""
        view = AlgorithmSystem.__new__(AlgorithmSystem)
        view.data_type = self.data_type
        view.replica_ids = self.replica_ids
        view.client_ids = self.client_ids
        view.users = Users()
        view.users.requested = set(self.requested.values())
        view.users.responded = dict(self.responded)
        view.frontends = self.frontends
        view.replicas = self.replicas
        view.request_channels = {}
        view.response_channels = {}
        view.gossip_channels = {}
        view.trace = self.trace
        view.compaction_ledger = self.compaction_ledger
        return view

    def _all_stable_at(self, replicas: Iterable[ReplicaCore]) -> bool:
        requested = set(self.requested.values())
        return all(replica.knows_stable(op) for replica in replicas for op in requested)

    def fully_converged(self) -> bool:
        """Has every requested operation become stable at every replica?
        (A compacted operation is stable by construction.)  At convergence
        no gossip in transit can carry new information, which is when
        :meth:`algorithm_view` is faithful."""
        return self._all_stable_at(self.replicas.values())
