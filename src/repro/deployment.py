"""What every deployment of the algorithm keeps, whatever moves its messages.

:class:`Deployment` is the base class of all three drivers — the
action-level :class:`~repro.algorithm.system.AlgorithmSystem`, the seeded
simulator and the asyncio runtime: the replica group built from one
:class:`~repro.config.ReplicaConfig` (cores, their sans-IO nodes, the
compaction ledger), the clients (front ends, identifier counters, affinity
replicas) and the client book — ``requested`` / ``responded`` / ``failed`` /
``trace`` — with the rules for minting an operation and accepting a
response.  It also derives the Fig. 8 variables (``ops``, ``minlabel``,
``lc_r``, ``mc_r(m)``, ``sc``, ``po``) the Section 7/8 invariants are
stated over, so the quiescence oracles and the invariant checker read any
deployment as it is; a subclass supplies the transport and the clock.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.algorithm.channel import Channel
from repro.algorithm.checkpoint import CompactionLedger
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.labels import LabelOrInfinity, label_min, label_sort_key
from repro.algorithm.messages import ResponseMessage
from repro.algorithm.node import ReplicaFactory, ReplicaNode, build_replicas
from repro.algorithm.replica import ReplicaCore
from repro.common import (
    INFINITY,
    ConfigurationError,
    OperationId,
    OperationIdGenerator,
)
from repro.config import ReplicaConfig
from repro.core.operations import (
    OperationDescriptor,
    client_specified_constraints,
    make_operation,
)
from repro.core.orders import PartialOrder, induced_order, transitive_closure
from repro.datatypes.base import Operator, SerialDataType
from repro.spec.guarantees import TraceRecord

Constraints = Set[Tuple[OperationId, OperationId]]


class Deployment:
    """Replica group, clients, client book and Fig. 8 view of one ESDS deployment."""

    #: Messages in transit, by ``(sender, receiver)`` channel.  Only the
    #: action-level driver keeps explicit channels; a timed driver's
    #: in-flight messages sit inside its transport (scheduled events or
    #: sockets), so the Fig. 8 view models every channel as empty — faithful
    #: exactly when the network is quiet and gossip has converged
    #: (:meth:`fully_converged`).
    request_channels: Mapping[Tuple[str, str], Channel] = MappingProxyType({})
    response_channels: Mapping[Tuple[str, str], Channel] = request_channels
    gossip_channels: Mapping[Tuple[str, str], Channel] = request_channels

    def __init__(
        self,
        data_type: SerialDataType,
        replica_ids: Sequence[str],
        client_ids: Sequence[str],
        config: ReplicaConfig,
        replica_factory: Optional[ReplicaFactory] = None,
    ) -> None:
        if len(set(replica_ids)) < 2:
            raise ConfigurationError("the algorithm assumes at least two replicas")
        self.data_type = data_type
        self.replica_ids: Tuple[str, ...] = tuple(replica_ids)
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

    def affinity_replica(self, client: str) -> str:
        """Where *client*'s first request goes: its affinity replica if that
        one is live, else the first live replica (the affinity replica again
        when none is)."""
        primary = self._affinity[client]
        if not self.nodes[primary].crashed:
            return primary
        live = self.live_replica_ids()
        return live[0] if live else primary

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

    def outstanding_operations(self) -> int:
        """Requested operations neither answered nor failed."""
        return len(self.requested) - len(self.responded) - len(self.failed)

    # -- quiescence oracles ----------------------------------------------------

    def minlabel(self, op_id: OperationId) -> LabelOrInfinity:
        """``minlabel(id)`` — the system-wide minimum label (``INFINITY`` if none)."""
        best: LabelOrInfinity = INFINITY
        for replica in self.replicas.values():
            best = label_min(best, replica.label_of(op_id))
        return best

    def eventual_order(self) -> List[OperationId]:
        """Identifiers of all requested operations ordered by system-wide
        minimum label (unlabelled operations last, deterministically) — the
        witness for Theorem 5.8 checks once gossip has quiesced.

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

    def converging_replica_ids(self) -> Sequence[str]:
        """The replicas convergence is judged at: all of them, so a replica
        left crashed keeps the deployment from converging."""
        return self.replica_ids

    def fully_converged(self, operations: Optional[Iterable[OperationDescriptor]] = None) -> bool:
        """Has every requested operation (every one of *operations*) become
        stable at every converging replica?  (A compacted operation is
        stable by construction.)  At convergence no gossip in transit can
        carry new information, which is when the Fig. 8 view of a timed
        driver is faithful."""
        targets = set(self.requested.values() if operations is None else operations)
        replicas = [self.replicas[rid] for rid in self.converging_replica_ids()]
        return all(replica.knows_stable(op) for replica in replicas for op in targets)

    # -- derived variables (Fig. 8) --------------------------------------------

    def ops(self) -> Set[OperationDescriptor]:
        """``ops = U_r done_r[r]`` — operations done at any replica.

        Operations folded into a compaction checkpoint remain done (their
        records just moved into the base state), so the compacted prefix is
        included from the ledger.
        """
        result: Set[OperationDescriptor] = set(self.compaction_ledger.prefix)
        for replica in self.replicas.values():
            result |= replica.done_here()
        return result

    def compacted_ops(self, replica: str) -> List[OperationDescriptor]:
        """The operations replica *r* has folded into its checkpoint, in the
        agreed label order (reconstructed from the ledger — the replica
        itself keeps only the compact id summary)."""
        return self.compaction_ledger.prefix[: self.replicas[replica].checkpoint.count]

    def local_constraints(self, replica: str) -> Constraints:
        """``lc_r`` restricted to the identifiers of ``ops``.

        The paper defines ``lc_r`` over all identifiers; pairs whose second
        component has no label at ``r`` (label ``oo``) are included whenever
        the first component is labelled, which is why the computation ranges
        over the ``ops`` universe rather than only the labels ``r`` holds.

        An identifier compacted at ``r`` has no tracked label either, but for
        the opposite reason: its archived label sat at or below the frontier,
        beneath every label ``r`` still tracks.  Compacted identifiers are
        therefore ordered among themselves by their (frozen) ledger position
        and before every other identifier.
        """
        core = self.replicas[replica]
        return self._constraints_with_prefix(
            {x.id for x in self.ops()},
            core.label_of,
            self._compacted_positions(core.checkpoint.count),
        )

    def _compacted_positions(self, count: int) -> Dict[OperationId, int]:
        """Ledger position of each identifier in the first *count* of the
        compacted prefix."""
        return {x.id: index for index, x in enumerate(self.compaction_ledger.prefix[:count])}

    @staticmethod
    def _constraints_with_prefix(
        universe: Set[OperationId],
        label_of: Callable[[OperationId], LabelOrInfinity],
        position: Dict[OperationId, int],
    ) -> Constraints:
        """The label-induced constraints over *universe* as seen at a
        replica, with the compacted identifiers (*position*: their frozen
        ledger positions) ordered among themselves by position and before
        every other identifier — the shared core of ``lc_r`` and
        ``mc_r(m)``."""
        constraints: Constraints = set()
        for a in universe:
            pos_a = position.get(a)
            if pos_a is not None:
                for b in universe:
                    if a == b:
                        continue
                    pos_b = position.get(b)
                    if pos_b is None or pos_a < pos_b:
                        constraints.add((a, b))
                continue
            label_a = label_of(a)
            if label_a is INFINITY:
                continue
            for b in universe:
                if a != b and b not in position and label_a < label_of(b):
                    constraints.add((a, b))
        return constraints

    def message_constraints(self, replica: str, message) -> Constraints:
        """``mc_r(m)`` — the local constraints replica *r* would have if it
        received *message* immediately (restricted to the ``ops`` universe).

        Identifiers compacted at *r* keep their frozen prefix order (the
        receiver ignores gossiped labels for them), exactly as in
        :meth:`local_constraints`.

        Advert/pull messages are handled by what receiving them actually
        does: a *pull* conveys no knowledge (``mc_r`` is just ``lc_r``); a
        *transfer* extends the receiver's covered prefix to the transferred
        checkpoint (its identifiers adopt their frozen ledger positions); a
        gossip message carrying an **advert** contributes only its label
        payload — the advert becomes knowledge only after the pull
        completes, so it adds nothing here.
        """
        if message.kind == "pull":
            return self.local_constraints(replica)
        core = self.replicas[replica]
        universe = {x.id for x in self.ops()}
        if message.kind == "transfer":
            position = self._compacted_positions(max(core.checkpoint.count, message.ids.count))
            return self._constraints_with_prefix(universe, core.label_of, position)
        checkpoint = core.checkpoint
        merged: Dict[OperationId, LabelOrInfinity] = {
            op_id: label_min(core.label_of(op_id), message.label_of(op_id))
            for op_id in universe
            if not checkpoint.covers(op_id)
        }
        return self._constraints_with_prefix(
            universe,
            lambda op_id: merged.get(op_id, INFINITY),
            self._compacted_positions(checkpoint.count),
        )

    def system_constraints(self) -> Constraints:
        """``sc = (⋂_r lc_r) ⋂ (⋂_r ⋂_{m -> r} mc_r(m))``."""
        op_ids = {x.id for x in self.ops()}
        agreed = {(a, b) for a in op_ids for b in op_ids if a != b}
        for replica_id in self.replica_ids:
            if not agreed:
                return agreed
            agreed &= self.local_constraints(replica_id)
        for (_source, destination), channel in self.gossip_channels.items():
            for message in channel.contents():
                if not agreed:
                    return agreed
                if message.kind != "pull":  # a pull conveys no knowledge
                    agreed &= self.message_constraints(destination, message)
        return agreed

    def partial_order(self) -> PartialOrder:
        """``po`` — the relation induced by ``TC(CSC(ops) u sc)`` on ``ops``."""
        operations = self.ops()
        op_ids = {x.id for x in operations}
        raw = set(client_specified_constraints(operations)) | self.system_constraints()
        closure = transitive_closure(raw)
        return PartialOrder(induced_order(closure, op_ids))

    def potential_rept(self, client: str) -> Set[Tuple[OperationDescriptor, Any]]:
        """``potential_rept_c`` — responses en route to *client* for
        operations still waiting.  Stale-response NACKs carry no value and
        can never be recorded in ``rept``, so they are not potential
        responses."""
        frontend = self.frontends[client]
        result: Set[Tuple[OperationDescriptor, Any]] = set()
        for (replica, dest), channel in self.response_channels.items():
            if dest != client:
                continue
            for message in channel.contents():
                if message.operation in frontend.wait and not message.stale:
                    result.add((message.operation, message.value))
        return result

    def stable_everywhere(self) -> Set[OperationDescriptor]:
        """``⋂_r stable_r[r]`` — the operations every replica knows stable,
        on the checkpoint + suffix view: an operation a replica has folded
        into its checkpoint is stable there by construction (compaction only
        ever folds stable-everywhere operations), so stability is never
        *lost* by compacting — which the forward-simulation relation against
        the spec's monotone ``stabilized`` set depends on."""
        stable_sets = [
            replica.stable_here() | set(self.compacted_ops(rid))
            for rid, replica in self.replicas.items()
        ]
        return set.intersection(*stable_sets) if stable_sets else set()
