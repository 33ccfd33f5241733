"""``ShardSet`` — what both sharded harnesses share.

A sharded service is a set of independent ESDS replica groups, one per
shard, each managing a :class:`~repro.service.keyed.KeyedStore` slice of one
keyspace behind a :class:`~repro.service.router.ShardRouter` and one
:class:`~repro.service.router.KeyspaceDirectory`.  Two harnesses drive such
a set: :class:`~repro.service.frontend.ShardedFrontend` (action-level
:class:`~repro.algorithm.system.AlgorithmSystem` groups) and
:class:`~repro.sim.sharded.ShardedCluster` (simulated clusters on one event
loop).  Both group kinds offer the same client-visible surface
(``requested``, ``responded``, ``failed``, ``outstanding_operations``,
``eventual_order``, ``inject_operation``), so this base owns construction,
routing lookups, the merged results, the verification fan-out and the
harness-independent steps of a reshard leg (:mod:`repro.service.reshard`);
a harness supplies how to build a group and which trace oracle it runs.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import OperationId, ensure_not_stale
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType
from repro.service.keyed import KeyedStore
from repro.service.router import KeyspaceDirectory, ShardRouter, composite_client


class ShardSet:
    """Independent replica groups behind one router (parameters as :class:`ShardedFrontend`)."""

    def __init__(
        self,
        base_type: SerialDataType,
        num_shards: int = 2,
        replicas_per_shard: int = 3,
        client_ids: Sequence[str] = ("c0",),
        router: Optional[ShardRouter] = None,
        replica_factory: Optional[Callable] = None,
        virtual_nodes: int = 64,
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        self.base_type = base_type
        self.store_type = KeyedStore(base_type)
        self.router = router or ShardRouter.for_count(num_shards, virtual_nodes=virtual_nodes)
        self.shard_ids: Tuple[str, ...] = self.router.shard_ids
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.config = config if config is not None else ReplicaConfig()
        self._replicas_per_shard = replicas_per_shard
        self._replica_factory = replica_factory
        #: Every group ever built, by shard id: a shard drained out of the
        #: ring keeps its group, so its history stays readable.
        self.shards: Dict[str, Any] = {shard: self._build_shard(shard) for shard in self.shard_ids}
        #: Shared routing/bookkeeping: unique identifiers, same-shard prev
        #: validation, operation-to-shard/key records, migration barriers.
        self.directory = KeyspaceDirectory(self.router, self.client_ids, base_type)

    # -- harness hooks ---------------------------------------------------------

    def _build_shard(self, shard: str) -> Any:
        """One shard's replica group (also used for joining shards)."""
        raise NotImplementedError

    def _shard_clients(self, shard: str) -> List[str]:
        """A group's front ends live under the composite per-shard client
        identities the directory mints ids with (one contiguous seqno run
        per client per shard)."""
        return [composite_client(c, shard) for c in self.client_ids]

    @staticmethod
    def _algorithm_view(group: Any) -> Any:
        """What the Section 7/8 invariant checker inspects for *group*."""
        return group

    def _check_trace(self, group: Any) -> None:
        """Run the harness's Theorem 5.8 trace oracle on *group*."""
        raise NotImplementedError

    def _adopt_router(self, router: Any) -> None:
        self.router = router
        self.directory.router = router
        self.shard_ids = router.shard_ids

    # -- routing ---------------------------------------------------------------

    def shard_of(self, key: str) -> str:
        """The shard identifier owning *key*."""
        return self.router.shard_for(key)

    def shard_of_operation(self, op_id: OperationId) -> str:
        """The shard a previously requested operation was routed to."""
        return self.directory.shard_of_operation(op_id)

    def key_of_operation(self, op_id: OperationId) -> str:
        """The key a previously requested operation addressed."""
        return self.directory.key_of_operation(op_id)

    def last_operation_on(self, key: str) -> Optional[OperationId]:
        """The most recently requested operation on *key* (any client)."""
        return self.directory.last_operation_on(key)

    # -- results ---------------------------------------------------------------

    def _merged(self, answers: Callable[[Any], Dict[OperationId, Any]]) -> Dict[OperationId, Any]:
        merged: Dict[OperationId, Any] = {}
        for sid, group in self.shards.items():
            for op_id, answer in answers(group).items():
                if self.directory.shard_of_operation(op_id) == sid:
                    merged[op_id] = answer
                else:
                    merged.setdefault(op_id, answer)
        return merged

    @property
    def responded(self) -> Dict[OperationId, Any]:
        """Every delivered response, across all shards.

        After a reshard, a migrated operation is answered both by its
        minting shard and by the destination's re-answer of the injected
        chain; the minting shard's value is the one the client saw, so it
        wins the merge.  (The two agree whenever the handoff preserved the
        per-key order, which the trace and handoff oracles verify.)"""
        return self._merged(attrgetter("responded"))

    @property
    def failed(self) -> Dict[OperationId, str]:
        """Operations declared unanswerable — every replica of their shard
        NACKed the retransmit because the compacted response value aged out
        of its retained-value ledger (finite ``value_retention``) — across
        all shards, the minting shard's verdict preferred as in
        :attr:`responded`."""
        return self._merged(attrgetter("failed"))

    def value_of(self, operation: OperationDescriptor) -> Any:
        """The value returned for *operation* (KeyError when unanswered,
        :class:`~repro.common.StaleValueError` when it failed for good)."""
        group = self.shards[self.directory.shard_of_operation(operation.id)]
        ensure_not_stale(group.failed, operation.id)
        return group.responded[operation.id]

    def outstanding_operations(self) -> int:
        """Requested operations neither answered nor failed, across shards."""
        return sum(group.outstanding_operations() for group in self.shards.values())

    def eventual_orders(self) -> Dict[str, List[OperationId]]:
        """Each shard's eventual total order (by system-wide minimum label)."""
        return {sid: group.eventual_order() for sid, group in self.shards.items()}

    # -- verification ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Run the Section 7/8 invariant checker on every shard."""
        from repro.verification.invariants import AlgorithmInvariantChecker

        for group in self.shards.values():
            AlgorithmInvariantChecker(self._algorithm_view(group)).check_all()

    def check_traces(self) -> None:
        """Check the Theorem 5.7/5.8 guarantees on every shard's trace."""
        for group in self.shards.values():
            self._check_trace(group)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.store_type.name}, shards={len(self.shard_ids)}, "
            f"clients={len(self.client_ids)})"
        )
