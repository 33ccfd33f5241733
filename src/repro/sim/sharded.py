"""A sharded multi-object ESDS deployment under simulated time.

``ShardedCluster`` is the service layer's sharded deployment: every shard is
a complete :class:`~repro.sim.cluster.SimulatedCluster` (replicas, front
ends, its own network and gossip timers) managing a
:class:`~repro.service.keyed.KeyedStore` slice of one keyspace behind a
:class:`~repro.service.router.ShardRouter` and one
:class:`~repro.service.router.KeyspaceDirectory`, and all shards share ONE
seeded discrete-event loop so that cross-shard interleavings are
reproducible from a single seed.  Gossip within a shard uses the batched
same-instant fast path by default (each shard's replicas coalesce
simultaneous arrivals), which is what keeps the event count linear in the
shard count.

Shards are fully independent — no messages cross shard boundaries — so total
throughput scales with the shard count at fixed replicas-per-shard until the
workload's key skew concentrates load (benchmark E9 measures both effects).

The cluster owns construction, routing lookups, the merged results and the
per-shard verification fan-out.  Of resharding, a leg's steps and the
record of a ring change are :mod:`repro.service.reshard`'s; this module owns
only what needs simulated time: flip stagger, the settle poll, slice
sends with resend, and the leg timers.
"""

from __future__ import annotations

import dataclasses
import random
from operator import attrgetter
from typing import Any, Callable, Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import ConfigurationError, InvariantViolation, OperationId, ensure_not_stale
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator, SerialDataType
from repro.service.keyed import KeyedStore
from repro.service.reshard import (
    LiveReshard,
    MigrationSlice,
    SliceLeg,
    build_slice,
    cut_slice,
    inject_slice,
    tamper_slice,
)
from repro.service.router import KeyspaceDirectory, ShardRouter, composite_client
from repro.sim.cluster import (
    IDLE_EVENT_CAP,
    ReplicaFactory,
    SimulatedCluster,
    SimulatedService,
    SimulationParams,
)
from repro.sim.events import Simulator
from repro.sim.metrics import PerShardMetrics


class ShardedCluster(SimulatedService):
    """N independent simulated ESDS shards on one seeded event loop.

    Parameters
    ----------
    base_type:
        The serial data type stored under every key.
    num_shards:
        Number of shards (ignored when *router* is given).
    replicas_per_shard:
        Replicas in each shard's ESDS group (at least two).
    client_ids:
        Clients; each shard hosts a front end for every client under the
        ``client@shard`` composite identity, and identifier counters run
        per (client, shard) so each shard's seqnos are contiguous while
        operation identifiers stay globally unique.
    params:
        Per-shard :class:`SimulationParams`.  When omitted, the defaults are
        used with ``batch_gossip=True`` (the per-shard batched-gossip fast
        path).
    seed:
        Single seed for the whole deployment; each shard derives its own
        network RNG from it deterministically.
    config:
        Replica features replacing ``params.replica``.  Only here may
        ``compaction`` be a mapping from shard id to policy (shards absent
        from the mapping run uncompacted): hot shards can compact
        aggressively while cold ones stay lazy.
    cluster_class:
        The per-shard cluster class; alternative harness shards ride the
        shared event loop — e.g. :class:`repro.net.wire.WireCluster`, which
        pushes every message through the binary codec (``--runtime=net``).
    """

    def __init__(
        self,
        base_type: SerialDataType,
        num_shards: int = 2,
        replicas_per_shard: int = 3,
        client_ids: Sequence[str] = ("c0",),
        params: Optional[SimulationParams] = None,
        seed: int = 0,
        router: Optional[ShardRouter] = None,
        replica_factory: Optional[ReplicaFactory] = None,
        virtual_nodes: int = 64,
        cluster_class: type = SimulatedCluster,
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        self.params = (
            params
            if params is not None
            else SimulationParams(replica=ReplicaConfig(batch_gossip=True))
        )
        self.simulator = Simulator()
        self._seed = seed
        self._cluster_class = cluster_class
        self._shard_index: Dict[str, int] = {}
        self.base_type = base_type
        self.store_type = KeyedStore(base_type)
        self.router = router or ShardRouter.for_count(num_shards, virtual_nodes=virtual_nodes)
        self.shard_ids: Tuple[str, ...] = self.router.shard_ids
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.config = config if config is not None else self.params.replica
        self._replicas_per_shard = replicas_per_shard
        self._replica_factory = replica_factory
        #: Every group ever built, by shard id: a shard drained out of the
        #: ring keeps its group, so its history stays readable.
        self.shards: Dict[str, SimulatedCluster] = {
            shard: self._build_shard(shard) for shard in self.shard_ids
        }
        #: Shared routing/bookkeeping: unique identifiers, same-shard prev
        #: validation, operation-to-shard/key records, migration barriers.
        self.directory = KeyspaceDirectory(self.router, self.client_ids, base_type)
        #: Every submitted operation, across shards.
        self.requested: Dict[OperationId, OperationDescriptor] = {}
        #: The in-progress live reshard, if any (at most one at a time).
        self._migration: Optional[LiveReshard] = None
        #: Every reshard ever performed (completed ones included) — the
        #: handoff invariant checker re-audits them all.
        self.reshards: List[LiveReshard] = []

    def _build_shard(self, shard: str) -> SimulatedCluster:
        """One shard's simulated cluster on the shared event loop (also used
        by :meth:`add_shard` when resharding live).  Its front ends live
        under the composite per-shard client identities the directory mints
        ids with (one contiguous seqno run per client per shard)."""
        index = self._shard_index.setdefault(shard, len(self._shard_index))
        return self._cluster_class(
            self.store_type,
            self._replicas_per_shard,
            [composite_client(c, shard) for c in self.client_ids],
            params=dataclasses.replace(self.params, replica=self.config.for_shard(shard)),
            replica_factory=self._replica_factory,
            simulator=self.simulator,
            rng=random.Random(self._seed * 7919 + index + 1),
        )

    def _adopt_router(self, router: Any) -> None:
        self.router = router
        self.directory.router = router
        self.shard_ids = router.shard_ids

    # ===================================================================== #
    # Lifecycle                                                             #
    # ===================================================================== #

    def _on_start(self) -> None:
        """Start every shard's gossip timers on the shared event loop."""
        for shard in self.shards.values():
            shard.start()

    def _finished(self) -> None:
        for shard in self.shards.values():
            shard.metrics.finished_at = self.simulator.now

    # ===================================================================== #
    # Client interface                                                      #
    # ===================================================================== #

    def submit(
        self,
        client: str,
        key: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        at: Optional[float] = None,
    ) -> OperationDescriptor:
        """Submit a keyed operation at simulation time *at* (default: now).

        ``prev`` identifiers must belong to operations routed to the same
        shard — always the case for same-key dependency chains.
        """
        # Reject a bad submission time before the directory records anything,
        # so a failed submit cannot leave phantom routing entries that later
        # prev=last_operation_on(key) chains would dangle from.
        if at is not None and at < self.simulator.now:
            raise ConfigurationError(
                f"cannot submit in the past (at={at}, now={self.simulator.now})"
            )
        shard, operation = self.directory.route(client, key, operator, prev, strict)
        self.start()
        self.requested[operation.id] = operation
        # During a handoff window, a post-flip operation on a moving key
        # carries barrier constraints naming migrated operations the
        # destination has not received yet; admit exactly those.
        allow: Collection[OperationId] = ()
        if self._migration is not None:
            allow = self._migration.pending_ids_for(shard)
        self.shards[shard].submit_operation(operation, at=at, allow_unknown_prev=allow)
        return operation

    def execute(
        self,
        client: str,
        key: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        max_time: float = 10_000.0,
    ) -> Tuple[OperationDescriptor, Any]:
        """Synchronous facade: submit, run until answered, return the value."""
        operation = self.submit(client, key, operator, prev, strict)
        shard = self.shards[self.directory.shard_of_operation(operation.id)]
        return operation, self._await(operation, shard.responded, max_time)

    # ===================================================================== #
    # Routing and results                                                   #
    # ===================================================================== #

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

    # ===================================================================== #
    # Live elastic resharding                                               #
    # ===================================================================== #

    def active_reshard(self) -> Optional[LiveReshard]:
        """The in-progress reshard, or ``None``."""
        return self._migration

    def add_shard(self, shard_id: str, flip_stagger: Optional[float] = None) -> LiveReshard:
        """Grow the ring by one shard, live: see :meth:`reshard`."""
        if self._migration is not None:
            raise ConfigurationError("a reshard is already in progress")
        return self.reshard(self.router.add_shard(shard_id), flip_stagger=flip_stagger)

    def drain_shard(self, shard_id: str, flip_stagger: Optional[float] = None) -> LiveReshard:
        """Shrink the ring by one shard, live: its key ranges migrate to the
        surviving successors, and once every leg completes — and the drained
        shard has answered everything and converged — it retires (timers
        silenced, history kept readable).  See :meth:`reshard`."""
        if self._migration is not None:
            raise ConfigurationError("a reshard is already in progress")
        return self.reshard(self.router.remove_shard(shard_id), flip_stagger=flip_stagger)

    def reshard(
        self, new_router: ShardRouter, flip_stagger: Optional[float] = None
    ) -> LiveReshard:
        """Change the consistent-hash ring **under traffic**.

        The ring change is planned into (source, destination) legs by
        :class:`~repro.service.reshard.LiveReshard`; each leg runs the
        :class:`~repro.service.reshard.SliceLeg` state machine
        independently, with flips staggered by *flip_stagger* (default: one
        gossip period) so the ring is genuinely mixed-ownership for a while.
        Joining shards are built and started immediately; the routing table
        becomes a :class:`~repro.service.router.TransitionRouter` that flips
        per leg, and snaps to *new_router* when the last leg completes.

        Returns the :class:`LiveReshard` handle; keep driving the event loop
        (``run`` / ``run_until_idle``) and poll ``handle.done``.
        """
        if self._migration is not None:
            raise ConfigurationError("a reshard is already in progress")
        migration = LiveReshard(self.router, new_router, self.shards, self.simulator.now)
        for sid in migration.joining:
            self.shards[sid] = self._build_shard(sid)
            if self._started:
                self.shards[sid].start()
        self._adopt_router(migration.transition)
        stagger = self.params.gossip_period if flip_stagger is None else flip_stagger
        for i, leg in enumerate(migration.legs):
            leg.flip_at = self.simulator.now + i * stagger
        self._migration = migration
        self.reshards.append(migration)
        self.start()
        if migration.legs:
            self.simulator.schedule(0.0, self._migration_tick)
        else:
            self._maybe_finalize_reshard(migration)
        return migration

    def run_until_resharded(self, migration: LiveReshard, max_time: float = 10_000.0) -> None:
        """Drive the shared event loop until *migration* completes (or the
        time/event budget runs out — e.g. a source replica stays crashed and
        the slice can never settle)."""
        self.start()
        self._drive(lambda: migration.done, max_time, IDLE_EVENT_CAP)

    def _migration_tick(self) -> None:
        migration = self._migration
        if migration is None:
            return
        now = self.simulator.now
        for leg in migration.legs:
            if leg.state == "waiting" and now >= leg.flip_at:
                for move in leg.ranges:
                    migration.transition.flip(move)
                migration.freeze_slice(leg, self.directory)
                leg.state = "closing"
            if leg.state == "closing" and self._leg_settled(leg):
                if cut_slice(leg, self.shards[leg.source]):
                    leg.state = "transferring"
                    self._send_slice(leg)
                else:
                    # Moving ranges with no history yet: ownership has
                    # flipped, nothing to transfer or inject.
                    leg.state = "done"
            if leg.state == "transferring" and now >= leg.resend_at:
                self._send_slice(leg)
        if self._maybe_finalize_reshard(migration):
            return
        self.simulator.schedule(0.5 * self.params.gossip_period, self._migration_tick)

    def _leg_settled(self, leg: SliceLeg) -> bool:
        """Is this leg's slice order frozen — every moving operation answered
        (or failed for good) by the source, and stable at every source
        replica?  Stability freezes the slice's relative order (Invariant
        7.2 / 7.21); a crashed source replica blocks settlement until it
        recovers, which is precisely the mid-handoff crash story."""
        source = self.shards[leg.source]
        for op_id in leg.slice_ids:
            if op_id not in source.responded and op_id not in source.failed:
                return False
        for op_id in leg.slice_ids - leg._stable_ok:
            operation = source.requested[op_id]
            if all(rep.knows_stable(operation) for rep in source.replicas.values()):
                leg._stable_ok.add(op_id)
            else:
                return False
        return True

    def _send_slice(self, leg: SliceLeg) -> None:
        """(Re-)send the whole slice in one digest-verified message over the
        source shard's network — subject to its loss, delay, duplication and
        transfer-corruption adversaries, with byte accounting on the
        ``transfer`` kind.  A slice has no wire form, so it takes no transit
        hook.  A lost or rejected slice waits out ``resend_at`` and ships
        again; any intact copy is the same slice, whichever send it was."""
        self.shards[leg.source].network.send(
            "transfer",
            leg.source,
            leg.destination,
            lambda _destination, message: self._deliver_slice(leg, message),
            build_slice(leg.ops, leg.values),
            size=MigrationSlice.size_estimate,
            tamper=tamper_slice,
        )
        leg.resend_at = self.simulator.now + max(4 * self.params.dg, 2 * self.params.gossip_period)

    def _deliver_slice(self, leg: SliceLeg, message: MigrationSlice) -> None:
        if leg.state != "transferring":
            return  # late duplicate of an already-injected slice
        ops = message.verified_ops()
        if ops is None:
            # Digest mismatch: heal by re-pull — re-send promptly instead
            # of waiting out the loss timeout.
            leg.rejections += 1
            leg.resend_at = self.simulator.now
            return
        inject_slice(leg, ops, self.directory, self.shards[leg.destination])
        leg.state = "done"

    def _maybe_finalize_reshard(self, migration: LiveReshard) -> bool:
        """Complete the reshard once every leg is done, every migrated
        operation is re-answerable at its destination (the catch-up window),
        and every leaving shard has drained and converged — only then are
        the drained shards retired and the ring snapped to the new router."""
        if any(leg.state != "done" for leg in migration.legs):
            return False
        for leg in migration.legs:
            destination = self.shards[leg.destination]
            for op in leg.ops:
                if op.id not in destination.responded and op.id not in destination.failed:
                    return False
        for sid in migration.leaving:
            source = self.shards[sid]
            # Converge *before* silencing gossip: a retired shard can no
            # longer make progress, so stopping early would wedge
            # ``fully_converged`` forever.
            if source.outstanding_operations() or not source.fully_converged():
                return False
        for sid in migration.leaving:
            self.shards[sid].stop()
        self._adopt_router(migration.new_router)
        migration.completed_at = self.simulator.now
        self._migration = None
        return True

    def check_reshard_handoffs(self) -> None:
        """Audit every completed migration leg: each migrated key's history
        must appear in source order at the destination, post-flip operations
        must sit after their key's migrated tail (the barrier held), and
        every re-answered migrated operation must equal the source's
        original response (Theorem 5.8 response equivalence across the
        handoff).  The order audit runs **per key** — that is the order the
        keyed store's values depend on; cross-key interleavings within a
        slice are unconstrained once a history returns to a former owner,
        where already-present operations keep their original positions."""
        from repro.verification.invariants import check_reshard_handoff

        key_of = self.directory.key_of_operation
        for migration in self.reshards:
            for leg in migration.legs:
                destination = self.shards[leg.destination]
                # The audit compares against the destination's eventual
                # order, which is only frozen at quiescence — mid-window the
                # tentative min-label order may still shuffle (exactly like
                # ``check_traces``, this is an eventual-order check).
                if leg.state != "done" or not leg.ops:
                    continue
                if not destination.fully_converged():
                    continue
                by_key: Dict[str, List[OperationId]] = {}
                for op in leg.ops:
                    by_key.setdefault(key_of(op.id), []).append(op.id)
                post_flip: Dict[str, Dict[OperationId, OperationId]] = {key: {} for key in by_key}
                for op_id, key in self.directory.keyed_operations():
                    if (
                        key in post_flip
                        and op_id not in leg.slice_ids
                        and self.directory.shard_of_operation(op_id) == leg.destination
                    ):
                        # Minted at the destination and not part of the frozen
                        # slice: necessarily submitted after the flip (slice
                        # membership froze every pre-flip operation).
                        post_flip[key][op_id] = by_key[key][-1]
                dest_order = destination.eventual_order()
                for key, key_order in by_key.items():
                    check_reshard_handoff(
                        key_order,
                        dest_order,
                        post_flip[key],
                        context=f"{leg.source}->{leg.destination} key={key}",
                    )
                for op_id, original in leg.values.items():
                    re_answer = destination.responded.get(op_id, original)
                    if re_answer != original:
                        raise InvariantViolation(
                            f"reshard handoff {leg.source}->{leg.destination}: "
                            f"destination re-answered {op_id} with {re_answer!r} "
                            f"but the source responded {original!r}"
                        )

    # ===================================================================== #
    # Metrics and verification views                                        #
    # ===================================================================== #

    @property
    def metrics(self) -> PerShardMetrics:
        """Per-shard metric collectors with aggregate summaries."""
        return PerShardMetrics({sid: shard.metrics for sid, shard in self.shards.items()})

    def fully_converged(self) -> bool:
        """Has every shard stabilized every one of its operations?"""
        return all(shard.fully_converged() for shard in self.shards.values())

    def check_invariants(self) -> None:
        """Run the Section 7/8 invariant checker on every shard (faithful
        at network quiescence), then audit every reshard handoff."""
        from repro.verification.invariants import AlgorithmInvariantChecker

        for shard in self.shards.values():
            AlgorithmInvariantChecker(shard).check_all()
        self.check_reshard_handoffs()

    def check_traces(self) -> None:
        """Check the Theorem 5.8 guarantee on every shard's trace."""
        from repro.verification.outcome import check_trace

        for shard in self.shards.values():
            check_trace(shard).raise_for_failure()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.store_type.name}, shards={len(self.shard_ids)}, "
            f"clients={len(self.client_ids)})"
        )
