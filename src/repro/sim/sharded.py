"""A sharded multi-object ESDS deployment under simulated time.

``ShardedCluster`` is the simulation counterpart of
:class:`~repro.service.frontend.ShardedFrontend`: every shard is a complete
:class:`~repro.sim.cluster.SimulatedCluster` (replicas, front ends, its own
network and gossip timers) managing a :class:`~repro.service.keyed.KeyedStore`
slice of the keyspace, and all shards share ONE seeded discrete-event loop so
that cross-shard interleavings are reproducible from a single seed.  Gossip
within a shard uses the batched same-instant fast path by default (each
shard's replicas coalesce simultaneous arrivals), which is what keeps the
event count linear in the shard count.

Shards are fully independent — no messages cross shard boundaries — so total
throughput scales with the shard count at fixed replicas-per-shard until the
workload's key skew concentrates load (benchmark E9 measures both effects).

What both sharded harnesses share — construction, routing, the merged
results, the verification fan-out — is :class:`~repro.service.shardset.ShardSet`,
and a reshard leg's steps are :mod:`repro.service.reshard`'s.  This module
owns only what needs simulated time: flip stagger, the settle poll, chunked
network sends with resend, and the leg timers.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import ConfigurationError, InvariantViolation, OperationId
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator, SerialDataType
from repro.service.reshard import (
    MigrationChunk,
    ReshardPlan,
    SliceAssembly,
    SliceLeg,
    build_chunks,
    cut_slice,
    inject_slice,
    tamper_chunk,
)
from repro.service.router import KeyRangeMove, ShardRouter, TransitionRouter
from repro.service.shardset import ShardSet
from repro.sim.cluster import (
    IDLE_EVENT_CAP,
    ReplicaFactory,
    SimulatedCluster,
    SimulatedService,
    SimulationParams,
)
from repro.sim.events import Simulator
from repro.sim.metrics import PerShardMetrics


class _PairMigration(SliceLeg):
    """One (source, destination) leg of a live reshard, paced in simulated
    time.

    State machine (the steps are :mod:`repro.service.reshard`'s; this class
    owns only their timing)::

        waiting ──flip──> closing ──settled──> transferring ──verified──> done

    * **waiting**: the leg's key ranges still route to the source.
    * **flip** (at ``flip_at``): the transition router starts routing the
      ranges to the destination, the moving operation set is frozen from the
      directory, and per-key barriers are installed.
    * **closing**: the source answers its remaining in-flight operations and
      gossips the slice to stability at every source replica (dual-route
      window — old traffic answered by the source, new traffic held at the
      destination behind the barriers).
    * **transferring**: the cut slice (source eventual order + recorded
      response values) ships in digest-verified chunks; loss and corruption
      heal by whole-slice re-send under a fresh epoch.
    * **done**: the verified slice was chain-injected into the destination
      and the barriers tightened to the per-key tails.
    """

    def __init__(self, source: str, destination: str, ranges: Tuple[KeyRangeMove, ...]) -> None:
        super().__init__(source, destination, ranges)
        self.flip_at = 0.0
        self.state = "waiting"
        self.epoch = 0
        self.assembly = SliceAssembly()
        self.resend_at = 0.0
        self._stable_ok: set = set()


class LiveReshard(ReshardPlan):
    """Handle (and permanent record) of one live ring change.

    Returned by :meth:`ShardedCluster.reshard` /
    :meth:`~ShardedCluster.add_shard` / :meth:`~ShardedCluster.drain_shard`;
    the caller keeps driving the shared event loop and polls :attr:`done`.
    """

    def __init__(
        self, old: ShardRouter, new: ShardRouter, groups: Collection[str], started_at: float
    ) -> None:
        super().__init__(old, new, groups, leg=_PairMigration)
        self.leaving = tuple(s for s in old.shard_ids if s not in new.shard_ids)
        self.new_router = new
        self.transition = TransitionRouter(old, new, self.plan)
        self.started_at = started_at
        self.completed_at: Optional[float] = None

    @property
    def done(self) -> bool:
        """Has the ring fully flipped, with every slice injected, every
        migrated operation re-answerable at its destination, and every
        drained shard retired?"""
        return self.completed_at is not None

    @property
    def transfer_rejections(self) -> int:
        """Digest-verification rejections across all legs (each healed by a
        whole-slice re-send)."""
        return sum(leg.assembly.rejections for leg in self.legs)

    def pending_ids_for(self, shard: str) -> set:
        """Migrated identifiers bound for *shard* whose chain injection has
        not completed — post-flip operations on moving keys may name them in
        barrier ``prev`` constraints before the destination knows them."""
        pending: set = set()
        for leg in self.legs:
            if leg.destination == shard and leg.state != "done":
                pending |= leg.slice_ids
        return pending

    def summary(self) -> Dict[str, Any]:
        """Benchmark/reporting snapshot of this reshard."""
        return {
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "joining": list(self.joining),
            "leaving": list(self.leaving),
            "legs": len(self.legs),
            "moved_ranges": len(self.plan),
            "moved_operations": self.moved_operations,
            "transfer_rejections": self.transfer_rejections,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "in-progress"
        return (
            f"LiveReshard({len(self.transition.old.shard_ids)}->"
            f"{len(self.new_router.shard_ids)} shards, {state})"
        )


class ShardedCluster(SimulatedService, ShardSet):
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
        Clients; every shard hosts a front end for each client.
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
        super().__init__(
            base_type, num_shards, replicas_per_shard, client_ids, router, replica_factory,
            virtual_nodes, config if config is not None else self.params.replica,
        )
        #: Every submitted operation, across shards.
        self.requested: Dict[OperationId, OperationDescriptor] = {}
        #: The in-progress live reshard, if any (at most one at a time).
        self._migration: Optional[LiveReshard] = None
        #: Every reshard ever performed (completed ones included) — the
        #: handoff invariant checker re-audits them all.
        self.reshards: List[LiveReshard] = []

    def _build_shard(self, shard: str) -> SimulatedCluster:
        """One shard's simulated cluster on the shared event loop (also used
        by :meth:`add_shard` when resharding live)."""
        index = self._shard_index.setdefault(shard, len(self._shard_index))
        return self._cluster_class(
            self.store_type,
            self._replicas_per_shard,
            self._shard_clients(shard),
            params=dataclasses.replace(self.params, replica=self.config.for_shard(shard)),
            replica_factory=self._replica_factory,
            simulator=self.simulator,
            rng=random.Random(self._seed * 7919 + index + 1),
        )

    def _check_trace(self, shard: SimulatedCluster) -> None:
        from repro.verification.serializability import check_recorded_trace

        check_recorded_trace(
            shard.data_type, shard.trace, witness=shard.eventual_order()
        )

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
        :class:`~repro.service.reshard.ReshardPlan`; each leg runs the
        :class:`_PairMigration` state machine independently, with flips
        staggered by *flip_stagger* (default: one gossip period) so the ring
        is genuinely mixed-ownership for a while.  Joining shards are built
        and started immediately; the routing table becomes a
        :class:`TransitionRouter` that flips per leg, and snaps to
        *new_router* when the last leg completes.

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

    def _leg_settled(self, leg: _PairMigration) -> bool:
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

    def _send_slice(self, leg: _PairMigration) -> None:
        """(Re-)send the whole slice in digest-verified chunks over the
        source shard's network — subject to its loss, delay, duplication and
        transfer-corruption adversaries, with byte accounting on the
        ``transfer`` kind.  Chunks have no wire form, so they take no transit
        hook.  Each send uses a fresh epoch; a lost or rejected body simply
        waits out ``resend_at`` and ships again."""
        leg.epoch += 1
        chunk_size = self.config.for_shard(leg.destination).checkpoint_chunk
        network = self.shards[leg.source].network
        deliver = lambda _destination, chunk: self._deliver_migration_chunk(leg, chunk)
        for chunk in build_chunks(leg.ops, leg.values, chunk_size, leg.epoch):
            network.send(
                "transfer",
                leg.source,
                leg.destination,
                deliver,
                chunk,
                size=MigrationChunk.size_estimate,
                tamper=tamper_chunk,
            )
        leg.resend_at = self.simulator.now + max(4 * self.params.dg, 2 * self.params.gossip_period)

    def _deliver_migration_chunk(self, leg: _PairMigration, chunk) -> None:
        if leg.state != "transferring":
            return  # late duplicate of an already-injected slice
        rejected_before = leg.assembly.rejections
        ops = leg.assembly.receive(chunk)
        if ops is None:
            if leg.assembly.rejections > rejected_before:
                # Digest mismatch: heal by re-pull — re-send promptly under
                # a fresh epoch instead of waiting out the loss timeout.
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
        super().check_invariants()
        self.check_reshard_handoffs()
