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

Operation identifiers are minted by per-(client, shard) counters under the
``client@shard`` composite identity: the aggregated ``requested`` /
``responded`` maps never collide, a single trace of the whole service
remains well-formed, and each shard sees one contiguous seqno run per
client — so a shard's compacted id summary stays at one interval per
client.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Collection, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import (
    ConfigurationError,
    InvariantViolation,
    OperationId,
    ensure_not_stale,
)
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator, SerialDataType
from repro.service.keyed import KeyedStore
from repro.service.reshard import SliceAssembly, build_chunks, chain_ops, tamper_chunk
from repro.service.router import (
    KeyRangeMove,
    KeyspaceDirectory,
    ShardRouter,
    TransitionRouter,
    composite_client,
    stable_hash,
)
from repro.sim.cluster import (
    ReplicaFactory,
    SimulatedCluster,
    SimulationParams,
    drive_until,
)
from repro.sim.events import Simulator
from repro.sim.metrics import PerShardMetrics


class _PairMigration:
    """One (source, destination) leg of a live reshard.

    State machine::

        waiting ──flip──> closing ──settled──> transferring ──verified──> done

    * **waiting**: the leg's key ranges still route to the source.
    * **flip** (at ``flip_at``): the transition router starts routing the
      ranges to the destination, the moving operation set is frozen from the
      directory, and per-key barriers are installed.
    * **closing**: the source answers its remaining in-flight operations and
      gossips the slice to stability at every source replica (dual-route
      window — old traffic answered by the source, new traffic held at the
      destination behind the barriers).
    * **transferring**: the frozen slice (source eventual order + recorded
      response values) ships in digest-verified chunks; loss and corruption
      heal by whole-slice re-send under a fresh epoch.
    * **done**: the verified slice was chain-injected into the destination
      and the barriers tightened to the per-key tails.
    """

    __slots__ = (
        "source",
        "destination",
        "ranges",
        "flip_at",
        "state",
        "flipped_at",
        "key_ops",
        "slice_ids",
        "slice_order",
        "values",
        "tails",
        "epoch",
        "assembly",
        "resend_at",
        "injected_at",
        "_stable_ok",
    )

    def __init__(
        self, source: str, destination: str, ranges: Tuple[KeyRangeMove, ...], flip_at: float
    ) -> None:
        self.source = source
        self.destination = destination
        self.ranges = ranges
        self.flip_at = flip_at
        self.state = "waiting"
        self.flipped_at: Optional[float] = None
        self.key_ops: Dict[str, frozenset] = {}
        self.slice_ids: frozenset = frozenset()
        self.slice_order: List[OperationId] = []
        self.values: Dict[OperationId, Any] = {}
        self.tails: Dict[str, OperationId] = {}
        self.epoch = 0
        self.assembly = SliceAssembly()
        self.resend_at = 0.0
        self.injected_at: Optional[float] = None
        self._stable_ok: set = set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_PairMigration({self.source}->{self.destination}, {self.state}, "
            f"{len(self.slice_ids)} ops)"
        )


class LiveReshard:
    """Handle (and permanent record) of one live ring change.

    Returned by :meth:`ShardedCluster.reshard` /
    :meth:`~ShardedCluster.add_shard` / :meth:`~ShardedCluster.drain_shard`;
    the caller keeps driving the shared event loop and polls :attr:`done`.
    """

    def __init__(
        self,
        old_router: ShardRouter,
        new_router: ShardRouter,
        transition: TransitionRouter,
        plan: Tuple[KeyRangeMove, ...],
        pairs: List[_PairMigration],
        joining: Tuple[str, ...],
        leaving: Tuple[str, ...],
        started_at: float,
    ) -> None:
        self.old_router = old_router
        self.new_router = new_router
        self.transition = transition
        self.plan = plan
        self.pairs = pairs
        self.joining = joining
        self.leaving = leaving
        self.started_at = started_at
        self.completed_at: Optional[float] = None
        self._hash_cache: Dict[str, int] = {}

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
        return sum(pair.assembly.rejections for pair in self.pairs)

    @property
    def moved_operations(self) -> int:
        """Operations migrated across all legs (known only post-flip)."""
        return sum(len(pair.slice_ids) for pair in self.pairs)

    def hash_of(self, key: str) -> int:
        point = self._hash_cache.get(key)
        if point is None:
            point = self._hash_cache[key] = stable_hash(key)
        return point

    def pending_ids_for(self, shard: str) -> set:
        """Migrated identifiers bound for *shard* whose chain injection has
        not completed — post-flip operations on moving keys may name them in
        barrier ``prev`` constraints before the destination knows them."""
        pending: set = set()
        for pair in self.pairs:
            if pair.destination == shard and pair.state != "done":
                pending |= pair.slice_ids
        return pending

    def summary(self) -> Dict[str, Any]:
        """Benchmark/reporting snapshot of this reshard."""
        return {
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "joining": list(self.joining),
            "leaving": list(self.leaving),
            "legs": len(self.pairs),
            "moved_ranges": len(self.plan),
            "moved_operations": self.moved_operations,
            "transfer_rejections": self.transfer_rejections,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "in-progress"
        return (
            f"LiveReshard({len(self.old_router.shard_ids)}->"
            f"{len(self.new_router.shard_ids)} shards, {state})"
        )


class ShardedCluster:
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
        self.base_type = base_type
        self.store_type = KeyedStore(base_type)
        self.params = (
            params
            if params is not None
            else SimulationParams(replica=ReplicaConfig(batch_gossip=True))
        )
        self.router = router or ShardRouter.for_count(num_shards, virtual_nodes=virtual_nodes)
        self.shard_ids: Tuple[str, ...] = self.router.shard_ids
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.simulator = Simulator()

        self.config = config if config is not None else self.params.replica
        self._seed = seed
        self._replicas_per_shard = replicas_per_shard
        self._replica_factory = replica_factory
        self._cluster_class = cluster_class
        self._shard_index = {shard: i for i, shard in enumerate(self.shard_ids)}

        # Front ends live under the composite per-shard client identities
        # the directory mints ids with (contiguous seqnos per shard).
        # ``cluster_class`` lets alternative harness shards ride the shared
        # event loop — e.g. :class:`repro.net.wire.WireCluster`, which pushes
        # every message through the binary codec (``--runtime=net``).
        self.shards: Dict[str, SimulatedCluster] = {
            shard: self._build_shard(shard) for shard in self.shard_ids
        }
        #: Shared routing/bookkeeping: unique identifiers, same-shard prev
        #: validation, operation-to-shard/key records.
        self.directory = KeyspaceDirectory(self.router, self.client_ids, base_type)
        #: Every submitted operation, across shards.
        self.requested: Dict[OperationId, OperationDescriptor] = {}
        self._started = False
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
            [composite_client(c, shard) for c in self.client_ids],
            params=dataclasses.replace(self.params, replica=self.config.for_shard(shard)),
            replica_factory=self._replica_factory,
            simulator=self.simulator,
            rng=random.Random(self._seed * 7919 + index + 1),
        )

    # ===================================================================== #
    # Lifecycle                                                             #
    # ===================================================================== #

    def start(self) -> None:
        """Start every shard's gossip timers on the shared event loop."""
        if self._started:
            return
        self._started = True
        for shard in self.shards.values():
            shard.start()

    @property
    def now(self) -> float:
        """Current simulation time (shared by every shard)."""
        return self.simulator.now

    def run(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance the shared simulated time by *duration*."""
        self.start()
        self.simulator.run_until(self.simulator.now + duration, max_events)
        for shard in self.shards.values():
            shard.metrics.finished_at = self.simulator.now

    def run_until_idle(self, max_time: float = 10_000.0, max_events: int = 5_000_000) -> None:
        """Run until every submitted operation (on any shard) is answered, or
        the time budget is exhausted."""
        self.start()
        drive_until(
            self.simulator, lambda: not self.outstanding_operations(), max_time, max_events
        )
        for shard in self.shards.values():
            shard.metrics.finished_at = self.simulator.now

    def outstanding_operations(self) -> int:
        """Submitted operations not yet answered, across all shards."""
        return sum(shard.outstanding_operations() for shard in self.shards.values())

    # ===================================================================== #
    # Routing                                                               #
    # ===================================================================== #

    def shard_of(self, key: str) -> str:
        """The shard identifier owning *key*."""
        return self.router.shard_for(key)

    def shard_of_operation(self, op_id: OperationId) -> str:
        """The shard a previously submitted operation was routed to."""
        return self.directory.shard_of_operation(op_id)

    def key_of_operation(self, op_id: OperationId) -> str:
        """The key a previously submitted operation addressed."""
        return self.directory.key_of_operation(op_id)

    def last_operation_on(self, key: str) -> Optional[OperationId]:
        """The most recently submitted operation on *key* (any client)."""
        return self.directory.last_operation_on(key)

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
        drive_until(self.simulator, lambda: operation.id in shard.responded, max_time)
        if operation.id not in shard.responded:
            raise RuntimeError(
                f"operation {operation.id} received no response within {max_time} time units"
            )
        return operation, shard.responded[operation.id]

    @property
    def responded(self) -> Dict[OperationId, Any]:
        """Values delivered to clients, across all shards.

        After a reshard, a migrated operation may be answered twice — by its
        minting shard (the dual-route source) and by the destination's
        re-answer of the injected chain; the minting shard's value is the
        one the client actually saw first, so it wins the merge.  (The two
        agree whenever the handoff invariants hold; the reshard checker
        asserts exactly that.)
        """
        merged: Dict[OperationId, Any] = {}
        for sid, shard in self.shards.items():
            for op_id, value in shard.responded.items():
                if self.directory.origin_shard(op_id, sid) == sid:
                    merged[op_id] = value
                else:
                    merged.setdefault(op_id, value)
        return merged

    @property
    def failed(self) -> Dict[OperationId, str]:
        """Operations declared unanswerable (stale-value NACK from every
        replica of their shard), across all shards (minting shard's verdict
        preferred, as in :attr:`responded`)."""
        merged: Dict[OperationId, str] = {}
        for sid, shard in self.shards.items():
            for op_id, reason in shard.failed.items():
                if self.directory.origin_shard(op_id, sid) == sid:
                    merged[op_id] = reason
                else:
                    merged.setdefault(op_id, reason)
        return merged

    def value_of(self, operation: OperationDescriptor) -> Any:
        """The value returned for *operation* (KeyError when unanswered,
        :class:`~repro.common.StaleValueError` when it failed for good)."""
        shard = self.directory.shard_of_operation(operation.id)
        cluster = self.shards[shard]
        ensure_not_stale(cluster.failed, operation.id)
        return cluster.responded[operation.id]

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

        The movement plan (exact key ranges changing owner) is computed from
        the ring delta and grouped into (source, destination) legs; each leg
        runs the :class:`_PairMigration` state machine independently, with
        flips staggered by *flip_stagger* (default: one gossip period) so
        the ring is genuinely mixed-ownership for a while.  Joining shards
        are built and started immediately; the routing table becomes a
        :class:`TransitionRouter` that flips per leg, and snaps to
        *new_router* when the last leg completes.

        Returns the :class:`LiveReshard` handle; keep driving the event loop
        (``run`` / ``run_until_idle``) and poll ``handle.done``.
        """
        if self._migration is not None:
            raise ConfigurationError("a reshard is already in progress")
        old = self.router
        plan = ShardRouter.movement_plan(old, new_router)
        joining = tuple(s for s in new_router.shard_ids if s not in old.shard_ids)
        leaving = tuple(s for s in old.shard_ids if s not in new_router.shard_ids)
        for sid in joining:
            if sid in self.shards:
                raise ConfigurationError(
                    f"shard id {sid!r} was retired by an earlier reshard and cannot be reused"
                )
            self.shards[sid] = self._build_shard(sid)
            if self._started:
                self.shards[sid].start()
        transition = TransitionRouter(old, new_router, plan)
        self.router = transition
        self.directory.router = transition
        self.shard_ids = transition.shard_ids
        stagger = self.params.gossip_period if flip_stagger is None else flip_stagger
        by_pair: Dict[Tuple[str, str], List[KeyRangeMove]] = {}
        for move in plan:
            by_pair.setdefault((move.source, move.destination), []).append(move)
        pairs = [
            _PairMigration(source, destination, tuple(moves), self.simulator.now + i * stagger)
            for i, ((source, destination), moves) in enumerate(sorted(by_pair.items()))
        ]
        migration = LiveReshard(
            old_router=old,
            new_router=new_router,
            transition=transition,
            plan=plan,
            pairs=pairs,
            joining=joining,
            leaving=leaving,
            started_at=self.simulator.now,
        )
        self._migration = migration
        self.reshards.append(migration)
        self.start()
        if pairs:
            self.simulator.schedule(0.0, self._migration_tick)
        else:
            self._maybe_finalize_reshard(migration)
        return migration

    def run_until_resharded(
        self,
        migration: LiveReshard,
        max_time: float = 10_000.0,
        max_events: int = 5_000_000,
    ) -> None:
        """Drive the shared event loop until *migration* completes (or the
        time/event budget runs out — e.g. a source replica stays crashed and
        the slice can never settle)."""
        self.start()
        drive_until(self.simulator, lambda: migration.done, max_time, max_events)

    def _migration_tick(self) -> None:
        migration = self._migration
        if migration is None:
            return
        for pair in migration.pairs:
            self._advance_pair(migration, pair)
        if self._maybe_finalize_reshard(migration):
            return
        self.simulator.schedule(0.5 * self.params.gossip_period, self._migration_tick)

    def _advance_pair(self, migration: LiveReshard, pair: _PairMigration) -> None:
        now = self.simulator.now
        if pair.state == "waiting" and now >= pair.flip_at:
            self._flip_pair(migration, pair)
        if pair.state == "closing" and self._pair_settled(pair):
            self._cut_slice(migration, pair)
        if pair.state == "transferring" and now >= pair.resend_at:
            self._send_slice(migration, pair)

    def _flip_pair(self, migration: LiveReshard, pair: _PairMigration) -> None:
        """Atomically flip this leg's key ranges to the destination, freeze
        the moving operation set, and install the per-key barriers.

        The slice *order* is only fixed once the source reaches stability,
        but its *membership* is frozen right here: every operation on a
        moving key was routed through the directory, and from this instant
        new operations on those keys route to the destination.  Membership
        is decided by the key's hash (not by minting shard), so histories
        that already migrated once move again intact.
        """
        for move in pair.ranges:
            migration.transition.flip(move)
        key_ops: Dict[str, List[OperationId]] = {}
        for op_id, key in self.directory.keyed_operations():
            point = migration.hash_of(key)
            if any(move.contains(point) for move in pair.ranges):
                key_ops.setdefault(key, []).append(op_id)
        pair.key_ops = {key: frozenset(ids) for key, ids in key_ops.items()}
        pair.slice_ids = frozenset(
            op_id for ids in pair.key_ops.values() for op_id in ids
        )
        for key, ids in pair.key_ops.items():
            self.directory.set_barrier(key, ids)
        pair.flipped_at = self.simulator.now
        pair.state = "closing"

    def _pair_settled(self, pair: _PairMigration) -> bool:
        """Is this leg's slice frozen — every moving operation answered (or
        failed for good) by the source, and stable at every source replica?
        Stability freezes the slice's relative order (Invariant 7.2 / 7.21);
        a crashed source replica blocks settlement until it recovers, which
        is precisely the mid-handoff crash story."""
        source = self.shards[pair.source]
        for op_id in pair.slice_ids:
            if op_id not in source.responded and op_id not in source.failed:
                return False
        for op_id in pair.slice_ids - pair._stable_ok:
            operation = source.requested[op_id]
            if all(rep.knows_stable(operation) for rep in source.replicas.values()):
                pair._stable_ok.add(op_id)
            else:
                return False
        return True

    def _cut_slice(self, migration: LiveReshard, pair: _PairMigration) -> None:
        """Cut the frozen slice: source eventual order restricted to the
        moving operations, plus the source-recorded response values."""
        source = self.shards[pair.source]
        order = [op_id for op_id in source.eventual_order() if op_id in pair.slice_ids]
        if len(order) != len(pair.slice_ids):
            missing = sorted(map(str, pair.slice_ids.difference(order)))
            raise InvariantViolation(f"reshard slice lost operations: {missing}")
        pair.slice_order = order
        pair.values = {
            op_id: source.responded[op_id] for op_id in order if op_id in source.responded
        }
        if not order:
            # Moving ranges with no history yet: ownership has flipped,
            # nothing to transfer or inject.
            pair.state = "done"
            pair.injected_at = self.simulator.now
            return
        pair.state = "transferring"
        self._send_slice(migration, pair)

    def _send_slice(self, migration: LiveReshard, pair: _PairMigration) -> None:
        """(Re-)send the whole slice in digest-verified chunks over the
        source shard's network — subject to its loss, delay and
        transfer-corruption adversaries, with byte accounting on the
        ``transfer`` kind.  Each send uses a fresh epoch; a lost or rejected
        body simply waits out ``resend_at`` and ships again."""
        source = self.shards[pair.source]
        pair.epoch += 1
        ops = [source.requested[op_id] for op_id in pair.slice_order]
        chunk_size = self.config.for_shard(pair.destination).checkpoint_chunk
        chunks = build_chunks(
            pair.source, pair.destination, ops, pair.values, chunk_size, pair.epoch
        )
        network = source.network
        now = self.simulator.now
        for chunk in chunks:
            if network.should_drop("transfer", pair.source, pair.destination):
                continue
            network.record_sent("transfer", payload_size=chunk.size_estimate())
            if network.should_corrupt_transfer(now):
                chunk = tamper_chunk(chunk)
            delay = network.delay_for("transfer", now, pair.source, pair.destination)
            self.simulator.schedule(
                delay, lambda c=chunk: self._deliver_migration_chunk(migration, pair, c)
            )
        pair.resend_at = now + max(4 * self.params.dg, 2 * self.params.gossip_period)

    def _deliver_migration_chunk(
        self, migration: LiveReshard, pair: _PairMigration, chunk
    ) -> None:
        if pair.state != "transferring":
            return  # late duplicate of an already-injected slice
        rejected_before = pair.assembly.rejections
        result = pair.assembly.receive(chunk)
        if result is None:
            if pair.assembly.rejections > rejected_before:
                # Digest mismatch: heal by re-pull — re-send promptly under
                # a fresh epoch instead of waiting out the loss timeout.
                pair.resend_at = self.simulator.now
            return
        ops, _values = result
        self._inject_slice(migration, pair, ops)

    def _inject_slice(
        self, migration: LiveReshard, pair: _PairMigration, ops
    ) -> None:
        """Inject the verified slice into the destination as one prev-chain
        of ordinary operations, then tighten each moved key's barrier from
        the frozen slice-set to its single migrated tail.

        Operations the destination already holds (a history migrating back
        to a former owner) are skipped; the per-key chain links installed by
        :func:`chain_ops` survive those skips, preserving exactly the
        per-key order the response values depend on."""
        destination = self.shards[pair.destination]
        for operation in chain_ops(ops, key_of=self.directory.key_of_operation):
            if operation.id not in destination.requested:
                destination.inject_operation(operation)
        tails: Dict[str, OperationId] = {}
        for op_id in pair.slice_order:
            tails[self.directory.key_of_operation(op_id)] = op_id
        pair.tails = tails
        for key, tail in tails.items():
            self.directory.set_barrier(key, frozenset({tail}))
        pair.injected_at = self.simulator.now
        pair.state = "done"

    def _maybe_finalize_reshard(self, migration: LiveReshard) -> bool:
        """Complete the reshard once every leg is done, every migrated
        operation is re-answerable at its destination (the catch-up window),
        and every leaving shard has drained and converged — only then are
        the drained shards retired and the ring snapped to the new router."""
        if any(pair.state != "done" for pair in migration.pairs):
            return False
        for pair in migration.pairs:
            destination = self.shards[pair.destination]
            for op_id in pair.slice_order:
                if op_id not in destination.responded and op_id not in destination.failed:
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
        self.router = migration.new_router
        self.directory.router = migration.new_router
        self.shard_ids = migration.new_router.shard_ids
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

        for migration in self.reshards:
            for pair in migration.pairs:
                if pair.state != "done" or not pair.slice_order:
                    continue
                destination = self.shards[pair.destination]
                # The audit compares against the destination's eventual
                # order, which is only frozen at quiescence — mid-window the
                # tentative min-label order may still shuffle (exactly like
                # ``check_traces``, this is an eventual-order check).
                if not destination.fully_converged():
                    continue
                post_flip: Dict[OperationId, OperationId] = {}
                for op_id, key in self.directory.keyed_operations():
                    tail = pair.tails.get(key)
                    if (
                        tail is not None
                        and op_id not in pair.slice_ids
                        and self.directory.origin_shard(op_id) == pair.destination
                    ):
                        # Minted at the destination and not part of the frozen
                        # slice: necessarily submitted after the flip (slice
                        # membership froze every pre-flip operation).
                        post_flip[op_id] = tail
                dest_order = destination.eventual_order()
                by_key: Dict[str, List[OperationId]] = {}
                for op_id in pair.slice_order:
                    by_key.setdefault(
                        self.directory.key_of_operation(op_id), []
                    ).append(op_id)
                for key, key_order in by_key.items():
                    key_post_flip = {
                        op_id: tail
                        for op_id, tail in post_flip.items()
                        if self.directory.key_of_operation(op_id) == key
                    }
                    check_reshard_handoff(
                        key_order,
                        dest_order,
                        key_post_flip,
                        context=f"{pair.source}->{pair.destination} key={key}",
                    )
                for op_id in pair.slice_order:
                    original = pair.values.get(op_id)
                    re_answer = destination.responded.get(op_id)
                    if (
                        op_id in pair.values
                        and op_id in destination.responded
                        and original != re_answer
                    ):
                        raise InvariantViolation(
                            f"reshard handoff {pair.source}->{pair.destination}: "
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

    def eventual_orders(self) -> Dict[str, List[OperationId]]:
        """Each shard's eventual total order (by system-wide minimum label)."""
        return {sid: shard.eventual_order() for sid, shard in self.shards.items()}

    def fully_converged(self) -> bool:
        """Has every shard stabilized every one of its operations?"""
        return all(shard.fully_converged() for shard in self.shards.values())

    def check_traces(self) -> None:
        """Check the Theorem 5.8 oracle on every shard's recorded trace."""
        from repro.verification.serializability import check_recorded_trace

        for shard in self.shards.values():
            check_recorded_trace(
                shard.data_type, shard.trace, witness=shard.eventual_order()
            )

    def check_invariants(self) -> None:
        """Run the Section 7/8 invariant checker on every shard's
        :meth:`~repro.sim.cluster.SimulatedCluster.algorithm_view` (faithful
        at network quiescence)."""
        from repro.verification.invariants import AlgorithmInvariantChecker

        for shard in self.shards.values():
            AlgorithmInvariantChecker(shard.algorithm_view()).check_all()
        self.check_reshard_handoffs()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCluster({self.store_type.name}, shards={len(self.shard_ids)}, "
            f"clients={len(self.client_ids)}, t={self.simulator.now:.1f})"
        )
