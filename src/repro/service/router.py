"""Consistent-hash routing of keys onto shards.

The router is the only component that decides key placement, so it must be
*deterministic across processes and runs*: Python's built-in ``hash`` for
strings is randomized per process (``PYTHONHASHSEED``), so points on the ring
are derived from MD5 digests instead (MD5 is used purely as a mixing
function, not for security).

A classic consistent-hash ring with virtual nodes is used rather than plain
``hash(key) % n`` so that growing the shard fleet only moves ``~1/n`` of the
keyspace — the property every production sharded store relies on for
rebalancing, and the one :class:`TestRouterStability` pins down.

:class:`KeyspaceDirectory` layers the service-level bookkeeping on top of
the ring: globally unique operation identifiers (one counter per client per
shard, minted under the ``client@shard`` composite identity so each shard
sees a contiguous seqno run per client), the same-shard ``prev``
validation, and the operation-to-shard/key records the sharded cluster
needs.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common import ConfigurationError, OperationId, OperationIdGenerator
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes.base import Operator, SerialDataType
from repro.service.keyed import KeyedStore


def stable_hash(text: str) -> int:
    """A 64-bit hash of *text* that is stable across processes and runs."""
    return int.from_bytes(hashlib.md5(text.encode("utf-8")).digest()[:8], "big")


#: Size of the hash space the ring lives in (``stable_hash`` is 64-bit).
HASH_SPACE = 1 << 64


@dataclass(frozen=True)
class KeyRangeMove:
    """One contiguous hash range whose ownership changes between two rings.

    ``start`` is inclusive, ``end`` exclusive; ranges are linear (a move
    wrapping the top of the hash space appears as two entries).  Every key
    whose :func:`stable_hash` falls in ``[start, end)`` moves from
    ``source`` to ``destination``.
    """

    start: int
    end: int
    source: str
    destination: str

    def contains(self, point: int) -> bool:
        return self.start <= point < self.end


class ShardRouter:
    """Maps string keys onto shard identifiers via a consistent-hash ring.

    Parameters
    ----------
    shard_ids:
        Identifiers of the shards (non-empty, unique).
    virtual_nodes:
        Ring points per shard; more points smooth the keyspace split at the
        cost of a larger (still tiny) ring.
    """

    def __init__(self, shard_ids: Sequence[str], virtual_nodes: int = 64) -> None:
        ids = tuple(shard_ids)
        if not ids:
            raise ConfigurationError("a router needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ConfigurationError("shard identifiers must be unique")
        if virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be at least 1")
        self.shard_ids: Tuple[str, ...] = ids
        self.virtual_nodes = virtual_nodes
        ring: List[Tuple[int, str]] = []
        for shard in ids:
            for replica in range(virtual_nodes):
                ring.append((stable_hash(f"{shard}#{replica}"), shard))
        ring.sort()
        self._ring = ring
        self._points = [point for point, _shard in ring]

    @classmethod
    def for_count(cls, num_shards: int, prefix: str = "s", virtual_nodes: int = 64) -> "ShardRouter":
        """A router over ``num_shards`` shards named ``s0 .. s{n-1}``."""
        if num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        return cls([f"{prefix}{i}" for i in range(num_shards)], virtual_nodes)

    # -- routing ---------------------------------------------------------------

    def shard_for(self, key: str) -> str:
        """The shard owning *key* (deterministic)."""
        return self.shard_for_hash(stable_hash(key))

    def shard_for_hash(self, point: int) -> str:
        """The shard owning ring position *point* (the successor rule)."""
        index = bisect.bisect_right(self._points, point) % len(self._ring)
        return self._ring[index][1]

    # -- ring mutation (resharding) --------------------------------------------

    def add_shard(self, shard_id: str) -> "ShardRouter":
        """A new router with *shard_id* joined (the ring is immutable; live
        migration swaps routers once the moved ranges are caught up)."""
        if shard_id in self.shard_ids:
            raise ConfigurationError(f"shard {shard_id!r} already present")
        return ShardRouter(self.shard_ids + (shard_id,), self.virtual_nodes)

    def remove_shard(self, shard_id: str) -> "ShardRouter":
        """A new router with *shard_id* drained out of the ring."""
        if shard_id not in self.shard_ids:
            raise ConfigurationError(f"shard {shard_id!r} not present")
        remaining = tuple(s for s in self.shard_ids if s != shard_id)
        if not remaining:
            raise ConfigurationError("cannot drain the last shard")
        return ShardRouter(remaining, self.virtual_nodes)

    @staticmethod
    def movement_plan(old: "ShardRouter", new: "ShardRouter") -> List[KeyRangeMove]:
        """The exact hash ranges whose owner differs between two rings.

        Merging both rings' points splits the hash space into elementary
        arcs on which ownership is constant in *both* rings; arcs whose old
        and new owner differ are the moves, coalesced when contiguous with
        the same (source, destination).  Consistent hashing guarantees the
        plan only ever moves keys **to** a joining shard or **from** a
        draining one — roughly ``1/n`` of the space either way.
        """
        if old.virtual_nodes != new.virtual_nodes:
            raise ConfigurationError("movement plans require equal virtual_nodes")
        points = sorted({*old._points, *new._points})
        boundaries = [0] + points + [HASH_SPACE]
        moves: List[KeyRangeMove] = []
        for start, end in zip(boundaries, boundaries[1:]):
            if start == end:
                continue
            source = old.shard_for_hash(start)
            destination = new.shard_for_hash(start)
            if source == destination:
                continue
            last = moves[-1] if moves else None
            if (
                last is not None
                and last.end == start
                and last.source == source
                and last.destination == destination
            ):
                moves[-1] = KeyRangeMove(last.start, end, source, destination)
            else:
                moves.append(KeyRangeMove(start, end, source, destination))
        return moves

    def spread(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of *keys* each shard owns (all shards present, 0 allowed)."""
        counts: Dict[str, int] = {shard: 0 for shard in self.shard_ids}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self.shard_ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRouter({list(self.shard_ids)}, virtual_nodes={self.virtual_nodes})"


def composite_client(client: str, shard: str) -> str:
    """The per-shard client identity operations are minted under.

    Identifier counters run per ``(client, shard)``: the seqnos one shard
    sees from one client are contiguous, so a shard's compacted
    :class:`~repro.algorithm.checkpoint.OpIdSummary` coalesces to one
    interval per client instead of fragmenting across the client's
    interleaved traffic to other shards.  Uniqueness across the service is
    by construction — distinct shards mint under distinct composite names.
    """
    return f"{client}@{shard}"


class TransitionRouter:
    """Dual-routing overlay active during a live reshard.

    Presents the same ``shard_for`` surface as :class:`ShardRouter` while a
    migration is in flight: hash ranges from the movement plan route to the
    *old* owner until their handoff window closes (the destination caught
    up), then :meth:`flip` switches that range — and only that range — to
    the *new* ring.  Once every planned range has flipped the overlay is
    equivalent to the new router and the harness swaps it out.
    """

    def __init__(
        self, old: ShardRouter, new: ShardRouter, plan: Sequence[KeyRangeMove]
    ) -> None:
        self.old = old
        self.new = new
        self.plan: Tuple[KeyRangeMove, ...] = tuple(plan)
        self._flipped: List[KeyRangeMove] = []
        self._flipped_starts: List[int] = []

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """Old shards first (a draining shard keeps routing until its ranges
        flip), then any joining shards."""
        extra = tuple(s for s in self.new.shard_ids if s not in self.old.shard_ids)
        return self.old.shard_ids + extra

    def flip(self, move: KeyRangeMove) -> None:
        """Atomically switch *move*'s hash range to the new ring."""
        if move not in self.plan:
            raise ConfigurationError(f"range {move} is not part of the movement plan")
        if move in self._flipped:
            return
        index = bisect.bisect_right(self._flipped_starts, move.start)
        self._flipped_starts.insert(index, move.start)
        self._flipped.insert(index, move)

    def shard_for_hash(self, point: int) -> str:
        index = bisect.bisect_right(self._flipped_starts, point) - 1
        if index >= 0 and self._flipped[index].contains(point):
            return self.new.shard_for_hash(point)
        return self.old.shard_for_hash(point)

    def shard_for(self, key: str) -> str:
        return self.shard_for_hash(stable_hash(key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransitionRouter({list(self.old.shard_ids)} -> {list(self.new.shard_ids)}, "
            f"flipped={len(self._flipped)}/{len(self.plan)})"
        )


class KeyspaceDirectory:
    """Routing plus operation bookkeeping of the sharded cluster.

    Mints globally unique identifiers (one counter per client *per shard*,
    under the :func:`composite_client` identity — each shard's view of a
    client is a contiguous seqno run), validates that ``prev`` constraints
    stay within one shard (client-specified constraints are a per-object
    notion, and shards are independent objects; equal keys always route to
    equal shards, so per-key chains are always legal), and records which
    shard and key every operation went to.
    """

    def __init__(
        self,
        router: ShardRouter,
        client_ids: Sequence[str],
        base_type: SerialDataType,
    ) -> None:
        self.router = router
        self.base_type = base_type
        self.client_ids: Tuple[str, ...] = tuple(client_ids)
        self.id_generators: Dict[Tuple[str, str], OperationIdGenerator] = {}
        self._shard_of_op: Dict[OperationId, str] = {}
        self._key_of_op: Dict[OperationId, str] = {}
        self._last_on_key: Dict[str, OperationId] = {}
        #: Per-key migration barriers: while key ``k`` is in a reshard
        #: handoff (and forever after), every new operation on ``k`` carries
        #: these identifiers as additional ``prev`` constraints, ordering it
        #: after the migrated history at the destination.  During the window
        #: the barrier is the *whole* frozen slice-set of ``k``'s operations
        #: (the slice order is only fixed at stability, but its membership is
        #: frozen at the flip); after injection it tightens to the single
        #: per-key chain tail.
        self.migration_barriers: Dict[str, frozenset] = {}

    def route(
        self,
        client: str,
        key: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
    ) -> Tuple[str, OperationDescriptor]:
        """Validate and build one keyed operation; returns ``(shard, op)``."""
        if client not in self.client_ids:
            raise ConfigurationError(f"unknown client {client!r}")
        self.base_type.check_operator(operator)
        shard = self.router.shard_for(key)
        prev_ids = frozenset(prev)
        for dep in prev_ids:
            owner = self._shard_of_op.get(dep)
            if owner is None:
                raise ConfigurationError(
                    f"prev references an operation never requested here: {dep}"
                )
            if owner != shard and self.router.shard_for(self._key_of_op[dep]) != shard:
                # The minting shard differs AND the dependency's key does not
                # currently route here either: a genuine cross-shard
                # constraint.  (After a reshard, operations minted by the old
                # owner whose key migrated satisfy the second test — their
                # history moved with the key, so same-key chains keep
                # working across the flip.)
                raise ConfigurationError(
                    f"prev constraint {dep} crosses shards ({owner} -> {shard}); "
                    f"client-specified constraints only hold within one shard"
                )
        barrier = self.migration_barriers.get(key)
        if barrier:
            # Barrier identifiers are same-key operations, so they always
            # pass the cross-shard validation above; without this edge a
            # destination replica that has not executed the injected chain
            # yet could give the new operation a minimum label *below* the
            # migrated history's, reordering the key's past.
            prev_ids = prev_ids | barrier
        generator = self.id_generators.get((client, shard))
        if generator is None:
            generator = OperationIdGenerator(composite_client(client, shard))
            self.id_generators[(client, shard)] = generator
        operation = make_operation(
            KeyedStore.at(key, operator), generator.fresh(), prev_ids, strict
        )
        self._shard_of_op[operation.id] = shard
        self._key_of_op[operation.id] = key
        self._last_on_key[key] = operation.id
        return shard, operation

    # -- lookups ---------------------------------------------------------------

    def shard_of_operation(self, op_id: OperationId) -> str:
        """The shard that *minted* an operation (its answering shard even
        after the key migrates away)."""
        return self._shard_of_op[op_id]

    def key_of_operation(self, op_id: OperationId) -> str:
        return self._key_of_op[op_id]

    def last_operation_on(self, key: str) -> Optional[OperationId]:
        return self._last_on_key.get(key)

    def keyed_operations(self) -> Iterable[Tuple[OperationId, str]]:
        """Every recorded ``(operation id, key)`` pair (reshard coordinators
        scan this to freeze a moving range's operation set at flip time)."""
        return self._key_of_op.items()
