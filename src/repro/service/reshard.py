"""Resharding's slice-migration rule and the record of one ring change.

When a key range moves between shards, the destination must end up with the
*same per-key operation history in the same order* the source settled on —
otherwise values computed after the flip could contradict answers the source
already gave.  A ring change is planned into (source, destination) legs
(:class:`LiveReshard`; every joining shard id is validated before any shard
is built), and each leg runs four steps: :meth:`LiveReshard.freeze_slice`,
then — once the source has settled — :func:`cut_slice`, a transfer, and
:func:`inject_slice`.  :class:`~repro.sim.sharded.ShardedCluster` paces them
with simulated timers; this module owns no clock.

* **Slice** — the moving keys' full operation history in the source shard's
  eventual order.  Membership is frozen at the flip, by key hash; the slice
  is only cut once every sliced operation is answered and stable at every
  source replica, so the order is frozen too (Invariant 7.2: the stable
  prefix is never reordered).

* **Digest-verified transfer** — the slice ships in one message, like a
  checkpoint transfer: its operations in label order, the chained
  fold-order digest and a content digest over operations *and*
  source-recorded response values.  The receiver recomputes both digests and rejects any
  tampered or truncated body — the sender then re-sends the slice
  (heal-by-re-pull, same discipline as corrupted checkpoint transfers).

* **Chain injection** — verified operations are injected into the
  destination as *ordinary* requests, with their original ``prev`` sets
  replaced by one link to the previously injected operation.  The chain
  forces every destination replica to execute the slice in source order,
  and minimum-label merging preserves chained order system-wide (for
  chained ``x < y``, at the replica achieving ``minlabel(y)`` the label of
  ``x`` is smaller, so ``minlabel(x) < minlabel(y)``).  Per-key values are
  then correct by :class:`~repro.service.keyed.KeyedStore` obliviousness:
  the value of an operation on key ``k`` depends only on the
  ``k``-subsequence of the order, which injection preserves exactly.
  Cross-key ``prev`` links cannot be lost — the directory never admits
  them across shards in the first place.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algorithm.checkpoint import (
    CORRUPTION_MARKER,
    GENESIS_ORDER_DIGEST,
    canonical_repr,
    chain_order_digest,
)
from repro.common import ConfigurationError, InvariantViolation, OperationId
from repro.core.operations import OperationDescriptor, make_operation
from repro.service.router import (
    KeyRangeMove,
    KeyspaceDirectory,
    ShardRouter,
    TransitionRouter,
    stable_hash,
)

def slice_digest(
    ops: Sequence[OperationDescriptor], values: Mapping[OperationId, Any]
) -> str:
    """Content digest of one migration slice: the chained order digest over
    the operation identifiers plus every shipped response value, canonically
    rendered (set/dict ``repr`` instability must not brand honest payloads
    as corrupt — same reasoning as checkpoint digests)."""
    order = chain_order_digest(GENESIS_ORDER_DIGEST, (op.id for op in ops))
    material = repr((
        order,
        tuple(
            (repr(op_id), canonical_repr(values[op_id]))
            for op_id in sorted(values, key=repr)
        ),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class MigrationSlice:
    """A whole key-range migration slice in one message.

    It carries the slice's operations in slice (label) order, the
    source-recorded response values of the answered ones and both digests,
    so the receiver verifies the body end to end (:meth:`verified_ops`).
    """

    ops: Tuple[OperationDescriptor, ...]
    values: Tuple[Tuple[OperationId, Any], ...]
    order_digest: str
    digest: str

    def size_estimate(self) -> int:
        """Wire-size contribution in op-ref units (rides the transfer-kind
        accounting, like a checkpoint transfer)."""
        return len(self.ops) + len(self.values) + 2

    def verified_ops(self) -> Optional[List[OperationDescriptor]]:
        """The slice's operations if both digests recompute over the body,
        ``None`` if it was tampered with or truncated in flight."""
        ops = list(self.ops)
        if (
            chain_order_digest(GENESIS_ORDER_DIGEST, (op.id for op in ops))
            != self.order_digest
            or slice_digest(ops, dict(self.values)) != self.digest
        ):
            return None
        return ops


def build_slice(
    ops: Sequence[OperationDescriptor], values: Mapping[OperationId, Any]
) -> MigrationSlice:
    """The message that ships a frozen slice."""
    return MigrationSlice(
        ops=tuple(ops),
        values=tuple((op.id, values[op.id]) for op in ops if op.id in values),
        order_digest=chain_order_digest(GENESIS_ORDER_DIGEST, (op.id for op in ops)),
        digest=slice_digest(ops, values),
    )


def tamper_slice(message: MigrationSlice) -> MigrationSlice:
    """The corruption adversary's bit-flip on one migration slice: a value
    is wrapped (or, in a value-free slice, an operation is dropped) while
    the digest fields ride along intact — the receiver's recomputation
    must catch either mutation."""
    if message.values:
        (op_id, value), *rest = message.values
        return replace(
            message, values=((op_id, (CORRUPTION_MARKER, value)), *rest)
        )
    return replace(message, ops=message.ops[1:])


def chain_ops(
    ops: Sequence[OperationDescriptor], key_of: Callable[[OperationId], str]
) -> List[OperationDescriptor]:
    """Rebuild a frozen slice as a ``prev``-chained sequence of ordinary
    operations: each keeps its identifier and operator but its constraint
    set becomes a link to its predecessor, forcing every destination
    replica to execute the slice in source order.  Original ``prev`` sets
    are deliberately dropped — they were satisfied at the source (and are
    unrepresentable after the split anyway); injected operations are never
    strict, since the source already answered them.

    Each operation additionally links to the previous slice operation **on
    its own key** (*key_of* names an operation's key).  A destination may
    skip injecting slice operations it already holds (a history migrating
    back to a former owner), which breaks the single-link chain across the
    skipped entry; the per-key link survives the skip and is exactly the
    order the keyed store's response values depend on."""
    rebuilt: List[OperationDescriptor] = []
    previous: Optional[OperationId] = None
    last_on_key: Dict[str, OperationId] = {}
    for op in ops:
        prev = set() if previous is None else {previous}
        key = key_of(op.id)
        if key in last_on_key:
            prev.add(last_on_key[key])
        last_on_key[key] = op.id
        rebuilt.append(make_operation(op.op, op.id, frozenset(prev), strict=False))
        previous = op.id
    return rebuilt


class SliceLeg:
    """One (source, destination) leg of a reshard: the key ranges changing
    hands and, once frozen, the slice of history that moves with them.

    State machine (the steps are this module's; the sharded cluster owns
    their timing)::

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
      response values) ships in one digest-verified message; loss and
      corruption heal by re-sending it.
    * **done**: the verified slice was chain-injected into the destination
      and the barriers tightened to the per-key tails.
    """

    def __init__(self, source: str, destination: str, ranges: Tuple[KeyRangeMove, ...]) -> None:
        self.source = source
        self.destination = destination
        self.ranges = ranges
        #: Frozen at the flip: the moving operations.
        self.slice_ids: frozenset = frozenset()
        #: Cut once settled: the slice's operations in source eventual
        #: order, and the source-recorded response values.
        self.ops: List[OperationDescriptor] = []
        self.values: Dict[OperationId, Any] = {}
        self.flip_at = 0.0
        self.state = "waiting"
        #: Slices that failed digest verification (each healed by a re-send).
        self.rejections = 0
        self.resend_at = 0.0
        self._stable_ok: set = set()


class LiveReshard:
    """Handle (and permanent record) of one ring change from *old* to *new*,
    validated and split into legs (one per (source, destination), in sorted
    order).

    A joining shard id that names a group in *groups* — one retired by an
    earlier reshard — is rejected here, before anything is built or
    mutated.  Returned by :meth:`~repro.sim.sharded.ShardedCluster.reshard`
    and its ``add_shard`` / ``drain_shard`` conveniences; the caller keeps
    driving the shared event loop and polls :attr:`done`.
    """

    def __init__(
        self, old: ShardRouter, new: ShardRouter, groups: Collection[str], started_at: float
    ) -> None:
        self.joining = tuple(s for s in new.shard_ids if s not in old.shard_ids)
        for shard in self.joining:
            if shard in groups:
                raise ConfigurationError(
                    f"shard id {shard!r} was retired by an earlier reshard and cannot be reused"
                )
        self.plan: Tuple[KeyRangeMove, ...] = tuple(ShardRouter.movement_plan(old, new))
        by_pair: Dict[Tuple[str, str], List[KeyRangeMove]] = {}
        for move in self.plan:
            by_pair.setdefault((move.source, move.destination), []).append(move)
        self.legs: List[SliceLeg] = [
            SliceLeg(source, destination, tuple(moves))
            for (source, destination), moves in sorted(by_pair.items())
        ]
        self._hash_cache: Dict[str, int] = {}
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
    def moved_operations(self) -> int:
        """Operations migrated across all legs (known once frozen)."""
        return sum(len(leg.slice_ids) for leg in self.legs)

    @property
    def transfer_rejections(self) -> int:
        """Digest-verification rejections across all legs (each healed by a
        whole-slice re-send)."""
        return sum(leg.rejections for leg in self.legs)

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

    def freeze_slice(self, leg: SliceLeg, directory: KeyspaceDirectory) -> None:
        """Freeze *leg*'s slice membership and install its per-key barriers.

        Every operation on a moving key was routed through *directory*, and
        from the flip on new operations on those keys route to the
        destination, so membership is fixed here even though the slice order
        is not.  It is decided by the key's hash (not by minting shard), so
        histories that already migrated once move again intact.  Each moving
        key's barrier is its whole frozen operation set until injection."""
        key_ops: Dict[str, List[OperationId]] = {}
        for op_id, key in directory.keyed_operations():
            point = self._hash_cache.get(key)
            if point is None:
                point = self._hash_cache[key] = stable_hash(key)
            if any(move.contains(point) for move in leg.ranges):
                key_ops.setdefault(key, []).append(op_id)
        leg.slice_ids = frozenset(op_id for ids in key_ops.values() for op_id in ids)
        for key, ids in key_ops.items():
            directory.migration_barriers[key] = frozenset(ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "in-progress"
        return (
            f"LiveReshard({len(self.transition.old.shard_ids)}->"
            f"{len(self.new_router.shard_ids)} shards, {state})"
        )


def cut_slice(leg: SliceLeg, source: Any) -> List[OperationDescriptor]:
    """Cut *leg*'s settled slice from its *source* group: the source
    eventual order restricted to the frozen operations, plus their
    source-recorded response values.  Returns the slice's operations, in
    that order; raises :class:`~repro.common.InvariantViolation` if the
    source order lost a frozen operation."""
    order = [op_id for op_id in source.eventual_order() if op_id in leg.slice_ids]
    if len(order) != len(leg.slice_ids):
        missing = sorted(map(str, leg.slice_ids.difference(order)))
        raise InvariantViolation(f"reshard slice lost operations: {missing}")
    leg.ops = [source.requested[op_id] for op_id in order]
    responded = source.responded
    leg.values = {op_id: responded[op_id] for op_id in order if op_id in responded}
    return leg.ops


def inject_slice(
    leg: SliceLeg,
    ops: Sequence[OperationDescriptor],
    directory: KeyspaceDirectory,
    destination: Any,
) -> None:
    """Inject the (verified) slice *ops* into the *destination* group as one
    prev-chain of ordinary operations, then tighten each moved key's
    barrier from the frozen set to its single migrated tail.

    Operations the destination already holds (a history migrating back to
    a former owner) are skipped; the per-key links of :func:`chain_ops`
    survive the skip, preserving exactly the per-key order the response
    values depend on."""
    present = destination.requested
    for operation in chain_ops(ops, key_of=directory.key_of_operation):
        if operation.id not in present:
            destination.inject_operation(operation)
    tails = {directory.key_of_operation(op.id): op.id for op in leg.ops}
    for key, tail in tails.items():
        directory.migration_barriers[key] = frozenset({tail})
