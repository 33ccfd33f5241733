"""Stability-driven checkpoint compaction (bounded-memory replicas).

The paper's central structural fact — the stable prefix is totally ordered,
agreed at every replica, and never reordered (Invariant 7.2 together with
Theorem 5.8) — means that once an operation is *stable everywhere* its
position in the eventual total order, and therefore its effect on the data
state, is fixed forever.  A replica may then collapse the stable prefix of
its label order into a :class:`Checkpoint`:

* ``base_state`` — the data state obtained by applying the compacted prefix
  in label order from the initial state;
* ``frontier`` — the label of the last compacted operation; every label the
  replica still tracks is strictly greater;
* ``ids`` — a compact :class:`OpIdSummary` of the identifiers folded in
  (per-client seqno intervals, which coalesce to a handful of ranges in
  steady state);
* ``values`` — the response values of recently compacted operations, kept so
  a retransmitted request for an already-compacted operation can still be
  answered (the value of a compacted operation can never change again, by
  the same argument as Lemma 10.2).

After compaction the per-operation records — the descriptor in ``rcvd``, the
per-replica ``done[i]`` / ``stable[i]`` memberships, the label map entry, the
stable-storage label, and the replay-cache position — are dropped, so the
replica's tracked state is proportional to the *unstable suffix*, not to the
total history.  Value computation replays only the suffix on top of
``base_state``.

Checkpoints travel on gossip: a full-state (or frontier-advancing delta)
message carries the sender's current checkpoint, which tells the receiver
that everything at or below the frontier is stable at *every* replica.  A
receiver that still tracks those operations merely marks them stable and
compacts them with its own policy; a receiver that is missing some of them —
a replica recovering from a crash with volatile memory (Section 9.3) — adopts
the checkpoint wholesale as its new base instead of replaying the full
history.  The checkpoint itself is part of the replica's stable storage: a
crash never loses it, and recovery rebuilds from it.

Checkpoints are functional values: compaction produces a *new*
:class:`Checkpoint`, so a reference captured by an in-flight gossip message
or an acknowledged delta basis stays internally consistent forever.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.algorithm.labels import Label
from repro.common import ConfigurationError, InvariantViolation, OperationId
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator


#: Seed of the chained fold-order digest — the digest of "nothing folded yet".
GENESIS_ORDER_DIGEST = "0" * 16


def chain_order_digest(digest: str, op_ids: Iterable[OperationId]) -> str:
    """Extend the chained fold-order digest by *op_ids*, one link per
    operation.

    Chaining per operation makes the digest independent of batch boundaries:
    every replica folding the same identifiers in the same order reaches the
    same digest regardless of how its compaction ticks sliced the work, and
    any disagreement in the fold *order* — not just the folded set —
    produces a different digest from the first diverging position onward.
    """
    for op_id in op_ids:
        material = f"{digest}|{op_id.client}#{op_id.seqno}"
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
    return digest


def canonical_repr(value: Any) -> str:
    """A construction-order-independent ``repr`` for digest material.

    ``repr`` of a set leaks hash-table insertion history: ``{9, 1}`` and
    ``{1, 9}`` are equal but can print differently (9 and 1 collide in a
    small table, so whichever was inserted first wins the slot).  Two sides
    of a serialization boundary rebuild equal sets in different orders —
    the checkpoint-transfer receiver recomputes the content digest over
    *decoded* values, and a raw-``repr`` digest would brand every legitimate
    set-valued payload as corrupted.  Containers are therefore rendered with
    sorted, recursively canonical elements; everything else keeps ``repr``.
    """
    if isinstance(value, frozenset):
        return "frozenset{" + ",".join(sorted(map(canonical_repr, value))) + "}"
    if isinstance(value, set):
        return "set{" + ",".join(sorted(map(canonical_repr, value))) + "}"
    if isinstance(value, (OperationId, Label, Operator)):
        # Tuples by representation only: digest material spells them by name.
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(map(canonical_repr, value)) + ",)"
    if isinstance(value, dict):
        pairs = (f"{canonical_repr(k)}:{canonical_repr(v)}" for k, v in value.items())
        return "{" + ",".join(sorted(pairs)) + "}"
    return repr(value)


def chunk_slices(items: Sequence[Any], chunk: Optional[int]) -> List[List[Any]]:
    """Split *items* into order-preserving slices of at most *chunk* entries
    (``None`` or a covering chunk size yields a single slice; an empty input
    still yields one empty slice, so transfers always carry at least one
    chunk to anchor the digest).  Shared by checkpoint value transfer and
    resharding migration transfer."""
    items = list(items)
    if chunk is None or chunk >= max(len(items), 1):
        return [items]
    return [items[i : i + chunk] for i in range(0, len(items), chunk)]


#: Marker wrapped around a payload entry tampered in flight by the corruption
#: adversary (checkpoint transfers and migration chunks alike) — any
#: repr-visible change would do; a distinct tag keeps debugging obvious.
CORRUPTION_MARKER = "__corrupted__"


def _covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Number of integers in a sequence of disjoint inclusive intervals."""
    return sum(hi - lo + 1 for lo, hi in intervals)


def _evict_oldest(values: Dict[OperationId, Any], retention: Optional[int]) -> Dict[OperationId, Any]:
    """Bound an insertion-ordered (oldest-first) value ledger in place."""
    if retention is not None:
        while len(values) > retention:
            del values[next(iter(values))]
    return values


class OpIdSummary:
    """An immutable, compact summary of a set of :class:`OperationId` values.

    Identifiers are ``(client, seqno)`` pairs; the summary stores, per
    client, a sorted tuple of disjoint inclusive ``(lo, hi)`` seqno
    intervals.  Compaction folds operations roughly in per-client seqno
    order, so the intervals coalesce: in steady state the summary holds one
    interval per client regardless of how many operations were compacted.
    This holds in sharded deployments too: the service layer mints
    identifiers per ``(client, shard)`` (the ``client@shard`` composite
    identity), so each shard's compacted prefix is a contiguous per-client
    seqno run and its summary stays O(clients) as well.

    Summaries are values: two that cover the same identifiers are equal and
    hash alike, however they were built.  The hash is taken once, at
    construction — an advert is a memo key on every gossip encode.
    """

    __slots__ = ("_ranges", "_count", "_hash")

    def __init__(self, ranges: Optional[Mapping[str, Sequence[Tuple[int, int]]]] = None) -> None:
        normalized: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        count = 0
        for client, intervals in (ranges or {}).items():
            merged = self._normalize(intervals)
            if merged:
                normalized[client] = merged
                count += _covered(merged)
        self._set(normalized, count)

    def _set(self, ranges: Dict[str, Tuple[Tuple[int, int], ...]], count: int) -> None:
        """Install already-normalised *ranges* (no empty interval tuple)."""
        self._ranges = ranges
        self._count = count
        self._hash = hash(frozenset(ranges.items()))

    @staticmethod
    def _normalize(intervals: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
        merged: List[Tuple[int, int]] = []
        for lo, hi in sorted(intervals):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return tuple(merged)

    # -- queries ---------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of identifiers summarized."""
        return self._count

    @property
    def interval_count(self) -> int:
        """Number of stored intervals (the summary's actual size)."""
        return sum(len(intervals) for intervals in self._ranges.values())

    @property
    def ranges(self) -> Dict[str, Tuple[Tuple[int, int], ...]]:
        """The per-client interval map (callers must treat it as read-only;
        used for digests and wire accounting)."""
        return self._ranges

    def __contains__(self, op_id: OperationId) -> bool:
        intervals = self._ranges.get(op_id.client)
        if not intervals:
            return False
        index = bisect_right(intervals, (op_id.seqno, float("inf"))) - 1
        if index < 0:
            return False
        lo, hi = intervals[index]
        return lo <= op_id.seqno <= hi

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def issubset(self, other: "OpIdSummary") -> bool:
        """Every identifier of this summary is in *other*."""
        for client, intervals in self._ranges.items():
            theirs = other._ranges.get(client)
            if theirs is None:
                return False
            for lo, hi in intervals:
                index = bisect_right(theirs, (lo, float("inf"))) - 1
                if index < 0 or not (theirs[index][0] <= lo and hi <= theirs[index][1]):
                    return False
        return True

    def intersection_count(self, other: "OpIdSummary") -> int:
        """Number of identifiers present in both summaries."""
        total = 0
        for client, intervals in self._ranges.items():
            theirs = other._ranges.get(client)
            if not theirs:
                continue
            i = j = 0
            while i < len(intervals) and j < len(theirs):
                lo = max(intervals[i][0], theirs[j][0])
                hi = min(intervals[i][1], theirs[j][1])
                if lo <= hi:
                    total += hi - lo + 1
                if intervals[i][1] < theirs[j][1]:
                    i += 1
                else:
                    j += 1
        return total

    # -- construction ----------------------------------------------------------

    def with_ids(self, ids: Iterable[OperationId]) -> "OpIdSummary":
        """A new summary additionally covering *ids*.

        Only the clients present in *ids* are rebuilt; every other client's
        interval tuple is shared with this summary.  A seqno that continues
        a client's last interval — the steady-state fold — extends it
        without a sort; anything else goes through :meth:`_normalize`.
        """
        fresh: Dict[str, List[int]] = {}
        for op_id in ids:
            fresh.setdefault(op_id.client, []).append(op_id.seqno)
        ranges = dict(self._ranges)
        count = self._count
        for client, seqnos in fresh.items():
            old = ranges.get(client, ())
            intervals = list(old)
            loose: List[Tuple[int, int]] = []
            for seqno in seqnos:
                if intervals and seqno == intervals[-1][1] + 1:
                    intervals[-1] = (intervals[-1][0], seqno)
                else:
                    loose.append((seqno, seqno))
            merged = self._normalize(intervals + loose) if loose else tuple(intervals)
            ranges[client] = merged
            count += _covered(merged) - _covered(old)
        summary = OpIdSummary.__new__(OpIdSummary)
        summary._set(ranges, count)
        return summary

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpIdSummary):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpIdSummary({self._count} ids, {self.interval_count} intervals)"


@dataclass(frozen=True)
class CheckpointAdvert:
    """A compact *advertisement* of a checkpoint — what advert/pull gossip
    ships in steady state instead of the checkpoint body.

    It carries exactly the knowledge a peer needs to decide whether it is
    caught up: the frontier label, the checkpoint's fold *identity* in the
    ``digest`` slot (:meth:`Checkpoint.identity` — it names the prefix, it
    verifies nothing; a transferred body is verified against the content
    digest its own chunks carry), the chained fold-order digest (so a
    receiver can verify its *own* would-be fold order against the
    advertiser's before absorbing the stability assertion — see
    ``ReplicaCore._absorb_coverage``), and the per-client interval summary
    of the folded identifiers.  A receiver that still tracks (or has itself
    compacted) every advertised identifier learns their
    everywhere-stability from the advert alone; a receiver missing any of
    them must *pull* the checkpoint body.  Crucially the advert's wire size
    is ``O(clients)`` in steady state — independent of the history length
    and of the retained-value ledger the body drags along.
    """

    frontier: Label
    digest: str
    ids: OpIdSummary
    order_digest: str = GENESIS_ORDER_DIGEST

    @property
    def count(self) -> int:
        """Number of identifiers the advertised checkpoint folded."""
        return self.ids.count

    def covers(self, op_id: OperationId) -> bool:
        """Whether the advertised checkpoint folded *op_id*."""
        return op_id in self.ids

    def wire_estimate(self) -> int:
        """Wire-size contribution: frontier + digest + the interval summary
        (no state blob, no value ledger — that is the whole point)."""
        return 2 + self.ids.interval_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointAdvert(count={self.count}, digest={self.digest})"


@dataclass(frozen=True)
class Checkpoint:
    """The collapsed stable prefix of one replica (see module docstring).

    Immutable: :meth:`extend` returns a new checkpoint.  ``values`` maps
    recently compacted identifiers to their fixed response values, in label
    (insertion) order so retention eviction drops the oldest first.
    """

    base_state: Any
    frontier: Optional[Label]
    ids: OpIdSummary
    values: Mapping[OperationId, Any]
    #: Chained digest of the fold order (one link per folded operation, see
    #: :func:`chain_order_digest`).  Batch-boundary independent: replicas
    #: that folded the same agreed prefix hold the same value however their
    #: compaction ticks sliced it.
    order_digest: str = GENESIS_ORDER_DIGEST

    @classmethod
    def empty(cls, initial_state: Any) -> "Checkpoint":
        """The checkpoint of a replica that has compacted nothing."""
        return cls(base_state=initial_state, frontier=None, ids=OpIdSummary(), values={})

    @property
    def count(self) -> int:
        """Number of operations folded into the base state."""
        return self.ids.count

    def covers(self, op_id: OperationId) -> bool:
        """Whether *op_id* has been folded into this checkpoint."""
        return op_id in self.ids

    def extend(
        self,
        prefix: Sequence[OperationDescriptor],
        data_type,
        labels: Mapping[OperationId, Label],
        value_retention: Optional[int] = None,
    ) -> Tuple["Checkpoint", int]:
        """Fold *prefix* (the next label-order stable operations) in.

        Returns ``(new_checkpoint, operator_applications)``.  *labels* must
        hold the replica's current label for each prefix operation; the last
        one becomes the new frontier.
        """
        state = self.base_state
        values = dict(self.values)
        applications = 0
        for operation in prefix:
            state, value = data_type.apply(state, operation.op)
            applications += 1
            values[operation.id] = value
        _evict_oldest(values, value_retention)
        frontier = labels[prefix[-1].id] if prefix else self.frontier
        return (
            Checkpoint(
                base_state=state,
                frontier=frontier,
                ids=self.ids.with_ids(x.id for x in prefix),
                values=values,
                order_digest=chain_order_digest(
                    self.order_digest, (x.id for x in prefix)
                ),
            ),
            applications,
        )

    def merged_values(
        self, newer_values: Mapping[OperationId, Any], value_retention: Optional[int] = None
    ) -> Dict[OperationId, Any]:
        """This checkpoint's retained values extended with *newer_values*
        (used when a recovering replica adopts a peer's checkpoint wholesale
        but wants to keep any retained values of its own).

        This checkpoint covers a *prefix* of the adopted one, so its values
        are the older entries: they are inserted first, keeping the merged
        dict oldest-first so that retention eviction — which pops from the
        front — drops the oldest values, matching the compaction path.
        Overlapping keys agree by construction (a compacted value is fixed
        forever), so the overlay direction cannot change any value.
        """
        merged = dict(self.values)
        merged.update(newer_values)
        return _evict_oldest(merged, value_retention)

    def wire_estimate(self) -> int:
        """Crude wire-size contribution (for the E8-style payload metric):
        one state blob plus the interval summary plus the retained values."""
        return 1 + self.ids.interval_count + len(self.values)

    @cached_property
    def _digest(self) -> str:
        # Retained values are hashed content-and-all (sorted by id, so the
        # digest is independent of insertion order): a transfer receiver
        # recomputes this over the assembled body, so any bit of a value or
        # of the base state flipped in flight changes the digest.
        material = repr((
            self.frontier,
            sorted(self.ids.ranges.items()),
            self.count,
            canonical_repr(self.base_state),
            tuple(
                (repr(op_id), canonical_repr(self.values[op_id]))
                for op_id in sorted(self.values)
            ),
            self.order_digest,
        ))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def digest(self) -> str:
        """The *integrity* digest: a content hash over frontier, id summary,
        base state, retained values (contents included) and fold order.

        It costs a pass over the whole body, so it is evaluated only where
        a body crosses a boundary: the sender stamps it on every transfer
        chunk and the receiver recomputes it over the assembled checkpoint,
        rejecting bodies corrupted in flight.  Gossip never asks for it —
        adverts and pulls name a checkpoint by :meth:`identity`."""
        return self._digest

    def identity(self) -> str:
        """The fold *identity*: 16 hex digits derived in O(1) from
        ``(frontier, count, order_digest)``.

        The stable prefix is totally ordered and agreed everywhere
        (Invariant 7.2, Theorem 5.8), so the fold order — which
        ``order_digest`` chains one link per operation — determines the
        checkpoint: replicas that folded the same prefix share an identity
        however their compaction ticks sliced it, and every further fold
        changes it.  It says nothing about the body's bytes; that is
        :meth:`digest`'s job."""
        material = f"{self.frontier!r}|{self.count}|{self.order_digest}"
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    @cached_property
    def _advert(self) -> Optional[CheckpointAdvert]:
        if self.frontier is None:
            return None
        return CheckpointAdvert(
            frontier=self.frontier,
            digest=self.identity(),
            ids=self.ids,
            order_digest=self.order_digest,
        )

    def advert(self) -> Optional[CheckpointAdvert]:
        """The compact advert for this checkpoint (``None`` while empty)."""
        return self._advert

    def value_chunks(self, chunk: Optional[int]) -> List[Dict[OperationId, Any]]:
        """The retained-value ledger split into label-order slices of at most
        *chunk* entries (``None`` or a covering chunk size yields a single
        slice).  Slicing the insertion-ordered ledger keeps reassembly
        order-preserving, which :meth:`merged_values`'s oldest-first eviction
        depends on; each slice corresponds to a contiguous client-interval
        range of the folded identifiers."""
        return [dict(part) for part in chunk_slices(list(self.values.items()), chunk)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Checkpoint(count={self.count}, frontier={self.frontier})"


@dataclass(frozen=True)
class CompactionPolicy:
    """When and how aggressively a replica compacts its stable prefix.

    Parameters
    ----------
    min_batch:
        Fold only when at least this many operations are compactable
        (amortizes the one replay each compaction performs).  A forced
        compaction (the simulator's interval-driven tick) ignores this.
    value_retention:
        How many compacted response values to retain for answering
        retransmitted requests.  The default keeps the newest 1024 — a wide
        retransmission window whose memory (and full-state gossip payload)
        stays bounded, which is the whole point of compaction.  ``None``
        keeps every value (exact equivalence with an uncompacted replica
        even under arbitrarily late retransmission, at the cost of an
        O(history) value ledger); a retransmit that misses a finite window
        is dropped by the receiving replica — another replica, or a replica
        where the operation is still pending, answers instead.
    """

    min_batch: int = 16
    value_retention: Optional[int] = 1024

    def __post_init__(self) -> None:
        if self.min_batch < 1:
            raise ConfigurationError("min_batch must be at least 1")
        if self.value_retention is not None and self.value_retention < 0:
            raise ConfigurationError("value_retention must be non-negative or None")


class CompactionLedger:
    """Harness-side record of the system-wide compacted prefix.

    Every replica compacts prefixes of the *same* agreed total order
    (Invariant 7.2 / Theorem 5.8), so the batches reported by different
    replicas must tile one shared list.  The ledger verifies this on every
    record — a mismatch is a live violation of the stable-prefix agreement —
    and keeps the order, which the replicas themselves deliberately forget:
    the harness uses it for eventual-order witnesses and base-state audits.
    """

    def __init__(self) -> None:
        self.prefix: List[OperationDescriptor] = []
        self.ids: set = set()

    def record(self, batch: Sequence[OperationDescriptor], checkpoint: Checkpoint) -> None:
        """Record one replica's compaction of *batch* (its checkpoint after)."""
        start = checkpoint.count - len(batch)
        for offset, operation in enumerate(batch):
            position = start + offset
            if position < len(self.prefix):
                if self.prefix[position].id != operation.id:
                    raise InvariantViolation(
                        "compacted stable prefixes diverged: position "
                        f"{position} is {self.prefix[position].id} at one replica "
                        f"and {operation.id} at another"
                    )
            elif position == len(self.prefix):
                self.prefix.append(operation)
                self.ids.add(operation.id)
            else:  # pragma: no cover - defensive; adoption precedes compaction
                raise InvariantViolation(
                    f"compaction skipped positions {len(self.prefix)}..{position - 1} "
                    "of the stable prefix"
                )
