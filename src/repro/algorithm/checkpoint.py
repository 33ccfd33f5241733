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
  the same argument as Lemma 10.2).  They live in a :class:`ValueLedger`, an
  immutable oldest-first mapping whose per-fold parts successive
  checkpoints share.

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
or an acknowledged delta basis stays internally consistent forever.  A fold
costs O(batch), not O(retained values): the new checkpoint's ledger appends
one part to the old one's shared parts instead of copying them.  Nor need it
apply the folded operators again: by the same fixed-value argument, a replay
of the folded prefix that a replica has already made (the production core's
replay cache) holds the new base state and the folded values, and
:meth:`Checkpoint.extend` takes them from it; only without one does the fold
apply every operator, as Fig. 7's replay would.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


#: Marker wrapped around a payload entry tampered in flight by the corruption
#: adversary (checkpoint transfers and migration slices alike) — any
#: repr-visible change would do; a distinct tag keeps debugging obvious.
CORRUPTION_MARKER = "__corrupted__"


def _covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Number of integers in a sequence of disjoint inclusive intervals."""
    return sum(hi - lo + 1 for lo, hi in intervals)


class ValueLedger(Mapping):
    """The retained-value ledger: an immutable, oldest-first mapping from
    folded identifiers to their fixed response values.

    The entries live in a tuple of *parts*, one plain dict per fold, oldest
    first, which successive ledgers share.  :meth:`extended` appends the new
    fold's part and evicts from the front by dropping whole parts and
    rebuilding only the head one, so a fold costs O(batch) and never copies
    the retained entries.  A part is never mutated once a ledger holds it,
    so a ledger captured by an in-flight message or a delta basis never
    sees a later fold, and a ledger stores exactly its live entries.

    Lookups (``[]`` and ``in``) probe the parts newest first, since a
    retransmit asks about a recent operation, and only a request for an
    already-compacted operation asks.  Iteration is oldest first: the order
    the codec writes and eviction consumes.
    """

    __slots__ = ("_parts", "_len")

    def __init__(
        self, values: Optional[Mapping[OperationId, Any]] = None, retention: Optional[int] = None
    ) -> None:
        part = dict(values) if values else {}
        self._set((part,) if part else (), len(part), retention)

    def _set(
        self, parts: Tuple[Dict[OperationId, Any], ...], length: int, retention: Optional[int]
    ) -> None:
        """Install *parts* holding *length* entries, evicting the oldest
        beyond *retention*."""
        excess = length - retention if retention is not None else 0
        if excess > 0:
            drop = 0
            while drop < len(parts) and len(parts[drop]) <= excess:
                excess -= len(parts[drop])
                drop += 1
            parts = parts[drop:]
            if excess:
                parts = (dict(islice(parts[0].items(), excess, None)),) + parts[1:]
            length = retention
        self._parts = parts
        self._len = length

    def extended(self, part: Dict[OperationId, Any], retention: Optional[int]) -> "ValueLedger":
        """A new ledger with *part* (one fold's values, identifiers this
        ledger does not hold) appended, evicting the oldest entries beyond
        *retention*.  The new ledger owns *part*; this one is unchanged."""
        ledger = ValueLedger.__new__(ValueLedger)
        parts = self._parts + (part,) if part else self._parts
        ledger._set(parts, self._len + len(part), retention)
        return ledger

    @property
    def footprint(self) -> int:
        """Entries held in storage (equal to ``len`` while eviction rebuilds
        the head part; anything more would be slack)."""
        return sum(map(len, self._parts))

    def __getitem__(self, op_id: OperationId) -> Any:
        for part in reversed(self._parts):
            if op_id in part:
                return part[op_id]
        raise KeyError(op_id)

    def __iter__(self) -> Iterator[OperationId]:
        return chain.from_iterable(self._parts)

    def __len__(self) -> int:
        return self._len

    def items(self) -> ItemsView:
        return _LedgerItems(self)


class _LedgerItems(ItemsView):
    """Oldest-first items without a per-key lookup."""

    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[OperationId, Any]]:
        return chain.from_iterable(part.items() for part in self._mapping._parts)


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
    digest its own message carries), the chained fold-order digest (so a
    receiver can verify its *own* would-be fold order against the
    advertiser's before absorbing the stability assertion — see
    ``FastReplicaCore._absorb_coverage``), and the per-client interval summary
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

    Immutable: :meth:`extend` returns a new checkpoint.  ``values`` is a
    :class:`ValueLedger` mapping recently compacted identifiers to their
    fixed response values, oldest (label order) first so retention eviction
    drops the oldest first; successive checkpoints share its parts.  Any
    other mapping passed in is copied into a ledger on construction.
    """

    base_state: Any
    frontier: Optional[Label]
    ids: OpIdSummary
    values: ValueLedger
    #: Chained digest of the fold order (one link per folded operation, see
    #: :func:`chain_order_digest`).  Batch-boundary independent: replicas
    #: that folded the same agreed prefix hold the same value however their
    #: compaction ticks sliced it.
    order_digest: str = GENESIS_ORDER_DIGEST

    def __post_init__(self) -> None:
        if not isinstance(self.values, ValueLedger):
            object.__setattr__(self, "values", ValueLedger(self.values))

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
        replayed: Optional[Tuple[Any, Sequence[Any]]] = None,
    ) -> Tuple["Checkpoint", int]:
        """Fold *prefix* (the next label-order stable operations) in.

        Returns ``(new_checkpoint, operator_applications)``.  *labels* must
        hold the replica's current label for each prefix operation; the last
        one becomes the new frontier.

        *replayed*, when given, is ``(post_state, values)``: the data state
        after the whole prefix and the value of each prefix operation, in
        prefix order, as a replay of *prefix* from this checkpoint's base
        state computed them (a replica's replay cache holds exactly that
        for a prefix of its clean order).  The fold then applies nothing;
        otherwise it applies every prefix operator, as Fig. 7's replay
        would.  ``operator_applications`` counts what this fold applied:
        ``len(prefix)`` or 0.  Either way the new ledger shares this one's
        parts and adds one part of ``len(prefix)`` entries.
        """
        if replayed is None:
            state = self.base_state
            part: Dict[OperationId, Any] = {}
            for operation in prefix:
                state, part[operation.id] = data_type.apply(state, operation.op)
            applications = len(prefix)
        else:
            state, values = replayed
            part = dict(zip((x.id for x in prefix), values))
            applications = 0
        frontier = labels[prefix[-1].id] if prefix else self.frontier
        return (
            Checkpoint(
                base_state=state,
                frontier=frontier,
                ids=self.ids.with_ids(x.id for x in prefix),
                values=self.values.extended(part, value_retention),
                order_digest=chain_order_digest(
                    self.order_digest, (x.id for x in prefix)
                ),
            ),
            applications,
        )

    def merged_values(
        self, newer_values: Mapping[OperationId, Any], value_retention: Optional[int] = None
    ) -> ValueLedger:
        """This checkpoint's retained values extended with *newer_values*
        (used when a recovering replica adopts a peer's checkpoint wholesale
        but wants to keep any retained values of its own).

        This checkpoint covers a *prefix* of the adopted one, so its values
        are the older entries: they are inserted first, keeping the merged
        ledger oldest-first so that retention eviction — which drops from
        the front — drops the oldest values, matching the compaction path.
        Overlapping keys agree by construction (a compacted value is fixed
        forever), so the overlay direction cannot change any value.
        """
        merged = dict(self.values.items())
        merged.update(newer_values.items())
        return ValueLedger(merged, value_retention)

    def wire_estimate(self) -> int:
        """Crude wire-size contribution (for the E8-style payload metric):
        one state blob plus the interval summary plus the retained values."""
        return 1 + self.ids.interval_count + len(self.values)

    @cached_property
    def _digest(self) -> str:
        # Retained values are hashed content-and-all (sorted by id, so the
        # digest is independent of insertion order): a transfer receiver
        # recomputes this over the received body, so any bit of a value or
        # of the base state flipped in flight changes the digest.
        material = repr((
            self.frontier,
            sorted(self.ids.ranges.items()),
            self.count,
            canonical_repr(self.base_state),
            tuple(
                (repr(op_id), canonical_repr(value))
                for op_id, value in sorted(self.values.items(), key=itemgetter(0))
            ),
            self.order_digest,
        ))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def digest(self) -> str:
        """The *integrity* digest: a content hash over frontier, id summary,
        base state, retained values (contents included) and fold order.

        It costs a pass over the whole body, so it is evaluated only where
        a body crosses a boundary: the sender stamps it on the transfer and
        the receiver recomputes it over the received checkpoint, rejecting
        bodies corrupted in flight.  Gossip never asks for it — adverts and
        pulls name a checkpoint by :meth:`identity`."""
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
