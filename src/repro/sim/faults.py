"""Fault schedules for the simulator (Section 9.3).

The paper's fault-tolerance claims are of two kinds: *safety* is unaffected
by message loss, duplication, reordering and crashes (with the stable-storage
caveat for locally generated labels), and *performance* recovers once the
timing assumptions hold again (Theorem 9.4).  The fault classes below inject
exactly those disturbances into a :class:`~repro.sim.cluster.SimulatedCluster`:
a :class:`ReplicaCrash` is a crash/recover event pair, every other fault a
window the cluster's network asks on each send (see :mod:`repro.sim.network`).
Every fault validates its parameters when it is built.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.cluster import SimulatedCluster


@dataclass
class ReplicaCrash:
    """Crash a replica at ``at`` and (optionally) recover it at ``recover_at``."""

    replica: str
    at: float
    recover_at: Optional[float] = None
    volatile_memory: bool = True

    def __post_init__(self) -> None:
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recover_at must come after the crash time")

    def install(self, cluster: SimulatedCluster) -> None:
        cluster.simulator.schedule_at(
            self.at, lambda: cluster.crash_replica(self.replica, self.volatile_memory)
        )
        if self.recover_at is not None:
            cluster.simulator.schedule_at(
                self.recover_at, lambda: cluster.recover_replica(self.replica)
            )

    def end_time(self) -> float:
        return self.recover_at if self.recover_at is not None else self.at


class _Window:
    """A fault active during ``[start, end)``: it opens at its ``start``
    event and from then on the network asks it one :attr:`question` per
    send until ``now >= end``.  :meth:`verdict` answers for one target, or
    returns ``None`` when the window does not cover it."""

    question: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"{type(self).__name__} end must come after its start")

    def install(self, cluster: SimulatedCluster) -> None:
        cluster.simulator.schedule_at(self.start, lambda: self.open(cluster))

    def open(self, cluster: SimulatedCluster) -> None:
        cluster.network.windows.append(self)

    def end_time(self) -> float:
        return self.end


class _ProbabilityWindow(_Window):
    """A window whose verdict is one per-send coin probability."""

    probability: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"{type(self).__name__} probability must be within [0, 1]")

    def verdict(self) -> float:
        return self.probability


@dataclass
class GossipOutage(_Window):
    """Partition a replica away from gossip during ``[start, end)``.

    Messages to and from the replica are dropped by the network, which is how
    the paper models an unreachable or slow replica — indistinguishable from
    message delay, so safety is unaffected.
    """

    replica: str
    start: float
    end: float

    question = "cut"

    def verdict(self, source: str, destination: str) -> Optional[bool]:
        return self.replica in (source, destination) or None


@dataclass
class DelaySpike(_Window):
    """Multiply message delays by the network's ``spike_factor`` during
    ``[start, end)`` — a period in which the timing assumptions of
    Section 9.1 do not hold."""

    start: float
    end: float

    question = "spike"

    def verdict(self) -> bool:
        return True


@dataclass
class AsymmetricPartition(_Window):
    """Sever the *directed* link ``source -> destination`` during
    ``[start, end)``: the destination stops hearing the source, while
    traffic the other way still flows.

    The paper's channels are unidirectional and independently unreliable,
    so a one-way outage is within the model — safety must hold even when
    A hears B but B never hears A (gossip knowledge then spreads only
    through third parties)."""

    source: str
    destination: str
    start: float
    end: float

    question = "cut"

    def verdict(self, source: str, destination: str) -> Optional[bool]:
        return (source, destination) == (self.source, self.destination) or None


@dataclass
class StragglerReplica(_Window):
    """Multiply message delays to and from one replica by ``factor`` during
    ``[start, end)`` — a persistently slow node rather than a global spike.

    Unlike :class:`DelaySpike` this is per-node and ignores the network's
    ``spike_factor``; the two compose multiplicatively when both are
    active, as do two stragglers at either end of one message."""

    replica: str
    factor: float
    start: float
    end: float

    question = "slowdown"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1 (never speeds up)")

    def verdict(self, node: str) -> Optional[float]:
        return self.factor if node == self.replica else None


@dataclass
class DuplicateMessages(_ProbabilityWindow):
    """Deliver a second copy of each message with ``probability`` during
    ``[start, end)``.

    The paper's channels may duplicate; the algorithm's sets and the delta
    stream's cumulative acks make every delivery idempotent, so the only
    observable effect should be the ``duplicated`` counter."""

    start: float
    end: float
    probability: float = 1.0

    question = "duplicate"


@dataclass
class CorruptTransfers(_ProbabilityWindow):
    """Flip bytes in checkpoint transfers and reshard slices with
    ``probability`` during ``[start, end)``.

    The receiver recomputes the body's sha-256 content digest against the
    one it was sent under and discards a mismatching body; the pull (or the
    slice) is sent again, so a corrupted transfer costs a retry, never
    safety."""

    start: float
    end: float
    probability: float = 1.0

    question = "corrupt"


@dataclass
class ClockSkew(_Window):
    """Skew each affected replica's local clock by a fixed offset drawn
    uniformly from ``[-max_skew, +max_skew]`` during ``[start, end)``.

    The offsets are drawn from the dedicated ``fault_rng`` stream when the
    window opens (one draw per affected replica, in replica-id order), so
    enabling the adversary never consumes primary-stream randomness — the
    delivery schedule is bit-identical with and without it.  The algorithm
    is asynchronous and never reads clocks for correctness; the only
    observable effect is on gossip ``sent_at`` timestamps (and the lag
    bounds the cluster derives from them), which is exactly the claim the
    twin tests pin down.

    ``replicas=None`` skews every replica in the cluster."""

    start: float
    end: float
    max_skew: float = 5.0
    replicas: Optional[List[str]] = None

    question = "skew"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_skew < 0:
            raise ValueError("max_skew must be non-negative")

    def open(self, cluster: SimulatedCluster) -> None:
        targets = self.replicas if self.replicas is not None else cluster.replica_ids
        draw = cluster.network.fault_rng.uniform
        self.offsets = {node: draw(-self.max_skew, self.max_skew) for node in targets}
        super().open(cluster)

    def verdict(self, node: str) -> Optional[float]:
        return self.offsets.get(node)


@dataclass
class FaultSchedule:
    """A collection of faults to install on a cluster before running it."""

    faults: List = field(default_factory=list)

    def add(self, fault) -> "FaultSchedule":
        self.faults.append(fault)
        return self

    def install(self, cluster: SimulatedCluster) -> None:
        cluster.start()
        for fault in self.faults:
            fault.install(cluster)

    def last_fault_time(self) -> float:
        """The time after which the timing assumptions hold again (the ``t``
        of Theorem 9.4)."""
        return max((fault.end_time() for fault in self.faults), default=0.0)


# --------------------------------------------------------------------------- #
# Serialization (conformance vectors)                                         #
# --------------------------------------------------------------------------- #

#: Fault kind tag -> dataclass, used by the conformance codec to round-trip
#: fault schedules through vector files.  New adversaries must register here.
FAULT_KINDS: Dict[str, type] = {
    "replica_crash": ReplicaCrash,
    "gossip_outage": GossipOutage,
    "delay_spike": DelaySpike,
    "asymmetric_partition": AsymmetricPartition,
    "straggler": StragglerReplica,
    "duplicate_messages": DuplicateMessages,
    "corrupt_transfers": CorruptTransfers,
    "clock_skew": ClockSkew,
}

_KIND_OF = {cls: kind for kind, cls in FAULT_KINDS.items()}


def fault_to_dict(fault: Any) -> Dict[str, Any]:
    """A plain-JSON representation of *fault* (its kind tag plus fields)."""
    cls = type(fault)
    if cls not in _KIND_OF:
        raise ValueError(f"unregistered fault class {cls.__name__}")
    doc = dataclasses.asdict(fault)
    doc["kind"] = _KIND_OF[cls]
    return doc


def fault_from_dict(doc: Dict[str, Any]) -> Any:
    """Rebuild a fault from :func:`fault_to_dict` output.  Unknown keys
    (e.g. the sharded harness's ``shard`` attribution) are ignored; malformed
    parameters raise ``ValueError`` here, not when the fault fires."""
    fields = dict(doc)
    kind = fields.pop("kind", None)
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    cls = FAULT_KINDS[kind]
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in fields.items() if k in names})
