"""The simulated network.  Every simulated message — a cluster's, a live
reshard's slice, a baseline service's — takes one path,
:meth:`SimulatedNetwork.send`, which asks its questions in one order because
the order of RNG draws is what a seed replays.

Delays follow the Section 9.1 parameters: ``df`` bounds front-end <-> replica
delivery, ``dg`` bounds replica <-> replica (gossip) delivery.  Deliveries may
optionally be jittered below the bound (the bound is an upper bound in the
paper) or dropped; both are read straight off
:class:`~repro.sim.cluster.SimulationParams`.

Every other disturbance is a fault *window* (:mod:`repro.sim.faults`) that
the network asks on each send: is this link cut, how much slower is this
node, is a delay spike on, with what probability is this send duplicated or
this transfer corrupted, what is this node's clock offset.  A window answers
from its opening event until ``now >= end``; when several open windows
answer the same question for the same target, the most recently opened one
governs, so overlapping windows never cut each other short.  Fault-window
randomness (duplicate / corrupt coin flips) is drawn from a dedicated
``fault_rng`` stream so that enabling an adversary never perturbs the
primary delay/loss stream — a cluster with a duplication window sees exactly
the same primary deliveries as one without, which is what makes the
duplicate-idempotence twin tests (and the conformance vectors) exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:
    from repro.sim.cluster import SimulationParams
    from repro.sim.events import Simulator

#: Seed of the auxiliary fault stream.  A fixed constant: fault coins must be
#: reproducible per cluster without consuming draws from the primary rng.
FAULT_STREAM_SEED = 0x5E5D5


@dataclass
class MessageCounters:
    """Per-category message accounting for the overhead experiments
    (E8/E11).  ``pull`` / ``transfer`` count the advert/pull catch-up
    control plane; ``transfer_payload`` accumulates the checkpoint-body
    bytes actually shipped on demand (zero in steady state).

    ``duplicated`` counts *extra* deliveries injected by a duplication
    window — deliberately excluded from the per-kind send counters so the
    overhead metrics stay comparable with and without the adversary.
    ``corrupted`` counts transfers tampered in flight."""

    request: int = 0
    response: int = 0
    gossip: int = 0
    pull: int = 0
    transfer: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    gossip_payload: int = 0
    transfer_payload: int = 0

    def total(self) -> int:
        return self.request + self.response + self.gossip + self.pull + self.transfer


class SimulatedNetwork:
    """Carries messages on *simulator*: delays, loss and the open fault
    windows."""

    def __init__(self, params: SimulationParams, rng: random.Random, simulator: Simulator) -> None:
        self.params = params
        self.rng = rng
        self.simulator = simulator
        self.counters = MessageCounters()
        #: Open fault windows, in opening order (a window appends itself when
        #: its start event fires; closed ones are pruned when next asked).
        self.windows: List[Any] = []
        #: Auxiliary stream for fault-window coin flips (see module docstring).
        self.fault_rng = random.Random(FAULT_STREAM_SEED)

    def _ask(self, question: str, now: float, *target: str) -> Any:
        """The verdict of the most recently opened window still open at
        *now* that answers *question* for *target*, or ``None``.  Simulated
        time never runs backwards, so a window closed at *now* is dropped."""
        windows = self.windows
        if any(now >= window.end for window in windows):
            windows[:] = [window for window in windows if now < window.end]
        for window in reversed(windows):
            if window.question == question:
                verdict = window.verdict(*target)
                if verdict is not None:
                    return verdict
        return None

    # -- the one send path ------------------------------------------------------

    def send(
        self,
        kind: str,
        source: str,
        destination: str,
        deliver: Callable[[str, Any], None],
        message: Any = None,
        *,
        build: Optional[Callable[[str, str], Any]] = None,
        size: Optional[Callable[[Any], int]] = None,
        tamper: Optional[Callable[[Any], Any]] = None,
        transit: Optional[Callable[[str, Any], Any]] = None,
    ) -> None:
        """Send *message*; ``deliver(destination, message)`` runs on arrival.

        In order: cut or loss; ``build(source, destination)`` makes the
        message only if it survived; the per-kind count, ``size(message)``
        being a gossip's or transfer's payload; a transfer's corruption
        coin, applied by ``tamper``; ``transit(kind, message)``; the delay
        and delivery; the duplicate coin.  A duplicate delivers the *same*
        object, so a delta-gossip copy repeats its seqno."""
        now = self.simulator.now
        if self.should_drop(kind, now, source, destination):
            return
        if build is not None:
            message = build(source, destination)
        payload = size(message) if size is not None and kind in ("gossip", "transfer") else 0
        self.record_sent(kind, payload)
        if kind == "transfer" and self.should_corrupt_transfer(now):
            message = tamper(message)
        if transit is not None:
            message = transit(kind, message)
        arrive = lambda: deliver(destination, message)
        self.simulator.schedule(self.delay_for(kind, now, source, destination), arrive)
        dup = self.maybe_duplicate(kind, now, source, destination)
        if dup is not None:
            self.simulator.schedule(dup, arrive)

    # -- delay / loss decisions ------------------------------------------------

    def local_clock(self, node: str, now: float) -> float:
        """What *node*'s local clock reads at true simulated time *now*.
        Only message *timestamps* are skewed — delivery scheduling always
        uses true simulated time, and the algorithm never reads clocks."""
        offset = self._ask("skew", now, node) if self.windows else None
        return now if offset is None else now + offset

    def delay_for(
        self,
        kind: str,
        now: float,
        source: Optional[str] = None,
        destination: Optional[str] = None,
        _rng: Optional[random.Random] = None,
    ) -> float:
        """The delivery delay for a message of the given kind sent at *now*."""
        params = self.params
        delay = params.df if kind in ("request", "response") else params.dg
        if params.jitter > 0:
            rng = self.rng if _rng is None else _rng
            delay = rng.uniform((1.0 - params.jitter) * delay, delay)
        if self.windows:
            if self._ask("spike", now):
                delay *= max(self.params.spike_factor, 1.0)
            for node in (source, destination):
                factor = None if node is None else self._ask("slowdown", now, node)
                if factor is not None:
                    delay *= factor
        return delay

    def should_drop(self, kind: str, now: float, source: str, destination: str) -> bool:
        """Partition and loss policy: a cut link drops before the loss coin."""
        if self.windows and self._ask("cut", now, source, destination):
            self.counters.dropped += 1
            return True
        if self.params.loss_probability > 0 and self.rng.random() < self.params.loss_probability:
            self.counters.dropped += 1
            return True
        return False

    def maybe_duplicate(
        self,
        kind: str,
        now: float,
        source: Optional[str] = None,
        destination: Optional[str] = None,
    ) -> Optional[float]:
        """Inside an open duplication window, decide whether this send gets
        a second delivery; returns the extra copy's delay, or ``None``.  The
        coin and the copy's jitter come from the fault stream, so the
        primary delivery schedule is untouched."""
        if not self._fault_coin("duplicate", now):
            return None
        self.counters.duplicated += 1
        return self.delay_for(kind, now, source, destination, _rng=self.fault_rng)

    def should_corrupt_transfer(self, now: float) -> bool:
        """Inside an open corruption window, decide whether this transfer
        gets tampered in flight (coin from the fault stream)."""
        if not self._fault_coin("corrupt", now):
            return False
        self.counters.corrupted += 1
        return True

    def _fault_coin(self, question: str, now: float) -> bool:
        probability = self._ask(question, now) if self.windows else None
        return bool(probability) and self.fault_rng.random() < probability

    def record_sent(self, kind: str, payload_size: int = 0) -> None:
        if kind == "request":
            self.counters.request += 1
        elif kind == "response":
            self.counters.response += 1
        elif kind == "gossip":
            self.counters.gossip += 1
            self.counters.gossip_payload += payload_size
        elif kind == "pull":
            self.counters.pull += 1
        elif kind == "transfer":
            self.counters.transfer += 1
            self.counters.transfer_payload += payload_size
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown message kind {kind!r}")
