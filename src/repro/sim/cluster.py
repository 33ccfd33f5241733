"""A simulated ESDS deployment.

``SimulatedCluster`` instantiates the algorithm's replica and front-end state
machines, connects them through a :class:`~repro.sim.network.SimulatedNetwork`
with the Section 9.1 timing parameters (``df``, ``dg``, gossip period ``g``),
adds a per-operation service time at replicas (so that throughput saturation
and scaling are observable, as in Cheiner's experiments), and drives the
whole thing from a discrete-event loop.

The cluster exposes two usage styles:

* an asynchronous style used by the benchmarks: ``submit`` operations (or use
  :func:`repro.sim.workload.run_workload`), ``run`` the clock, then read the
  metrics;
* a synchronous facade used by the examples and applications: ``execute``
  submits one operation and runs the simulation until its response arrives,
  returning the value — the closest analogue of calling a real service.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from operator import methodcaller
from typing import Any, Callable, Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithm.checkpoint import CORRUPTION_MARKER
from repro.algorithm.messages import GossipMessage, RequestMessage, ResponseMessage
from repro.algorithm.node import ReplicaFactory
from repro.common import ConfigurationError, OperationId, ensure_not_stale
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator, SerialDataType
from repro.deployment import Deployment
from repro.sim.events import FifoServer, Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.network import SimulatedNetwork


def _tamper_transfer(message):
    """Flip bytes in one checkpoint transfer (corruption adversary).

    The tampered copy keeps the original digest field, modelling payload
    bits flipped in flight while the digest rides along intact: the
    receiver recomputes the checkpoint's digest and rejects the mismatch.
    One retained value is replaced when the transfer carries any;
    otherwise the base-state blob is tampered.
    """
    if message.values:
        first = next(iter(message.values))
        tampered = dict(message.values)
        tampered[first] = (CORRUPTION_MARKER, tampered[first])
        return replace(message, values=tampered)
    return replace(message, base_state=(CORRUPTION_MARKER, message.base_state))


_size_estimate = methodcaller("size_estimate")

#: Safety cap on the events one ``run_until_idle`` / ``run_until_resharded``
#: processes, whatever its time budget.
IDLE_EVENT_CAP = 5_000_000


class SimulatedService:
    """The clock facade every simulated service shares — a cluster, a
    sharded cluster, a baseline.  The host provides ``simulator``,
    ``metrics``, ``_on_start()`` and ``outstanding_operations()``."""

    simulator: Simulator
    _started = False

    def start(self) -> None:
        """Start the service's timers.  Called automatically on first use."""
        if not self._started:
            self._started = True
            self._on_start()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.simulator.now

    def run(self, duration: float) -> None:
        """Advance simulated time by *duration*."""
        self.start()
        self.simulator.run_until(self.simulator.now + duration)
        self._finished()

    def run_until_idle(self, max_time: float = 10_000.0) -> None:
        """Run until every submitted operation has been answered (or the time
        budget is exhausted — e.g. when a replica stays crashed and strict
        operations cannot complete)."""
        self.start()
        self._drive(lambda: not self.outstanding_operations(), max_time, IDLE_EVENT_CAP)
        self._finished()

    def _finished(self) -> None:
        self.metrics.finished_at = self.simulator.now

    def _drive(
        self, is_done: Callable[[], bool], max_time: float, max_events: Optional[int] = None
    ) -> None:
        """Step the simulator until *is_done* holds, the queue drains, or the
        time/event budget is exhausted."""
        simulator = self.simulator
        deadline = simulator.now + max_time
        events = 0
        while not is_done() and simulator.now < deadline:
            if not simulator.step():
                break
            events += 1
            if max_events is not None and events >= max_events:
                break

    def _await(self, operation: OperationDescriptor, answers: Dict, max_time: float) -> Any:
        """Run until *answers* holds *operation*'s value, and return it."""
        self._drive(lambda: operation.id in answers, max_time)
        if operation.id not in answers:
            raise RuntimeError(
                f"operation {operation.id} received no response within {max_time} time units"
            )
        return answers[operation.id]


@dataclass
class SimulationParams:
    """Timing and policy parameters of a simulated deployment.

    ``df``, ``dg`` and ``gossip_period`` are the Section 9.1 quantities; the
    remaining fields model the implementation aspects the paper abstracts
    away but Cheiner's evaluation depends on (processing capacity, front-end
    routing).
    """

    #: Maximum front-end <-> replica message delay (the paper's ``df``).
    df: float = 1.0
    #: Maximum replica <-> replica message delay (the paper's ``dg``).
    dg: float = 1.0
    #: Time between successive gossip sends from a replica (the paper's ``g``).
    gossip_period: float = 2.0
    #: Delay jitter fraction: a delay bound ``d`` becomes a uniform draw from
    #: ``[(1 - jitter) * d, d]``; 0 means deterministic worst-case delays.
    jitter: float = 0.0
    #: Per-message loss probability (safety must be unaffected).
    loss_probability: float = 0.0
    #: Delay multiplier applied during delay-spike fault windows.
    spike_factor: float = 1.0
    #: Time a replica is busy processing one client request.
    service_time: float = 0.0
    #: Number of replicas each request is sent to (>=1; extras are redundant).
    request_fanout: int = 1
    #: Front-end routing policy: "affinity" (client pinned to one replica),
    #: "round_robin" or "random".
    frontend_policy: str = "affinity"
    #: Track the time at which each operation becomes stable everywhere
    #: (adds bookkeeping cost; needed by experiment E5).
    track_stabilization: bool = False
    #: When set, front ends re-send the request for an unanswered operation
    #: every this-many time units (the repeated ``send_cr`` the paper allows,
    #: used to mask message loss and partitions).
    retransmit_interval: Optional[float] = None
    #: The replica-level features (core variant, gossip mode, compaction,
    #: advert/pull, same-instant gossip batching) — the one
    #: :class:`~repro.config.ReplicaConfig` every harness takes.
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)

    def __post_init__(self) -> None:
        if self.df < 0 or self.dg < 0:
            raise ConfigurationError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be within [0, 1]")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError("loss probability must be within [0, 1)")
        if self.request_fanout < 1:
            raise ConfigurationError("request_fanout must be at least 1")
        if self.frontend_policy not in ("affinity", "round_robin", "random"):
            raise ConfigurationError(f"unknown frontend policy {self.frontend_policy!r}")
        if self.gossip_period <= 0:
            raise ConfigurationError("gossip_period must be positive")
        self.replica.require_single_policy("SimulationParams")


class SimulatedCluster(SimulatedService, Deployment):
    """A full ESDS deployment under simulated time."""

    def __init__(
        self,
        data_type: SerialDataType,
        num_replicas: int = 3,
        client_ids: Sequence[str] = ("c0",),
        params: Optional[SimulationParams] = None,
        replica_factory: Optional[ReplicaFactory] = None,
        seed: int = 0,
        simulator: Optional[Simulator] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.params = params or SimulationParams()
        replica_ids = [f"r{i}" for i in range(num_replicas)]
        super().__init__(data_type, replica_ids, client_ids, self.params.replica, replica_factory)
        # A shared simulator (and optionally a shared or derived RNG) lets
        # several clusters — the shards of a ShardedCluster — run on one
        # seeded event loop.
        self.rng = rng if rng is not None else random.Random(seed)
        self.simulator = simulator if simulator is not None else Simulator()
        self.network = SimulatedNetwork(self.params, self.rng, self.simulator)
        self.metrics = MetricsCollector()

        #: Where a message of each kind lands after its network delay.
        self._deliver: Dict[str, Callable[[str, Any], None]] = {
            "request": self._deliver_request,
            "response": self._deliver_response,
            "gossip": self._deliver_gossip,
            "pull": self._deliver_catchup,
            "transfer": self._deliver_catchup,
        }
        #: Submitted-but-unanswered operation identifiers (kept incrementally
        #: in sync with ``requested`` / ``responded``).
        self._unanswered: Set[OperationId] = set()
        self._servers = {rid: FifoServer(self.simulator) for rid in self.replica_ids}
        self._round_robin_index = 0
        #: Set by :meth:`stop` when this cluster is retired (a drained shard
        #: after a live reshard): timers stop rescheduling themselves.
        self._stopped = False
        self._unstable: Set[OperationId] = set()
        #: Batched-gossip fast path: per-replica buffer of same-instant
        #: arrivals and the instant a flush is already scheduled for.
        self._gossip_inbox: Dict[str, List[GossipMessage]] = {
            rid: [] for rid in self.replica_ids
        }
        self._gossip_flush_at: Dict[str, float] = {}
        #: Observed gossip timestamp lag (receiver local clock minus the
        #: sender's ``sent_at`` stamp) — ``(min, max)`` over all deliveries.
        #: Under the clock-skew adversary this widens to roughly the skew
        #: spread; it is never read by the algorithm (observability only).
        self.gossip_lag_bounds: Optional[Tuple[float, float]] = None

    # ===================================================================== #
    # Lifecycle                                                             #
    # ===================================================================== #

    def _on_start(self) -> None:
        """Start the gossip (and compaction) timers."""
        # The first gossip tick of each replica is staggered across one
        # period so the replicas never gossip in lock-step bursts.
        for index, rid in enumerate(self.replica_ids):
            offset = (index / len(self.replica_ids)) * self.params.gossip_period
            self._every(self.params.gossip_period, rid, self._gossip_round, first=offset)
        if self.params.replica.compaction_interval is not None:
            for rid in self.replica_ids:
                self._every(
                    self.params.replica.compaction_interval,
                    rid,
                    lambda rid: self.replicas[rid].maybe_compact(force=True),
                )
        self.metrics.started_at = self.simulator.now

    def _every(
        self, period: float, replica: str, action: Callable[[str], Any], first: float = 0.0
    ) -> None:
        """Run ``action(replica)`` every *period* (skipping rounds while the
        replica is crashed) until the cluster is stopped."""
        def tick() -> None:
            if self._stopped:
                return
            if not self.nodes[replica].crashed:
                action(replica)
            self.simulator.schedule(period, tick)

        self.simulator.schedule(first + period, tick)

    def _record_compaction(self, replica: str, batch, checkpoint) -> None:
        """Ledger bookkeeping plus a state sample right after the fold (the
        memory low-water mark)."""
        super()._record_compaction(replica, batch, checkpoint)
        self.metrics.record_tracked_ops(replica, self.replicas[replica].tracked_op_count())

    def stop(self) -> None:
        """Permanently silence this cluster's timers (gossip, forced
        compaction, injection retries).  Used when a drained shard retires
        after a live reshard: its history stays readable — ``responded``,
        ``eventual_order`` and the trace remain valid — but it generates no
        further events.  Only safe once the cluster is idle and converged;
        the reshard coordinator checks both before calling."""
        self._stopped = True

    @property
    def compacted_prefix(self) -> List[OperationDescriptor]:
        """The cluster-wide compacted stable prefix, in the agreed order."""
        return self.compaction_ledger.prefix

    def outstanding_operations(self) -> int:
        """Number of submitted operations that have not been answered yet.

        Tracked incrementally — ``run_until_idle`` consults this after every
        event, so recomputing the set difference there would cost
        O(events x operations).
        """
        return len(self._unanswered)

    # ===================================================================== #
    # Client interface                                                      #
    # ===================================================================== #

    def submit(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        at: Optional[float] = None,
    ) -> OperationDescriptor:
        """Submit an operation at simulation time *at* (default: now)."""
        operation = self.make_operation(client, operator, prev, strict)
        return self._schedule_operation(operation, at)

    def submit_operation(
        self,
        operation: OperationDescriptor,
        at: Optional[float] = None,
        allow_unknown_prev: Collection[OperationId] = (),
    ) -> OperationDescriptor:
        """Submit a pre-built descriptor (used by the sharded service layer,
        which mints identifiers itself so they stay unique across shards).

        Validation lives here — :meth:`submit` goes through
        :meth:`make_operation` instead, which performs the same checks while
        constructing the descriptor.

        ``allow_unknown_prev`` admits ``prev`` identifiers not (yet) in
        ``requested``: during a reshard handoff window, post-flip operations
        on moving keys carry barrier constraints naming migrated operations
        whose chain injection is still in flight.  Replicas hold such an
        operation pending until the chain arrives — that wait is the handoff
        stall the E12 benchmark measures."""
        client = operation.id.client
        if client not in self.frontends:
            raise ConfigurationError(f"unknown client {client!r}")
        self.data_type.check_operator(operation.op)
        if operation.id in self.requested:
            raise ConfigurationError(f"operation identifier {operation.id} reused")
        self.require_known(operation.prev, allow_unknown_prev)
        return self._schedule_operation(operation, at)

    def inject_operation(self, operation: OperationDescriptor) -> OperationDescriptor:
        """Deliver a migrated operation into this cluster as an ordinary
        request, immediately and to *every* live replica.

        The reshard coordinator injects verified slice chains through here.
        Unlike :meth:`submit_operation`, injection broadcasts (migration
        progress must not hinge on one affinity replica's health) and runs
        its own retry loop regardless of ``retransmit_interval`` — the chain
        must land even in deployments that disable client retransmits.
        Chains are injected in order, so the strict prev check holds link by
        link (a chain injected out of order fails it)."""
        self.ensure_client(operation.id.client)
        if operation.id in self.requested:
            raise ConfigurationError(f"operation identifier {operation.id} reused")
        self.require_known(operation.prev)
        self.start()
        self.requested[operation.id] = operation
        self._unanswered.add(operation.id)
        self._unstable.add(operation.id)
        self.frontends[operation.id.client].request(operation)
        self.metrics.record_request(operation, self.simulator.now)
        self.trace.record_request(operation)
        self._broadcast_injected(operation)
        return operation

    def _broadcast_injected(self, operation: OperationDescriptor) -> None:
        """Send an injected operation to all live replicas; reschedules
        itself until the operation is answered (or the cluster retires)."""
        if (
            self._stopped
            or operation.id in self.responded
            or operation.id in self.failed
        ):
            return
        self._relay_request(self.live_replica_ids(), operation)
        retry = max(2 * self.params.gossip_period, 4 * self.params.df)
        self.simulator.schedule(retry, lambda: self._broadcast_injected(operation))

    def _schedule_operation(
        self, operation: OperationDescriptor, at: Optional[float]
    ) -> OperationDescriptor:
        self.start()
        # Validate the submission time BEFORE touching any bookkeeping: a
        # rejected submit must not leave a phantom operation behind in
        # requested/_unanswered (it would count as outstanding forever).
        when = self.simulator.now if at is None else at
        if when < self.simulator.now:
            raise ConfigurationError(
                f"cannot submit {operation.id} in the past "
                f"(at={when}, now={self.simulator.now})"
            )
        self.requested[operation.id] = operation
        self._unanswered.add(operation.id)
        self._unstable.add(operation.id)
        self.simulator.schedule_at(when, lambda op=operation: self._on_request(op))
        return operation

    def execute(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        max_time: float = 10_000.0,
    ) -> Tuple[OperationDescriptor, Any]:
        """Synchronous facade: submit, run until answered, return the value."""
        operation = self.submit(client, operator, prev, strict)
        return operation, self._await(operation, self.responded, max_time)

    def value_of(self, operation: OperationDescriptor) -> Any:
        """The value returned to the client for *operation* (KeyError if
        unanswered, :class:`~repro.common.StaleValueError` if every replica
        NACKed the retransmit because its value aged out)."""
        ensure_not_stale(self.failed, operation.id)
        return self.responded[operation.id]

    # ===================================================================== #
    # Internal event handlers                                               #
    # ===================================================================== #

    def _choose_replicas(self, client: str) -> List[str]:
        pool = self.live_replica_ids() or list(self.replica_ids)
        policy = self.params.frontend_policy
        if policy == "affinity":
            primary = self.affinity_replica(client)
            ordered = [primary] + [rid for rid in pool if rid != primary]
        elif policy == "round_robin":
            start = self._round_robin_index % len(pool)
            self._round_robin_index += 1
            ordered = pool[start:] + pool[:start]
        else:  # random
            ordered = list(pool)
            self.rng.shuffle(ordered)
        return ordered[: self.params.request_fanout]

    def _relay_request(self, replicas: Iterable[str], operation: OperationDescriptor) -> None:
        """``send_cr`` (Fig. 6): the front end relays a pending request."""
        client = operation.id.client
        frontend = self.frontends[client]
        for rid in replicas:
            self._send("request", client, rid, frontend.make_request_message(operation))

    def _on_request(self, operation: OperationDescriptor) -> None:
        client = operation.id.client
        self.frontends[client].request(operation)
        self.metrics.record_request(operation, self.simulator.now)
        self.trace.record_request(operation)
        self._relay_request(self._choose_replicas(client), operation)
        if self.params.retransmit_interval is not None:
            self.simulator.schedule(
                self.params.retransmit_interval, lambda: self._retransmit(operation)
            )

    def _retransmit(self, operation: OperationDescriptor) -> None:
        """Re-send the request for a still-unanswered operation (Fig. 6 allows
        the front end to send a pending request repeatedly).

        A stale-value NACK doubles as a redirect signal: once some replica
        has NACKed, retransmits go to the replicas that have *not* NACKed
        yet — under sticky routing (the default ``affinity`` policy) the
        primary would otherwise be retried forever and the all-replicas
        failure verdict could never accumulate.  A failed operation (NACK
        from every replica) stops retransmitting: no replica can ever
        answer it anew."""
        if operation.id in self.responded or operation.id in self.failed:
            return
        client = operation.id.client
        targets = self._choose_replicas(client)
        nacked = self.frontends[client].nacked.get(operation.id, ())
        if nacked:
            remaining = [rid for rid in self.live_replica_ids() if rid not in nacked]
            targets = remaining or targets
        self._relay_request(targets, operation)
        self.simulator.schedule(
            self.params.retransmit_interval, lambda: self._retransmit(operation)
        )

    # -- the one path from sender to receiver ------------------------------------

    def _transit(self, kind: str, message):
        """Hook applied to every message between send and delivery.

        The base simulator passes objects through untouched;
        :class:`repro.net.wire.WireCluster` overrides this to push each
        message through the binary codec (encode -> frame bytes -> decode),
        measuring real bytes on the wire without perturbing the schedule.
        """
        return message

    def _send(self, kind: str, source: str, destination: str, message=None) -> None:
        """Put one message on the simulated network.  Gossip passes no
        *message*: it is built only if the send survives the loss decision,
        so a dropped send consumes no delta seqno.  A corrupted transfer is
        tampered before transit, so the codec must carry the corruption."""
        self.network.send(
            kind,
            source,
            destination,
            self._deliver[kind],
            message,
            build=self._make_gossip if kind == "gossip" else None,
            size=_size_estimate,
            tamper=_tamper_transfer,
            transit=self._transit,
        )

    def _make_gossip(self, source: str, destination: str) -> GossipMessage:
        message = self.replicas[source].make_gossip(destination)
        # Stamped with the sender's *local* clock: under the clock-skew
        # adversary this diverges from simulated time — observability only,
        # the algorithm never reads it.
        message.sent_at = self.network.local_clock(source, self.simulator.now)
        return message

    # -- replica side: service time, then the node ---------------------------------

    def _step(self, replica: str, messages: Sequence[Any]) -> None:
        """Hand *messages* to the replica's node and send what it answers."""
        node = self.nodes[replica]
        if node.crashed:
            return
        for kind, destination, message in node.handle(messages):
            self._send(kind, replica, destination, message)
        # Stability only moves when knowledge is merged.
        if self.params.track_stabilization and messages[0].kind in ("gossip", "transfer"):
            self._update_stabilization()

    def _deliver_request(self, replica: str, message: RequestMessage) -> None:
        """Requests queue for the replica's FIFO service time."""
        if not self.nodes[replica].crashed:
            self._servers[replica].serve(self.params.service_time, self._step, replica, [message])

    def _deliver_catchup(self, replica: str, message) -> None:
        """Pull requests and checkpoint transfers: no service time modelled."""
        self._step(replica, [message])

    def _deliver_response(self, client: str, message: ResponseMessage) -> None:
        if not self.accept_response(client, message):
            return
        # Settled either way — a failure verdict too, or run_until_idle
        # would wait for an answer that can never come.
        op_id = message.operation.id
        self._unanswered.discard(op_id)
        if not message.stale:
            self.metrics.record_response(
                message.operation, self.responded[op_id], self.simulator.now
            )

    # -- gossip ------------------------------------------------------------------

    def _gossip_round(self, replica: str) -> None:
        for destination in self.replica_ids:
            if destination != replica:
                self._send("gossip", replica, destination)
        self.metrics.record_tracked_ops(replica, self.replicas[replica].tracked_op_count())

    def _deliver_gossip(self, destination: str, message: GossipMessage) -> None:
        if self.nodes[destination].crashed:
            return
        if message.sent_at is not None:
            lag = self.network.local_clock(destination, self.simulator.now) - message.sent_at
            if self.gossip_lag_bounds is None:
                self.gossip_lag_bounds = (lag, lag)
            else:
                lo, hi = self.gossip_lag_bounds
                self.gossip_lag_bounds = (min(lo, lag), max(hi, lag))
        if self.params.replica.batch_gossip:
            # Fast path: coalesce every arrival at this instant and process
            # the batch once.  Same-instant events run FIFO, so the flush
            # scheduled at zero delay runs after the remaining deliveries of
            # this instant have been buffered.
            self._gossip_inbox[destination].append(message)
            if self._gossip_flush_at.get(destination) != self.simulator.now:
                self._gossip_flush_at[destination] = self.simulator.now
                self.simulator.schedule(0.0, lambda: self._flush_gossip(destination))
            return
        self._step(destination, [message])

    def _flush_gossip(self, destination: str) -> None:
        """Hand every gossip message buffered for *destination* to its node
        as one batch, so the post-merge sweep runs once for all of them."""
        self._gossip_flush_at.pop(destination, None)
        batch = self._gossip_inbox[destination]
        self._gossip_inbox[destination] = []
        if batch and not self.nodes[destination].crashed:
            self._step(destination, batch)

    def _update_stabilization(self) -> None:
        if not self._unstable:
            return
        newly_stable: List[OperationId] = []
        for op_id in self._unstable:
            operation = self.requested[op_id]
            if all(rep.knows_stable(operation) for rep in self.replicas.values()):
                newly_stable.append(op_id)
        for op_id in newly_stable:
            self._unstable.discard(op_id)
            self.metrics.record_stabilization(op_id, self.simulator.now)

    # ===================================================================== #
    # Fault injection hooks (used by repro.sim.faults)                      #
    # ===================================================================== #

    def crash_replica(self, replica: str, volatile_memory: bool = True) -> None:
        """Crash a replica; its state is lost when memory is volatile except
        for the locally generated labels kept in stable storage."""
        self.nodes[replica].crashed = True
        self.replicas[replica].crash(volatile_memory=volatile_memory)

    def recover_replica(self, replica: str) -> None:
        """Restart a crashed replica: reload stable storage and ask every
        other replica for fresh gossip (the Section 9.3 recovery protocol)."""
        self.nodes[replica].crashed = False
        self.replicas[replica].recover_from_stable_storage()
        for other in self.live_replica_ids():
            if other != replica:
                self._send("gossip", other, replica)
                self._send("gossip", replica, other)

    # ===================================================================== #
    # Derived views                                                         #
    # ===================================================================== #

    def total_value_applications(self) -> int:
        """Total operator applications performed by replicas when computing
        response values (the recomputation cost the Section 10 optimizations
        reduce)."""
        return sum(rep.stats.value_applications for rep in self.replicas.values())

    def total_applications(self) -> int:
        """All operator applications (value computation plus memoization)."""
        return sum(rep.stats.total_applications() for rep in self.replicas.values())
