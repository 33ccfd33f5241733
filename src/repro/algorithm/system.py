"""The complete system ``ESDS-Alg x Users`` (Section 6.4).

``AlgorithmSystem`` composes the well-formed clients, one front end per
client, one replica per replica identifier, and a reliable non-FIFO channel
for every (front end, replica) and (replica, replica) pair.  Every action of
the composition is exposed as a method named after the paper's action
(``request``, ``send_request``, ``receive_request``, ``do_it``,
``send_response``, ``receive_response``, ``response``, ``send_gossip``,
``receive_gossip``), plus a random scheduler that picks among currently
enabled actions — this is the execution harness used by the invariant and
simulation-relation tests.

It is a :class:`~repro.deployment.Deployment` like the two timed drivers:
the replica group, front ends, client book and the derived state variables
of Fig. 8 (``ops``, ``minlabel``, ``lc_r`` / ``mc_r(m)``, ``sc``, ``po``,
``potential_rept``) come from the base; this class adds the explicit
channels those variables read in-transit messages from, and the ``Users``
automaton that checks each request's well-formedness.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithm.channel import Channel
from repro.algorithm.delta import PayloadCopy
from repro.algorithm.labels import Label
from repro.algorithm.messages import GossipMessage, RequestMessage, ResponseMessage
from repro.algorithm.node import ReplicaFactory
from repro.common import ConfigurationError, InvariantViolation, SpecificationError
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import SerialDataType
from repro.deployment import Deployment
from repro.spec.users import Users


class AlgorithmSystem(Deployment):
    """The flattened composition of Users, front ends, channels and replicas.

    Parameters
    ----------
    data_type:
        The serial data type managed by the service.
    replica_ids:
        Identifiers of the replicas (at least two).
    client_ids:
        Identifiers of the clients (one front end each).
    replica_factory:
        Optional factory to construct replica cores; defaults to
        :class:`~repro.algorithm.replica.ReplicaCore`.
    users:
        Optional pre-built :class:`~repro.spec.users.Users` automaton (e.g. a
        ``SafeUsers`` when using the ``Commute`` replicas).
    config:
        The replica features (:class:`~repro.config.ReplicaConfig`; its
        simulator-only fields are ignored here).  Every switch leaves
        executions response-identical under the same scheduler.  With
        compaction the agreed compacted prefix is kept in a
        :class:`CompactionLedger`, so witnesses and invariant checks still
        see the full history; with advert gossip, pulls and transfers travel
        on the gossip channels and :meth:`receive_gossip` dispatches them.
    """

    def __init__(
        self,
        data_type: SerialDataType,
        replica_ids: Sequence[str],
        client_ids: Sequence[str],
        replica_factory: Optional[ReplicaFactory] = None,
        users: Optional[Users] = None,
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        if not client_ids:
            raise ConfigurationError("at least one client is required")
        self.config = config if config is not None else ReplicaConfig()
        self.config.require_single_policy("AlgorithmSystem")
        self.users = users if users is not None else Users()
        # Built before the base admits the clients through ensure_client, and
        # in this order: enabled_actions lists actions by channel, and a
        # seeded run replays that list.
        self.request_channels: Dict[Tuple[str, str], Channel[RequestMessage]] = {
            (c, r): Channel(c, r) for c in client_ids for r in replica_ids
        }
        self.response_channels: Dict[Tuple[str, str], Channel[ResponseMessage]] = {
            (r, c): Channel(r, c) for r in replica_ids for c in client_ids
        }
        self.gossip_channels: Dict[Tuple[str, str], Channel[GossipMessage]] = {
            (a, b): Channel(a, b) for a in replica_ids for b in replica_ids if a != b
        }
        #: Per gossip channel, the harness's own copy of the sender's payload
        #: at each send of its current delta stream ``(epoch, stream)``, by
        #: seqno: what a delta's basis mark resolves to.
        self._sent_payloads: Dict[Tuple[str, str], Tuple[Tuple[int, int], Dict[int, PayloadCopy]]] = {}
        super().__init__(data_type, replica_ids, client_ids, self.config, replica_factory)

    # ====================================================================== #
    # External and internal actions                                          #
    # ====================================================================== #

    def request(self, operation: OperationDescriptor) -> None:
        """``request(x)`` — client issues an operation (checked for
        well-formedness by the Users automaton)."""
        self.users.assert_well_formed(operation)
        self.users.requested.add(operation)
        self.requested[operation.id] = operation
        self.frontends[operation.id.client].request(operation)
        self.trace.record_request(operation)

    def ensure_client(self, client_id: str) -> None:
        """Admit a client identity after construction (resharding: migrated
        operations keep the composite ``client@shard`` identity their source
        shard minted them under, so the destination system hosts a front end
        for that foreign identity too).  Idempotent."""
        super().ensure_client(client_id)
        for replica in self.replica_ids:
            self.request_channels.setdefault((client_id, replica), Channel(client_id, replica))
            self.response_channels.setdefault((replica, client_id), Channel(replica, client_id))

    def send_request(self, client: str, replica: str, operation: OperationDescriptor) -> None:
        """``send_cr(("request", x))`` — front end relays a pending request."""
        message = self.frontends[client].make_request_message(operation)
        self.request_channels[(client, replica)].send(message)

    def receive_request(
        self, client: str, replica: str, message: Optional[RequestMessage] = None,
        rng: Optional[random.Random] = None,
    ) -> RequestMessage:
        """``receive_cr(("request", x))`` — deliver one request message.

        A retransmit the replica can provably never answer (compacted, value
        evicted) triggers an immediate stale-response NACK onto the response
        channel instead of a silent drop."""
        delivered = self.request_channels[(client, replica)].receive(message, rng)
        core = self.replicas[replica]
        core.receive_request(delivered)
        for operation in core.take_stale_nacks():
            self.response_channels[(replica, operation.id.client)].send(
                ResponseMessage(operation=operation, value=None, stale=True, sender=replica)
            )
        return delivered

    def do_it(self, replica: str, operation: OperationDescriptor, label: Optional[Label] = None) -> Label:
        """``do_it_r(x, l)``."""
        return self.replicas[replica].do_it(operation, label)

    def send_response(self, replica: str, operation: OperationDescriptor) -> ResponseMessage:
        """``send_rc(("response", x, v))``."""
        message = self.replicas[replica].make_response(operation)
        client = operation.id.client
        self.response_channels[(replica, client)].send(message)
        return message

    def receive_response(
        self, replica: str, client: str, message: Optional[ResponseMessage] = None,
        rng: Optional[random.Random] = None,
    ) -> ResponseMessage:
        """``receive_rc(("response", x, v))`` — a stale-value NACK from the
        last replica moves the operation to ``failed``; a late genuine value
        resurrects it."""
        delivered = self.response_channels[(replica, client)].receive(message, rng)
        frontend = self.frontends[client]
        frontend.receive_response(delivered)
        op_id = delivered.operation.id
        if op_id in frontend.failed:
            self.failed[op_id] = frontend.failed[op_id]
        else:
            self.failed.pop(op_id, None)
        return delivered

    def response(self, operation: OperationDescriptor) -> Any:
        """``response(x, v)`` — front end answers the client."""
        client = operation.id.client
        value = self.frontends[client].respond(operation)
        self.responded[operation.id] = value
        self.trace.record_response(operation, value)
        return value

    def send_gossip(self, source: str, destination: str) -> GossipMessage:
        """``send_rr'(("gossip", ...))`` — a full-state message by default, or
        a destination-specific delta when the source replica has delta gossip
        enabled.  A delta leaves here with its basis materialised: see
        :meth:`_materialise_basis`."""
        if source == destination:
            raise SpecificationError("a replica does not gossip with itself")
        message = self.replicas[source].make_gossip(destination)
        if message.seqno is not None:
            self._materialise_basis(source, destination, message)
        self.gossip_channels[(source, destination)].send(message)
        return message

    def _materialise_basis(self, source: str, destination: str, message: GossipMessage) -> None:
        """Swap this harness's copy of the sender's payload at the acked send
        in for the mark the core attached to a delta, after checking the
        delta against it: ``R``, ``D`` and ``S`` must be the live payload
        minus the copy, ``L`` the live entries whose label differs from it.
        The copy is taken here, at every send, from the authoritative sets —
        never from the journals the core cut the delta from — so the check
        (and the Section 7 invariants that read the effective views) stays
        independent of them.  Copies below a delta's basis are dropped: the
        core has dropped their marks, so no later delta can rest on them."""
        live = PayloadCopy.of(self.replicas[source])
        stream = (message.epoch, message.stream)
        book = self._sent_payloads.get((source, destination))
        if book is None or book[0] != stream:
            book = self._sent_payloads[(source, destination)] = (stream, {})
        copies = book[1]
        if message.is_delta:
            mark = message.basis
            basis = copies[mark.seqno]
            labels = {
                op_id: label for op_id, label in live.labels.items()
                if basis.labels.get(op_id) != label
            }
            if (
                message.received != live.received - basis.received
                or message.done != live.done - basis.done
                or message.stable != live.stable - basis.stable
                or message.labels != labels
            ):
                raise InvariantViolation(
                    f"delta gossip {source}->{destination} seqno {message.seqno}: the "
                    f"payload is not the live state minus the state at seqno {mark.seqno}"
                )
            message.basis = basis
            for seqno in [seqno for seqno in copies if seqno < mark.seqno]:
                del copies[seqno]
        copies[message.seqno] = live

    def receive_gossip(
        self, source: str, destination: str, message: Optional[GossipMessage] = None,
        rng: Optional[random.Random] = None,
    ) -> GossipMessage:
        """``receive_r'r(("gossip", ...))`` — also dispatches the advert/pull
        protocol's pull-request and checkpoint-transfer messages, which share
        the gossip channels.  Receiving a gossip message whose advert shows
        this replica behind enqueues a pull; receiving a pull enqueues the
        transfer back toward the requester."""
        delivered = self.gossip_channels[(source, destination)].receive(message, rng)
        replica = self.replicas[destination]
        if delivered.kind == "pull":
            transfer = replica.receive_pull_request(delivered)
            if transfer is not None:
                self.gossip_channels[(destination, transfer.requester)].send(transfer)
        elif delivered.kind == "transfer":
            replica.receive_transfer(delivered)
        else:
            replica.receive_gossip(delivered)
            for pull in replica.take_pending_pulls():
                self.gossip_channels[(destination, pull.target)].send(pull)
        return delivered

    # ====================================================================== #
    # Scheduling                                                             #
    # ====================================================================== #

    def enabled_actions(self) -> List[Tuple[str, Tuple]]:
        """Every currently enabled non-input action, as ``(kind, args)``
        descriptors usable with :meth:`perform`."""
        actions: List[Tuple[str, Tuple]] = []
        for client, frontend in self.frontends.items():
            for operation in sorted(frontend.wait, key=lambda op: repr(op.id)):
                for replica in self.replica_ids:
                    actions.append(("send_request", (client, replica, operation)))
            for operation, _value in frontend.response_candidates():
                actions.append(("response", (operation,)))
        for (client, replica), channel in self.request_channels.items():
            for message in channel.contents():
                actions.append(("receive_request", (client, replica, message)))
        for (replica, client), channel in self.response_channels.items():
            for message in channel.contents():
                actions.append(("receive_response", (replica, client, message)))
        for (src, dst), channel in self.gossip_channels.items():
            actions.append(("send_gossip", (src, dst)))
            for message in channel.contents():
                actions.append(("receive_gossip", (src, dst, message)))
        for replica_id, replica in self.replicas.items():
            for operation in replica.doable_operations():
                actions.append(("do_it", (replica_id, operation)))
            for operation in replica.ready_responses():
                actions.append(("send_response", (replica_id, operation)))
        return actions

    def perform(self, kind: str, args: Tuple) -> Any:
        """Execute one action descriptor produced by :meth:`enabled_actions`."""
        handler = getattr(self, kind)
        return handler(*args)

    def random_step(self, rng: random.Random, gossip_bias: float = 0.2) -> Optional[Tuple[str, Tuple]]:
        """Perform one randomly chosen enabled action.

        ``send_gossip`` is always enabled, which would swamp the choice; it is
        therefore selected with probability *gossip_bias* and otherwise
        excluded when other work is available.
        """
        actions = self.enabled_actions()
        if not actions:
            return None
        non_gossip = [a for a in actions if a[0] != "send_gossip"]
        if non_gossip and rng.random() > gossip_bias:
            choice = rng.choice(non_gossip)
        else:
            choice = rng.choice(actions)
        self.perform(*choice)
        return choice

    def run_random(self, rng: random.Random, steps: int,
                   step_hook: Optional[Callable[["AlgorithmSystem", Tuple[str, Tuple]], None]] = None) -> int:
        """Run up to *steps* random steps, invoking *step_hook* after each.

        Returns the number of steps actually performed.
        """
        performed = 0
        for _ in range(steps):
            choice = self.random_step(rng)
            if choice is None:
                break
            performed += 1
            if step_hook is not None:
                step_hook(self, choice)
        return performed

    def drain(self, rng: random.Random, max_steps: int = 100000, gossip_rounds: int = 3) -> None:
        """Deliver all traffic and run a few full gossip rounds so that every
        operation becomes stable everywhere (used by tests to reach the
        eventual total order)."""
        for _ in range(gossip_rounds):
            # Relay requests still parked at a front end: ``send_request`` is a
            # separate action from ``request`` and may not have fired yet for
            # recently submitted operations.  Replicas treat retransmits
            # idempotently, so blanket re-sends are safe.
            for client, frontend in self.frontends.items():
                for operation in sorted(frontend.wait, key=lambda op: repr(op.id)):
                    for replica in self.replica_ids:
                        self.send_request(client, replica, operation)
            self._deliver_everything(rng)
            for src in self.replica_ids:
                for dst in self.replica_ids:
                    if src != dst:
                        self.send_gossip(src, dst)
            self._deliver_everything(rng)

    def _deliver_everything(self, rng: random.Random) -> None:
        progressing = True
        steps = 0
        while progressing and steps < 100000:
            progressing = False
            steps += 1
            for action in self.enabled_actions():
                kind = action[0]
                if kind in ("receive_request", "receive_response", "receive_gossip",
                            "do_it", "send_response", "response"):
                    self.perform(*action)
                    progressing = True
                    break

    # ====================================================================== #
    # Snapshots                                                              #
    # ====================================================================== #

    def snapshot(self) -> Dict[str, Any]:
        """A structural snapshot used by the simulation-relation harness."""
        return {
            "requested": set(self.requested.values()),
            "frontends": {c: fe.snapshot() for c, fe in self.frontends.items()},
            "replicas": {r: rep.snapshot() for r, rep in self.replicas.items()},
            "request_channels": {
                key: channel.contents() for key, channel in self.request_channels.items()
            },
            "response_channels": {
                key: channel.contents() for key, channel in self.response_channels.items()
            },
            "gossip_channels": {
                key: channel.contents() for key, channel in self.gossip_channels.items()
            },
        }
