"""The sans-IO replica node: one replica core plus its dispatch policy.

The paper's replica (Fig. 7) has one transition per input; a deployment
delivers inputs in bursts (a coalesced frame, a same-instant gossip batch)
and owes a fixed sequence of outputs after each.  ``ReplicaNode.handle``
is that sequence, written once: apply the burst to the core, return the
*outbox* — the ordered ``(kind, destination, message)`` triples to send.  No
clock, sockets, randomness or event loop, so the seeded simulator and the
asyncio runtime drive the same code and differ only in how they schedule
the outbox.

Policy about *time* and *links* stays with the drivers: service-time
queuing, what a crash does to connections, and when gossip is built
(``make_gossip`` burns a delta seqno, so loss and full-queue decisions must
precede it).  Core methods are looked up at call time: the budget
benchmark's tracer ``setattr``s wrappers onto core instances after the
deployment is built.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithm.batchcore import core_factory
from repro.algorithm.messages import ResponseMessage
from repro.algorithm.replica import ReplicaCore
from repro.datatypes.base import SerialDataType

#: Factory signature for building replica cores (lets tests and benchmarks
#: plug in the memoized / commute variants).
ReplicaFactory = Callable[[str, Sequence[str], SerialDataType], ReplicaCore]

#: An outbox entry: kind, destination (replica or, for a response, client), message.
Outgoing = Tuple[str, str, Any]


def build_replicas(
    config,
    replica_ids: Sequence[str],
    data_type: SerialDataType,
    replica_factory: Optional[ReplicaFactory] = None,
) -> Dict[str, ReplicaCore]:
    """One configured core per replica identifier: the variant *config*
    selects (or *replica_factory*'s), with the feature switches applied.
    The caller attaches ``on_compact``."""
    factory = replica_factory or core_factory(config)
    replicas = {rid: factory(rid, replica_ids, data_type) for rid in replica_ids}
    for core in replicas.values():
        config.configure_core(core)
    return replicas


class ReplicaNode:
    """A replica core behind the inbox-in / outbox-out seam."""

    __slots__ = ("id", "core", "crashed")

    def __init__(self, replica_id: str, core: ReplicaCore) -> None:
        self.id = replica_id
        self.core = core
        #: A crashed node ignores its inbox (the driver flips this).
        self.crashed = False

    def handle(self, messages: Sequence[Any]) -> List[Outgoing]:
        """Apply one burst of inbound messages; return what to send.

        Runs of consecutive gossip messages merge through one
        ``receive_gossip_batch`` call (the production core defers its order
        splices across the run), each followed by the pulls it provoked.  A
        pull request only yields its transfer chunks.  Once per burst —
        unless only pulls arrived — comes the sweep: stale-value NACKs (if a
        request arrived), the ``do_it`` sweep (a request, merged knowledge or
        an adopted checkpoint can all unblock ``prev`` chains), then every
        response now ready.
        """
        if self.crashed:
            return []
        core = self.core
        outbox: List[Outgoing] = []
        sweep = requested = False
        i, n = 0, len(messages)
        while i < n:
            message = messages[i]
            kind = message.kind
            i += 1
            if kind == "gossip":
                start = i - 1
                while i < n and messages[i].kind == "gossip":
                    i += 1
                core.receive_gossip_batch(messages[start:i])
                for pull in core.take_pending_pulls():
                    outbox.append(("pull", pull.target, pull))
            elif kind == "request":
                core.receive_request(message)
                requested = True
            elif kind == "transfer":
                core.receive_transfer(message)
            elif kind == "pull":
                for transfer in core.receive_pull_request(message):
                    outbox.append(("transfer", transfer.requester, transfer))
                continue  # transfers only: nothing for the sweep to find
            else:
                continue  # e.g. a response frame sent to a replica: ignored
            sweep = True
        if not sweep:
            return outbox
        if requested:  # only a retransmitted request can queue a NACK
            for operation in core.take_stale_nacks():
                nack = ResponseMessage(operation=operation, value=None, stale=True, sender=self.id)
                outbox.append(("response", operation.id.client, nack))
        core.do_all_ready()
        for operation in core.ready_responses():
            outbox.append(("response", operation.id.client, core.make_response(operation)))
        return outbox
