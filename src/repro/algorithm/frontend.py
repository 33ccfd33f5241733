"""The per-client front end (Section 6.2, Fig. 6).

Each client accesses the service through a front end that relays requests to
replicas and relays responses back.  The front end may send the request for a
pending operation repeatedly, to the same or different replicas (used for
fault tolerance and performance); it records at most the responses for
operations still pending, and answers the client with one of them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.algorithm.messages import RequestMessage, ResponseMessage
from repro.common import SpecificationError
from repro.core.operations import OperationDescriptor


class FrontEndCore:
    """State machine of the front end for one client.

    The replica-selection policy lives outside (in the driver or simulator);
    the front end itself only tracks ``wait`` and ``rept`` exactly as in
    Fig. 6.
    """

    def __init__(self, client_id: str, replica_ids: Sequence[str] = ()) -> None:
        self.client_id = client_id
        #: The replica set, when known: needed to decide that a *stale*
        #: response (value-retention NACK) has been received from every
        #: replica, i.e. the operation can provably never be answered.
        self.replica_ids: Tuple[str, ...] = tuple(replica_ids)
        #: Operations requested by the client but not yet responded to.
        self.wait: Set[OperationDescriptor] = set()
        #: ``(operation, value)`` pairs received from replicas and still
        #: eligible to be returned.
        self.rept: Set[Tuple[OperationDescriptor, Any]] = set()
        #: Replicas that NACKed each pending operation (stale responses).
        self.nacked: Dict[Any, Set[str]] = {}
        #: Operations declared failed (NACKed by every replica), with the
        #: failure reason; they have left ``wait`` and will never be
        #: answered — the client must mint a fresh operation instead.
        self.failed: Dict[Any, str] = {}
        #: Count of request messages sent (for the message-overhead metrics).
        self.requests_sent = 0

    # -- client-side actions ---------------------------------------------------

    def request(self, operation: OperationDescriptor) -> None:
        """``request(x)``: the client hands the operation to its front end."""
        if operation.id.client != self.client_id:
            raise SpecificationError(
                f"operation {operation.id} does not belong to client {self.client_id}"
            )
        self.wait.add(operation)

    def response_candidates(self) -> List[Tuple[OperationDescriptor, Any]]:
        """Pairs eligible for a ``response(x, v)`` action."""
        return [(x, v) for (x, v) in self.rept if x in self.wait]

    def respond(self, operation: OperationDescriptor) -> Any:
        """``response(x, v)``: deliver a recorded value to the client.

        Removes the operation from ``wait`` and every recorded value for it
        from ``rept``, returning the value delivered.
        """
        matching = [v for (x, v) in self.rept if x == operation]
        if operation not in self.wait or not matching:
            raise SpecificationError(
                f"no deliverable response for {operation.id} at front end {self.client_id}"
            )
        value = matching[0]
        self.wait.discard(operation)
        self.rept = {(x, v) for (x, v) in self.rept if x != operation}
        self.nacked.pop(operation.id, None)
        return value

    # -- replica-side actions --------------------------------------------------

    def make_request_message(self, operation: OperationDescriptor) -> RequestMessage:
        """Build a request message for a specific pending operation."""
        if operation not in self.wait:
            raise SpecificationError(
                f"operation {operation.id} is not pending at front end {self.client_id}"
            )
        self.requests_sent += 1
        return RequestMessage(operation)

    def receive_response(self, message: ResponseMessage) -> bool:
        """``receive(("response", x, v))``: record the value if still pending.

        Returns ``True`` when the response was recorded (operation still in
        ``wait``), ``False`` when it was ignored (no longer pending, or a
        stale-response NACK).

        A NACK (``message.stale``) is never recorded as a value.  It is
        tallied per replica; once every replica has NACKed an operation that
        has no deliverable value, the operation is moved from ``wait`` to
        ``failed`` — eviction of a compacted value is permanent, so no
        replica can ever compute the value *anew*.  Over the non-FIFO
        channels an already-sent response can still be in flight, though, so
        the declaration is a best-current-verdict, not a proof: a genuine
        value arriving for a failed operation resurrects it (back into
        ``wait`` with the value recorded) — the late answer wins.
        """
        operation = message.operation
        if message.stale:
            if operation in self.wait and message.sender is not None:
                nacks = self.nacked.setdefault(operation.id, set())
                nacks.add(message.sender)
                has_value = any(x == operation for (x, _v) in self.rept)
                if (
                    self.replica_ids
                    and set(self.replica_ids) <= nacks
                    and not has_value
                ):
                    self.wait.discard(operation)
                    self.failed[operation.id] = "stale-value"
                    del self.nacked[operation.id]
            return False
        if operation.id in self.failed:
            # A response sent before the eviction outran the NACKs: the
            # operation was answerable after all.
            del self.failed[operation.id]
            self.wait.add(operation)
            self.rept.add((operation, message.value))
            return True
        if operation in self.wait:
            self.rept.add((operation, message.value))
            return True
        return False

    # -- inspection -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Deep-enough copy of the front end state for invariant checks."""
        return {
            "client_id": self.client_id,
            "wait": set(self.wait),
            "rept": set(self.rept),
            "failed": dict(self.failed),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrontEnd({self.client_id}, wait={len(self.wait)}, rept={len(self.rept)})"
