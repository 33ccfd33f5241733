"""Executable renderings of the behavioural guarantees of Section 5.2.

* **Theorem 5.7** — for every response event there is a total order of the
  requested operations, consistent with the client-specified constraints,
  that explains this response and the response of every *strict* operation
  answered before this operation was requested.
* **Theorem 5.8** — for a finite trace there is a single *eventual total
  order* consistent with the client-specified constraints explaining every
  strict response.
* **Corollary 5.9** — if every request is strict, the service looks like an
  atomic object serialized by the eventual total order.

These guarantees quantify existentially over total orders, so checking them
on an arbitrary trace requires search.  In practice the algorithm provides a
*witness*: the order of system-wide minimum labels.  The functions below
accept an optional witness; without one they fall back to bounded
linear-extension search (suitable for the small traces used in tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common import OperationId
from repro.core.operations import OperationDescriptor, client_specified_constraints
from repro.core.orders import linear_extensions
from repro.datatypes.base import SerialDataType, apply_sequence


@dataclass
class TraceRecord:
    """An external trace of the service: request and response events in order.

    ``events`` is a list of ``("request", x)`` and ``("response", x, v)``
    tuples in the order they occurred.  Helper constructors let the simulator
    and the automata harness build records uniformly.
    """

    events: List[Tuple] = field(default_factory=list)

    def record_request(self, operation: OperationDescriptor) -> None:
        self.events.append(("request", operation))

    def record_response(self, operation: OperationDescriptor, value: Any) -> None:
        self.events.append(("response", operation, value))

    # -- views ----------------------------------------------------------------

    @property
    def requests(self) -> List[OperationDescriptor]:
        return [e[1] for e in self.events if e[0] == "request"]

    @property
    def responses(self) -> List[Tuple[OperationDescriptor, Any]]:
        return [(e[1], e[2]) for e in self.events if e[0] == "response"]

    def request_index(self, op_id: OperationId) -> Optional[int]:
        for i, e in enumerate(self.events):
            if e[0] == "request" and e[1].id == op_id:
                return i
        return None

    def response_index(self, op_id: OperationId) -> Optional[int]:
        for i, e in enumerate(self.events):
            if e[0] == "response" and e[1].id == op_id:
                return i
        return None

    def strict_responses_before(self, index: int) -> List[Tuple[OperationDescriptor, Any]]:
        """Strict responses occurring strictly before event *index*."""
        result = []
        for e in self.events[:index]:
            if e[0] == "response" and e[1].strict:
                result.append((e[1], e[2]))
        return result

    def csc(self) -> Set[Tuple[OperationId, OperationId]]:
        """Client-specified constraints of all requested operations."""
        return client_specified_constraints(self.requests)


def _extension_values(
    data_type: SerialDataType, trace: TraceRecord, search_limit: int
) -> Iterator[Dict[OperationId, Any]]:
    """Every operation's value under each linear extension of the
    client-specified constraints (up to *search_limit* of them), one replay
    per extension."""
    operations = {x.id: x for x in trace.requests}
    initial = data_type.initial_state()
    for extension in linear_extensions(trace.csc(), list(operations), limit=search_limit):
        ops = [operations[op_id].op for op_id in extension]
        yield dict(zip(extension, apply_sequence(data_type, ops, initial)[1]))


def replay_witness(
    data_type: SerialDataType,
    trace: TraceRecord,
    eventual_order: Sequence[OperationId],
    prefix: Optional[int] = None,
) -> Tuple[Optional[str], Any]:
    """Theorem 5.8 with an explicit witness, in one replay of it.

    *eventual_order* must list exactly the requested operations, respect
    every client-specified constraint and, replayed, reproduce the value of
    every strict response.  Returns ``(violation, state)``: why the order is
    no witness (``None`` when it is one), and the state after its first
    *prefix* operations (all of them by default; ``None`` when the order
    was rejected before the replay).
    """
    operations = {x.id: x for x in trace.requests}
    order = list(eventual_order)
    if len(order) != len(operations) or set(order) != operations.keys():
        return "the order does not list exactly the requested operations", None
    position = {op_id: index for index, op_id in enumerate(order)}
    for before, after in trace.csc():
        if before in position and position[before] >= position[after]:
            return f"the order puts {after} before its prev {before}", None
    ops = [operations[op_id].op for op_id in order]
    cut = len(order) if prefix is None else prefix
    state, values = apply_sequence(data_type, ops[:cut])
    values += apply_sequence(data_type, ops[cut:], state)[1]
    for x, value in trace.responses:
        implied = values[position[x.id]]
        if x.strict and implied != value:
            return f"strict {x.id} answered {value!r}, the order implies {implied!r}", state
    return None, state


def check_eventual_total_order(
    data_type: SerialDataType,
    trace: TraceRecord,
    eventual_order: Sequence[OperationId],
) -> bool:
    """Theorem 5.8 with an explicit witness.

    Checks that *eventual_order* (a total order on the identifiers of all
    requested operations) is consistent with the client-specified constraints
    and explains every strict response in *trace* (:func:`replay_witness`).
    """
    return replay_witness(data_type, trace, eventual_order)[0] is None


def check_strict_responses_explained(
    data_type: SerialDataType,
    trace: TraceRecord,
    eventual_order: Optional[Sequence[OperationId]] = None,
    search_limit: int = 20000,
) -> bool:
    """Theorem 5.8: does *some* eventual total order explain all strict
    responses?

    With a witness this is :func:`check_eventual_total_order`; without one,
    linear extensions of the client-specified constraints are enumerated (up
    to *search_limit*) looking for an explaining order.
    """
    if eventual_order is not None:
        return check_eventual_total_order(data_type, trace, eventual_order)
    strict_responses = [(x, v) for x, v in trace.responses if x.strict]
    if not strict_responses:
        return True
    return any(
        all(values[x.id] == v for x, v in strict_responses)
        for values in _extension_values(data_type, trace, search_limit)
    )


def find_explaining_total_order(
    data_type: SerialDataType,
    trace: TraceRecord,
    response: Tuple[OperationDescriptor, Any],
    search_limit: int = 20000,
) -> Optional[List[OperationId]]:
    """Theorem 5.7 for a single response event.

    Searches for a total order ``to(x)`` of all requested operations,
    consistent with the client-specified constraints, explaining the given
    ``(operation, value)`` response *and* the response of every strict
    operation that was answered before this operation was requested.

    Returns the explaining order, or ``None`` if none was found within the
    search limit.
    """
    x, value = response
    request_event_index = trace.request_index(x.id)
    if request_event_index is None:
        return None
    earlier_strict = trace.strict_responses_before(request_event_index)
    for values in _extension_values(data_type, trace, search_limit):
        if values[x.id] == value and all(values[y.id] == v for y, v in earlier_strict):
            return list(values)  # keyed in the extension's order
    return None


def check_all_responses_explained(
    data_type: SerialDataType,
    trace: TraceRecord,
    search_limit: int = 20000,
) -> bool:
    """Apply Theorem 5.7 to every response in the trace (bounded search)."""
    return all(
        find_explaining_total_order(data_type, trace, response, search_limit) is not None
        for response in trace.responses
    )


def check_atomicity_when_all_strict(
    data_type: SerialDataType,
    trace: TraceRecord,
    eventual_order: Optional[Sequence[OperationId]] = None,
    search_limit: int = 20000,
) -> bool:
    """Corollary 5.9: with all requests strict, a single total order must
    explain every response — which is Theorem 5.8 once every response is
    strict."""
    if any(not x.strict for x in trace.requests):
        raise ValueError("corollary 5.9 applies only when every request is strict")
    return check_strict_responses_explained(data_type, trace, eventual_order, search_limit)
