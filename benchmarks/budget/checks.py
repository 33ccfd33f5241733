"""Correctness checks, run after every workload outside the timed window.

* every operation was answered, or is counted as failed;
* the cluster quiesced (every surviving operation stable at every live
  replica) — casualty-aware after a volatile crash, through
  :func:`repro.conformance.oracles.classify_casualties`;
* all replicas' ``replayed_state()`` agree and equal the state the generated
  script implies;
* the recorded trace is explained by the minimum-label witness order
  (Theorem 5.8).

``AlgorithmInvariantChecker.check_all`` / ``check_cluster_outcome`` are
deliberately not called: at these run lengths the Section 7/8 sweep needs
more memory than the host has.
"""

from __future__ import annotations

import asyncio
from typing import Any, Iterable, List, Sequence, Set, Tuple

from repro.common import OperationId
from repro.conformance import oracles


class CheckFailed(Exception):
    """A workload's outputs were wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def implied_state(data_type, operators: Iterable[Any]) -> Any:
    """The state the script implies.  Every generated operator is an ``add``
    or a ``read``, so the fold is order-independent."""
    state = data_type.initial_state()
    for operator in operators:
        state, _value = data_type.apply(state, operator)
    return state


async def quiesce_net(cluster, timeout: float = 30.0) -> Tuple[bool, Set[OperationId]]:
    """``(converged, casualties)``: wait, gossip flowing, until every
    surviving operation is stable at every live replica.  The casualties are
    the operations acknowledged by a replica that crashed before gossiping
    them (Section 9.3's ack-before-replicate window) and their dependants;
    without a crash this is ``NetCluster.quiesce`` and the set is empty."""
    lost, stuck = oracles.classify_casualties(cluster)
    casualties = lost | stuck
    if not casualties:
        return await cluster.quiesce(timeout), casualties
    surviving = [op for op_id, op in cluster.requested.items() if op_id not in casualties]
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if all(core.knows_stable(op) for core in cluster.replicas.values() for op in surviving):
            return True, casualties
        await asyncio.sleep(cluster.params.gossip_period)
    return False, casualties


def check_cluster(
    cluster, failed: int, casualties: Set[OperationId] = frozenset()
) -> List[str]:
    """The outcome checks shared by the simulator and the asyncio runtime
    (both expose ``requested`` / ``responded`` / ``replicas`` / ``trace``).
    Call once quiesced.  Returns the names of the checks that ran."""
    unanswered = set(cluster.requested) - set(cluster.responded)
    require(
        len(unanswered) == failed,
        f"{len(unanswered)} operations unanswered but {failed} counted as failed",
    )
    states = {rid: core.replayed_state() for rid, core in cluster.replicas.items()}
    require(len(set(states.values())) == 1, f"replica states diverged: {states}")
    implied = implied_state(
        cluster.data_type,
        (op.op for op_id, op in cluster.requested.items() if op_id not in casualties),
    )
    require(
        states[cluster.replica_ids[0]] == implied,
        f"replicas hold {states[cluster.replica_ids[0]]!r}, the script implies {implied!r}",
    )
    check_witness(cluster.data_type, cluster.trace, oracles.witness_order(cluster, casualties))
    return ["answered", "quiesced", "states_equal_script", "witness_order"]


def check_witness(data_type, trace, witness: Sequence[OperationId]) -> None:
    """Theorem 5.8 with an explicit witness: *witness* orders exactly the
    requested operations, respects every client-specified constraint, and
    replaying it reproduces the value of every strict response.

    This is the predicate of ``check_recorded_trace(..., witness=...)``
    evaluated in one replay.  The library replays the whole history once per
    strict response — 25 s for 1 600 strict among 16 000 operations, and far
    dearer on the keyed store — which the run-time cap has no room for."""
    requests = {x.id: x for x in trace.requests}
    require(
        len(witness) == len(requests) and set(witness) == set(requests),
        "the witness does not order exactly the requested operations",
    )
    position = {op_id: index for index, op_id in enumerate(witness)}
    for before, after in trace.csc():
        require(
            position[before] < position[after],
            f"the witness puts {after} before its prev {before}",
        )
    state, values = data_type.initial_state(), {}
    for op_id in witness:
        state, values[op_id] = data_type.apply(state, requests[op_id].op)
    for operation, value in trace.responses:
        require(
            not operation.strict or values[operation.id] == value,
            f"strict {operation.id} answered {value!r}, the witness implies "
            f"{values[operation.id]!r}",
        )
