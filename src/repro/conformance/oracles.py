"""The outcome oracles every scenario must satisfy at quiescence.

These were born in the scenario fuzzer and are shared verbatim by the
conformance replayer: a vector is only as trustworthy as the checks that ran
when it was generated, so generator, fuzzer and replayer all call the same
functions.

* :func:`classify_casualties` — the loss-tolerant relaxation: operations
  legitimately wiped by a volatile crash (and their dependants) are exempt
  from the liveness-flavoured checks.
* :func:`quiesce` — run extra gossip rounds until every surviving operation
  is stable at every replica.
* :func:`check_cluster_outcome` — liveness, the Theorem 5.8
  eventual-serializability oracle, the Section 7/8 invariant checker, and
  replica-state convergence (Lemma 2.7).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.common import OperationId
from repro.conformance.codec import ConformanceError
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.serializability import check_recorded_trace


def classify_casualties(cluster) -> Tuple[Set[OperationId], Set[OperationId]]:
    """Partition the requested operations into ``(lost, stuck)`` identifiers.

    A volatile crash wipes everything but the locally generated labels
    (Section 9.3), so an operation that was done and *answered* at one
    replica and then wiped before any gossip spread it is gone for good —
    the front end stopped retransmitting when the response arrived.  That is
    the ack-before-replicate window the paper's fault model genuinely
    permits; the liveness-flavoured checks must not demand the impossible
    for such operations.  ``stuck`` operations are those whose ``prev``
    chain passes through a lost operation: no replica can ever do them
    (``can_do`` waits for the lost dependency), so they stay unanswered.
    Unanswered-and-wiped operations are neither: retransmission re-delivers
    them.
    """
    known = set()
    compacted_ids = set(cluster.compaction_ledger.ids)
    for replica in cluster.replicas.values():
        known |= replica.rcvd | replica.done_here()
    lost = {
        op_id
        for op_id, op in cluster.requested.items()
        if op_id in cluster.responded and op not in known and op_id not in compacted_ids
    }
    unreachable = set(lost)
    changed = True
    while changed:
        changed = False
        for op_id, op in cluster.requested.items():
            if op_id not in unreachable and op.prev & unreachable:
                unreachable.add(op_id)
                changed = True
    return lost, unreachable - lost


def quiesce(cluster, surviving_ids=None, max_rounds: int = 200) -> bool:
    """Run extra gossip rounds until every surviving operation is stable at
    every replica.

    Perpetual gossip timers guarantee convergence once faults have ended;
    message loss only delays it (delta gossip falls back to full state every
    ``full_state_interval`` sends, so dropped seqnos cannot wedge a peer).
    """
    if surviving_ids is None:
        surviving_ids = set(cluster.requested)
    targets = {cluster.requested[op_id] for op_id in surviving_ids}

    def settled() -> bool:
        return all(
            all(replica.knows_stable(op) for op in targets)
            for replica in cluster.replicas.values()
        )

    period = cluster.params.gossip_period + cluster.params.dg + cluster.params.df
    for _ in range(max_rounds):
        if settled():
            return True
        cluster.run(period)
    return settled()


def witness_order(
    cluster, casualties: Optional[Set[OperationId]] = None
) -> List[OperationId]:
    """The Theorem 5.8 witness: the system-wide minimum-label eventual order
    over the surviving operations, casualties appended in client order.

    A lost operation leaves only a stable-storage ghost label, which no
    surviving response ever saw, so it must not sit inside the order; no csc
    edge can lead from a casualty to a survivor, or the survivor would
    itself be stuck.
    """
    if casualties is None:
        lost, stuck = classify_casualties(cluster)
        casualties = lost | stuck
    witness = [op_id for op_id in cluster.eventual_order() if op_id not in casualties]
    witness += sorted(casualties, key=lambda op_id: (op_id.client, op_id.seqno))
    return witness


def check_cluster_outcome(cluster) -> Tuple[Set[OperationId], Set[OperationId]]:
    """The oracles every scenario must satisfy at quiescence.

    Returns the ``(lost, stuck)`` casualty sets so callers can account for
    how often the loss-tolerant relaxations were actually exercised.  Raises
    :class:`~repro.conformance.codec.ConformanceError` (or the verification
    layer's own exceptions) on any violation.
    """
    lost, stuck = classify_casualties(cluster)
    surviving = set(cluster.requested) - lost - stuck
    # Liveness: everything that *can* complete did complete.
    unanswered = set(cluster.requested) - set(cluster.responded)
    if not unanswered <= stuck:
        raise ConformanceError(
            f"survivable operations left unanswered: {unanswered - stuck}"
        )
    if not quiesce(cluster, surviving):
        raise ConformanceError("cluster failed to converge after faults ended")
    # Eventual-serializability oracle (Theorem 5.8) — unconditional safety.
    witness = witness_order(cluster, lost | stuck)
    check_recorded_trace(cluster.data_type, cluster.trace, witness=witness)
    # Section 7/8 invariants on the quiescent algorithm view.  The checker
    # assumes the crash-free universe: a lost operation leaves a restored
    # stable-storage label with no surviving body behind (violating 7.5 by
    # design), so the full sweep applies exactly to loss-free executions —
    # the vast majority of seeds.
    if not lost:
        AlgorithmInvariantChecker(cluster).check_all()
    # All replicas agree on the final state (convergence, Lemma 2.7) —
    # computed as checkpoint base plus tracked suffix, so compacted and
    # uncompacted replicas are compared on the same footing.
    states = {
        replica_id: replica.replayed_state()
        for replica_id, replica in cluster.replicas.items()
    }
    if len(set(states.values())) != 1:
        raise ConformanceError(f"replica states diverged: {states}")
    return lost, stuck
