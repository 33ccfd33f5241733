"""The one outcome oracle: the named checks that decide whether a run was right.

Every harness asks them of a :class:`~repro.deployment.Deployment` and gets
back a :class:`Verdict` naming the checks that ran and the first that
failed: :func:`check_trace` at any step, :func:`check_outcome` at
quiescence.  Neither drives the deployment: quiescing it is the caller's job
(:func:`repro.conformance.oracles.quiesce`, ``NetCluster.quiesce``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.common import InvariantViolation, OperationId
from repro.deployment import Deployment
from repro.spec.guarantees import check_all_responses_explained, replay_witness
from repro.verification.invariants import AlgorithmInvariantChecker


@dataclass
class Verdict:
    """The names of the checks that ran, in order; the first failing one as
    ``(name, message)`` (``None`` when all held; none runs after it); and the
    casualty sets and the Theorem 5.8 witness the checks used."""

    checks: List[str] = field(default_factory=list)
    failure: Optional[Tuple[str, str]] = None
    lost: Set[OperationId] = field(default_factory=set)
    stuck: Set[OperationId] = field(default_factory=set)
    witness: List[OperationId] = field(default_factory=list)

    def failed(self, name: str, message: Optional[str]) -> bool:
        """Record that check *name* ran and, unless *message* is ``None``,
        failed with it; return whether it failed."""
        self.checks.append(name)
        if message is not None:
            self.failure = (name, message)
        return message is not None

    def raise_for_failure(self) -> "Verdict":
        """Raise :class:`~repro.common.InvariantViolation` ``"<name>:
        <message>"`` for the failing check, with its name in ``.check``;
        return the verdict itself when every check held."""
        if self.failure is not None:
            name, message = self.failure
            error = InvariantViolation(f"{name}: {message}")
            error.check = name
            raise error
        return self


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


def witness_order(cluster, casualties: Set[OperationId]) -> List[OperationId]:
    """The Theorem 5.8 witness: the system-wide minimum-label eventual order
    over the surviving operations, casualties appended in client order.

    A lost operation leaves only a stable-storage ghost label, which no
    surviving response ever saw, so it must not sit inside the order; no csc
    edge can lead from a casualty to a survivor, or the survivor would
    itself be stuck.
    """
    witness = [op_id for op_id in cluster.eventual_order() if op_id not in casualties]
    witness += sorted(casualties, key=lambda op_id: (op_id.client, op_id.seqno))
    return witness


def check_trace(deployment: Deployment, *, nonstrict_search_limit: Optional[int] = None) -> Verdict:
    """The Section 5.2 guarantees on the trace, at any step: ``witness_order``
    — ``eventual_order()`` is a Theorem 5.8 witness (:func:`replay_witness`)
    — and, given a limit, ``nonstrict_explained`` — that many linear
    extensions explain every response (Theorem 5.7; for small traces)."""
    data_type, trace = deployment.data_type, deployment.trace
    verdict = Verdict(witness=deployment.eventual_order())
    if verdict.failed("witness_order", replay_witness(data_type, trace, verdict.witness)[0]):
        return verdict
    if nonstrict_search_limit is not None:
        explained = check_all_responses_explained(data_type, trace, nonstrict_search_limit)
        message = f"a response has no explaining order in {nonstrict_search_limit} searched"
        verdict.failed("nonstrict_explained", None if explained else message)
    return verdict


def check_outcome(
    deployment: Deployment,
    *,
    casualties: Optional[Tuple[Set[OperationId], Set[OperationId]]] = None,
) -> Verdict:
    """Every outcome check on a quiesced deployment, with *casualties* the
    ``(lost, stuck)`` of :func:`classify_casualties` (classified now by
    default), at its ``converging_replica_ids()``:

    * ``answered`` — every unanswered operation is stuck;
    * ``quiesced`` — every surviving operation is stable at those replicas
      (``fully_converged``; checked, not waited for);
    * ``witness_order`` — :func:`witness_order` explains every strict
      response (Theorem 5.8, one replay);
    * ``states_converged`` — their ``replayed_state()`` (base plus tracked
      suffix, so compaction does not matter) agree (Lemma 2.7);
    * ``states_match_witness`` — and equal the same replay's state after
      the surviving operations;
    * ``invariants`` — the Section 7/8 sweep, if nothing was lost and every
      replica was compared: a lost operation leaves a restored
      stable-storage label with no surviving body behind (violating 7.5 by
      design), and a replica crashed with volatile memory has forgotten
      what its peers know it did (violating 7.4).
    """
    lost, stuck = classify_casualties(deployment) if casualties is None else casualties
    gone = lost | stuck
    verdict = Verdict(lost=lost, stuck=stuck, witness=witness_order(deployment, gone))
    unanswered = deployment.requested.keys() - deployment.responded.keys() - stuck
    message = f"survivable operations unanswered: {sorted(map(str, unanswered))}"
    if verdict.failed("answered", message if unanswered else None):
        return verdict
    surviving = [op for op_id, op in deployment.requested.items() if op_id not in gone]
    message = "surviving operations are not stable at every replica"
    if verdict.failed("quiesced", None if deployment.fully_converged(surviving) else message):
        return verdict
    data_type, trace = deployment.data_type, deployment.trace
    violation, implied = replay_witness(data_type, trace, verdict.witness, len(surviving))
    if verdict.failed("witness_order", violation):
        return verdict
    replica_ids = deployment.converging_replica_ids()
    states = {rid: deployment.replicas[rid].replayed_state() for rid in replica_ids}
    diverged = f"replica states diverged: {states}" if len(set(states.values())) > 1 else None
    if verdict.failed("states_converged", diverged):
        return verdict
    mismatched = any(state != implied for state in states.values())
    message = f"the witness implies {implied!r}, the replicas hold {states}" if mismatched else None
    if verdict.failed("states_match_witness", message):
        return verdict
    if not lost and len(replica_ids) == len(deployment.replicas):
        try:
            AlgorithmInvariantChecker(deployment).check_all()
        except InvariantViolation as exc:
            verdict.failed("invariants", str(exc))
        else:
            verdict.failed("invariants", None)
    return verdict
