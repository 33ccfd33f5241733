"""The outcome oracles every scenario must satisfy at quiescence.

These were born in the scenario fuzzer and are shared verbatim by the
conformance replayer: a vector is only as trustworthy as the checks that ran
when it was generated, so generator, fuzzer and replayer all call the same
functions.

* :func:`quiesce` — run extra gossip rounds until every surviving operation
  is stable at every replica.
* :func:`check_cluster_outcome` — quiesce, then the one outcome oracle,
  :func:`repro.verification.outcome.check_outcome`, raising on the first
  failing check.

``classify_casualties`` and ``witness_order`` are re-exported from there.
"""

from __future__ import annotations

from repro.verification.outcome import Verdict, check_outcome, classify_casualties, witness_order

__all__ = ["check_cluster_outcome", "classify_casualties", "quiesce", "witness_order"]


def quiesce(cluster, surviving_ids=None, max_rounds: int = 200) -> bool:
    """Run extra gossip rounds until every surviving operation is stable at
    every replica.

    Perpetual gossip timers guarantee convergence once faults have ended;
    message loss only delays it (delta gossip falls back to full state every
    ``full_state_interval`` sends, so dropped seqnos cannot wedge a peer).
    """
    ids = cluster.requested if surviving_ids is None else surviving_ids
    targets = [cluster.requested[op_id] for op_id in ids]
    period = cluster.params.gossip_period + cluster.params.dg + cluster.params.df
    for _ in range(max_rounds):
        if cluster.fully_converged(targets):
            return True
        cluster.run(period)
    return cluster.fully_converged(targets)


def check_cluster_outcome(cluster) -> Verdict:
    """The oracles every scenario must satisfy: quiesce the surviving
    operations, then :func:`~repro.verification.outcome.check_outcome`,
    raising on the first failing check; return its ``Verdict``.

    The simulator converges at every replica, crashed or not, so
    ``quiesced`` asks what :func:`quiesce` waited for: a replica that never
    settled, one a fault schedule left down included, fails it.
    """
    lost, stuck = classify_casualties(cluster)
    quiesce(cluster, set(cluster.requested) - lost - stuck)
    return check_outcome(cluster, casualties=(lost, stuck)).raise_for_failure()
