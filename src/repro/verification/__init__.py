"""Verification harness for the ESDS algorithm.

The paper proves the algorithm correct with a collection of invariants
(Section 7) and a forward simulation to the ESDS-II specification
(Section 8), plus a simulation from ESDS-II to ESDS-I (Section 5.3).  This
package turns those proofs into *runtime checks* that the test-suite runs
over randomly explored executions:

* :mod:`repro.verification.invariants` — every Section 4/7/8/10 invariant as
  a predicate over any :class:`~repro.deployment.Deployment` (the
  action-level system, a simulated or a networked cluster);
* :mod:`repro.verification.simulation_check` — lock-step forward-simulation
  checking from the algorithm to ESDS-II (Theorem 8.4 / Fig. 9) and from
  ESDS-II to ESDS-I (Fig. 4);
* :mod:`repro.verification.outcome` — the one outcome oracle:
  :func:`check_trace` (the Section 5.2 guarantees at any step, with the
  algorithm's minimum-label order as the witness for the eventual total
  order) and :func:`check_outcome` (every check at quiescence).
"""

from repro.verification.invariants import AlgorithmInvariantChecker, SpecInvariantChecker
from repro.verification.simulation_check import (
    AlgorithmToSpecSimulation,
    check_esds2_implements_esds1,
)
from repro.verification.outcome import Verdict, check_outcome, check_trace

__all__ = [
    "AlgorithmInvariantChecker",
    "SpecInvariantChecker",
    "AlgorithmToSpecSimulation",
    "check_esds2_implements_esds1",
    "Verdict",
    "check_outcome",
    "check_trace",
]
