"""Run the paper's correctness argument as executable checks.

Run with::

    python examples/verify_algorithm.py

This drives a random execution of the full algorithm ``ESDS-Alg x Users``
while simultaneously:

* checking every Section 7/8 invariant in every reachable state visited,
* matching every step against the ESDS-II specification automaton with the
  forward-simulation correspondence of Theorem 8.4,
* and finally checking the observed trace against the Theorem 5.7/5.8
  guarantees using the minimum-label order as the witness.
"""

import random

from repro import AlgorithmInvariantChecker, AlgorithmSystem, CounterType, check_trace
from repro.common import OperationIdGenerator
from repro.core.operations import make_operation
from repro.verification.simulation_check import (
    AlgorithmToSpecSimulation,
    check_esds2_implements_esds1,
)


def main(seed: int = 2026) -> None:
    rng = random.Random(seed)
    system = AlgorithmSystem(CounterType(), ["r1", "r2", "r3"], ["alice", "bob"])
    lockstep = AlgorithmToSpecSimulation(system)
    invariants = AlgorithmInvariantChecker(system)

    generators = {c: OperationIdGenerator(c) for c in ("alice", "bob")}
    history = []
    print("submitting 6 random operations and exploring the algorithm...")
    for index in range(6):
        client = rng.choice(["alice", "bob"])
        operator = rng.choice([CounterType.increment(), CounterType.add(5), CounterType.read()])
        prev = [history[-1].id] if history and rng.random() < 0.5 else []
        operation = make_operation(
            operator, generators[client].fresh(), prev=prev, strict=rng.random() < 0.3
        )
        history.append(operation)
        lockstep.request(operation)
        for _ in range(rng.randint(2, 6)):
            if lockstep.random_step(rng) is None:
                break
            invariants.check_all()

    # ``send_gossip`` is always enabled, so "run until no action is enabled"
    # would never terminate; run until every request is answered instead
    # (with a generous step cap as a safety net).
    steps = 0
    while len(system.trace.responses) < len(history) and steps < 5000:
        if lockstep.random_step(rng) is None:
            break
        invariants.check_all()
        steps += 1

    print(f"  {lockstep.concrete_steps} algorithm steps matched by "
          f"{lockstep.abstract_steps} ESDS-II steps")
    print(f"  {len(system.trace.responses)} responses delivered; all invariants held")

    check_trace(system, nonstrict_search_limit=5000).raise_for_failure()
    print("  trace satisfies Theorems 5.7 and 5.8 (eventual serializability)")

    def factory(inner_rng, requested):
        if len(requested) >= 5:
            return None
        gen = OperationIdGenerator("spec-client", start=len(requested))
        return make_operation(CounterType.increment(), gen.fresh(),
                              strict=inner_rng.random() < 0.3)

    report = check_esds2_implements_esds1(CounterType(), factory, steps=60, seed=seed)
    print(f"  ESDS-II -> ESDS-I simulation: {report}")
    print("\nall checks passed")


if __name__ == "__main__":
    main()
