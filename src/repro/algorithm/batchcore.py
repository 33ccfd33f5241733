"""The replica-core factory: :func:`core_factory`."""

from __future__ import annotations

from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.replica import ReplicaCore


# Lives here rather than in fastcore because benchmarks/budget/workloads.py
# imports it from this module, and that benchmark is frozen.
def core_factory(config) -> type:
    """The replica-core class a :class:`~repro.config.ReplicaConfig`
    selects: the production core when ``fast_core`` is set, the reference
    automaton otherwise."""
    return FastReplicaCore if config.fast_core else ReplicaCore
