"""Executions, traces and a pseudo-random scheduler.

An execution fragment is an alternating sequence of states and actions; its
external image (the subsequence of external actions) is a trace.  Because the
specification automata are highly nondeterministic, the tests explore their
behaviour with a seeded random scheduler that repeatedly picks one enabled
locally controlled action, optionally interleaving environment-supplied input
actions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Mapping, Optional

from repro.automata.automaton import Action, IOAutomaton


@dataclass
class Event:
    """One occurrence of an action in an execution, with optional timestamp."""

    action: Action
    index: int
    time: Optional[float] = None

    @property
    def kind(self) -> str:
        return self.action.kind


@dataclass
class Execution:
    """A recorded execution: events plus (optionally) state snapshots."""

    automaton_name: str
    events: List[Event] = field(default_factory=list)
    snapshots: List[Mapping[str, Any]] = field(default_factory=list)

    def record(self, action: Action, snapshot: Optional[Mapping[str, Any]] = None,
               time: Optional[float] = None) -> Event:
        """Append an event (and snapshot, if provided) to the execution."""
        event = Event(action=action, index=len(self.events), time=time)
        self.events.append(event)
        if snapshot is not None:
            self.snapshots.append(snapshot)
        return event

    def trace(self, external_kinds: Iterable[str]) -> List[Event]:
        """The external image of this execution, restricted to *external_kinds*."""
        kinds = set(external_kinds)
        return [event for event in self.events if event.kind in kinds]

    def __len__(self) -> int:
        return len(self.events)


class RandomScheduler:
    """Drives a (closed) automaton by repeatedly executing random enabled
    locally controlled actions.

    Parameters
    ----------
    automaton:
        The automaton (usually a :class:`~repro.automata.composition.Composition`
        of the system under test and its environment) to drive.
    seed:
        Seed for the pseudo-random choices, for reproducibility.
    invariant:
        Optional callable invoked after every step with the automaton; it
        should raise on violation (used to check the paper's invariants on
        every reachable state visited).
    record_snapshots:
        When true, a deep snapshot of the automaton state is recorded after
        every step (memory-heavy; used by the simulation-relation tests).
    """

    def __init__(
        self,
        automaton: IOAutomaton,
        seed: int = 0,
        invariant: Optional[Callable[[IOAutomaton], None]] = None,
        record_snapshots: bool = False,
    ) -> None:
        self.automaton = automaton
        self.rng = random.Random(seed)
        self.invariant = invariant
        self.record_snapshots = record_snapshots
        self.execution = Execution(automaton_name=automaton.name)
        if self.record_snapshots:
            self.execution.snapshots.append(automaton.snapshot())

    def step(self) -> Optional[Action]:
        """Execute one randomly chosen enabled locally controlled action.

        Returns the action executed, or ``None`` if nothing was enabled.
        """
        candidates = self.automaton.candidate_actions(self.rng)
        if not candidates:
            return None
        action = self.rng.choice(candidates)
        self.automaton.step(action)
        snapshot = self.automaton.snapshot() if self.record_snapshots else None
        self.execution.record(action, snapshot)
        if self.invariant is not None:
            self.invariant(self.automaton)
        return action

    def inject(self, action: Action) -> None:
        """Execute an environment-chosen action (typically an input of the
        closed system, or a specific locally controlled action a test wants
        to force)."""
        self.automaton.step(action)
        snapshot = self.automaton.snapshot() if self.record_snapshots else None
        self.execution.record(action, snapshot)
        if self.invariant is not None:
            self.invariant(self.automaton)

    def run(self, steps: int, stop_when_quiescent: bool = True) -> Execution:
        """Run up to *steps* scheduler steps.

        Stops early if no locally controlled action is enabled and
        *stop_when_quiescent* is true.
        """
        for _ in range(steps):
            action = self.step()
            if action is None and stop_when_quiescent:
                break
        return self.execution
