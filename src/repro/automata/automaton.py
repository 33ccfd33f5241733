"""Actions, signatures, and the (non-live) I/O automaton base class.

A non-live I/O automaton (Section 3) has three disjoint sets of actions
(input, output, internal), a set of states with a nonempty subset of start
states, and a step relation such that every input action is enabled in every
state.

This executable rendering keeps the *current* state inside the automaton
object (mutable), and exposes:

* ``signature`` — which action kinds are input / output / internal;
* ``enabled(action)`` — the precondition;
* ``apply(action)`` — the effect (only called when enabled, except for input
  actions which are always enabled per the model);
* ``candidate_actions(rng)`` — a sample of currently enabled locally
  controlled actions, used by the random scheduler for exploration.

States are compared and recorded through ``snapshot()``, which must return a
deep, immutable-enough copy of the automaton's state for invariant checking
and simulation proofs.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping

from repro.common import SpecificationError


@dataclass(frozen=True)
class Signature:
    """The action signature of an automaton: disjoint kind sets."""

    inputs: FrozenSet[str] = frozenset()
    outputs: FrozenSet[str] = frozenset()
    internals: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        overlaps = (
            (self.inputs & self.outputs)
            | (self.inputs & self.internals)
            | (self.outputs & self.internals)
        )
        if overlaps:
            raise ValueError(f"action kinds appear in two classes: {sorted(overlaps)}")

    @property
    def external(self) -> FrozenSet[str]:
        """External action kinds (inputs and outputs)."""
        return self.inputs | self.outputs

    @property
    def all_kinds(self) -> FrozenSet[str]:
        """Every action kind of the automaton."""
        return self.inputs | self.outputs | self.internals

    def classify(self, kind: str) -> str:
        """Return ``"input"``, ``"output"`` or ``"internal"`` for *kind*."""
        if kind in self.inputs:
            return "input"
        if kind in self.outputs:
            return "output"
        if kind in self.internals:
            return "internal"
        raise KeyError(f"unknown action kind: {kind}")


class Action:
    """An action instance: a kind plus keyword parameters.

    Parameters are stored in a plain dict; equality is structural.  Actions
    are not required to be hashable because parameters may include partial
    orders or sets.
    """

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, **params: Any) -> None:
        self.kind = kind
        self.params: Dict[str, Any] = params

    def __getitem__(self, key: str) -> Any:
        return self.params[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Action):
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


class IOAutomaton:
    """Base class for executable non-live I/O automata.

    Subclasses set :attr:`signature`, keep their state in instance attributes,
    and implement :meth:`enabled`, :meth:`apply` and
    :meth:`candidate_actions`.
    """

    #: Human-readable name (used in error messages and traces).
    name: str = "automaton"

    #: The automaton's signature; subclasses must override.
    signature: Signature = Signature()

    # -- interface ------------------------------------------------------------

    def enabled(self, action: Action) -> bool:
        """Is *action* enabled in the current state?

        Input actions are always enabled (required by the model); locally
        controlled actions consult :meth:`precondition`.
        """
        kind_class = self.signature.classify(action.kind)
        if kind_class == "input":
            return True
        return self.precondition(action)

    def precondition(self, action: Action) -> bool:
        """The precondition of a locally controlled action.  Default: True."""
        return True

    def apply(self, action: Action) -> None:
        """The effect of *action* on the state.

        Subclasses must override.  ``apply`` is only invoked after
        :meth:`enabled` returned ``True`` (the executions module enforces
        this), so effects may assume their preconditions.
        """
        raise NotImplementedError

    def step(self, action: Action) -> None:
        """Check the precondition and apply the action, raising
        :class:`~repro.common.SpecificationError` when disabled."""
        if action.kind not in self.signature.all_kinds:
            raise SpecificationError(
                f"{self.name}: action kind {action.kind!r} not in signature"
            )
        if not self.enabled(action):
            raise SpecificationError(f"{self.name}: action {action!r} is not enabled")
        self.apply(action)

    def candidate_actions(self, rng: random.Random) -> List[Action]:
        """A (possibly sampled) list of enabled locally controlled actions.

        Used by :class:`~repro.automata.executions.RandomScheduler`; the
        default is no locally controlled activity.
        """
        return []

    # -- state bookkeeping ----------------------------------------------------

    def snapshot(self) -> Mapping[str, Any]:
        """A deep copy of the automaton's visible state variables.

        The default deep-copies every public instance attribute; subclasses
        may override for efficiency or to expose derived variables.
        """
        return {
            key: copy.deepcopy(value)
            for key, value in vars(self).items()
            if not key.startswith("_")
        }

    # -- helpers --------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


def check_compatible(automata: Iterable[IOAutomaton]) -> None:
    """Raise ``ValueError`` unless the automata are compatible (Section 3).

    Compatibility requires that internal action kinds are private to each
    automaton and that no action kind is an output of two automata.
    """
    autos = list(automata)
    for i, a in enumerate(autos):
        for b in autos[i + 1:]:
            shared_internal = (a.signature.internals & b.signature.all_kinds) | (
                b.signature.internals & a.signature.all_kinds
            )
            if shared_internal:
                raise ValueError(
                    f"automata {a.name} and {b.name} share internal action kinds "
                    f"{sorted(shared_internal)}"
                )
            shared_output = a.signature.outputs & b.signature.outputs
            if shared_output:
                raise ValueError(
                    f"automata {a.name} and {b.name} both output "
                    f"{sorted(shared_output)}"
                )
