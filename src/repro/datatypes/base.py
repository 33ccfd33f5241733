"""Serial data type protocol (Section 2.2).

A serial data type consists of a set ``Sigma`` of object states, an initial
state ``sigma_0``, a set ``V`` of reportable values, a set ``O`` of operators,
and a transition function ``tau : Sigma x O -> Sigma x V``.

We represent operators as named tuples (:class:`Operator`) carrying a ``name``
and a tuple of arguments, so that they are hashable, comparable and cheap to
copy into messages.  Concrete data types implement
:class:`SerialDataType` and provide ``apply`` (the transition function) plus
optional commutativity metadata used by the Section 10.3 optimization.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, List, NamedTuple, Sequence, Tuple


class Operator(NamedTuple):
    """A data-type operator: a name plus positional arguments.

    Examples: ``Operator("read")``, ``Operator("write", (5,))``,
    ``Operator("bind", ("www", "10.0.0.7"))``.
    """

    name: str
    args: Tuple[Any, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(map(repr, self.args))})"


class SerialDataType(ABC):
    """Abstract serial data type (Section 2.2).

    Subclasses must provide :meth:`initial_state` and :meth:`apply`.  States
    must be immutable (hashable) values so that replicas, specifications and
    the memoizing optimization can copy and compare them freely.
    """

    #: Human-readable name of the data type.
    name: str = "abstract"

    @abstractmethod
    def initial_state(self) -> Any:
        """Return the distinguished initial state ``sigma_0``."""

    @abstractmethod
    def apply(self, state: Any, operator: Operator) -> Tuple[Any, Any]:
        """The transition function ``tau``.

        Returns a pair ``(next_state, reported_value)``.  Must be a pure
        function of its arguments.
        """

    # -- Section 10.3: commutativity / obliviousness / independence ---------

    def commute(self, a: Operator, b: Operator) -> bool:
        """Do ``a`` and ``b`` commute (same final state in either order)?

        The default implementation is conservative and returns ``True`` only
        when the two operators are both read-only.  Subclasses override this
        with data-type-specific knowledge.
        """
        return self.is_read_only(a) and self.is_read_only(b)

    def oblivious(self, a: Operator, b: Operator) -> bool:
        """Is ``a`` oblivious to ``b`` (``b`` before ``a`` does not change
        ``a``'s reported value)?  Conservative default: only when ``b`` is
        read-only."""
        return self.is_read_only(b)

    def independent(self, a: Operator, b: Operator) -> bool:
        """Operators are independent when they commute and are mutually
        oblivious (Section 10.3)."""
        return (
            self.commute(a, b)
            and self.oblivious(a, b)
            and self.oblivious(b, a)
        )

    def is_read_only(self, op: Operator) -> bool:
        """Does ``op`` leave the state unchanged for every state?

        Default: unknown, assume it may write.  Subclasses override.
        """
        return False

    def state_independent(self, op: Operator) -> bool:
        """Does ``op`` report the same value in *every* state?

        When true, the value ``tau(sigma, op).v`` does not depend on
        ``sigma`` at all — e.g. a register ``write(v)`` always reports
        ``v``.  Such an operation can be answered from any replay of a
        done set containing it, even one missing part of the agreed
        prefix (the advert/pull catch-up window): whatever effects the
        hole omits cannot change the reported value.

        Default: unknown, assume the value may depend on the state.
        Subclasses override with data-type-specific knowledge.
        """
        return False

    # -- convenience ---------------------------------------------------------

    def outcome(self, operators: Sequence[Operator], state: Any = None) -> Any:
        """Apply ``operators`` in sequence and return the final state
        (the paper's ``tau+(...).s``)."""
        return apply_sequence(self, operators, state)[0]

    def value_of_last(self, operators: Sequence[Operator], state: Any = None) -> Any:
        """Apply ``operators`` in sequence and return the value reported by
        the last one (the paper's ``tau+(...).v``)."""
        if not operators:
            raise ValueError("value_of_last requires a nonempty sequence")
        return apply_sequence(self, operators, state)[1][-1]

    def check_operator(self, operator: Operator) -> None:
        """Raise ``ValueError`` if *operator* is not an operator of this type.

        The default accepts everything; concrete types override to validate
        the operator name and arity.  The front end calls this on submission
        so that malformed requests are rejected at the client boundary.
        """


def apply_sequence(
    data_type: SerialDataType,
    operators: Iterable[Operator],
    state: Any = None,
) -> Tuple[Any, List[Any]]:
    """Apply *operators* in order, returning ``(final_state, values)``.

    This is the repeated-application function ``tau+`` of Section 2.2, but it
    also collects every intermediate reported value, which the memoizing
    replica (Section 10.1) needs.
    """
    current = data_type.initial_state() if state is None else state
    values: List[Any] = []
    for op in operators:
        current, value = data_type.apply(current, op)
        values.append(value)
    return current, values

