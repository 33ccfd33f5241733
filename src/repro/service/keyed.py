"""``KeyedStore`` — a multi-object serial data type built from any base type.

Section 2.2 defines a serial data type as ``(Sigma, sigma_0, V, O, tau)``.
Given a base type ``B``, the keyed store is itself a serial data type whose
states are finite maps ``key -> B.state``: the operator ``at(k, o)`` applies
the base operator ``o`` to the sub-state stored under ``k`` (implicitly
``B.sigma_0`` for keys never written), and ``keys()`` reports the set of keys
present.  Because the result is again a :class:`SerialDataType`, the whole
specification / algorithm / verification stack applies to it unchanged — a
single ESDS instance can manage an entire keyspace, and the sharded service
layer assigns disjoint keyspace slices to independent instances.

States are represented as tuples of ``(key, sub_state)`` pairs sorted by key,
so they stay immutable and hashable whenever the base states are (a protocol
requirement of :class:`~repro.datatypes.base.SerialDataType`).

The Section 10.3 commutativity predicates lift pointwise: operators on
*different* keys always commute and are mutually oblivious (they touch
disjoint sub-states), while operators on the *same* key delegate to the base
type.  This is what makes keyed workloads so friendly to the ``Commute``
replica variant and to sharding alike.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Optional, Tuple

from repro.datatypes.base import Operator, SerialDataType

#: The keyed-store state: ``(key, sub_state)`` pairs sorted by key.
KeyedState = Tuple[Tuple[str, Any], ...]


class KeyedStore(SerialDataType):
    """Maps string keys onto independent instances of a base data type.

    >>> store = KeyedStore(CounterType())
    >>> state, _ = store.apply(store.initial_state(),
    ...                        KeyedStore.at("a", CounterType.increment()))
    >>> store.lookup(state, "a")
    1
    """

    def __init__(self, base: SerialDataType) -> None:
        self.base = base
        self.name = f"keyed<{base.name}>"

    # -- operator constructors ----------------------------------------------

    @staticmethod
    def at(key: str, operator: Operator) -> Operator:
        """The keyed operator applying *operator* to the object under *key*."""
        return Operator("at", (key, operator))

    @staticmethod
    def keys_op() -> Operator:
        """Report the tuple of keys currently present (read-only)."""
        return Operator("keys")

    @staticmethod
    def key_of(operator: Operator) -> Optional[str]:
        """The key an ``at`` operator addresses (``None`` for ``keys``).

        The shard router uses this to route requests without interpreting
        the inner operator.
        """
        if operator.name == "at" and len(operator.args) == 2:
            return operator.args[0]
        return None

    @staticmethod
    def inner_of(operator: Operator) -> Operator:
        """The base-type operator wrapped by an ``at`` operator."""
        if operator.name != "at" or len(operator.args) != 2:
            raise ValueError(f"{operator} is not a keyed 'at' operator")
        return operator.args[1]

    # -- serial data type interface ------------------------------------------

    def initial_state(self) -> KeyedState:
        return ()

    def apply(self, state: KeyedState, operator: Operator) -> Tuple[KeyedState, Any]:
        if operator.name == "keys":
            return state, tuple(key for key, _sub in state)
        key, inner = operator.args
        # The state is sorted by unique keys, and a proper-prefix tuple sorts
        # just before the pair holding its key, so sub-states are never
        # compared.
        index = bisect_left(state, (key,))
        present = index < len(state) and state[index][0] == key
        sub_state = state[index][1] if present else self.base.initial_state()
        new_sub, value = self.base.apply(sub_state, inner)
        if new_sub == sub_state:
            # No sub-state change: return the input state itself.  Beyond
            # skipping a rebuild on the replay hot path, this keeps the
            # is_read_only/oblivious/commute contracts honest — a read-only
            # operator on an absent key must not materialize it, and keys()
            # must not report phantom entries.
            return state, value
        return state[:index] + ((key, new_sub),) + state[index + present:], value

    def check_operator(self, operator: Operator) -> None:
        if operator.name == "keys":
            if operator.args:
                raise ValueError("keys() takes no arguments")
            return
        if operator.name != "at":
            raise ValueError(f"unknown keyed-store operator {operator.name!r}")
        if len(operator.args) != 2:
            raise ValueError("at(key, operator) takes exactly two arguments")
        key, inner = operator.args
        if not isinstance(key, str):
            raise ValueError(f"keyed-store keys must be strings, got {key!r}")
        if not isinstance(inner, Operator):
            raise ValueError(f"at() wraps a base-type Operator, got {inner!r}")
        self.base.check_operator(inner)

    # -- Section 10.3 predicates, lifted pointwise ----------------------------

    def is_read_only(self, op: Operator) -> bool:
        if op.name == "keys":
            return True
        return self.base.is_read_only(self.inner_of(op))

    def state_independent(self, op: Operator) -> bool:
        # keys() reports which keys exist — state-dependent by definition;
        # an ``at`` reports whatever its inner operator reports.
        if op.name == "keys":
            return False
        return self.base.state_independent(self.inner_of(op))

    def commute(self, a: Operator, b: Operator) -> bool:
        # ``keys`` never changes the state, so it state-commutes with
        # everything; ``at`` operators on distinct keys touch disjoint
        # sub-states.
        if a.name == "keys" or b.name == "keys":
            return True
        if self.key_of(a) != self.key_of(b):
            return True
        return self.base.commute(self.inner_of(a), self.inner_of(b))

    def oblivious(self, a: Operator, b: Operator) -> bool:
        # Is ``a``'s reported value unchanged by running ``b`` first?
        if b.name == "keys":
            return True  # keys() is the identity on states
        if a.name == "keys":
            # ``b`` is an ``at`` and may create its key, changing keys().
            return self.base.is_read_only(self.inner_of(b))
        if self.key_of(a) != self.key_of(b):
            return True
        return self.base.oblivious(self.inner_of(a), self.inner_of(b))

    # -- state inspection ------------------------------------------------------

    def lookup(self, state: KeyedState, key: str) -> Any:
        """The sub-state stored under *key* (the base initial state when the
        key has never been written)."""
        for existing, sub_state in state:
            if existing == key:
                return sub_state
        return self.base.initial_state()
