"""Point-to-point channels (Section 6.1, Fig. 5).

The basic channel is reliable but not FIFO: it is a multiset of messages in
transit, any of which may be delivered next.  The fault-tolerance discussion
of Section 9.3 observes that the algorithm's safety is insensitive to message
loss and duplication (a lost message is indistinguishable from a delayed one),
so :class:`LossyChannel` adds explicit ``drop`` and ``duplicate`` steps that
the fault-injection tests exercise.
"""

from __future__ import annotations

import random
from typing import Generic, List, Optional, TypeVar

M = TypeVar("M")


class Channel(Generic[M]):
    """A reliable, unordered point-to-point channel from ``source`` to
    ``destination``.  The contents form a multiset; delivery removes one
    occurrence."""

    def __init__(self, source: str, destination: str) -> None:
        self.source = source
        self.destination = destination
        self._in_transit: List[M] = []
        #: Accumulated wire payload (``size_estimate()``) of sent messages
        #: that expose one — gossip messages do.  Used by the delta-gossip
        #: tests to compare full and delta payloads without involving the
        #: simulator.
        self.sent_payload = 0

    # -- automaton-style interface --------------------------------------------

    def send(self, message: M) -> None:
        """``send_ij(m)``: add *message* to the multiset."""
        self._in_transit.append(message)
        size = getattr(message, "size_estimate", None)
        if callable(size):
            self.sent_payload += size()

    def receive(self, message: Optional[M] = None, rng: Optional[random.Random] = None) -> M:
        """``receive_ij(m)``: remove and return one in-transit message.

        With *message* given, that specific message (one occurrence) is
        delivered; otherwise a pseudo-random one is chosen (non-FIFO).
        """
        if not self._in_transit:
            raise LookupError(f"channel {self.source}->{self.destination} is empty")
        if message is None:
            chooser = rng if rng is not None else random
            index = chooser.randrange(len(self._in_transit))
        else:
            index = self._index_of(message)
        return self._in_transit.pop(index)

    def _index_of(self, message: M) -> int:
        for index, candidate in enumerate(self._in_transit):
            if candidate == message or candidate is message:
                return index
        raise LookupError(
            f"message not in channel {self.source}->{self.destination}: {message!r}"
        )

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._in_transit)

    def __bool__(self) -> bool:
        return bool(self._in_transit)

    def contents(self) -> List[M]:
        """A copy of the in-transit multiset (for invariant checking)."""
        return list(self._in_transit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Channel({self.source}->{self.destination}, "
            f"{len(self._in_transit)} in transit)"
        )


class LossyChannel(Channel[M]):
    """A channel that may additionally drop or duplicate in-transit messages.

    Dropping is modelled, as the paper suggests, as an internal action that
    removes a message without delivering it; duplication re-adds a copy.
    Safety properties must be preserved under both (tests in
    ``tests/test_fault_tolerance.py``).
    """

    def __init__(
        self,
        source: str,
        destination: str,
        drop_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> None:
        super().__init__(source, destination)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be within [0, 1]")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability must be within [0, 1]")
        self.drop_probability = drop_probability
        self.duplicate_probability = duplicate_probability
        self.dropped = 0
        self.duplicated = 0

    def drop(self, message: Optional[M] = None, rng: Optional[random.Random] = None) -> M:
        """Remove one in-transit message without delivering it."""
        lost = super().receive(message, rng)
        self.dropped += 1
        return lost

    def duplicate(self, message: Optional[M] = None, rng: Optional[random.Random] = None) -> M:
        """Duplicate one in-transit message."""
        if not self._in_transit:
            raise LookupError("cannot duplicate on an empty channel")
        chooser = rng if rng is not None else random
        if message is None:
            chosen = self._in_transit[chooser.randrange(len(self._in_transit))]
        else:
            chosen = self._in_transit[self._index_of(message)]
        self._in_transit.append(chosen)
        self.duplicated += 1
        return chosen

    def maybe_interfere(self, rng: random.Random) -> Optional[str]:
        """Randomly drop or duplicate according to the configured
        probabilities.  Returns ``"drop"``, ``"duplicate"`` or ``None``."""
        if not self._in_transit:
            return None
        roll = rng.random()
        if roll < self.drop_probability:
            self.drop(rng=rng)
            return "drop"
        if roll < self.drop_probability + self.duplicate_probability:
            self.duplicate(rng=rng)
            return "duplicate"
        return None
