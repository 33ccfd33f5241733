"""The deterministic wire harness: the seeded simulator with real bytes.

:class:`WireCluster` subclasses :class:`~repro.sim.cluster.SimulatedCluster`
and overrides its :meth:`~repro.sim.cluster.SimulatedCluster._transit` hook so
that every message a cluster sends — request, response, gossip, pull,
transfer — is pushed through the binary codec on its way from sender to
receiver:

    message object --encode--> frame bytes --decode--> fresh message object

The receiver therefore operates on a genuinely deserialized copy (anything
the codec lost would change behaviour), while the event schedule is
bit-identical to the plain simulator's: the hook is the ``transit`` step of
:meth:`~repro.sim.network.SimulatedNetwork.send`, after the loss decision and
before the delay, and consumes no randomness.  That gives two things at once:

* a *lockstep twin* proof that the codec is lossless over every message of
  every scenario (same seeds -> same responses, same eventual order, same
  digests as the plain simulator), which is how ``--runtime=net`` replays the
  conformance corpus; and
* exact **bytes-on-the-wire** accounting per message kind
  (:class:`WireStats`), replacing the ``wire_estimate`` op-ref counts in the
  E8/E11 payload claims — benchmark E13 is built on this harness.

One kind of traffic never crosses the hook: the slice messages of a live
reshard.  :meth:`~repro.sim.sharded.ShardedCluster._send_slice` puts them
through the source shard's :meth:`~repro.sim.network.SimulatedNetwork.send`
with no transit hook (a slice has no wire form), so a ``--runtime=net``
replay proves nothing about slice bytes and :class:`WireStats` does not
count them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.net.codec import decode_frame, encode_message
from repro.sim.cluster import SimulatedCluster

#: Message kinds accounted separately (the simulator's counter categories).
KINDS = ("request", "response", "gossip", "pull", "transfer")


@dataclass
class WireStats:
    """Actual bytes encoded onto the wire, by message kind.

    ``frames`` counts encoded frames (= messages here: the deterministic
    harness frames each message alone so attribution is exact; the asyncio
    runtime coalesces).
    """

    frames: int = 0
    bytes_by_kind: Dict[str, int] = field(default_factory=lambda: {k: 0 for k in KINDS})

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    def bytes_for(self, *kinds: str) -> int:
        return sum(self.bytes_by_kind[kind] for kind in kinds)


class WireCluster(SimulatedCluster):
    """A :class:`~repro.sim.cluster.SimulatedCluster` whose messages really
    cross the codec.  Same constructor; see the module docstring."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.wire_stats = WireStats()

    def _transit(self, kind: str, message):
        frame = encode_message(message)
        self.wire_stats.frames += 1
        self.wire_stats.bytes_by_kind[kind] += len(frame)
        (decoded,) = decode_frame(frame)
        return decoded
