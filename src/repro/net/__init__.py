"""``repro.net`` — the network runtime: a compact binary wire codec and an
asyncio harness that drives the unchanged replica cores over real transports.

Three pieces (see docs/architecture.md, "The network runtime"):

* :mod:`repro.net.codec` — an SSZ-inspired deterministic binary encoding for
  every protocol message (request, response/NACK, gossip full/delta/advert,
  pull, checkpoint transfer) with varint interval packing, per-frame
  interned identifier tables and length-prefixed framing; content digests are
  computed over the canonical encoding.  On a replica->replica connection a
  link-owned :class:`~repro.net.codec.DescriptorWindow` spells a descriptor in
  full once and by back-reference afterwards; an endpoint-owned
  :class:`~repro.net.codec.DescriptorTable` remembers the full form's bytes,
  so a replica parses a descriptor once and holds one object for it.
* :mod:`repro.net.wire` — :class:`~repro.net.wire.WireCluster`, the
  deterministic wire harness: the seeded simulator with every message passed
  through the codec as real bytes (encode -> frame -> decode), which is what
  measures bytes-on-the-wire (benchmark E13) and replays conformance vectors
  over the net transport (``--runtime=net``).
* :mod:`repro.net.runtime` / :mod:`repro.net.driver` — every replica
  speaking the codec over TCP (or an in-process transport pair) through one
  ``asyncio.Protocol`` per connection: a sans-IO frame parser in, per-peer
  bounded pending lists flushed as one coalesced frame per loop iteration
  out, plus a concurrent multi-client load driver that plays the
  simulator's seeded request plans (``repro.sim.workload``) and reports
  ops/s, latency percentiles and actual bytes per message kind.
"""

from repro.net.codec import (
    WIRE_VERSION,
    DescriptorTable,
    DescriptorWindow,
    FrameError,
    decode_frame,
    encode_frame,
    encode_message,
    frame_digest,
    message_digest,
)
from repro.net.runtime import NetCluster, NetParams
from repro.net.wire import WireCluster, WireStats

__all__ = [
    "WIRE_VERSION",
    "DescriptorTable",
    "DescriptorWindow",
    "FrameError",
    "decode_frame",
    "encode_frame",
    "encode_message",
    "frame_digest",
    "message_digest",
    "DriverReport",
    "run_load",
    "NetCluster",
    "NetParams",
    "WireCluster",
    "WireStats",
]

_DRIVER_EXPORTS = ("DriverReport", "run_load")


def __getattr__(name):
    # The driver re-exports are lazy: an eager import would place
    # ``repro.net.driver`` in ``sys.modules`` before ``python -m
    # repro.net.driver`` executes it as ``__main__`` (a RuntimeWarning on
    # the documented CLI invocation).
    if name in _DRIVER_EXPORTS:
        from repro.net import driver

        return getattr(driver, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
