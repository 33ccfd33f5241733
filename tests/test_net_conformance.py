"""Conformance vectors replayed over the wire-codec runtime.

The sealed vectors under tests/vectors record outcomes of the plain
simulator.  Replaying them with ``runtime="net"`` swaps every cluster for
:class:`repro.net.wire.WireCluster` — same discrete-event schedule, but
every message crossing a channel is round-tripped through the binary wire
codec (:mod:`repro.net.codec`) and its real encoded size is metered.  A
sound codec is invisible: the recorded outcomes must replay identically.

The full-corpus sweep lives in CI (``python -m repro.conformance.replay
tests/vectors --runtime=net``); here one vector per mode keeps the tier-1
suite fast while still crossing the codec for every message kind (full and
delta gossip, checkpoint bodies, adverts, pulls/transfers, crash
recovery, sharding).
"""

from pathlib import Path

import pytest

from repro.conformance.replay import replay_path

VECTOR_DIR = Path(__file__).parent / "vectors"

#: One representative per generator mode (see repro.conformance.generate).
SAMPLED = sorted(p.name for p in VECTOR_DIR.glob("*_003.json"))


def test_sample_covers_every_mode():
    modes = {name.rsplit("_", 1)[0] for name in (p.name for p in VECTOR_DIR.glob("*.json"))}
    sampled_modes = {name.rsplit("_", 1)[0] for name in SAMPLED}
    assert sampled_modes == modes


@pytest.mark.parametrize("name", SAMPLED)
def test_vector_replays_identically_over_net(name):
    outcome = replay_path(VECTOR_DIR / name, runtime="net")
    assert outcome is not None
