"""Smoke test of ``benchmarks/sample_profile.py`` — the sampler that names
*functions* where the budget's tracer names layers.  Nothing here looks at
a share's value beyond "the shares are shares"."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "sample_profile.py"


def load():
    spec = importlib.util.spec_from_file_location("sample_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spin(depth):
    if depth:
        return spin(depth - 1)
    return sum(i * i for i in range(400_000))


def test_self_ticks_partition_the_samples_and_recursion_counts_once():
    own, cumulative = load().sample(lambda: [spin(5) for _ in range(8)], 0.001)
    total = sum(own.values())
    assert total >= 10
    here = (__file__, "spin")
    # Six frames of ``spin`` on the stack are still one tick of cumulative time.
    assert own[here] <= cumulative[here] <= total
    assert max(cumulative.values()) == total
    assert any("genexpr" in name for _file, name in own)  # the frame that burns the CPU


def test_tcp_closed_at_smoke_scale_prints_the_three_tables():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "tcp_closed", "--scale", "0.02", "--top", "5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    samples = int(re.fullmatch(r"== tcp_closed  seed 1  scale 0.02  samples (\d+)", lines[0])[1])
    assert samples > 0
    titles = [line for line in lines if line.startswith("-- ")]
    assert titles == [
        "-- self time by module",
        "-- self time by function",
        "-- cumulative time by function",
    ]
    rows = [re.fullmatch(r"  +([\d.]+) %  +(\d+)  (\S.*)", line) for line in lines[1:]]
    rows = [row for row in rows if row]
    assert len(rows) == 15 and all(0 < int(row[2]) <= samples for row in rows)
    assert any(row[3].startswith("src/repro/net/codec.py") for row in rows)
