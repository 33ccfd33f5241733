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
    own, cumulative, lines = load().sample(lambda: [spin(5) for _ in range(8)], 0.001)
    total = sum(own.values())
    assert total >= 10
    here = (__file__, "spin")
    # Six frames of ``spin`` on the stack are still one tick of cumulative time.
    assert own[here] <= cumulative[here] <= total
    assert max(cumulative.values()) == total
    assert any("genexpr" in name for _file, name in own)  # the frame that burns the CPU
    assert not lines  # no function was named


def test_lines_of_a_named_function_count_once_per_tick_on_the_line_that_runs():
    own, cumulative, lines = load().sample(
        lambda: [spin(5) for _ in range(8)], 0.001, lines_of={"spin"}
    )
    here = (__file__, "spin")
    assert lines and {key[:2] for key in lines} == {here}
    first = spin.__code__.co_firstlineno
    recurse, burn = first + 2, first + 3  # ``return spin(...)``, ``return sum(...)``
    assert {key[2] for key in lines} <= set(range(first, burn + 1))
    # Recursion puts both lines on one stack: each still counts once a tick,
    # and the line that burns the CPU is under nearly every tick of the
    # function (a tick may land on a call's entry instead).
    assert all(ticks <= cumulative[here] for ticks in lines.values())
    assert lines[here + (burn,)] > cumulative[here] / 2
    assert lines[here + (recurse,)] > 0


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


def test_lines_flag_prints_the_named_functions_line_by_line():
    done = subprocess.run(
        [
            sys.executable, str(SCRIPT), "--workload", "tcp_closed", "--scale", "0.02",
            "--top", "3", "--lines", "_decode_gossip,_Decoder.descriptor_body",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] != "-- cumulative time by line"
    table = lines[lines.index("-- cumulative time by line") + 1 :]
    functions = [re.fullmatch(r"  +[\d.]+ %  +\d+  (\S+)", line) for line in table]
    assert {row[1] for row in functions if row} <= {
        "src/repro/net/codec.py:_decode_gossip",
        "src/repro/net/codec.py:_Decoder.descriptor_body",
    }
    assert "src/repro/net/codec.py:_decode_gossip" in {row[1] for row in functions if row}
    rows = [re.fullmatch(r"    +[\d.]+ %  +\d+  +(\d+)  (.*)", line) for line in table]
    assert any(row and "dec.operation()" in row[2] for row in rows)
    assert all(row or function for row, function in zip(rows, functions))


def burn():
    return sum(i * i for i in range(400_000))


def test_within_counts_only_the_ticks_under_the_named_function():
    own, cumulative, lines = load().sample(
        lambda: [f() for _ in range(6) for f in (lambda: spin(2), burn)],
        0.001,
        within={"spin"},
    )
    total = sum(own.values())
    assert total >= 5
    # Every counted tick has ``spin`` on its stack; ``burn``'s never do.
    assert cumulative[(__file__, "spin")] == total
    assert cumulative[(__file__, "burn")] == 0


def test_within_profiles_the_catchup_setup_apart_from_its_window():
    done = subprocess.run(
        [
            sys.executable, str(SCRIPT), "--workload", "core_catchup", "--scale", "0.05",
            "--top", "5", "--interval-ms", "0.5", "--within", "_record_stream",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header = r"== core_catchup  seed 1  scale 0.05  within _record_stream  samples (\d+)"
    samples = int(re.fullmatch(header, lines[0])[1])
    cumulative = lines[lines.index("-- cumulative time by function") + 1 :]
    rows = [re.fullmatch(r"  +([\d.]+) %  +(\d+)  (\S.*)", line) for line in cumulative]
    by_name = {row[3]: int(row[2]) for row in rows if row}
    # The set-up is the whole of what was counted; the window's ingest
    # (``core_catchup`` itself, outside ``_record_stream``) is not.
    assert by_name["benchmarks/budget/workloads.py:_record_stream"] == samples
