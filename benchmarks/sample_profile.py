"""Which function, whatever the layer: a sampling profile of one budget workload.

    python3 benchmarks/sample_profile.py --workload tcp_closed [--seed 1]
        [--seconds 20] [--scale 1.0] [--top 15] [--interval-ms 2]
        [--lines FUNC[,FUNC]] [--within FUNC[,FUNC]]

The budget's layer tracer (``budget/tracing.py``) answers *which layer*; a
cost smeared over every layer — a ``__hash__``, a generated ``__init__`` —
shows up in none of its rows.  This walks the interpreter stack on every
``ITIMER_PROF`` tick (CPU time, so idle waits are not sampled) around one
workload function of ``budget/workloads.py``, used as it is, and prints self
time by module and by function and cumulative time by function.  A sampler
costs the same whatever it interrupts, where ``cProfile`` taxes every Python
call and no C one, which is exactly the proportion in question here.

``--lines _decode_gossip,descriptor_body`` adds cumulative time per source
line of the named functions (a bare name matches every function of that
name; a qualified one, from Python 3.11, only itself).  A ``SIGPROF``
handler runs at the next call or backward jump, so the time of a line that
calls nothing (an in-place ``a |= b``) lands on the next line that does.

``--within _record_stream`` keeps only the ticks whose stack holds a
function of that name (matched as ``--lines`` matches), so one phase of a
workload — here ``core_catchup``'s set-up, which records the stream the
window then ingests — is profiled apart from the rest; every share is then
a share of that phase.
"""

from __future__ import annotations

import argparse
import linecache
import signal
import sys
from collections import Counter
from pathlib import Path
from typing import Collection, Tuple

ROOT = Path(__file__).resolve().parents[1]


def _place(filename: str) -> str:
    path = Path(filename)
    try:
        return str(path.relative_to(ROOT))
    except ValueError:
        return "/".join(path.parts[-2:])  # stdlib and site-packages: package/module.py


def _name(code) -> str:
    return getattr(code, "co_qualname", code.co_name)  # qualified from 3.11


def sample(
    work, interval_s: float, lines_of: Collection[str] = (), within: Collection[str] = ()
) -> Tuple[Counter, Counter, Counter]:
    """Run ``work()`` under the sampler: ``(self, cumulative)`` tick counts
    per ``(file, function)``, and cumulative tick counts per ``(file,
    function, line)`` of the functions named in *lines_of*.  With *within*,
    only the ticks whose stack holds a function it names are counted."""
    own: Counter = Counter()
    cumulative: Counter = Counter()
    lines: Counter = Counter()

    def tick(_signum, frame) -> None:
        stack = []
        here = set()
        inside = not within
        while frame is not None:
            code = frame.f_code
            stack.append((code.co_filename, _name(code)))
            if code.co_name in lines_of or stack[-1][1] in lines_of:
                here.add(stack[-1] + (frame.f_lineno or 0,))  # None between lines
            if not inside:
                inside = code.co_name in within or stack[-1][1] in within
            frame = frame.f_back
        if not inside:
            return
        own[stack[0]] += 1
        cumulative.update(set(stack))  # once per tick, however deep the recursion
        lines.update(here)

    previous = signal.signal(signal.SIGPROF, tick)
    signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)
    try:
        work()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return own, cumulative, lines


def _table(title: str, ticks_by_key: Counter, label, total: int, top: int) -> None:
    rows: Counter = Counter()
    for key, ticks in ticks_by_key.items():
        rows[label(key)] += ticks
    print(f"-- {title}")
    for name, ticks in rows.most_common(top):
        print(f"  {100.0 * ticks / total:5.1f} %  {ticks:6d}  {name}")


def _lines(lines: Counter, cumulative: Counter, total: int) -> None:
    """Per named function, its cumulative share, then each sampled line in
    source order with its own cumulative share and its text."""
    functions = sorted({key[:2] for key in lines}, key=lambda key: -cumulative[key])
    print("-- cumulative time by line")
    for function in functions:
        print(f"  {100.0 * cumulative[function] / total:5.1f} %  {cumulative[function]:6d}  "
              f"{_place(function[0])}:{function[1]}")
        for key in sorted(key for key in lines if key[:2] == function):
            text = linecache.getline(key[0], key[2]).strip()
            print(f"    {100.0 * lines[key] / total:5.1f} %  {lines[key]:6d}  {key[2]:5d}  {text}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--interval-ms", type=float, default=2.0)
    parser.add_argument("--lines", default="", metavar="FUNC[,FUNC]")
    parser.add_argument("--within", default="", metavar="FUNC[,FUNC]")
    args = parser.parse_args()
    lines_of = frozenset(name for name in args.lines.split(",") if name)
    within = frozenset(name for name in args.within.split(",") if name)

    sys.path[:0] = [str(ROOT / "benchmarks" / "budget"), str(ROOT / "src")]
    import workloads  # the budget's own workload functions, unmodified

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(workloads.WORKLOADS)}")
    run = workloads.Run(args.workload, args.seed, args.seconds, args.scale)
    own, cumulative, lines = sample(
        lambda: workloads.WORKLOADS[run.workload](run), args.interval_ms / 1000.0, lines_of, within
    )
    total = sum(own.values())
    phase = f"  within {args.within}" if within else ""
    print(f"== {run.workload}  seed {run.seed}  scale {run.scale}{phase}  samples {total}")
    if not total:
        return 1
    function = lambda key: f"{_place(key[0])}:{key[1]}"
    _table("self time by module", own, lambda key: _place(key[0]), total, args.top)
    _table("self time by function", own, function, total, args.top)
    _table("cumulative time by function", cumulative, function, total, args.top)
    if lines_of:
        _lines(lines, cumulative, total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
