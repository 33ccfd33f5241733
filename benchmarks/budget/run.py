"""The steady-state budget benchmark: one command, every metric by name.

    python3 benchmarks/budget/run.py [--workload W] [--seed S] [--traced]
        [--out FILE] [--scale X] [--repeat N [--check-bounds]]

runs each workload in a fresh child process (``child.py``, with ``src`` put
on its ``PYTHONPATH``), checks that its outputs are correct, and prints every
metric with its unit.  Workload and metric names, units and regression
bounds are read from ``BENCHMARK.json`` at the repository root; the README
beside this file says what each one means.

End-to-end metrics come only from untraced runs.  ``--traced`` repeats each
workload with spans recorded (see ``tracing.py``) and adds the per-layer
rows; the traced run contributes only what the untraced one cannot measure.

The benchmark driver's form,

    run.py --workload W --seed S --seconds T --trace 0|1

prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

CHILD_TIMEOUT_S = 150

#: Workloads this command runs beside those ``BENCHMARK.json`` lists.  The
#: driver makes 22 runs per listed workload inside a fixed total, and the
#: host needs windows of 20 s to read steadily, which leaves room for four;
#: what ``tcp_crash`` is for (fail-over latency, the pull/transfer path, the
#: casualty count) the driver could not gate anyway, so it is the one left
#: out.  It is run, checked and printed like the others.
ADVISORY_WORKLOADS = ("tcp_crash",)

#: Workload-specific end-to-end rows.  The driver's contract gates only
#: metrics that every workload reports and that are never 0, so these are
#: listed under ``per_layer`` in BENCHMARK.json; ``--check-bounds`` still
#: holds each to a bound on the workloads that report it.  The bounds start
#: from issue 13's table and are widened only where the measured spread
#: (interquartile range / median over seeds 701..710, in the comment) asked
#: for it.  ``nonstrict_p50_ms`` spread 0.44 on this host and is not gated.
OWN_BOUNDS = {
    ("mem_open_mixed", "strict_p50_ms"): 0.10,  # 0.038
    ("mem_open_mixed", "strict_p95_ms"): 0.20,  # 0.112; the issue asked 0.10
    ("tcp_crash", "failover_p50_ms"): 0.20,  # 0.102; the issue asked 0.10
    ("mem_open_mixed", "bytes_per_op"): 0.05,  # 0.009
    ("tcp_crash", "bytes_per_op"): 0.10,  # 0.044; the issue asked 0.05
    # Gossip is time-driven, so at saturation bytes per operation follow the
    # host's speed: 0.017 over 20 s windows, 0.105 over 8 s ones; the issue
    # asked 0.05.
    ("tcp_closed", "bytes_per_op"): 0.10,
}
#: ``sim_steady`` runs under one seeded scheduler: these repeat exactly.
SIM_EXACT = (
    "core.gossip_msgs_per_op",
    "core.value_applications_per_op",
    "core.done_order_sorts",
    "checkpoint.compactions",
    "checkpoint.compacted_ops",
    "sim.messages_per_op",
)


class RunFailed(Exception):
    """A child exited non-zero (a correctness check failed) or timed out."""


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [workload["name"] for workload in spec["workloads"]] + list(ADVISORY_WORKLOADS)


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    scale: float,
    traced: bool = False,
    out: Optional[str] = None,
) -> Dict[str, Any]:
    """One run in a process of its own; returns the object it printed."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale)]
    if traced:
        command.append("--traced")
        if out:
            command += ["--out", out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        # ``run`` kills the child and waits for it when the timeout expires.
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise RunFailed(f"{workload}: child exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, scale: float, traced: bool, out: Optional[str]
) -> Dict[str, Any]:
    """The untraced run and, when asked, the traced one, merged: untraced
    values win wherever both runs measured the same thing."""
    report = run_child(workload, seed, seconds, scale)
    if traced:
        plain = report["metrics"]
        report = run_child(workload, seed, seconds, scale, traced=True, out=out)
        report["metrics"]["trace.overhead_frac"] = (
            report["metrics"]["cpu_ms_per_op"] / plain["cpu_ms_per_op"] - 1.0
        )
        report["metrics"].update(plain)
    return report


def units_of(listed: List[Dict[str, Any]]) -> Dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    return {metric["name"]: metric["unit"] for metric in listed}


def select(report: Dict[str, Any], names: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Exactly *names* from a report.  A row whose layer the workload never
    enters (codec rows in the simulator, say) reads 0."""
    return {
        name: {"value": report["metrics"].get(name, 0.0), "unit": unit}
        for name, unit in names.items()
    }


def print_report(report: Dict[str, Any], names: Dict[str, str]) -> None:
    print(
        f"== {report['workload']}  seed {report['seed']}  scale {report['scale']}  "
        f"attempted {report['attempted']}  failed {report['failed']}  "
        f"checks passed: {', '.join(report['checks'])}"
    )
    for name, metric in select(report, names).items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")


def worse_by(first: float, second: float) -> float:
    """The share by which the worse of two readings exceeds the better."""
    low, high = sorted((first, second))
    if low <= 0:
        return 0.0 if high <= 0 else float("inf")
    return high / low - 1.0


def check_bounds(spec: Dict[str, Any], sets: List[Dict[str, Dict[str, Any]]]) -> List[str]:
    """Compare every pair of sets; returns the violations found."""
    violations = []
    bounds = {
        (workload, metric["name"]): metric["bound"]
        for workload in workload_names(spec)
        for metric in spec["end_to_end"]
    }
    bounds.update(OWN_BOUNDS)
    bounds.update({("sim_steady", name): 0.0 for name in SIM_EXACT})
    for (workload, name), bound in sorted(bounds.items()):
        readings = [one[workload]["metrics"][name] for one in sets if workload in one]
        for i, first in enumerate(readings):
            for second in readings[i + 1 :]:
                gap = worse_by(first, second)
                if gap > bound:
                    violations.append(
                        f"{workload} {name}: {first:.6g} vs {second:.6g} "
                        f"differ by {gap:.1%} > {bound:.0%}"
                    )
    return violations


def print_spread(sets: List[Dict[str, Dict[str, Any]]], names: Dict[str, str]) -> None:
    for workload in sets[0]:
        print(f"== {workload}: median [q1, q3] over {len(sets)} sets")
        for name, unit in names.items():
            values = [one[workload]["metrics"].get(name, 0.0) for one in sets]
            q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            print(
                f"  {name:<34} {statistics.median(values):>14.6g} "
                f"[{q1:.6g}, {q3:.6g}] {unit}"
            )


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names(spec), help="default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--scale", type=float, default=1.0, help="shrink window and warm-up")
    parser.add_argument("--traced", action="store_true", help="add the traced run")
    parser.add_argument("--out", help="write the traced run's spans here (needs --workload)")
    parser.add_argument("--repeat", type=int, default=1, help="run this many sets")
    parser.add_argument("--check-bounds", action="store_true", help="fail if two sets disagree")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver form, see above")
    args = parser.parse_args(argv)
    if (args.trace is not None or args.out) and not args.workload:
        parser.error("--trace and --out need --workload")

    traced = args.traced or args.trace == 1
    names = units_of(spec["end_to_end"] + (spec["per_layer"] if traced else []))
    chosen = [args.workload] if args.workload else workload_names(spec)
    sets: List[Dict[str, Dict[str, Any]]] = []
    try:
        for _ in range(args.repeat):
            sets.append({})
            for workload in chosen:
                report = measure(workload, args.seed, args.seconds, args.scale, traced, args.out)
                sets[-1][workload] = report
                print_report(report, names)
    except RunFailed as failure:
        print(failure, file=sys.stderr)
        return 1
    if args.repeat > 1:
        print_spread(sets, names)
    if args.check_bounds:
        violations = check_bounds(spec, sets)
        for violation in violations:
            print(f"OUT OF BOUNDS  {violation}")
        if violations:
            return 1
        print(f"every gated metric of {len(sets)} sets agrees within its bound")
    if args.trace is not None:
        report = sets[-1][args.workload]
        wanted = units_of(spec["per_layer"] if args.trace else spec["end_to_end"])
        print(
            json.dumps(
                {
                    "correct": True,
                    "attempted": report["attempted"],
                    "failed": report["failed"],
                    "metrics": select(report, wanted),
                }
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
