"""One run of one workload in a process of its own (spawned by ``run.py``
with ``src`` on ``PYTHONPATH``).  Prints one JSON object on the last line of
standard output: every metric this run can compute, by name; the parent
decides which of them to report.  A failed correctness check exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict

import checks
import tracing
import workloads
from repro.common import EsdsError


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def metrics_of(run: workloads.Run, measured: workloads.Measured) -> Dict[str, float]:
    counters, ops, window = measured.counters, measured.attempted, measured.window.reading()
    # Times are in reference seconds (refclock.py), taken over the whole
    # window or over its fast intervals.
    rates = window.fast if measured.fast_only else window.whole
    metrics = {
        "setup_s": statistics.median(measured.setup_s),
        # An open loop answers at the pace of its schedule whatever the host
        # does, so its throughput is in plain seconds.
        "throughput_ops_s": (
            (ops - measured.failed) / window.elapsed_s
            if measured.open_loop
            else rates.ops / rates.wall_s
        ),
        "cpu_ms_per_op": rates.cpu_s * 1e3 / rates.ops,
        "peak_rss_mb": measured.window.peak_rss_mb(),
        "load.host_slowness": window.slowness,
        "load.fast_share": window.fast_share,
        "load.raw_throughput_ops_s": (ops - measured.failed) / window.elapsed_s,
        "load.raw_cpu_ms_per_op": window.cpu_s * 1e3 / ops,
        # Counts from the public stats structs (ReplicaStats, NetStats,
        # MessageCounters), as deltas over the window.
        "codec.frames": counters.get("frames", 0),
        "codec.bytes": counters.get("bytes", 0),
        "codec.gossip_bytes_frac": _ratio(
            counters.get("payload.gossip", 0),
            sum(value for key, value in counters.items() if key.startswith("payload.")),
        ),
        "runtime.idle_s": window.wall_s - window.cpu_s,
        "runtime.msgs_per_frame": _ratio(
            sum(value for key, value in counters.items() if key.startswith("msgs.")),
            counters.get("frames", 0),
        ),
        "runtime.gossip_skipped": counters.get("gossip_skipped", 0),
        # Request messages written beyond one per operation.
        "runtime.request_resends": max(0, counters.get("msgs.request", ops) - ops),
        "core.gossip_msgs_per_op": counters["gossip_sent"] / ops,
        "core.value_applications_per_op": counters["value_applications"] / ops,
        "core.done_order_sorts": counters["done_order_sorts"],
        "checkpoint.compactions": counters["compactions"],
        "checkpoint.compacted_ops": counters["compacted_operations"],
        "checkpoint.pulls": counters.get("msgs.pull", 0),
        "checkpoint.transfers": counters.get("msgs.transfer", 0),
        "checkpoint.transfer_bytes": counters.get("payload.transfer", 0),
        "sim.messages_per_op": counters.get("messages", 0) / ops,
    }
    metrics.update(measured.rows)
    if run.tracer is None:
        return metrics

    # Self time per layer; whatever process CPU no span covers belongs to the
    # harness that drove the cores: asyncio, queues and sockets
    # (``net.runtime``), the event scheduler (``sim.cluster``), or this
    # benchmark's own loop (``core_catchup``).
    self_times = run.tracer.self_times()
    traced = sum(self_times.values())
    for row in tracing.SPAN_ROWS:
        metrics[row] = self_times.get(row, 0.0)
    remainder = {"sim_steady": "sim.other_s", "core_catchup": "load.other_cpu_s"}.get(
        run.workload, "runtime.other_cpu_s"
    )
    metrics[remainder] = window.cpu_s - traced
    metrics["trace.cpu_s"] = window.cpu_s
    metrics["trace.attributed_frac"] = traced / window.cpu_s
    counts = run.tracer.counts
    metrics["codec.op_decodes_per_op"] = counts["op_decodes"] / ops
    # Operation references shipped in gossip per operation.  The simulator
    # counts them itself; elsewhere they are summed where make_gossip returns.
    metrics["core.op_refs_per_op"] = counters.get("op_refs", counts["op_refs"]) / ops
    metrics["core.tracked_ops_peak"] = counts["tracked_ops_peak"]
    metrics["core.stale_nacks"] = counts["stale_nacks"]
    metrics["frontend.nacks"] = counts["frontend_nacks"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", help="write the spans to this file (traced runs)")
    args = parser.parse_args()

    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        tracer=tracing.Tracer() if args.traced else None,
    )
    header = {"workload": run.workload, "seed": run.seed, "scale": run.scale}
    try:
        measured = workloads.WORKLOADS[run.workload](run)
    except (checks.CheckFailed, EsdsError) as error:
        print(f"{run.workload}: check failed: {error}", file=sys.stderr)
        return 1
    if run.tracer is not None and args.out:
        run.tracer.dump(args.out, header)
    print(
        json.dumps(
            {
                **header,
                "traced": run.tracer is not None,
                "attempted": measured.attempted,
                "failed": measured.failed,
                "checks": measured.checks,
                "metrics": metrics_of(run, measured),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
