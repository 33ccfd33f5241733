"""Smoke test of the budget benchmark (collected by the tier-1 command).

Every workload runs traced and untraced at ``--scale 0.02``: the names the
children compute must be exactly the names ``BENCHMARK.json`` lists, the
correctness checks must have run, and the driver's form must print exactly
the listed metrics.  Nothing here looks at a timing's value.
"""

import json
import subprocess
import sys

import run
import tracing

SPEC = run.load_spec()
WORKLOADS = run.workload_names(SPEC)
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
SCALE = 0.02
CPU_ROWS = tracing.SPAN_ROWS + ["runtime.other_cpu_s", "sim.other_s", "load.other_cpu_s"]


def test_children_compute_exactly_the_listed_names_and_check_their_outputs():
    computed = {"trace.overhead_frac"}  # derived by the parent from the pair
    for workload in WORKLOADS:
        for traced in (False, True):
            report = run.run_child(workload, 3, SPEC["run_seconds"], SCALE, traced=traced)
            assert report["workload"] == workload and report["traced"] is traced
            assert report["attempted"] >= 1 and report["failed"] == 0
            assert report["checks"], "no correctness check ran"
            assert set(END_TO_END) <= set(report["metrics"])
            assert all(report["metrics"][name] > 0 for name in END_TO_END)
            assert report["metrics"]["failed_frac"] == 0
            computed |= set(report["metrics"])
            if traced:
                # Self times plus the remainder row add up to the window's CPU.
                attributed = sum(report["metrics"].get(row, 0.0) for row in CPU_ROWS)
                cpu_s = report["metrics"]["trace.cpu_s"]
                assert abs(attributed - cpu_s) <= 0.02 * cpu_s
    assert computed == set(END_TO_END) | set(PER_LAYER)


def test_driver_form_prints_exactly_the_listed_metrics():
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        done = subprocess.run(
            [sys.executable, run.__file__, "--workload", "sim_steady", "--seed", "5"]
            + ["--seconds", "8", "--scale", str(SCALE), "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "== sim_steady" in done.stdout and "checks passed: answered" in done.stdout
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [metric["name"] for metric in listed]
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_check_bounds_flags_only_disagreeing_sets():
    def one_set(throughput, sorts):
        metrics = {name: 1.0 for name in END_TO_END + list(run.SIM_EXACT)}
        metrics.update({name: 1.0 for _workload, name in run.OWN_BOUNDS})
        metrics.update({"throughput_ops_s": throughput, "core.done_order_sorts": sorts})
        return {workload: {"metrics": dict(metrics)} for workload in WORKLOADS}

    assert run.check_bounds(SPEC, [one_set(100.0, 4), one_set(104.0, 4)]) == []
    violations = run.check_bounds(SPEC, [one_set(100.0, 4), one_set(150.0, 5)])
    assert len(violations) == len(WORKLOADS) + 1  # throughput everywhere + sim count
    assert any("sim_steady core.done_order_sorts" in violation for violation in violations)
