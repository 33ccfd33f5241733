"""The benchmark regression gate compares a band only against an artifact
produced at the size the band's promise was made for (``"when"`` guards in
``benchmarks/baselines/``)."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

E14_METRICS = {
    "long_ops": 50000,
    "long_replay_speedup": 9.0,
    "net_ops_over_prior_e13": 3.0,
    "batch_over_fast_tcp": 0.95,
    "sim_value_applications_ratio": 1.0,
}


@pytest.fixture
def gate(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "check_regression", BENCHMARKS / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    shutil.copy(BENCHMARKS / "baselines" / "BASELINE_E14.json", baselines)
    monkeypatch.setattr(module, "BASELINE_DIR", baselines)

    def run(update=False, **overrides):
        artifact = {"experiment": "E14", "metrics": {**E14_METRICS, **overrides}}
        (tmp_path / "BENCH_E14.json").write_text(json.dumps(artifact))
        return module.run(tmp_path, update=update)

    run.baseline = lambda: json.loads((baselines / "BASELINE_E14.json").read_text())
    return run


def test_long_arm_promise_is_gated_at_its_own_size(gate, capsys):
    assert gate() == 0
    assert "[skip] E14 50k catch-up arm" not in capsys.readouterr().out
    assert gate(long_replay_speedup=1.2) == 1  # below the hard 1.5x promise


def test_ci_size_artifact_is_not_held_to_the_long_arm_promise(gate, capsys):
    # Readings of 0.83x-1.47x were recorded at 12 000 operations.
    assert gate(long_ops=12000, long_replay_speedup=0.83) == 0
    assert "[skip] E14 50k catch-up arm" in capsys.readouterr().out
    assert gate(long_ops=12000, long_replay_speedup=0.3) == 1  # the short arm's own band


def test_update_never_rewrites_a_band_from_another_size(gate):
    before = gate.baseline()
    assert gate(update=True, long_ops=12000, long_replay_speedup=1.0) == 0
    after = gate.baseline()
    assert after["checks"][0] == before["checks"][0]
    assert after["checks"][0]["baseline"] > 1.5


def test_absent_guard_metric_fails_the_gate(gate):
    assert gate(long_ops=None) == 1  # a null reads as absent
