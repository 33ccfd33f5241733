"""Conformance-vector replayer.

``python -m repro.conformance.replay tests/vectors/`` re-executes every
vector on its recorded harness and asserts that the execution matches the
recorded expectation exactly — every response value, the permanent-failure
set, the lost/stuck classification, the Theorem 5.8 witness order and the
converged per-replica state digests — *and* re-runs the full oracle suite
(Section 7/8 invariant checker, eventual-serializability oracle) on the live
execution, so a vector keeps verifying the algorithm even if its recorded
expectation were somehow stale.

Vectors without an ``expected`` section (fuzzer failure artifacts, see
:func:`dump_failure_artifact`) replay in oracles-only mode: the scenario is
re-executed and the oracle suite re-raises the original failure, which turns
a nightly fuzz crash into a one-command reproduction.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.conformance.codec import (
    ConformanceError,
    dumps_vector,
    loads_vector,
    seal,
    verify_sealed,
)
from repro.conformance.scenario import (
    ScenarioOutcome,
    ScenarioSpec,
    collect_outcome,
    compare_outcomes,
    run_scenario,
)


def replay_doc(
    doc: Dict[str, Any],
    source: str = "<vector>",
    oracles_only: bool = False,
    runtime: str = "sim",
) -> ScenarioOutcome:
    """Re-execute a sealed vector document and check it.

    Always verifies the content digest and re-runs the oracle suite on the
    fresh execution; unless *oracles_only* (or the vector carries no
    expectation), also asserts equality with the recorded outcome.  Returns
    the observed outcome; raises :class:`ConformanceError` on a mismatch, and
    the oracle's :class:`~repro.common.InvariantViolation` (the failing
    check's name in ``.check``) when an oracle fails.

    ``runtime="net"`` replays on the :class:`~repro.net.wire.WireCluster`
    twin so every message crosses the binary codec — the recorded outcome
    (taken on the plain simulator) must still match exactly.
    """
    verify_sealed(doc, source)
    spec = ScenarioSpec.from_doc(doc["scenario"])
    run = run_scenario(spec, runtime=runtime)
    observed = collect_outcome(run)  # runs the full oracle suite
    expected_doc = doc.get("expected")
    if expected_doc is not None and not oracles_only:
        expected = ScenarioOutcome.from_doc(expected_doc)
        mismatches = compare_outcomes(expected, observed)
        if mismatches:
            details = "\n  ".join(mismatches)
            raise ConformanceError(
                f"{source}: execution diverged from the recorded outcome:\n  {details}"
            )
    return observed


def replay_path(
    path: Path, oracles_only: bool = False, runtime: str = "sim"
) -> ScenarioOutcome:
    doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
    return replay_doc(doc, str(path), oracles_only=oracles_only, runtime=runtime)


def verify_digest_path(path: Path) -> None:
    """Digest/format check only (no replay)."""
    doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
    verify_sealed(doc, str(path))


def iter_vector_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and directories into the sorted list of vector files."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    if not files:
        raise ConformanceError(f"no vector files under {', '.join(map(str, paths))}")
    return files


def dump_failure_artifact(spec: ScenarioSpec, error: BaseException, directory: Path) -> Path:
    """Write a spec-only vector capturing a failing scenario (no ``expected``
    section — there is no known-good outcome to record).  Replaying the
    artifact re-executes the scenario and re-runs the oracles, reproducing
    the failure deterministically.  An oracle failure also records the name
    of the check that failed (``info["check"]``)."""
    directory.mkdir(parents=True, exist_ok=True)
    info = {"failure": f"{type(error).__name__}: {error}"}
    if getattr(error, "check", None) is not None:
        info["check"] = error.check
    doc = seal(
        {
            "name": spec.name,
            "scenario": spec.to_doc(),
            "expected": None,
            "info": info,
        }
    )
    path = directory / f"{spec.name}.json"
    path.write_text(dumps_vector(doc), encoding="utf-8")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance.replay",
        description="Replay conformance vectors and check the recorded outcomes.",
    )
    parser.add_argument("paths", nargs="+", type=Path, help="vector files or directories")
    parser.add_argument(
        "--digests-only",
        action="store_true",
        help="verify format and content digests without replaying",
    )
    parser.add_argument(
        "--oracles-only",
        action="store_true",
        help="re-run the oracle suite but skip the recorded-outcome comparison",
    )
    parser.add_argument(
        "--runtime",
        choices=("sim", "net"),
        default="sim",
        help="replay harness: plain simulator, or the wire-codec twin "
        "(every message encoded/decoded through repro.net.codec)",
    )
    parser.add_argument("--quiet", action="store_true", help="only report failures")
    args = parser.parse_args(argv)

    try:
        files = iter_vector_files(args.paths)
    except ConformanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    for path in files:
        try:
            if args.digests_only:
                verify_digest_path(path)
            else:
                replay_path(path, oracles_only=args.oracles_only, runtime=args.runtime)
        except Exception as exc:  # report every failure, then exit non-zero
            failures += 1
            check = getattr(exc, "check", None)
            named = f" [{check}]" if check is not None else ""
            print(f"FAIL {path}{named}: {exc}", file=sys.stderr)
        else:
            if not args.quiet:
                verb = "verified" if args.digests_only else "replayed"
                print(f"ok   {path} ({verb})")
    summary = f"{len(files) - failures}/{len(files)} vectors ok"
    print(summary if not failures else f"{summary}, {failures} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
