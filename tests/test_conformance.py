"""Tests for the conformance-vector subsystem (codec, generator, replayer)
plus a full replay of the checked-in corpus under ``tests/vectors/``."""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repro.common import OperationId
from repro.conformance import (
    ConformanceError,
    ScenarioOutcome,
    ScenarioSpec,
    collect_outcome,
    compare_outcomes,
    content_digest,
    decode_value,
    dumps_vector,
    encode_value,
    loads_vector,
    run_scenario,
    seal,
    state_digest,
    verify_sealed,
)
from repro.conformance.codec import decode_op_id, encode_op_id
from repro.conformance.generate import (
    MODES,
    generate_corpus,
    scenario_for,
    vector_doc,
)
from repro.conformance.replay import (
    dump_failure_artifact,
    iter_vector_files,
    replay_doc,
    replay_path,
    verify_digest_path,
)
from repro.sim.faults import FAULT_KINDS, fault_from_dict, fault_to_dict

VECTOR_DIR = Path(__file__).resolve().parent / "vectors"
VECTOR_FILES = sorted(VECTOR_DIR.glob("*.json"))


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            "plain string",
            "unicode ☃ snowman",
            3.5,
            -0.0,
            1e-300,
            (1, 2, 3),
            (),
            ("nested", (True, None)),
            frozenset(),
            frozenset({"a", "b", "c"}),
            frozenset({1, ("x", 2.5)}),
            {"k": 1, "other": (2, 3)},
            {},
            {"deep": {"map": frozenset({("pair", 1)})}},
        ],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_round_trip_preserves_types(self):
        value = ("tuple", frozenset({1, 2}), {"d": 0.5})
        decoded = decode_value(encode_value(value))
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], frozenset)
        assert isinstance(decoded[2]["d"], float)

    def test_float_encoding_is_exact(self):
        for value in [0.1, 2.0 / 3.0, 1e308, 5e-324]:
            decoded = decode_value(encode_value(value))
            assert decoded == value and isinstance(decoded, float)
        # int and float encode distinctly even when numerically equal.
        assert encode_value(1) != encode_value(1.0)

    def test_frozenset_encoding_is_order_independent(self):
        a = frozenset(["x", "y", "z"])
        b = frozenset(["z", "x", "y"])
        assert json.dumps(encode_value(a), sort_keys=True) == json.dumps(
            encode_value(b), sort_keys=True
        )

    def test_unsupported_types_rejected(self):
        with pytest.raises(ConformanceError):
            encode_value([1, 2, 3])  # lists are not in the value model
        with pytest.raises(ConformanceError):
            encode_value(Fraction(1, 3))
        with pytest.raises(ConformanceError):
            decode_value({"t": [1], "extra": 2})

    def test_op_id_round_trip(self):
        op = OperationId(client="client#with#hash", seqno=42)
        assert decode_op_id(encode_op_id(op)) == op

    def test_pinned_digest(self):
        # Freezes the canonical encoding: if this digest ever changes, the
        # format changed and FORMAT_VERSION must be bumped.
        doc = {
            "name": "pin",
            "payload": encode_value({"set": frozenset({1, 2}), "tup": (1.5, None)}),
        }
        assert content_digest(doc) == (
            "sha256:ed4e4e7e1b3b13941aa247e8ed6093c4b1706f4e48965a066d9ad44c993a817d"
        )

    def test_seal_and_verify(self):
        doc = seal({"name": "x", "scenario": {"seed": 1}})
        verify_sealed(doc)
        tampered = copy.deepcopy(doc)
        tampered["scenario"]["seed"] = 2
        with pytest.raises(ConformanceError, match="digest mismatch"):
            verify_sealed(tampered)

    def test_loads_vector_rejects_bad_documents(self):
        doc = seal({"name": "x"})
        loads_vector(dumps_vector(doc))
        with pytest.raises(ConformanceError):
            loads_vector("not json {")
        with pytest.raises(ConformanceError, match="root"):
            loads_vector("[1, 2]")
        with pytest.raises(ConformanceError, match="kind"):
            verify_sealed(dict(doc, kind="other"))
        with pytest.raises(ConformanceError, match="format version"):
            verify_sealed(dict(doc, format_version=99))

    def test_state_digest_shape(self):
        digest = state_digest({"counter": 3})
        assert len(digest) == 16 and set(digest) <= set("0123456789abcdef")
        assert digest == state_digest({"counter": 3})
        assert digest != state_digest({"counter": 4})


class TestFaultSerialization:
    def test_round_trip_every_kind(self):
        samples = {
            "replica_crash": dict(replica="r0", at=1.0, recover_at=2.0, volatile_memory=True),
            "gossip_outage": dict(replica="r1", start=1.0, end=2.0),
            "delay_spike": dict(start=1.0, end=2.0),
            "asymmetric_partition": dict(source="r0", destination="r1", start=1.0, end=2.0),
            "straggler": dict(replica="r2", factor=4.0, start=0.0, end=5.0),
            "duplicate_messages": dict(start=0.0, end=3.0, probability=0.25),
            "corrupt_transfers": dict(start=0.0, end=3.0, probability=1.0),
            "clock_skew": dict(start=0.0, end=6.0, max_skew=2.5, replicas=["r0", "r2"]),
        }
        assert set(samples) == set(FAULT_KINDS)
        for kind, fields in samples.items():
            doc = dict(fields, kind=kind)
            fault = fault_from_dict(doc)
            assert isinstance(fault, FAULT_KINDS[kind])
            assert fault_to_dict(fault) == doc

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fault_from_dict({"kind": "meteor_strike", "start": 0.0, "end": 1.0})

    def test_extra_keys_ignored(self):
        doc = {"kind": "delay_spike", "start": 1.0, "end": 2.0, "shard": "s1"}
        fault = fault_from_dict(doc)
        assert (fault.start, fault.end) == (1.0, 2.0)


class TestScenarioSpec:
    def test_round_trip_through_doc(self):
        for mode in MODES:
            spec = scenario_for(mode, 3)
            assert ScenarioSpec.from_doc(spec.to_doc()) == spec

    def test_validation(self):
        spec = scenario_for("full", 0)
        import dataclasses

        with pytest.raises(ConformanceError):
            dataclasses.replace(spec, harness="quantum")
        with pytest.raises(ConformanceError):
            dataclasses.replace(spec, data_type="blockchain")
        with pytest.raises(ConformanceError):
            dataclasses.replace(spec, harness="sharded", num_shards=0)


class TestGenerator:
    def test_generation_is_deterministic(self, tmp_path):
        spec = scenario_for("delta-compact", 2)
        first = dumps_vector(vector_doc(spec, run_scenario(spec)))
        second = dumps_vector(vector_doc(spec, run_scenario(spec)))
        assert first == second

    def test_generate_corpus_writes_replayable_vectors(self, tmp_path):
        paths = generate_corpus(tmp_path, seeds=1, modes=["full", "sharded"], verbose=False)
        assert len(paths) == 2
        for path in paths:
            replay_path(path)

    def test_modes_cover_issue_matrix(self):
        # full/delta gossip x compaction x advert/pull x sharded, plus the
        # crafted adversarial mode — 8 modes x 5 seeds = the 40-vector corpus.
        assert set(MODES) == {
            "full",
            "delta",
            "full-compact",
            "delta-compact",
            "advert",
            "advert-delta",
            "sharded",
            "adversarial",
        }


class TestCorpus:
    def test_corpus_size_and_composition(self):
        # Exactly the generated cells: a stale or stray vector fails here.
        expected = {f"{mode}_{seed:03d}.json" for mode in MODES for seed in range(5)}
        assert {path.name for path in VECTOR_FILES} == expected
        adversarial = [p for p in VECTOR_FILES if p.name.startswith("adversarial")]
        assert adversarial, "corpus must include adversarial vectors"

    def test_corpus_digests(self):
        for path in VECTOR_FILES:
            verify_digest_path(path)

    @pytest.mark.parametrize("path", VECTOR_FILES, ids=lambda p: p.stem)
    def test_replay_corpus_vector(self, path):
        replay_path(path)

    def test_adversarial_vectors_exercise_corruption(self):
        # At least one checked-in vector must actually have hit the
        # corrupted-transfer reject-and-re-pull path (issue acceptance).
        rejections = 0
        for path in VECTOR_FILES:
            if not path.name.startswith("adversarial"):
                continue
            doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
            for group in doc["info"]["groups"].values():
                rejections += group["transfer_rejections"]
        assert rejections > 0

    def test_sample_regeneration_is_byte_identical(self):
        # Guards against nondeterminism drift without regenerating all 40
        # vectors (the nightly CI job does the full sweep).
        rng = random.Random(2026)
        for path in rng.sample(VECTOR_FILES, 3):
            recorded = path.read_text(encoding="utf-8")
            doc = loads_vector(recorded, str(path))
            spec = ScenarioSpec.from_doc(doc["scenario"])
            regenerated = dumps_vector(vector_doc(spec, run_scenario(spec)))
            assert regenerated == recorded, f"{path.name} is stale; regenerate the corpus"


class TestReplayer:
    def _sealed_vector(self, mode="full", seed=0):
        spec = scenario_for(mode, seed)
        return spec, vector_doc(spec, run_scenario(spec))

    def test_replay_detects_tampered_expectation(self):
        spec, doc = self._sealed_vector()
        tampered = copy.deepcopy(doc)
        digests = tampered["expected"]["replica_digests"]
        group = next(iter(digests))
        replica = next(iter(digests[group]))
        digests[group][replica] = "sha256:0000000000000000"
        tampered = seal({k: v for k, v in tampered.items() if k != "digest"})
        with pytest.raises(ConformanceError, match="diverged"):
            replay_doc(tampered, "tampered")

    def test_replay_oracles_only_skips_comparison(self):
        spec, doc = self._sealed_vector()
        tampered = copy.deepcopy(doc)
        tampered["expected"]["witness"] = list(reversed(tampered["expected"]["witness"]))
        tampered = seal({k: v for k, v in tampered.items() if k != "digest"})
        replay_doc(tampered, "tampered", oracles_only=True)

    def test_outcome_round_trip_and_compare(self):
        spec, doc = self._sealed_vector("delta", 1)
        outcome = ScenarioOutcome.from_doc(doc["expected"])
        assert ScenarioOutcome.from_doc(outcome.to_doc()) == outcome
        assert compare_outcomes(outcome, outcome) == []
        observed = collect_outcome(run_scenario(spec))
        assert compare_outcomes(outcome, observed) == []

    def test_failure_artifact_dump_and_replay(self, tmp_path):
        spec = scenario_for("full", 4)
        path = dump_failure_artifact(spec, RuntimeError("boom"), tmp_path)
        doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
        assert doc["expected"] is None
        assert "boom" in doc["info"]["failure"]
        # A spec-only artifact replays in oracles-only mode (the recorded
        # scenario here is healthy, so the oracles pass).
        replay_path(path)

    def test_iter_vector_files_rejects_empty(self, tmp_path):
        with pytest.raises(ConformanceError):
            iter_vector_files([tmp_path])
