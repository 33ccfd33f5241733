"""Conformance-vector generator.

``python -m repro.conformance.generate --seeds N --out tests/vectors/`` runs
the simulator and sharded harnesses over a deterministic seed matrix —
full/delta gossip x compaction on/off x advert/pull x sharded x an
adversarial mode with the extended fault mix — checks every execution
against the full oracle suite, and writes one sealed vector file per
scenario.

Determinism contract: everything a scenario draws comes from
``random.Random(stable_hash(f"{mode}:{seed}"))`` (the md5-based stable hash,
not Python's per-process ``hash``), so regenerating with the same seeds is
byte-identical — the CI nightly job regenerates the corpus and fails on any
drift.

The random spec builders here double as the scenario fuzzer's sampler
(tests/test_scenario_fuzz.py): the fuzzer explores fresh seeds every run and
dumps failures as vectors; the corpus freezes a reviewed sample of the same
distribution.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.algorithm.checkpoint import CompactionPolicy
from repro.config import ReplicaConfig
from repro.conformance.codec import dumps_vector, seal
from repro.conformance.scenario import (
    DATA_TYPE_NAMES,
    ScenarioRun,
    ScenarioSpec,
    collect_info,
    collect_outcome,
    run_scenario,
)
from repro.service.router import stable_hash
from repro.sim.cluster import SimulationParams
from repro.sim.faults import (
    AsymmetricPartition,
    CorruptTransfers,
    DelaySpike,
    DuplicateMessages,
    GossipOutage,
    ReplicaCrash,
    StragglerReplica,
    fault_to_dict,
)


# --------------------------------------------------------------------------- #
# Random spec ingredients (shared with the scenario fuzzer)                   #
# --------------------------------------------------------------------------- #

def random_params(rng: random.Random, delta_gossip: bool) -> SimulationParams:
    return SimulationParams(
        df=1.0,
        dg=1.0,
        gossip_period=rng.choice([1.0, 2.0]),
        jitter=rng.choice([0.0, 0.5]),
        loss_probability=rng.choice([0.0, 0.0, 0.1]),
        spike_factor=rng.choice([2.0, 5.0]),
        service_time=rng.choice([0.0, 0.1]),
        request_fanout=rng.choice([1, 2]),
        frontend_policy=rng.choice(["affinity", "round_robin", "random"]),
        retransmit_interval=4.0,  # masks loss and crash windows
        replica=ReplicaConfig(
            # The extensions run on the production core only.
            fast_core=delta_gossip,
            delta_gossip=delta_gossip,
            full_state_interval=rng.choice([4, 8]),
            # Inert, but serialized into the vectors: the draw stays so the
            # corpus stays byte-identical until the field is deleted.
            incremental_replay=rng.random() < 0.5,
            batch_gossip=rng.random() < 0.5,
        ),
    )


def random_workload_fields(rng: random.Random) -> Dict[str, Any]:
    """The serializable fields of a random :class:`WorkloadSpec` (the
    operator factory comes from the spec's data-type registry entry)."""
    return {
        "operations_per_client": rng.randint(6, 12),
        "mean_interarrival": rng.choice([0.5, 1.0]),
        "poisson_arrivals": rng.random() < 0.5,
        "strict_fraction": rng.choice([0.0, 0.2, 0.5]),
        "prev_policy": rng.choice(["none", "last_own", "random_own"]),
    }


def random_keyed_workload_fields(rng: random.Random) -> Dict[str, Any]:
    return {
        "operations_per_client": rng.randint(6, 10),
        "mean_interarrival": rng.choice([0.5, 1.0]),
        "strict_fraction": rng.choice([0.0, 0.3]),
        "num_keys": rng.choice([4, 8]),
        "key_distribution": rng.choice(["uniform", "zipfian"]),
        "prev_policy": rng.choice(["none", "last_on_key"]),
    }


def random_fault_dicts(
    rng: random.Random,
    replica_ids: Sequence[str],
    horizon: float,
    extended: bool = False,
    shard: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """0-2 random faults, all of which end (crashes always recover) so the
    system is guaranteed to converge afterwards.

    With ``extended`` the draw includes the adversarial kinds (asymmetric
    partitions, stragglers, duplication, transfer corruption) alongside the
    classic crash/outage/spike mix.
    """
    kinds = ["crash", "outage", "spike"]
    if extended:
        kinds += ["asymmetric", "straggler", "duplicate", "corrupt"]
    faults: List[Dict[str, Any]] = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(kinds)
        start = rng.uniform(1.0, max(horizon - 2.0, 2.0))
        length = rng.uniform(2.0, 10.0)
        if kind == "crash":
            fault = ReplicaCrash(
                rng.choice(list(replica_ids)),
                at=start,
                recover_at=start + length,
                volatile_memory=rng.random() < 0.7,
            )
        elif kind == "outage":
            fault = GossipOutage(rng.choice(list(replica_ids)), start=start, end=start + length)
        elif kind == "spike":
            fault = DelaySpike(start=start, end=start + length)
        elif kind == "asymmetric":
            source, destination = rng.sample(list(replica_ids), 2)
            fault = AsymmetricPartition(
                source=source, destination=destination, start=start, end=start + length
            )
        elif kind == "straggler":
            fault = StragglerReplica(
                rng.choice(list(replica_ids)),
                factor=rng.choice([2.0, 4.0]),
                start=start,
                end=start + length,
            )
        elif kind == "duplicate":
            fault = DuplicateMessages(
                start=start, end=start + length, probability=rng.choice([0.5, 1.0])
            )
        else:
            fault = CorruptTransfers(
                start=start, end=start + length, probability=rng.choice([0.5, 1.0])
            )
        doc = fault_to_dict(fault)
        if shard is not None:
            doc["shard"] = shard
        faults.append(doc)
    return faults


def _mode_rng(mode: str, seed: int) -> random.Random:
    return random.Random(stable_hash(f"{mode}:{seed}"))


# --------------------------------------------------------------------------- #
# The mode matrix                                                             #
# --------------------------------------------------------------------------- #

def _sim_spec(
    mode: str,
    seed: int,
    delta_gossip: bool,
    compaction: bool = False,
    advert: bool = False,
) -> ScenarioSpec:
    rng = _mode_rng(mode, seed)
    data_type = rng.choice(DATA_TYPE_NAMES)
    params = random_params(rng, delta_gossip)
    replica = params.replica
    if compaction:
        replica = dataclasses.replace(
            replica,
            fast_core=True,
            compaction=CompactionPolicy(min_batch=1),
            compaction_interval=1.0,
        )
    if advert:
        replica = dataclasses.replace(replica, fast_core=True, advert_gossip=True)
    params = dataclasses.replace(params, replica=replica)
    num_replicas = rng.randint(2, 4)
    clients = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    workload = random_workload_fields(rng)
    horizon = workload["operations_per_client"] * workload["mean_interarrival"]
    replica_ids = [f"r{i}" for i in range(num_replicas)]
    faults = random_fault_dicts(rng, replica_ids, horizon)
    return ScenarioSpec(
        name=f"{mode}_{seed:03d}",
        harness="sim",
        data_type=data_type,
        num_replicas=num_replicas,
        clients=clients,
        seed=seed * 31 + 7,
        workload_seed=seed + 1000,
        params=params,
        workload=workload,
        faults=tuple(faults),
    )


def _sharded_spec(mode: str, seed: int) -> ScenarioSpec:
    rng = _mode_rng(mode, seed)
    data_type = rng.choice(DATA_TYPE_NAMES)
    params = random_params(rng, delta_gossip=rng.random() < 0.5)
    num_shards = rng.choice([2, 3])
    clients = tuple(f"c{i}" for i in range(rng.randint(1, 2)))
    workload = random_keyed_workload_fields(rng)
    horizon = workload["operations_per_client"] * workload["mean_interarrival"]
    replica_ids = [f"r{i}" for i in range(3)]
    faults: List[Dict[str, Any]] = []
    for index in range(num_shards):
        faults.extend(
            random_fault_dicts(rng, replica_ids, horizon, shard=f"s{index}")
        )
    return ScenarioSpec(
        name=f"{mode}_{seed:03d}",
        harness="sharded",
        data_type=data_type,
        num_replicas=3,
        num_shards=num_shards,
        clients=clients,
        seed=seed * 13 + 5,
        workload_seed=seed + 77,
        params=params,
        workload=workload,
        faults=tuple(faults),
    )


def _adversarial_spec(mode: str, seed: int) -> ScenarioSpec:
    """Advert/pull gossip under the extended fault mix, crafted so the
    corrupted-transfer path genuinely fires: a volatile crash forces the
    recovering replica to catch up through the pull/transfer plane, and a
    certain-corruption window spanning the recovery makes its first
    transfer attempts fail the digest check before the window closes and a
    clean re-pull heals it."""
    rng = _mode_rng(mode, seed)
    data_type = rng.choice(DATA_TYPE_NAMES)
    batch_gossip = rng.random() < 0.5
    rng.choice([None, 2])  # discarded: once the transfer chunk size; keeps later draws put
    params = SimulationParams(
        df=1.0,
        dg=1.0,
        gossip_period=1.0,
        service_time=0.0,
        request_fanout=1,
        frontend_policy="round_robin",
        retransmit_interval=4.0,
        replica=ReplicaConfig(
            fast_core=True,
            delta_gossip=False,  # full-state gossip re-advertises every tick
            batch_gossip=batch_gossip,
            compaction=CompactionPolicy(min_batch=1),
            compaction_interval=1.0,
            advert_gossip=True,
        ),
    )
    num_replicas = rng.randint(3, 4)
    clients = tuple(f"c{i}" for i in range(2))
    workload = {
        "operations_per_client": 24,
        "mean_interarrival": 0.5,
        "poisson_arrivals": False,
        "strict_fraction": rng.choice([0.0, 0.2]),
        "prev_policy": "none",
    }
    # The crash lands once compaction is already rolling (stability needs a
    # couple of gossip round trips, so folds start around t=6-7): during the
    # outage the peers keep folding operations whose stability knowledge the
    # crashed replica never saw, so on recovery its persisted checkpoint is
    # strictly behind and catch-up *must* go through the pull/transfer
    # plane — straight into the corruption window, which outlives the
    # recovery by several gossip periods before clean re-pulls heal it.
    crash_at = 8.0
    recover_at = 13.0
    faults = [
        fault_to_dict(
            ReplicaCrash("r1", at=crash_at, recover_at=recover_at, volatile_memory=True)
        ),
        fault_to_dict(
            CorruptTransfers(start=crash_at, end=recover_at + 6.0, probability=1.0)
        ),
        fault_to_dict(
            DuplicateMessages(start=0.0, end=recover_at, probability=0.5)
        ),
    ]
    if rng.random() < 0.5:
        faults.append(
            fault_to_dict(
                StragglerReplica("r0", factor=2.0, start=1.0, end=5.0)
            )
        )
    else:
        faults.append(
            fault_to_dict(
                AsymmetricPartition(source="r2", destination="r0", start=1.0, end=4.0)
            )
        )
    return ScenarioSpec(
        name=f"{mode}_{seed:03d}",
        harness="sim",
        data_type=data_type,
        num_replicas=num_replicas,
        clients=clients,
        seed=seed * 31 + 7,
        workload_seed=seed + 1000,
        params=params,
        workload=workload,
        faults=tuple(faults),
    )


#: Mode name -> spec builder.  8 modes x ``--seeds`` seeds = the corpus.
MODES = {
    "full": lambda mode, seed: _sim_spec(mode, seed, delta_gossip=False),
    "delta": lambda mode, seed: _sim_spec(mode, seed, delta_gossip=True),
    "full-compact": lambda mode, seed: _sim_spec(
        mode, seed, delta_gossip=False, compaction=True
    ),
    "delta-compact": lambda mode, seed: _sim_spec(
        mode, seed, delta_gossip=True, compaction=True
    ),
    "advert": lambda mode, seed: _sim_spec(
        mode, seed, delta_gossip=False, compaction=True, advert=True
    ),
    "advert-delta": lambda mode, seed: _sim_spec(
        mode, seed, delta_gossip=True, compaction=True, advert=True
    ),
    "sharded": _sharded_spec,
    "adversarial": _adversarial_spec,
}


def scenario_for(mode: str, seed: int) -> ScenarioSpec:
    """The deterministic spec of one corpus cell."""
    return MODES[mode](mode, seed)


def vector_doc(spec: ScenarioSpec, run: ScenarioRun) -> Dict[str, Any]:
    """The sealed vector document of an executed scenario."""
    return seal(
        {
            "name": spec.name,
            "scenario": spec.to_doc(),
            "expected": collect_outcome(run).to_doc(),
            "info": collect_info(run),
        }
    )


def generate_corpus(
    out_dir: Path,
    seeds: int,
    modes: Optional[Sequence[str]] = None,
    verbose: bool = True,
) -> List[Path]:
    """Run the seed matrix, check every execution against the oracle suite
    and write one vector file per scenario; returns the written paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for mode in modes if modes is not None else MODES:
        for seed in range(seeds):
            spec = scenario_for(mode, seed)
            run = run_scenario(spec)
            doc = vector_doc(spec, run)
            path = out_dir / f"{spec.name}.json"
            path.write_text(dumps_vector(doc), encoding="utf-8")
            written.append(path)
            if verbose:
                rejections = sum(
                    group["transfer_rejections"]
                    for group in doc["info"]["groups"].values()
                )
                note = f" ({rejections} transfer rejections)" if rejections else ""
                print(f"wrote {path}{note}")
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance.generate",
        description="Generate the conformance-vector corpus.",
    )
    parser.add_argument("--seeds", type=int, default=5, help="seeds per mode (default 5)")
    parser.add_argument(
        "--out", type=Path, default=Path("tests/vectors"), help="output directory"
    )
    parser.add_argument(
        "--modes",
        type=str,
        default=None,
        help=f"comma-separated mode subset (default: all of {', '.join(MODES)})",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress per-file output")
    args = parser.parse_args(argv)
    modes = args.modes.split(",") if args.modes else None
    if modes:
        unknown = [mode for mode in modes if mode not in MODES]
        if unknown:
            parser.error(f"unknown modes: {', '.join(unknown)}")
    written = generate_corpus(args.out, args.seeds, modes, verbose=not args.quiet)
    print(f"{len(written)} vectors written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
