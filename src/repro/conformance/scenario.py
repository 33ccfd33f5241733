"""Scenario specifications: the serializable description of one simulated
execution, and the machinery to run it and collect its expected outcome.

A :class:`ScenarioSpec` captures *everything* that determines a simulated
execution: harness (single cluster or sharded), data type, deployment sizes,
timing/policy parameters, the client workload, the fault schedule and every
seed.  Running the same spec therefore always produces the same outcome —
the property the conformance corpus is built on.

The data-type registry maps the spec's ``data_type`` string onto a type
factory plus a seeded operator mix; the fault schedule is carried as the
tagged dicts of :func:`repro.sim.faults.fault_to_dict` (with an extra
``shard`` key attributing each fault on the sharded harness).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.algorithm.checkpoint import CompactionPolicy
from repro.common import OperationId
from repro.config import ReplicaConfig
from repro.conformance.codec import (
    ConformanceError,
    decode_op_list,
    decode_op_map,
    encode_op_list,
    encode_op_map,
    encode_value,
    state_digest,
)
from repro.conformance.oracles import check_cluster_outcome
from repro.datatypes import CounterType, GSetType, RegisterType
from repro.datatypes.base import Operator
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.faults import FaultSchedule, fault_from_dict
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import KeyedWorkloadSpec, WorkloadSpec, run_workload

#: Outcome-group key used by the single-cluster harness (the sharded harness
#: keys groups by shard id).
UNSHARDED = "_"


# --------------------------------------------------------------------------- #
# Data-type registry                                                          #
# --------------------------------------------------------------------------- #

def counter_mix(rng: random.Random, index: int) -> Operator:
    return rng.choice(
        [CounterType.increment(), CounterType.add(rng.randint(1, 5)), CounterType.read()]
    )


def gset_mix(rng: random.Random, index: int) -> Operator:
    return rng.choice(
        [GSetType.insert(rng.randint(0, 9)), GSetType.size(), GSetType.snapshot()]
    )


def register_mix(rng: random.Random, index: int) -> Operator:
    return rng.choice([RegisterType.write(rng.randint(0, 99)), RegisterType.read()])


#: ``data_type`` spec string -> (type factory, seeded operator mix).  The
#: operator mixes generate *base-type* operators, so the same entry serves
#: the single-cluster harness directly and the sharded harness through the
#: keyed ``at(key, ...)`` wrapper.
DATA_TYPES = {
    "counter": (CounterType, counter_mix),
    "gset": (GSetType, gset_mix),
    "register": (RegisterType, register_mix),
}

#: Registry keys in a fixed order for seeded draws.
DATA_TYPE_NAMES = ("counter", "gset", "register")


# --------------------------------------------------------------------------- #
# The spec                                                                    #
# --------------------------------------------------------------------------- #

@dataclass
class ScenarioSpec:
    """Everything that determines one simulated execution (see module
    docstring).  ``faults`` holds :func:`~repro.sim.faults.fault_to_dict`
    documents; on the sharded harness each carries a ``shard`` key naming
    the shard it is installed on."""

    name: str
    harness: str  # "sim" | "sharded"
    data_type: str
    num_replicas: int
    clients: Tuple[str, ...]
    seed: int
    workload_seed: int
    params: SimulationParams
    workload: Dict[str, Any]
    faults: Tuple[Dict[str, Any], ...] = ()
    num_shards: int = 0  # sharded harness only
    drain_time: float = 600.0

    def __post_init__(self) -> None:
        if self.harness not in ("sim", "sharded"):
            raise ConformanceError(f"unknown harness {self.harness!r}")
        if self.data_type not in DATA_TYPES:
            raise ConformanceError(f"unknown data type {self.data_type!r}")
        if self.harness == "sharded" and self.num_shards < 1:
            raise ConformanceError("sharded scenarios need num_shards >= 1")

    # -- serialization --------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        # ``replica`` — the on-disk form of :class:`~repro.config.ReplicaConfig`
        # — sits beside ``params`` (the transport/timing knobs), not inside it.
        params_doc = dataclasses.asdict(self.params)
        replica_doc = params_doc.pop("replica")
        return {
            "name": self.name,
            "harness": self.harness,
            "data_type": self.data_type,
            "num_replicas": self.num_replicas,
            "num_shards": self.num_shards,
            "clients": list(self.clients),
            "seed": self.seed,
            "workload_seed": self.workload_seed,
            "params": params_doc,
            "replica": replica_doc,
            "workload": dict(self.workload),
            "faults": [dict(doc) for doc in self.faults],
            "drain_time": self.drain_time,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ScenarioSpec":
        replica_doc = dict(doc["replica"])
        if replica_doc["compaction"] is not None:
            replica_doc["compaction"] = CompactionPolicy(**replica_doc["compaction"])
        params = SimulationParams(**doc["params"], replica=ReplicaConfig(**replica_doc))
        return cls(
            name=doc["name"],
            harness=doc["harness"],
            data_type=doc["data_type"],
            num_replicas=doc["num_replicas"],
            num_shards=doc.get("num_shards", 0),
            clients=tuple(doc["clients"]),
            seed=doc["seed"],
            workload_seed=doc["workload_seed"],
            params=params,
            workload=dict(doc["workload"]),
            faults=tuple(dict(fault) for fault in doc["faults"]),
            drain_time=doc["drain_time"],
        )


# --------------------------------------------------------------------------- #
# Execution                                                                   #
# --------------------------------------------------------------------------- #

@dataclass
class ScenarioRun:
    """A built-and-executed scenario: the driving harness object, its
    outcome groups (one :class:`SimulatedCluster` per shard — a single entry
    keyed :data:`UNSHARDED` on the plain harness) and the installed fault
    schedules."""

    spec: ScenarioSpec
    driver: Any
    clusters: Dict[str, SimulatedCluster]
    schedules: List[FaultSchedule]
    workload_result: Any = None


def _cluster_class(runtime: str) -> type:
    """The per-group cluster class for *runtime*: the plain simulator, or the
    :class:`~repro.net.wire.WireCluster` twin that pushes every cluster
    message through the binary codec (``--runtime=net``; live-reshard slices
    bypass it).  Late import: conformance
    must not depend on ``repro.net`` unless asked to."""
    if runtime == "sim":
        return SimulatedCluster
    if runtime == "net":
        from repro.net.wire import WireCluster

        return WireCluster
    raise ConformanceError(f"unknown runtime {runtime!r}")


def build_scenario(spec: ScenarioSpec, runtime: str = "sim") -> ScenarioRun:
    """Instantiate the harness and install the fault schedule (scenario not
    yet run).  ``runtime="net"`` swaps every cluster for the wire-codec twin
    — same seeds, same schedule, every cluster message round-tripped through
    :mod:`repro.net.codec` — so replay mismatches isolate codec loss."""
    type_factory, _mix = DATA_TYPES[spec.data_type]
    cluster_class = _cluster_class(runtime)
    if spec.harness == "sim":
        cluster = cluster_class(
            type_factory(),
            spec.num_replicas,
            list(spec.clients),
            params=spec.params,
            seed=spec.seed,
        )
        schedule = FaultSchedule()
        for doc in spec.faults:
            schedule.add(fault_from_dict(doc))
        schedule.install(cluster)
        return ScenarioRun(spec, cluster, {UNSHARDED: cluster}, [schedule])

    cluster = ShardedCluster(
        type_factory(),
        num_shards=spec.num_shards,
        replicas_per_shard=spec.num_replicas,
        client_ids=list(spec.clients),
        params=spec.params,
        seed=spec.seed,
        cluster_class=cluster_class,
    )
    schedules = []
    for shard_id, shard in cluster.shards.items():
        schedule = FaultSchedule()
        for doc in spec.faults:
            if doc.get("shard") == shard_id:
                schedule.add(fault_from_dict(doc))
        schedule.install(shard)
        schedules.append(schedule)
    return ScenarioRun(spec, cluster, dict(cluster.shards), schedules)


def run_scenario(spec: ScenarioSpec, runtime: str = "sim") -> ScenarioRun:
    """Build and execute *spec*: run the workload, let every fault window
    end, then drain the network to idle (the standard schedule the fuzzer
    and the generator share)."""
    run = build_scenario(spec, runtime=runtime)
    _type_factory, mix = DATA_TYPES[spec.data_type]
    spec_type = WorkloadSpec if spec.harness == "sim" else KeyedWorkloadSpec
    run.workload_result = run_workload(
        run.driver,
        spec_type(operator_factory=mix, **spec.workload),
        seed=spec.workload_seed,
        drain_time=spec.drain_time,
    )
    last_fault = max(
        (schedule.last_fault_time() for schedule in run.schedules), default=0.0
    )
    if last_fault > run.driver.now:
        run.driver.run(last_fault - run.driver.now + spec.params.gossip_period)
    run.driver.run_until_idle(max_time=spec.drain_time)
    return run


# --------------------------------------------------------------------------- #
# Outcomes                                                                    #
# --------------------------------------------------------------------------- #

@dataclass
class ScenarioOutcome:
    """The checked expectation of a scenario: every response value, every
    permanent failure, the casualty classification, the Theorem 5.8 witness
    order and the converged per-replica state digests — each of the latter
    four per outcome group (shard)."""

    responses: Dict[OperationId, Any] = field(default_factory=dict)
    failed: Dict[OperationId, str] = field(default_factory=dict)
    lost: Dict[str, List[OperationId]] = field(default_factory=dict)
    stuck: Dict[str, List[OperationId]] = field(default_factory=dict)
    witness: Dict[str, List[OperationId]] = field(default_factory=dict)
    replica_digests: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "responses": encode_op_map(self.responses),
            "failed": encode_op_map(self.failed),
            "lost": {g: encode_op_list(ids) for g, ids in self.lost.items()},
            "stuck": {g: encode_op_list(ids) for g, ids in self.stuck.items()},
            "witness": {g: encode_op_list(ids) for g, ids in self.witness.items()},
            "replica_digests": {
                g: dict(digests) for g, digests in self.replica_digests.items()
            },
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ScenarioOutcome":
        return cls(
            responses=decode_op_map(doc["responses"]),
            failed=decode_op_map(doc["failed"]),
            lost={g: decode_op_list(ids) for g, ids in doc["lost"].items()},
            stuck={g: decode_op_list(ids) for g, ids in doc["stuck"].items()},
            witness={g: decode_op_list(ids) for g, ids in doc["witness"].items()},
            replica_digests={
                g: dict(digests) for g, digests in doc["replica_digests"].items()
            },
        )


def _client_order(op_ids: Set[OperationId]) -> List[OperationId]:
    return sorted(op_ids, key=lambda op_id: (op_id.client, op_id.seqno))


def collect_outcome(run: ScenarioRun) -> ScenarioOutcome:
    """Run the full oracle suite on every outcome group of an executed
    scenario (quiescing each cluster) and collect the checked expectation.

    Raises if any oracle fails — a vector is only written for executions
    the oracles accept, so a later replay mismatch always means *divergence
    from a known-good execution*, not a bad recording.
    """
    outcome = ScenarioOutcome()
    outcome.responses = dict(run.driver.responded)
    outcome.failed = dict(run.driver.failed)
    for group, cluster in run.clusters.items():
        verdict = check_cluster_outcome(cluster)
        outcome.lost[group] = _client_order(verdict.lost)
        outcome.stuck[group] = _client_order(verdict.stuck)
        outcome.witness[group] = verdict.witness
        outcome.replica_digests[group] = {
            replica_id: state_digest(replica.replayed_state())
            for replica_id, replica in cluster.replicas.items()
        }
    return outcome


def collect_info(run: ScenarioRun) -> Dict[str, Any]:
    """Unchecked-but-recorded execution statistics (message counters, digest
    rejections) — context for humans reading a vector; replay does not
    compare them."""
    info: Dict[str, Any] = {"groups": {}}
    for group, cluster in run.clusters.items():
        info["groups"][group] = {
            "counters": dataclasses.asdict(cluster.network.counters),
            "transfer_rejections": sum(
                replica.stats.transfer_rejections
                for replica in cluster.replicas.values()
            ),
        }
    return info


def compare_outcomes(
    expected: ScenarioOutcome, observed: ScenarioOutcome
) -> List[str]:
    """Human-readable mismatch descriptions (empty = conformant)."""
    mismatches: List[str] = []

    def diff_map(label: str, exp: Dict, obs: Dict) -> None:
        for key in sorted(set(exp) | set(obs), key=repr):
            if key not in exp:
                mismatches.append(f"{label}[{key}]: unexpected {obs[key]!r}")
            elif key not in obs:
                mismatches.append(f"{label}[{key}]: missing (expected {exp[key]!r})")
            elif encode_value(exp[key]) != encode_value(obs[key]):
                mismatches.append(
                    f"{label}[{key}]: expected {exp[key]!r}, got {obs[key]!r}"
                )

    diff_map("responses", expected.responses, observed.responses)
    diff_map("failed", expected.failed, observed.failed)
    for fld in ("lost", "stuck", "witness", "replica_digests"):
        exp, obs = getattr(expected, fld), getattr(observed, fld)
        for group in sorted(set(exp) | set(obs)):
            if exp.get(group) != obs.get(group):
                mismatches.append(
                    f"{fld}[{group}]: expected {exp.get(group)!r}, got {obs.get(group)!r}"
                )
    return mismatches
