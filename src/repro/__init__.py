"""repro — Eventually-Serializable Data Services.

A complete reproduction of *Eventually-Serializable Data Services* (Fekete,
Gupta, Luchangco, Lynch, Shvartsman; PODC 1996, full version TCS 220, 1999):

* the formal **specification** (ESDS-I / ESDS-II and the well-formed client
  automaton) on top of an executable I/O-automaton framework;
* the **lazy-replication algorithm** (labels, gossip, stability) plus the
  memoizing and commutativity-exploiting optimizations of Section 10;
* a **verification harness** turning the paper's invariants and forward
  simulations into runtime checks;
* a **discrete-event simulator** (and baselines: centralized atomic object,
  primary copy, Ladin-style lazy replication) used to reproduce the paper's
  performance analysis and Cheiner's experiments;
* **applications**: a distributed directory/name service and an object
  repository;
* a **networked runtime** (``repro.net``) running the same replica cores
  over asyncio streams with a binary wire codec, and **live elastic
  resharding** of the keyed service layer behind a unified
  :class:`ReplicaConfig` cluster-configuration API.

The curated public surface is ``__all__`` below; everything else is
internal and may change between versions.  See ``docs/api.md`` for the
guided tour.

Quickstart
----------

>>> from repro import SimulatedCluster, SimulationParams, RegisterType
>>> cluster = SimulatedCluster(RegisterType(), num_replicas=3,
...                            client_ids=["alice", "bob"],
...                            params=SimulationParams(df=1, dg=1, gossip_period=2))
>>> write, _ = cluster.execute("alice", RegisterType.write("hello"))
>>> _, value = cluster.execute("bob", RegisterType.read(),
...                            prev=[write.id], strict=True)
>>> value
'hello'
"""

from repro.common import (
    ConfigurationError,
    EsdsError,
    INFINITY,
    InvariantViolation,
    MetricsError,
    OperationId,
    OperationIdGenerator,
    SimulationRelationError,
    SpecificationError,
    WellFormednessError,
)
from repro.core.operations import OperationDescriptor, make_operation
from repro.core.orders import PartialOrder, outcome, val, valset
from repro.datatypes import (
    AppendLogType,
    BankAccountType,
    CounterType,
    DirectoryType,
    GSetType,
    Operator,
    QueueType,
    RegisterType,
    SerialDataType,
)
from repro.spec import EsdsSpecI, EsdsSpecII, SafeUsers, TraceRecord, Users
from repro.algorithm import (
    AlgorithmSystem,
    Checkpoint,
    CommuteReplicaCore,
    CompactionPolicy,
    FrontEndCore,
    GossipMessage,
    Label,
    MemoizedReplicaCore,
    ReplicaCore,
)
from repro.config import ReplicaConfig
from repro.verification import (
    AlgorithmInvariantChecker,
    AlgorithmToSpecSimulation,
    Verdict,
    check_esds2_implements_esds1,
    check_outcome,
    check_trace,
)
from repro.sim import (
    DelaySpike,
    FaultSchedule,
    GossipOutage,
    KeyedWorkloadSpec,
    MetricsCollector,
    PerShardMetrics,
    ReplicaCrash,
    ShardedCluster,
    SimulatedCluster,
    SimulationParams,
    WorkloadSpec,
    run_workload,
)
from repro.service import KeyedStore, ShardRouter
from repro.service.reshard import LiveReshard
from repro.service.router import KeyRangeMove
from repro.net import NetCluster, NetParams, WireCluster, WireStats
from repro.conformance import (
    DATA_TYPE_NAMES,
    DATA_TYPES,
    ScenarioSpec,
    run_scenario,
)
from repro.baselines import (
    CentralizedAtomicService,
    LadinLazyReplicationService,
    PrimaryCopyService,
)
from repro.apps import DirectoryService, ObjectRepository
from repro.analysis import TimingAssumptions, response_time_bound

__version__ = "1.0.0"

__all__ = [
    # errors / identifiers
    "EsdsError",
    "WellFormednessError",
    "SpecificationError",
    "InvariantViolation",
    "SimulationRelationError",
    "ConfigurationError",
    "OperationId",
    "OperationIdGenerator",
    "INFINITY",
    # core
    "OperationDescriptor",
    "make_operation",
    "PartialOrder",
    "outcome",
    "val",
    "valset",
    # data types
    "Operator",
    "SerialDataType",
    "RegisterType",
    "CounterType",
    "GSetType",
    "DirectoryType",
    "AppendLogType",
    "QueueType",
    "BankAccountType",
    # specification
    "Users",
    "SafeUsers",
    "EsdsSpecI",
    "EsdsSpecII",
    "TraceRecord",
    # algorithm
    "Label",
    "Checkpoint",
    "CompactionPolicy",
    "ReplicaCore",
    "MemoizedReplicaCore",
    "CommuteReplicaCore",
    "FrontEndCore",
    "GossipMessage",
    "AlgorithmSystem",
    # verification
    "AlgorithmInvariantChecker",
    "AlgorithmToSpecSimulation",
    "check_esds2_implements_esds1",
    "check_trace",
    "check_outcome",
    "Verdict",
    # unified cluster configuration
    "ReplicaConfig",
    # simulation
    "SimulatedCluster",
    "SimulationParams",
    "ShardedCluster",
    "LiveReshard",
    "WorkloadSpec",
    "KeyedWorkloadSpec",
    "run_workload",
    "MetricsCollector",
    "PerShardMetrics",
    "FaultSchedule",
    "ReplicaCrash",
    "GossipOutage",
    "DelaySpike",
    # service layer
    "KeyedStore",
    "ShardRouter",
    "KeyRangeMove",
    "MetricsError",
    # networked runtime
    "NetCluster",
    "NetParams",
    "WireCluster",
    "WireStats",
    # conformance
    "ScenarioSpec",
    "run_scenario",
    "DATA_TYPES",
    "DATA_TYPE_NAMES",
    # baselines
    "CentralizedAtomicService",
    "PrimaryCopyService",
    "LadinLazyReplicationService",
    # applications
    "DirectoryService",
    "ObjectRepository",
    # analysis
    "TimingAssumptions",
    "response_time_bound",
]
