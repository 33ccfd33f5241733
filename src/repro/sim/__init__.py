"""Discrete-event simulation substrate for the performance evaluation.

The paper's evaluation (Section 9 analytically, Section 11.1 experimentally
via Cheiner's C++/MPI implementation) measures response latency, throughput
scaling with the number of replicas, and the cost of strict operations.  We
substitute the workstation network with a discrete-event simulator: processes
are the same :mod:`repro.algorithm` state machines, message delays and gossip
periods are explicit simulation parameters (``df``, ``dg``, ``g`` of
Section 9.1), and replicas have a configurable per-operation service time so
that throughput saturation and scaling are observable.

* :mod:`repro.sim.events` — the event queue and simulated clock;
* :mod:`repro.sim.network` — message delays, loss, partitions, delay spikes;
* :mod:`repro.sim.cluster` — the simulated ESDS deployment (replicas, front
  ends, gossip timers) with a synchronous ``execute`` facade;
* :mod:`repro.sim.workload` — one seeded request plan with two consumers:
  ``WorkloadSpec`` (operation mix, arrival process, strict fraction,
  dependency policy) and its keyed subclass ``KeyedWorkloadSpec``
  (keyspace, uniform or zipfian keys, per-key ``prev`` chains) are drawn
  by ``ClientWorkload.requests`` and played either by ``run_workload``
  here or by ``repro.net.driver.run_load`` on the asyncio runtime;
  ``run_workload`` returns one
  ``WorkloadResult`` (``throughput``, ``mean_latency`` and the keyword-only
  ``latency_summary(*, category=None, shard=None)``; per-shard breakdowns
  live on its ``metrics``);
* :mod:`repro.sim.metrics` — latency / throughput / message accounting;
* :mod:`repro.sim.faults` — crash, restart and timing-violation schedules.
"""

from repro.sim.events import EventQueue, Simulator
from repro.sim.network import SimulatedNetwork
from repro.sim.metrics import LatencyRecord, MetricsCollector, PerShardMetrics
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import (
    ClientWorkload,
    KeyedWorkloadSpec,
    WorkloadResult,
    WorkloadSpec,
    run_workload,
    zipfian_cdf,
)
from repro.sim.faults import DelaySpike, FaultSchedule, GossipOutage, ReplicaCrash

__all__ = [
    "EventQueue",
    "Simulator",
    "SimulatedNetwork",
    "LatencyRecord",
    "MetricsCollector",
    "PerShardMetrics",
    "SimulatedCluster",
    "SimulationParams",
    "ShardedCluster",
    "ClientWorkload",
    "WorkloadResult",
    "WorkloadSpec",
    "run_workload",
    "KeyedWorkloadSpec",
    "zipfian_cdf",
    "DelaySpike",
    "FaultSchedule",
    "GossipOutage",
    "ReplicaCrash",
]
