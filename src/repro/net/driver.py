"""Concurrent multi-client load driver for the asyncio runtime.

Plays the seeded request plans of :class:`~repro.sim.workload.ClientWorkload`
— the same requests, keys, strict flags and ``prev`` dependencies a
simulated run submits for the same spec and seed — against a
:class:`~repro.net.runtime.NetCluster`, one coroutine per client, in either
loop discipline:

* **closed loop** — each client keeps exactly one operation outstanding
  (submit, await the value, repeat; the plan's due times are ignored): the
  classic saturation-throughput shape;
* **open loop** — each request is submitted at its due time regardless of
  completions, and timed from it: the latency-under-offered-load shape.

A :class:`~repro.sim.workload.KeyedWorkloadSpec` addresses a
:class:`~repro.service.keyed.KeyedStore` (each operator wrapped in
``KeyedStore.at(key, ...)``).  The report carries ops/s, latency
percentiles from per-operation wall-clock timing, and the **actual bytes
sent per message kind** out of the cluster's traffic stats.

Runnable as a module (see the README quick-start)::

    PYTHONPATH=src python -m repro.net.driver --replicas 4 --clients 8 \\
        --ops 200 --transport tcp --gossip delta --fast-core
"""

from __future__ import annotations

import argparse
import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.algorithm.checkpoint import CompactionPolicy
from repro.common import percentile
from repro.config import ReplicaConfig
from repro.net.runtime import NetCluster, NetParams, OperationFailed
from repro.service.keyed import KeyedStore
from repro.sim.workload import ClientWorkload, KeyedWorkloadSpec, WorkloadSpec


@dataclass
class DriverReport:
    """What the run measured."""

    operations: int = 0
    failures: int = 0
    duration: float = 0.0
    ops_per_sec: float = 0.0
    latency_mean: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    bytes_per_op: float = 0.0
    payload_bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    messages_by_kind: Dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        lines = [
            f"operations      {self.operations}  (failures {self.failures})",
            f"duration        {self.duration:.3f} s",
            f"throughput      {self.ops_per_sec:,.0f} ops/s",
            "latency         mean {:.2f} ms   p50 {:.2f}   p95 {:.2f}   p99 {:.2f}".format(
                self.latency_mean * 1e3,
                self.latency_p50 * 1e3,
                self.latency_p95 * 1e3,
                self.latency_p99 * 1e3,
            ),
            f"bytes on wire   sent {self.bytes_sent:,}  received {self.bytes_received:,}"
            f"  ({self.bytes_per_op:,.0f} B/op sent)",
        ]
        for kind in sorted(self.payload_bytes_by_kind):
            count = self.messages_by_kind.get(kind, 0)
            total = self.payload_bytes_by_kind[kind]
            mean = total / count if count else 0.0
            lines.append(f"  {kind:<9} {count:>8} msgs  {total:>12,} B  ({mean:,.0f} B/msg)")
        return "\n".join(lines)


async def run_load(
    cluster: NetCluster,
    spec: WorkloadSpec,
    *,
    mode: str = "closed",
    seed: int = 0,
    timeout: float = 30.0,
) -> DriverReport:
    """Play every client's plan of *spec* at *seed* against a started
    *cluster* and report.  *timeout* bounds each operation's response.  The
    byte counters are deltas over the run (gossip idling before/after is
    excluded)."""
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown load mode {mode!r}")
    latencies: List[float] = []
    failures = [0]
    loop = asyncio.get_running_loop()

    async def one_op(operation, begin: float) -> None:
        try:
            await cluster.execute(operation, timeout=timeout)
        except (OperationFailed, asyncio.TimeoutError):
            failures[0] += 1
            return
        latencies.append(loop.time() - begin)

    async def client(workload: ClientWorkload, start: float) -> None:
        # Open loop: each operation is timed from its due time, so an
        # event-loop stall delays every arrival due during it, and their
        # latencies count the wait.  The sleep also lets the previous
        # operation's task reach the cluster before a later one names it
        # in ``prev``.
        ids, pending = [], []
        for request in workload.requests(start):
            if mode == "open":
                await asyncio.sleep(request.due - loop.time())
            operator = request.operator
            if request.key is not None:
                operator = KeyedStore.at(request.key, operator)
            operation = cluster.make_operation(
                request.client, operator, [ids[i] for i in request.prev], request.strict
            )
            ids.append(operation.id)
            if mode == "closed":
                await one_op(operation, loop.time())
            else:
                pending.append(loop.create_task(one_op(operation, request.due)))
        await asyncio.gather(*pending)

    sent_before = cluster.stats.bytes_sent
    received_before = cluster.stats.bytes_received
    payload_before = dict(cluster.stats.payload_bytes_by_kind)
    messages_before = dict(cluster.stats.messages_by_kind)

    start = loop.time()
    workloads = ClientWorkload.for_clients(cluster.client_ids, spec, seed)
    await asyncio.gather(*(client(workload, start) for workload in workloads))
    duration = loop.time() - start

    latencies.sort()
    report = DriverReport(
        operations=len(latencies),
        failures=failures[0],
        duration=duration,
        ops_per_sec=len(latencies) / duration if duration > 0 else 0.0,
        latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_p50=percentile(latencies, 0.50),
        latency_p95=percentile(latencies, 0.95),
        latency_p99=percentile(latencies, 0.99),
        bytes_sent=cluster.stats.bytes_sent - sent_before,
        bytes_received=cluster.stats.bytes_received - received_before,
        payload_bytes_by_kind={
            kind: cluster.stats.payload_bytes_by_kind[kind] - payload_before.get(kind, 0)
            for kind in cluster.stats.payload_bytes_by_kind
        },
        messages_by_kind={
            kind: cluster.stats.messages_by_kind[kind] - messages_before.get(kind, 0)
            for kind in cluster.stats.messages_by_kind
        },
    )
    if report.operations:
        report.bytes_per_op = report.bytes_sent / report.operations
    return report


# --------------------------------------------------------------------------- #
# CLI                                                                         #
# --------------------------------------------------------------------------- #

def _build_cluster(args: argparse.Namespace) -> NetCluster:
    from repro.datatypes.counter import CounterType

    params = NetParams(
        gossip_period=args.gossip_period,
        replica=ReplicaConfig(
            delta_gossip=args.gossip in ("delta", "advert"),
            advert_gossip=args.gossip == "advert",
            compaction=CompactionPolicy() if args.gossip == "advert" else None,
            fast_core=args.fast_core,
        ),
    )
    data_type: Any = KeyedStore(CounterType()) if args.keys else CounterType()
    return NetCluster(
        data_type,
        num_replicas=args.replicas,
        client_ids=tuple(f"c{i}" for i in range(args.clients)),
        params=params,
        transport=args.transport,
    )


async def _main_async(args: argparse.Namespace) -> DriverReport:
    cluster = _build_cluster(args)
    # Gaps are exponential in both modes, so a seed plays the same requests
    # whichever loop runs them; only the open loop submits at the due times.
    arrivals = dict(
        operations_per_client=args.ops, mean_interarrival=args.interarrival, poisson_arrivals=True
    )
    if args.keys:
        spec = KeyedWorkloadSpec(num_keys=args.keys, key_distribution="zipfian", **arrivals)
    else:
        spec = WorkloadSpec(**arrivals)
    async with cluster:
        report = await run_load(cluster, spec, mode=args.mode, seed=args.seed)
        await cluster.quiesce(timeout=10.0)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.driver",
        description="Load a NetCluster and report throughput, latency and bytes on the wire.",
    )
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--ops", type=int, default=200, help="operations per client")
    parser.add_argument("--transport", choices=("memory", "tcp"), default="tcp")
    parser.add_argument("--gossip", choices=("full", "delta", "advert"), default="delta")
    parser.add_argument("--gossip-period", type=float, default=0.05)
    parser.add_argument("--mode", choices=("closed", "open"), default="closed")
    parser.add_argument("--interarrival", type=float, default=0.01,
                        help="open-loop mean interarrival (s)")
    parser.add_argument("--keys", type=int, default=0,
                        help="zipfian keyed access over this many keys (0 = flat counter)")
    parser.add_argument("--fast-core", action="store_true",
                        help="production replica core (default: the reference automaton)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = asyncio.run(_main_async(args))
    print(report.format())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
