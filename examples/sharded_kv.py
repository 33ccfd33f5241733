"""Sharded key-value service: many objects, many shards, one seeded world.

Run with::

    python examples/sharded_kv.py

The paper's algorithm replicates a *single* object; the service layer grows
it into a multi-tenant keyed store by consistent-hashing keys across
independent ESDS replica groups.  This example runs a small "user profile"
service (a counter per user) on four shards, shows per-key routing and
read-your-writes via ``prev``, then pushes a zipfian workload through the
deployment and prints the per-shard load breakdown.
"""

from repro import (
    CounterType,
    KeyedWorkloadSpec,
    ReplicaConfig,
    ShardedCluster,
    SimulationParams,
    run_workload,
)


def routing_demo(cluster: ShardedCluster) -> None:
    print("=== routing: every key lives on exactly one shard ===")
    for user in ("ada", "grace", "edsger", "barbara"):
        print(f"  key {user!r:>10} -> shard {cluster.shard_of(user)}")
    print()

    print("=== per-key read-your-writes across shards ===")
    visits = {}
    for user in ("ada", "grace", "ada", "ada", "grace"):
        operation, count = cluster.execute(
            "frontend-1", user, CounterType.increment(),
            prev=[visits[user]] if user in visits else [],
        )
        visits[user] = operation.id
        print(f"  visit from {user!r:>8}: count now {count} "
              f"(shard {cluster.shard_of(user)})")
    # A strict read serializes against the eventual total order of its shard.
    _, total = cluster.execute(
        "frontend-2", "ada", CounterType.read(), prev=[visits["ada"]], strict=True
    )
    print(f"  strict read of 'ada' from another front end: {total}\n")


def workload_demo(seed: int = 11) -> None:
    print("=== zipfian workload on 4 shards (hot keys skew the load) ===")
    params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, service_time=0.2,
                              replica=ReplicaConfig(batch_gossip=True))
    cluster = ShardedCluster(
        CounterType(), num_shards=4, replicas_per_shard=3,
        client_ids=[f"frontend-{i}" for i in range(4)], params=params, seed=seed,
    )
    spec = KeyedWorkloadSpec(
        operations_per_client=40, mean_interarrival=0.5, strict_fraction=0.1,
        num_keys=48, key_distribution="zipfian", zipf_exponent=1.4,
        prev_policy="last_on_key",
    )
    result = run_workload(cluster, spec, seed=seed + 1)
    print(f"  completed {result.metrics.completed}/{result.submitted} operations, "
          f"total throughput {result.throughput:.2f} ops/time")
    per_shard = result.metrics.throughput_by_shard(result.duration)
    for shard, throughput in sorted(per_shard.items()):
        completed = result.metrics.completed_by_shard()[shard]
        print(f"    {shard}: {completed:4d} ops  ({throughput:.2f} ops/time)")
    print(f"  peak/mean imbalance: {result.metrics.imbalance():.2f}")
    print(f"  mean latency: {result.mean_latency:.2f} "
          f"(p95 {result.latency_summary().p95:.2f})")
    # Per-shard safety: each shard's trace is explained by its own
    # minimum-label eventual order (Theorem 5.8).
    cluster.check_traces()
    print("  per-shard eventual-serializability checks passed\n")


if __name__ == "__main__":
    demo_cluster = ShardedCluster(
        CounterType(), num_shards=4, replicas_per_shard=3,
        client_ids=["frontend-1", "frontend-2"],
        params=SimulationParams(df=1.0, dg=1.0, gossip_period=2.0),
        seed=7,
    )
    routing_demo(demo_cluster)
    workload_demo()
