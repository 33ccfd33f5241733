"""Sharded multi-object service layer.

The paper's algorithm manages a *single* replicated object.  The service
layer scales it to a keyed, multi-object store the way production systems do
(and the way the roadmap's north star demands): partition a string keyspace
across many *independent* ESDS instances, each of which runs the unmodified
per-object algorithm, and route every request to the instance owning its key.
Because shards never share operations, the per-shard correctness argument
(Sections 5-8) carries over unchanged — each shard is its own eventually
serializable data service, and the composition is a per-key eventually
serializable store.

Three pieces:

* :class:`~repro.service.keyed.KeyedStore` — a serial-data-type adapter
  mapping string keys onto any existing :mod:`repro.datatypes` object, so a
  single ESDS instance manages a whole keyspace slice;
* :class:`~repro.service.router.ShardRouter` — deterministic consistent
  hashing of keys onto shard identifiers (virtual nodes, stable across
  processes and ``PYTHONHASHSEED``);
* :class:`~repro.service.frontend.ShardedFrontend` — N independent
  :class:`~repro.algorithm.system.AlgorithmSystem` replica groups behind one
  routing interface, with globally unique operation identifiers and
  per-shard invariant / trace checking.

What the frontend shares with its simulated-time counterpart
(:class:`repro.sim.sharded.ShardedCluster`, one seeded event loop driving
every shard) is :class:`~repro.service.shardset.ShardSet` — the replica
groups, routing, merged results and verification fan-out — and
:mod:`~repro.service.reshard`, the one slice-migration rule by which a key
range moves between shards.
"""

from repro.service.keyed import KeyedStore
from repro.service.router import ShardRouter
from repro.service.shardset import ShardSet
from repro.service.frontend import ShardedFrontend

__all__ = [
    "KeyedStore",
    "ShardRouter",
    "ShardSet",
    "ShardedFrontend",
]
