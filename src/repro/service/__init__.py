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
* :mod:`~repro.service.reshard` — the one slice-migration rule by which a
  key range moves between shards.

The deployment that runs N such instances — one seeded event loop driving
every shard, with globally unique operation identifiers, per-shard
invariant / trace checking and live resharding — is
:class:`repro.sim.sharded.ShardedCluster`.
"""

from repro.service.keyed import KeyedStore
from repro.service.router import ShardRouter

__all__ = [
    "KeyedStore",
    "ShardRouter",
]
