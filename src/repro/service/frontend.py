"""``ShardedFrontend`` — N independent ESDS replica groups behind one router.

Each shard is a complete, unmodified
:class:`~repro.algorithm.system.AlgorithmSystem` managing a
:class:`~repro.service.keyed.KeyedStore` over the base data type; the
frontend consistent-hashes every request's key to pick the shard and mints
globally unique operation identifiers (one counter per client per shard,
under the ``client@shard`` composite identity — each shard sees one
contiguous seqno run per client, so compacted id summaries stay at one
interval per client), and the union of the shard traces is a well-formed
multi-object history.

Client-specified constraints (``prev`` sets) are a *per-object* notion in the
paper, and shards are independent objects: a ``prev`` edge must therefore
stay within one shard.  Since the router maps equal keys to equal shards,
per-key dependency chains (the session-guarantee pattern) always satisfy
this; a cross-shard ``prev`` is rejected with :class:`ConfigurationError`
rather than silently weakened.

The frontend intentionally exposes the same driving surface as a single
``AlgorithmSystem`` (``run_random``, ``drain``, invariant and trace checks),
so every verification tool in :mod:`repro.verification` applies shard by
shard.  What it shares with the simulator's sharded harness — construction,
routing, merged results, the verification fan-out — is
:class:`~repro.service.shardset.ShardSet`.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.algorithm.system import AlgorithmSystem
from repro.common import OperationId
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator
from repro.service.reshard import ReshardPlan, cut_slice, inject_slice
from repro.service.router import KeyRangeMove, ShardRouter
from repro.service.shardset import ShardSet


class ShardedFrontend(ShardSet):
    """A keyed, sharded data service built from independent ESDS instances.

    Parameters
    ----------
    base_type:
        The serial data type stored under every key.
    num_shards:
        Number of independent replica groups (ignored when *router* given).
    replicas_per_shard:
        Replicas in each group (the algorithm requires at least two).
    client_ids:
        Clients; each shard hosts a front end for every client under the
        ``client@shard`` composite identity, and identifier counters run
        per (client, shard) so each shard's seqnos are contiguous while
        operation identifiers stay globally unique.
    config:
        The replica features of every shard's :class:`AlgorithmSystem`
        (:class:`~repro.config.ReplicaConfig`).  Its ``compaction`` may be a
        mapping from shard id to policy — shards absent from the mapping run
        uncompacted — so hot shards can compact aggressively while cold
        ones stay lazy.
    """

    def _build_shard(self, shard: str) -> AlgorithmSystem:
        return AlgorithmSystem(
            self.store_type,
            [f"{shard}.r{i}" for i in range(self._replicas_per_shard)],
            self._shard_clients(shard),
            replica_factory=self._replica_factory,
            config=self.config.for_shard(shard),
        )

    def _check_trace(self, system: AlgorithmSystem) -> None:
        from repro.verification.serializability import check_system_trace

        check_system_trace(system)

    # -- client interface ------------------------------------------------------

    def request(
        self,
        client: str,
        key: str,
        operator: Operator,
        prev: Sequence[OperationId] = (),
        strict: bool = False,
    ) -> OperationDescriptor:
        """Issue a keyed operation; returns the descriptor handed to the shard.

        ``prev`` identifiers must belong to operations previously routed to
        the *same* shard (always true for same-key dependencies).
        """
        shard, operation = self.directory.route(client, key, operator, prev, strict)
        self.shards[shard].request(operation)
        return operation

    # -- scheduling ------------------------------------------------------------

    def run_random(self, rng: random.Random, steps: int) -> int:
        """Perform up to *steps* random actions, interleaving shards randomly.

        Each step picks a shard uniformly and performs one of its enabled
        actions; shards progress independently, exactly as independent
        deployments would.
        """
        performed = 0
        shard_list = list(self.shard_ids)
        for _ in range(steps):
            shard = rng.choice(shard_list)
            if self.shards[shard].random_step(rng) is not None:
                performed += 1
        return performed

    def drain(self, rng: random.Random) -> None:
        """Deliver all traffic and gossip every shard to quiescence."""
        for shard in self.shard_ids:
            self.shards[shard].drain(rng)

    # -- resharding ------------------------------------------------------------

    def add_shard(self, shard_id: str, rng: random.Random) -> List[KeyRangeMove]:
        """Grow the ring by one shard: see :meth:`reshard`."""
        return self.reshard(self.router.add_shard(shard_id), rng)

    def drain_shard(self, shard_id: str, rng: random.Random) -> List[KeyRangeMove]:
        """Shrink the ring by one shard; its key ranges migrate to the
        surviving successors and the retired system's history stays
        readable.  See :meth:`reshard`."""
        return self.reshard(self.router.remove_shard(shard_id), rng)

    def reshard(self, new_router: ShardRouter, rng: random.Random) -> List[KeyRangeMove]:
        """Elastic reshard, synchronous flavour: drain to stability, migrate
        each moved key range's frozen history into its new owner as a
        ``prev``-chained slice (source eventual order), re-drain, flip.
        Every leg runs the :mod:`repro.service.reshard` rule back to back:
        freeze, drain, cut, inject, drain.

        The channel-level frontend has no in-flight window — draining first
        freezes every slice at stability, so the flip is atomic here; the
        simulator's :meth:`repro.sim.sharded.ShardedCluster.reshard` is the
        live variant with a genuine dual-route handoff window.  Per-key
        barrier constraints are still installed (every post-reshard
        operation on a migrated key is chained after the migrated tail), so
        the destination's min-label order can never reorder the relocated
        history.  Returns the movement plan that was executed.
        """
        reshard = ReshardPlan(self.router, new_router, self.shards)
        for shard in reshard.joining:
            self.shards[shard] = self._build_shard(shard)
        for leg in reshard.legs:
            reshard.freeze_slice(leg, self.directory)
        # Freeze every slice's order: all traffic answered and stable everywhere.
        self.drain(rng)
        for leg in reshard.legs:
            if leg.slice_ids:
                ops = cut_slice(leg, self.shards[leg.source])
                inject_slice(leg, ops, self.directory, self.shards[leg.destination])
                self.shards[leg.destination].drain(rng)
        self._adopt_router(new_router)
        return list(reshard.plan)
