"""Unified replica feature configuration (``ReplicaConfig``).

Every deployment harness — :class:`~repro.algorithm.system.AlgorithmSystem`,
:class:`~repro.sim.cluster.SimulationParams` (and through it
:class:`~repro.sim.cluster.SimulatedCluster`),
:class:`~repro.sim.sharded.ShardedCluster` and
:class:`~repro.net.runtime.NetCluster` — switches the same replica-level
features: the fast core, delta gossip, checkpoint compaction, advert/pull
gossip.  :class:`ReplicaConfig` is the only carrier of those decisions: the
algorithm-level entry point takes it as ``config=...``, and the two harness
parameter classes hold it as their ``replica`` field next to their own
timing/transport knobs.  Two of its ten fields, ``batch_replay`` and
``incremental_replay``, select nothing: each core has exactly one way to
compute a value.

Two of the fields only mean something under the discrete-event simulator
(``batch_gossip``, ``compaction_interval``); the algorithm-level entry
point ignores them, which keeps one config object usable across every
harness.  ``compaction`` accepts a per-shard mapping only at the sharded
entry point (``ShardedCluster(config=)``); the single-system entry points
require a plain policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

from repro.algorithm.checkpoint import CompactionPolicy
from repro.common import ConfigurationError

#: Compaction configuration: one policy everywhere, or (sharded entry point
#: only) a mapping from shard id to policy.
CompactionLike = Union[None, CompactionPolicy, Mapping[str, CompactionPolicy]]


@dataclass(frozen=True)
class ReplicaConfig:
    """Replica-level feature flags shared by every deployment entry point.

    Parameters mirror the per-feature ``configure_*`` switches on
    :class:`~repro.algorithm.replica.ReplicaCore`; see each harness for what
    the feature does there.  Instances are immutable and reusable across
    harnesses and shards.
    """

    #: Use :class:`~repro.algorithm.fastcore.FastReplicaCore`, the production
    #: core, instead of the reference automaton (ignored when an explicit
    #: ``replica_factory`` is supplied).
    fast_core: bool = False
    #: Inert: selects nothing (its batch kernel is part of the production
    #: core).  Kept, with its one validation, only because the budget
    #: benchmark spells it; deleted with that benchmark's next change
    #: (ROADMAP item 1(c)).
    batch_replay: bool = False
    #: Destination-specific delta gossip instead of full-state payloads.
    delta_gossip: bool = False
    #: With delta gossip, the periodic full-state fallback interval.
    full_state_interval: int = 8
    #: Inert: selects nothing (the production core always caches its last
    #: response replay, the reference core always replays as Fig. 7 does).
    #: Kept only because the budget benchmark spells it; deleted with that
    #: benchmark's next change (ROADMAP item 1(c)).
    incremental_replay: bool = False
    #: Stability-driven checkpoint compaction policy (``None`` = disabled).
    #: Sharded entry points additionally accept a per-shard mapping.
    compaction: CompactionLike = None
    #: Advert/pull checkpoint gossip (compact advert + on-demand transfer).
    advert_gossip: bool = False
    #: With advert gossip, retained values per transfer chunk (``None`` = 1 msg).
    checkpoint_chunk: Optional[int] = None
    #: Simulator-only: coalesce same-instant gossip arrivals per replica.
    batch_gossip: bool = False
    #: Simulator-only: force a compaction sweep at this simulated interval.
    compaction_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if self.batch_replay and not self.fast_core:
            raise ConfigurationError(
                "batch_replay=True requires fast_core=True: the batch kernel "
                "is part of the production core"
            )
        if self.full_state_interval < 1:
            raise ConfigurationError("full_state_interval must be at least 1")
        if self.checkpoint_chunk is not None and self.checkpoint_chunk < 1:
            raise ConfigurationError("checkpoint_chunk must be at least 1 or None")
        if self.compaction_interval is not None:
            if self.compaction is None:
                raise ConfigurationError("compaction_interval requires a compaction policy")
            if self.compaction_interval <= 0:
                raise ConfigurationError("compaction_interval must be positive")

    # -- harness adapters ------------------------------------------------------

    def require_single_policy(self, owner: str) -> Optional[CompactionPolicy]:
        """The compaction policy for a single-system harness (rejects the
        per-shard mapping form, which only the sharded entry point resolves)."""
        if isinstance(self.compaction, Mapping):
            raise ConfigurationError(
                f"{owner} manages one replica group; per-shard compaction "
                "mappings only apply to the sharded entry points"
            )
        return self.compaction

    def for_shard(self, shard: str) -> "ReplicaConfig":
        """This config with the per-shard compaction mapping resolved for
        *shard* (shards absent from the mapping run uncompacted; the
        interval timer is dropped with the policy, as the simulator's
        parameter validation requires)."""
        if not isinstance(self.compaction, Mapping):
            return self
        policy = self.compaction.get(shard)
        interval = self.compaction_interval if policy is not None else None
        return replace(self, compaction=policy, compaction_interval=interval)

    def configure_core(self, core) -> None:
        """Apply the feature switches to one replica core (the compaction
        field must already be a plain policy here)."""
        if self.delta_gossip:
            core.configure_delta_gossip(True, self.full_state_interval)
        if self.compaction is not None:
            core.configure_compaction(self.compaction)
        if self.advert_gossip:
            core.configure_advert_gossip(True, self.checkpoint_chunk)
