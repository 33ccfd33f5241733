"""Seeded randomized scenario fuzzing.

Each scenario draws a random deployment (replica count, data type, timing
parameters, gossip mode), a random client workload (operator mix, strict
fraction, dependency policy) and a random fault schedule (crashes with
recovery, gossip outages, delay spikes — plus, in the extended batch, the
adversarial kinds: asymmetric partitions, stragglers, duplication, transfer
corruption), runs it on the discrete-event simulator, and then checks the
correctness oracles on the outcome:

* the **eventual-serializability oracle** (Theorem 5.8): every strict
  response is explained by the system-wide minimum-label eventual order;
* the **Section 7/8 invariant checker**, run against the cluster itself
  once the network has quiesced (a simulated cluster has no explicit
  channels, which is exactly the quiescent state; crashes are always
  recovered, so convergence is guaranteed by the perpetual gossip timers).

The scenario sampler and the oracles live in :mod:`repro.conformance` and
are shared with the conformance-vector generator: the fuzzer explores fresh
seeds, the checked-in corpus (``tests/vectors/``) freezes a reviewed sample
of the same distribution.  When a scenario fails and ``FUZZ_ARTIFACT_DIR``
is set, the offending spec is dumped as a conformance vector so the failure
reproduces with ``python -m repro.conformance.replay <artifact>`` instead of
a seed hunt (CI uploads the artifacts).

Every scenario runs under both full-state and delta gossip — the PR 1
equivalence argument says the observable guarantees are identical, and this
suite is the randomized regression net enforcing it.  A smaller batch of
scenarios exercises the sharded service layer with per-shard faults; another
re-runs the corpus seeds with *aggressive* checkpoint compaction; a further
batch forces **advert/pull** gossip on top of that; the extended-fault
batch turns on the full adversary mix; and the reshard batch changes the
consistent-hash ring **live** mid-load (grow or drain, driven directly
against :class:`~repro.sim.sharded.ShardedCluster`) while transfer
corruption and volatile crash/recovery fire, re-checking every per-shard
oracle plus the handoff audit afterwards.

The corpus size is ``FUZZ_SEEDS`` seeds per mode (default 20); the nightly
CI job widens it via the ``FUZZ_SEEDS`` environment variable to cover
long-tail interleavings without slowing PR builds.
"""

import dataclasses
import os
import random
from pathlib import Path

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.replica import ReplicaCore
from repro.config import ReplicaConfig
from repro.conformance.codec import loads_vector
from repro.conformance.generate import (
    random_fault_dicts,
    random_keyed_workload_fields,
    random_params,
    random_workload_fields,
)
from repro.conformance.oracles import check_cluster_outcome, quiesce
from repro.conformance.replay import dump_failure_artifact
from repro.conformance.replay import main as replay_main
from repro.conformance.scenario import (
    DATA_TYPE_NAMES,
    UNSHARDED,
    ScenarioSpec,
    run_scenario,
)
from repro.datatypes import CounterType
from repro.sim.cluster import SimulationParams
from repro.sim.faults import CorruptTransfers
from repro.sim.sharded import ShardedCluster

FUZZ_SEEDS = list(range(int(os.environ.get("FUZZ_SEEDS", "20"))))

#: Filled in by the parametrized scenarios: (seed, delta_gossip) -> whether
#: any operation was lost to a volatile crash; consumed by the corpus check.
_LOSSINESS = {}


def random_sim_spec(name, seed, delta_gossip, params_tweak=None, extended=False):
    """One random single-cluster scenario spec (the rng draw order matches
    the historical in-process fuzzer, so the explored executions are the
    same ones)."""
    rng = random.Random(seed * 2 + (1 if delta_gossip else 0))
    data_type = rng.choice(DATA_TYPE_NAMES)
    params = random_params(rng, delta_gossip)
    if params_tweak is not None:
        params = params_tweak(rng, params)
    num_replicas = rng.randint(2, 4)
    clients = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    workload = random_workload_fields(rng)
    horizon = workload["operations_per_client"] * workload["mean_interarrival"]
    replica_ids = [f"r{i}" for i in range(num_replicas)]
    faults = random_fault_dicts(rng, replica_ids, horizon, extended=extended)
    return ScenarioSpec(
        name=name,
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


def random_sharded_spec(name, seed, delta_gossip, params_tweak=None):
    rng = random.Random(900 + seed * 2 + (1 if delta_gossip else 0))
    params = random_params(rng, delta_gossip)
    if params_tweak is not None:
        params = params_tweak(rng, params)
    num_shards = rng.choice([2, 3])
    clients = tuple(f"c{i}" for i in range(rng.randint(1, 2)))
    workload = random_keyed_workload_fields(rng)
    horizon = workload["operations_per_client"] * workload["mean_interarrival"]
    faults = []
    for index in range(num_shards):
        faults.extend(
            random_fault_dicts(rng, [f"r{i}" for i in range(3)], horizon, shard=f"s{index}")
        )
    return ScenarioSpec(
        name=name,
        harness="sharded",
        data_type="counter",
        num_replicas=3,
        num_shards=num_shards,
        clients=clients,
        seed=seed * 13 + 5,
        workload_seed=seed + 77,
        params=params,
        workload=workload,
        faults=tuple(faults),
    )


def run_checked(spec):
    """Run a scenario spec and apply the full oracle suite to every outcome
    group; on any failure, dump the spec as a replayable conformance-vector
    artifact when ``FUZZ_ARTIFACT_DIR`` is set."""
    try:
        run = run_scenario(spec)
        results = {group: check_cluster_outcome(c) for group, c in run.clusters.items()}
        return run, results
    except Exception as exc:
        artifact_dir = os.environ.get("FUZZ_ARTIFACT_DIR")
        if not artifact_dir:
            raise
        path = dump_failure_artifact(spec, exc, Path(artifact_dir))
        raise AssertionError(
            f"scenario {spec.name} failed: {exc}\n"
            f"artifact dumped; reproduce with: python -m repro.conformance.replay {path}"
        ) from exc


def test_failure_artifact_names_the_failing_check(tmp_path, monkeypatch, capsys):
    """A planted defect (every replica reports a state of its own) fails the
    ``states_converged`` check; the dumped artifact records that name, and
    replaying the artifact prints it on the ``FAIL`` line."""
    monkeypatch.setenv("FUZZ_ARTIFACT_DIR", str(tmp_path))
    monkeypatch.setattr(ReplicaCore, "replayed_state", lambda core: core.replica_id)
    spec = random_sim_spec("fuzz-planted-divergence", 0, False)
    with pytest.raises(AssertionError, match="states_converged"):
        run_checked(spec)
    path = tmp_path / f"{spec.name}.json"
    doc = loads_vector(path.read_text(encoding="utf-8"), str(path))
    assert doc["info"]["check"] == "states_converged"
    assert replay_main([str(path)]) == 1
    assert f"FAIL {path} [states_converged]: states_converged: " in capsys.readouterr().err


@pytest.mark.parametrize("delta_gossip", [False, True], ids=["full", "delta"])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_scenarios_preserve_guarantees(seed, delta_gossip):
    mode = "delta" if delta_gossip else "full"
    spec = random_sim_spec(f"fuzz-base-{mode}-{seed:03d}", seed, delta_gossip)
    run, results = run_checked(spec)
    expected = spec.workload["operations_per_client"] * len(spec.clients)
    assert run.workload_result.submitted == expected
    _LOSSINESS[(seed, delta_gossip)] = bool(results[UNSHARDED].lost)


def test_fuzz_corpus_is_mostly_loss_free():
    """The casualty classifier must stay an edge-case escape hatch: across
    the corpus, the overwhelming majority of scenarios exercise the full
    invariant sweep (no answered operation wiped by a volatile crash).

    Reads the lossiness recorded by the parametrized scenarios above rather
    than re-running the simulations; with a ``-k`` selection that skips
    them, there is nothing to audit."""
    if len(_LOSSINESS) < len(FUZZ_SEEDS) * 2:
        pytest.skip("full scenario corpus did not run in this session")
    lossy = sum(_LOSSINESS.values())
    assert lossy <= len(FUZZ_SEEDS) * 2 // 4, f"{lossy} of {len(_LOSSINESS)} scenarios lossy"


#: The compaction-focused batches re-run half the corpus (at least 10 seeds).
COMPACTION_SEEDS = FUZZ_SEEDS[: max(10, len(FUZZ_SEEDS) // 2)]


def _with_replica(params, **features):
    """*params* with the given replica features changed."""
    return dataclasses.replace(
        params, replica=dataclasses.replace(params.replica, **features)
    )


def _aggressive_compaction(rng, params):
    return _with_replica(
        params, compaction=CompactionPolicy(min_batch=1), compaction_interval=1.0
    )


def _advert_pull(rng, params):
    return _with_replica(
        params,
        compaction=CompactionPolicy(min_batch=1),
        compaction_interval=1.0,
        advert_gossip=True,
        checkpoint_chunk=rng.choice([None, 2, 5]),
    )


@pytest.mark.parametrize("delta_gossip", [False, True], ids=["full", "delta"])
@pytest.mark.parametrize("seed", COMPACTION_SEEDS)
def test_random_scenarios_with_aggressive_compaction(seed, delta_gossip):
    """The corpus seeds re-run with the most aggressive compaction settings
    (fold every stable operation immediately, plus a forced interval sweep):
    the same liveness, Theorem 5.8 and invariant oracles must hold, and the
    scenario must actually exercise compaction."""
    mode = "delta" if delta_gossip else "full"
    spec = random_sim_spec(
        f"fuzz-compact-{mode}-{seed:03d}", seed, delta_gossip, params_tweak=_aggressive_compaction
    )
    run, results = run_checked(spec)
    expected = spec.workload["operations_per_client"] * len(spec.clients)
    assert run.workload_result.submitted == expected
    cluster = run.clusters[UNSHARDED]
    verdict = results[UNSHARDED]
    # The sweep must not be vacuous: with min_batch=1 every answered
    # operation eventually gets folded once stability spreads.  Quiesce only
    # over the survivors — casualties of volatile crashes can never settle,
    # and waiting for them would burn the whole round budget on lossy seeds.
    quiesce(cluster, set(cluster.requested) - verdict.lost - verdict.stuck)
    for _ in range(5):
        for replica in cluster.replicas.values():
            replica.maybe_compact(force=True)
        cluster.run(spec.params.gossip_period + spec.params.dg)
    assert len(cluster.compacted_prefix) > 0, "compaction never happened"
    # After quiescence + forced sweeps every replica's residual tracked set
    # must have shrunk below the full history — i.e. records were really
    # dropped, not just checkpoint-accounted.  (The *mid-run* peak bound is
    # benchmark E10's job; these workloads are too small for it to bite.)
    residual = max(replica.tracked_op_count() for replica in cluster.replicas.values())
    assert residual < len(cluster.requested), "no replica ever dropped any record"


@pytest.mark.parametrize("delta_gossip", [False, True], ids=["full", "delta"])
@pytest.mark.parametrize("seed", COMPACTION_SEEDS)
def test_random_scenarios_with_advert_pull_gossip(seed, delta_gossip):
    """The corpus seeds re-run with advert/pull gossip forced on (plus the
    aggressive compaction that makes adverts non-trivial): full-state
    messages now carry adverts instead of checkpoint bodies, and any replica
    wiped by a volatile crash must catch up through the pull/transfer plane
    under the same random faults.  All oracles must hold unchanged."""
    mode = "delta" if delta_gossip else "full"
    spec = random_sim_spec(
        f"fuzz-advert-{mode}-{seed:03d}", seed, delta_gossip, params_tweak=_advert_pull
    )
    run, _results = run_checked(spec)
    expected = spec.workload["operations_per_client"] * len(spec.clients)
    assert run.workload_result.submitted == expected
    # Advert mode must really be live: eager checkpoint bodies never ride on
    # gossip; any catch-up went through the pull/transfer plane.
    for replica in run.clusters[UNSHARDED].replicas.values():
        message = replica.make_gossip()
        assert message.checkpoint is None
        if replica.checkpoint.count:
            assert message.advert is not None


def _fast_core(rng, params):
    return _with_replica(params, fast_core=True)


def _fast_core_advert(rng, params):
    return _with_replica(_advert_pull(rng, params), fast_core=True)


def _batch_kernel(rng, params):
    return _with_replica(
        params,
        fast_core=True,
        batch_replay=True,
        batch_gossip=True,
        incremental_replay=True,
    )


def _batch_kernel_advert(rng, params):
    return _batch_kernel(rng, _advert_pull(rng, params))


_CORE_TWEAK_KINDS = {
    _fast_core: "fast",
    _fast_core_advert: "fast-advert",
    _batch_kernel: "batch",
    _batch_kernel_advert: "batch-advert",
}


@pytest.mark.parametrize(
    "tweak",
    [_fast_core, _fast_core_advert, _batch_kernel, _batch_kernel_advert],
    ids=["plain", "advert-compact", "batch", "batch-advert-compact"],
)
@pytest.mark.parametrize("delta_gossip", [False, True], ids=["full", "delta"])
@pytest.mark.parametrize("seed", COMPACTION_SEEDS)
def test_random_scenarios_with_fast_core(seed, delta_gossip, tweak):
    """The corpus seeds re-run on the production core
    (:class:`FastReplicaCore`) — plain, and layered over the
    aggressive-compaction + advert/pull tweak (the paths where folds trim the
    key backbone and the solid compaction prefix, and coverage summaries are
    absorbed).  The batch arms force coalesced gossip delivery, which the
    random draw turns on for only half the seeds, so every scenario runs
    the deferred splices of ``receive_gossip_batch``; they spell the inert
    ``batch_replay=True`` and ``incremental_replay=True`` as the budget
    benchmark does.  The core is an optimization, not a semantic change,
    so every oracle must hold exactly as for the base core."""
    mode = "delta" if delta_gossip else "full"
    kind = _CORE_TWEAK_KINDS[tweak]
    spec = random_sim_spec(
        f"fuzz-{kind}-{mode}-{seed:03d}", seed, delta_gossip, params_tweak=tweak
    )
    assert spec.params.replica.fast_core
    run, _results = run_checked(spec)
    expected = spec.workload["operations_per_client"] * len(spec.clients)
    assert run.workload_result.submitted == expected
    for replica in run.clusters[UNSHARDED].replicas.values():
        assert isinstance(replica, FastReplicaCore)


@pytest.mark.parametrize("delta_gossip", [False, True], ids=["full", "delta"])
@pytest.mark.parametrize("seed", COMPACTION_SEEDS)
def test_random_scenarios_with_extended_fault_mix(seed, delta_gossip):
    """Advert/pull scenarios under the *extended* adversary mix (asymmetric
    partitions, stragglers, duplicated messages, corrupted checkpoint
    transfers on top of the classic crash/outage/spike kinds): every oracle
    must hold, and any corruption that fired must have been caught by the
    transfer digest check (a corrupted body is never adopted — the replica
    re-pulls until a clean copy lands, so convergence still holds)."""
    mode = "delta" if delta_gossip else "full"
    spec = random_sim_spec(
        f"fuzz-adversarial-{mode}-{seed:03d}",
        seed,
        delta_gossip,
        params_tweak=_advert_pull,
        extended=True,
    )
    run, _results = run_checked(spec)
    cluster = run.clusters[UNSHARDED]
    corrupted = cluster.network.counters.corrupted
    rejections = sum(replica.stats.transfer_rejections for replica in cluster.replicas.values())
    # Every tampered chunk that completed an assembly was rejected; the
    # converse need not hold (a tampered chunk superseded mid-transfer never
    # completes), so rejections is bounded by the tamper count.
    assert rejections <= corrupted


@pytest.mark.parametrize("delta_gossip", [False, True], ids=["full", "delta"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_sharded_scenarios_preserve_guarantees(seed, delta_gossip):
    """The same oracles, per shard, on the sharded service layer with faults
    injected into individual shards."""
    mode = "delta" if delta_gossip else "full"
    spec = random_sharded_spec(f"fuzz-sharded-{mode}-{seed:03d}", seed, delta_gossip)
    run_checked(spec)


@pytest.mark.parametrize("delta_gossip", [False, True], ids=["full", "delta"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_sharded_scenarios_with_fast_core(seed, delta_gossip):
    """The sharded scenarios again, every shard on the production core with
    batched gossip: the same per-shard oracles must hold."""
    mode = "delta" if delta_gossip else "full"
    spec = random_sharded_spec(
        f"fuzz-sharded-batch-{mode}-{seed:03d}", seed, delta_gossip, params_tweak=_batch_kernel
    )
    run, _results = run_checked(spec)
    for cluster in run.clusters.values():
        for replica in cluster.replicas.values():
            assert isinstance(replica, FastReplicaCore)


#: The reshard batch re-runs half the corpus (at least 8 seeds); nightly
#: widens it through ``FUZZ_SEEDS`` like every other batch.
RESHARD_SEEDS = FUZZ_SEEDS[: max(8, len(FUZZ_SEEDS) // 2)]


@pytest.mark.parametrize("seed", RESHARD_SEEDS)
def test_random_reshard_under_faults_preserves_guarantees(seed):
    """Live ring changes under the fault adversaries: a random sharded
    cluster grows or drains mid-load while (randomly) a transfer-corruption
    window covers the migration and a volatile crash takes out a replica
    mid-handoff.  Afterwards every per-shard oracle (Section 7/8 invariants,
    Theorem 5.8 trace check) plus the reshard handoff audit must hold, and
    every submitted operation must have been answered.

    This batch drives :class:`~repro.sim.sharded.ShardedCluster` directly
    rather than going through :class:`ScenarioSpec` — a reshard is an
    *online control action*, not a deployment parameter, so it has no spec
    form to freeze into the conformance corpus."""
    reshard_under_faults(seed, fast_core=False)


@pytest.mark.parametrize("seed", RESHARD_SEEDS)
def test_random_reshard_on_fast_core_preserves_guarantees(seed):
    """The same live ring changes with every shard, the joining one
    included, on the production core."""
    reshard_under_faults(seed, fast_core=True)


def reshard_under_faults(seed, fast_core):
    rng = random.Random(7000 + seed)
    num_shards = rng.choice([2, 3])
    cluster = ShardedCluster(
        CounterType(),
        num_shards=num_shards,
        replicas_per_shard=3,
        client_ids=[f"c{i}" for i in range(rng.randint(1, 2))],
        params=SimulationParams(
            replica=ReplicaConfig(
                fast_core=fast_core,
                batch_gossip=True,
                delta_gossip=rng.random() < 0.5,
                full_state_interval=rng.choice([4, 8]),
            ),
            retransmit_interval=4.0,
        ),
        seed=seed * 5 + 1,
    )
    keys = [f"k{i}" for i in range(12)]

    def traffic(count):
        ops = []
        for _ in range(count):
            client = rng.choice(list(cluster.client_ids))
            key = rng.choice(keys)
            prev = cluster.last_operation_on(key)
            operator = (
                CounterType.increment() if rng.random() < 0.7 else CounterType.read()
            )
            ops.append(
                cluster.submit(client, key, operator, prev=(prev,) if prev else ())
            )
            cluster.run(rng.uniform(0.2, 0.6))
        return ops

    everything = traffic(rng.randint(8, 16))

    corrupting = rng.random() < 0.6
    if corrupting:
        for shard in cluster.shards.values():
            CorruptTransfers(
                start=cluster.now,
                end=cluster.now + rng.uniform(10.0, 25.0),
                probability=rng.uniform(0.5, 1.0),
            ).install(shard)

    grow = num_shards == 2 or rng.random() < 0.6
    if grow:
        handle = cluster.add_shard(f"s{num_shards}")
    else:
        handle = cluster.drain_shard(rng.choice(list(cluster.shard_ids)))
    everything += traffic(rng.randint(4, 10))

    if rng.random() < 0.5:
        # A volatile mid-handoff crash (source or destination leg), always
        # recovered — the migration must stall, not corrupt, while it lasts.
        # A few quiet gossip rounds first: a replica that answered an
        # operation and volatile-crashes before gossiping it loses that
        # operation for good (the fault model's documented lossiness, which
        # the per-key prev chains here would turn into a permanent stall).
        cluster.run(3 * cluster.params.gossip_period)
        sid = rng.choice(list(cluster.shards))
        cluster.shards[sid].crash_replica("r0", volatile_memory=True)
        cluster.run(rng.uniform(5.0, 20.0))
        cluster.shards[sid].recover_replica("r0")

    cluster.run_until_resharded(handle, max_time=20_000.0)
    assert handle.done, f"reshard never completed (seed {seed})"
    everything += traffic(rng.randint(2, 6))

    cluster.run_until_idle(max_time=20_000.0)
    assert cluster.outstanding_operations() == 0
    answered = set(cluster.responded) | set(cluster.failed)
    assert {op.id for op in everything} <= answered
    cluster.check_invariants()
    cluster.check_traces()
    if fast_core:
        for shard in cluster.shards.values():
            assert all(isinstance(r, FastReplicaCore) for r in shard.replicas.values())
