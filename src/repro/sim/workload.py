"""Client workload generation: one seeded request plan, two consumers.

``WorkloadSpec`` describes what clients do: the operator mix, how often they
submit, what fraction of requests are strict, and how ``prev`` dependencies
are chosen.  ``KeyedWorkloadSpec`` adds a keyspace: every request also picks
a key (uniformly or zipfian-skewed) and ``prev`` dependencies chain per key
(the session-guarantee pattern, which by construction never crosses a shard
boundary).

:class:`ClientWorkload` is the one place that draws client requests: its
sans-IO :meth:`~ClientWorkload.requests` yields one client's plan, a pure
function of ``(spec, client, seed)``.  Two consumers play it.
:func:`run_workload` installs every client's plan on a simulated cluster
(single-object, sharded or a baseline service), runs the submission window
plus a drain phase, and returns a :class:`WorkloadResult`; it is the engine
behind benchmarks E1, E2, E5, E7, E8 and E9 and every conformance scenario.
``repro.net.driver.run_load`` plays the same plans on the asyncio runtime.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional
from typing import Tuple, Union

from repro.common import MetricsError
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator
from repro.sim.metrics import LatencySummary, MetricsCollector, PerShardMetrics

#: An operator generator receives the per-client RNG and a running index and
#: returns the operator to submit.
OperatorFactory = Callable[[random.Random, int], Operator]


def default_counter_mix(rng: random.Random, index: int) -> Operator:
    """A simple update-heavy counter mix (2/3 increments, 1/3 reads)."""
    return Operator("increment") if rng.random() < 2 / 3 else Operator("read")


#: Per-client workload seeds are derived as ``seed * STRIDE + client_index``.
CLIENT_SEED_STRIDE = 1009


def default_drain_time(params) -> float:
    """Generous default drain window after the last submission: ~10 gossip
    rounds plus request round trips."""
    return 10 * (params.gossip_period + params.dg) + 10 * params.df


def zipfian_cdf(num_keys: int, exponent: float) -> List[float]:
    """Cumulative distribution of a zipfian law over ``num_keys`` ranks.

    ``P(rank r) ∝ 1 / r^exponent``; rank 1 is the hottest key.  Returned as a
    cumulative list suitable for :func:`bisect.bisect_left` sampling.
    """
    weights = [1.0 / (rank ** exponent) for rank in range(1, num_keys + 1)]
    total = sum(weights)
    return list(itertools.accumulate(weight / total for weight in weights))


@dataclass
class WorkloadSpec:
    """Description of the client workload.

    Parameters
    ----------
    operations_per_client:
        How many operations each client submits.
    mean_interarrival:
        Mean time between submissions by one client.  With
        ``poisson_arrivals`` the gaps are exponential; otherwise fixed.
    strict_fraction:
        Probability that a request is strict.
    prev_policy:
        ``"none"`` (empty ``prev`` sets), ``"last_own"`` (depend on the
        client's previous operation — the session guarantee pattern of
        Section 9.2's last remark), or ``"random_own"`` (depend on a random
        earlier operation of the same client).
    operator_factory:
        Generates the data-type operator for each request.
    """

    operations_per_client: int = 50
    mean_interarrival: float = 1.0
    poisson_arrivals: bool = False
    strict_fraction: float = 0.0
    prev_policy: str = "none"
    operator_factory: OperatorFactory = default_counter_mix

    #: Accepted ``prev_policy`` values (subclasses override).
    VALID_PREV_POLICIES = ("none", "last_own", "random_own")

    def __post_init__(self) -> None:
        if self.prev_policy not in self.VALID_PREV_POLICIES:
            raise ValueError(f"unknown prev policy {self.prev_policy!r}")
        if not 0.0 <= self.strict_fraction <= 1.0:
            raise ValueError("strict_fraction must be within [0, 1]")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")


@dataclass
class KeyedWorkloadSpec(WorkloadSpec):
    """Description of a multi-object (keyed) client workload.

    Extends :class:`WorkloadSpec` (same arrival process, operator mix and
    strictness knobs) with keyspace parameters:

    num_keys:
        Size of the keyspace (keys are ``k0 .. k{n-1}``).
    key_distribution:
        ``"uniform"`` — every key equally likely; ``"zipfian"`` — key ranks
        follow a zipf law with exponent ``zipf_exponent``.  The rank-to-key
        assignment is shuffled with ``zipf_rank_seed`` and shared by every
        client (a workload has one set of hot keys), so varying the seed
        moves the hot spot onto different shards.
    prev_policy:
        ``"none"`` — empty ``prev`` sets; ``"last_on_key"`` — depend on this
        client's previous operation on the same key (per-key session
        guarantee); ``"random_on_key"`` — depend on a random earlier
        operation of this client on the same key.  Per-key dependencies are
        the only ones a sharded service can honour, since equal keys route to
        equal shards.
    operator_factory:
        Generates the *base-type* operator for each request (the keyed
        ``at(key, ...)`` wrapper is applied by the cluster).
    """

    num_keys: int = 16
    key_distribution: str = "uniform"
    zipf_exponent: float = 1.1
    zipf_rank_seed: int = 0

    VALID_PREV_POLICIES = ("none", "last_on_key", "random_on_key")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_keys < 1:
            raise ValueError("num_keys must be at least 1")
        if self.key_distribution not in ("uniform", "zipfian"):
            raise ValueError(f"unknown key distribution {self.key_distribution!r}")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")


class PlannedRequest(NamedTuple):
    """One request of a client's plan.  ``due`` is the submission time (the
    plan's ``start`` plus the gaps so far); ``prev`` holds indices into the
    same client's earlier requests; ``key`` is ``None`` for an unkeyed spec."""

    due: float
    client: str
    key: Optional[str]
    operator: Operator
    strict: bool
    prev: Tuple[int, ...]


class ClientWorkload:
    """One client's seeded request plan, and its simulator consumer.

    :meth:`requests` is sans-IO: per request the client RNG draws the gap,
    then (keyed specs only) the key, then the operator, the strict flag and
    finally the ``prev`` pick, so the plan is a pure function of
    ``(spec, client, seed)``.  ``prev`` history is kept per key — under the
    one key ``None`` when the spec is unkeyed.  :meth:`install` plays the
    plan on a simulated cluster; ``repro.net.driver.run_load`` plays it on
    the asyncio runtime.
    """

    def __init__(self, client_id: str, spec: WorkloadSpec, seed: int) -> None:
        self.client_id = client_id
        self.spec = spec
        self.seed = seed
        self._keys: Optional[List[str]] = None
        self._cdf: Optional[List[float]] = None
        if isinstance(spec, KeyedWorkloadSpec):
            self._keys = [f"k{i}" for i in range(spec.num_keys)]
            if spec.key_distribution == "zipfian":
                # Which concrete key gets which popularity rank is decided by
                # the spec-level seed, shared by every client: a workload has
                # ONE set of hot keys, and varying zipf_rank_seed moves it.
                random.Random(spec.zipf_rank_seed).shuffle(self._keys)
                self._cdf = zipfian_cdf(spec.num_keys, spec.zipf_exponent)

    @classmethod
    def for_clients(
        cls, client_ids: Iterable[str], spec: WorkloadSpec, seed: int
    ) -> List[ClientWorkload]:
        """The plans of a run's clients: per-client seeds are derived from
        the run seed as ``seed * CLIENT_SEED_STRIDE + client_index``."""
        return [
            cls(client, spec, seed * CLIENT_SEED_STRIDE + index)
            for index, client in enumerate(client_ids)
        ]

    def requests(self, start: float = 0.0) -> Iterator[PlannedRequest]:
        """This client's requests in submission order, due from *start*."""
        spec, rng = self.spec, random.Random(self.seed)
        history_by_key: Dict[Optional[str], List[int]] = {}
        due = start
        for index in range(spec.operations_per_client):
            gap = spec.mean_interarrival
            due += rng.expovariate(1.0 / gap) if spec.poisson_arrivals else gap
            key = None
            if self._cdf is not None:
                rank = bisect.bisect_left(self._cdf, rng.random())
                key = self._keys[min(rank, len(self._keys) - 1)]
            elif self._keys is not None:
                key = rng.choice(self._keys)
            operator = spec.operator_factory(rng, index)
            strict = rng.random() < spec.strict_fraction
            history = history_by_key.setdefault(key, [])
            prev: Tuple[int, ...] = ()
            if spec.prev_policy != "none" and history:
                last = spec.prev_policy in ("last_own", "last_on_key")
                prev = (history[-1] if last else rng.choice(history),)
            history.append(index)
            yield PlannedRequest(due, self.client_id, key, operator, strict, prev)

    def install(self, cluster, start_time: float = 0.0) -> List[OperationDescriptor]:
        """Schedule every submission of this client on *cluster*.

        Returns the operation descriptors in submission order.
        """
        submitted: List[OperationDescriptor] = []
        for request in self.requests(start_time):
            target = (request.client,) if request.key is None else (request.client, request.key)
            operation = cluster.submit(
                *target,
                request.operator,
                prev=tuple(submitted[i].id for i in request.prev),
                strict=request.strict,
                at=request.due,
            )
            submitted.append(operation)
        return submitted


@dataclass
class WorkloadResult:
    """Everything a benchmark needs from one simulated run.

    ``metrics`` is the cluster's collector: a :class:`MetricsCollector`, or
    a :class:`PerShardMetrics` for a sharded run (read per-shard breakdowns
    from it directly).
    """

    cluster: Any
    metrics: Union[MetricsCollector, PerShardMetrics]
    duration: float
    submitted: int

    @property
    def throughput(self) -> float:
        """Completed operations per unit time over the run."""
        return self.metrics.throughput(self.duration)

    @property
    def mean_latency(self) -> float:
        """Mean latency over every completed operation.

        Raises :class:`~repro.common.MetricsError` when nothing completed —
        a mean of an empty set is a workload bug (nothing drained, or every
        request was lost), not a number.
        """
        return self.latency_summary().mean

    def latency_summary(
        self, *, category: Optional[str] = None, shard: Optional[str] = None
    ) -> LatencySummary:
        """Latency statistics, optionally for one operation class and (sharded
        runs only) one shard.  Keyword-only, so a positional string can never
        filter the wrong axis."""
        where = {} if shard is None else {"shard": shard}
        summary = self.metrics.latency_summary(category=category, **where)
        if summary.count == 0:
            place = f" on shard {shard!r}" if shard is not None else ""
            label = f" in category {category!r}" if category is not None else ""
            raise MetricsError(
                f"no operations completed{place}{label}: latency is undefined "
                f"({self.submitted} submitted, {self.metrics.outstanding} outstanding; "
                f"did the run include a drain phase?)"
            )
        return summary


def run_workload(
    cluster,
    spec: WorkloadSpec,
    seed: int = 0,
    drain_time: Optional[float] = None,
) -> WorkloadResult:
    """Install *spec* on every client of *cluster*, run to completion, and
    return the collected metrics.

    A :class:`KeyedWorkloadSpec` needs a keyed cluster
    (:class:`~repro.sim.sharded.ShardedCluster`); a plain spec runs on a
    :class:`~repro.sim.cluster.SimulatedCluster` or a baseline service.  The
    simulation runs over the submission window, then ``drain_time`` bounds
    the extra time allowed for outstanding (typically strict) operations to
    complete; by default it is generous enough for several gossip rounds.
    """
    cluster.start()
    started_at = cluster.now
    submitted = 0
    for workload in ClientWorkload.for_clients(cluster.client_ids, spec, seed):
        submitted += len(workload.install(cluster, start_time=started_at))

    submission_window = spec.operations_per_client * spec.mean_interarrival
    if drain_time is None:
        drain_time = default_drain_time(cluster.params)
    cluster.run(submission_window)
    cluster.run_until_idle(max_time=drain_time)
    duration = max(cluster.now - started_at, submission_window)
    return WorkloadResult(cluster, cluster.metrics, duration, submitted)
