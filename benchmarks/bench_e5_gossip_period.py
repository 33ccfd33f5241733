"""E5 — stabilization latency versus the gossip period.

The analysis in Sections 6 and 9 predicts that the time for an operation to
become stable (and hence the latency of strict operations) is governed by the
gossip round time ``g + dg``: roughly one round to reach every replica, one
to be observed done everywhere, one for that knowledge to spread.  Sweeping
``g`` shows strict latency and stabilization time growing with ``g`` while
non-strict latency stays flat at ``2*df``.
"""

from repro.analysis.bounds import TimingAssumptions, stabilization_time_bound
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, monotonically_nondecreasing, print_table


def run_gossip_period(gossip_period: float, seed: int = 0):
    params = SimulationParams(df=1.0, dg=1.0, gossip_period=gossip_period,
                              track_stabilization=True)
    cluster = SimulatedCluster(CounterType(), num_replicas=3,
                               client_ids=["c0", "c1"], params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=15, mean_interarrival=2.0,
                        strict_fraction=0.5)
    result = run_workload(cluster, spec, seed=seed + 5,
                          drain_time=20 * (gossip_period + params.dg))
    strict = result.latency_summary(category="strict").mean
    nonstrict = result.latency_summary(category="nonstrict_no_prev").mean
    stabilization = result.metrics.stabilization_summary().mean
    return strict, nonstrict, stabilization


def test_e5_strict_latency_tracks_the_gossip_period(benchmark):
    periods = [1.0, 2.0, 4.0, 8.0]
    rows = []
    strict_series, nonstrict_series, stab_series = [], [], []
    for period in periods:
        strict, nonstrict, stabilization = run_gossip_period(period)
        timing = TimingAssumptions(df=1.0, dg=1.0, gossip_period=period)
        rows.append((
            f"{period:.0f}",
            f"{nonstrict:.2f}",
            f"{strict:.2f}",
            f"{stabilization:.2f}",
            f"{stabilization_time_bound(timing):.1f}",
        ))
        strict_series.append(strict)
        nonstrict_series.append(nonstrict)
        stab_series.append(stabilization)

    print_table(
        "E5: latency and stabilization time vs gossip period g (df=dg=1)",
        ["g", "non-strict mean", "strict mean", "stabilization mean", "stabilization bound"],
        rows,
    )

    # Strict latency and stabilization grow with g; non-strict stays ~2*df.
    assert monotonically_nondecreasing(strict_series, slack=0.05)
    assert monotonically_nondecreasing(stab_series, slack=0.05)
    assert strict_series[-1] > 2 * strict_series[0] * 0.9
    assert max(nonstrict_series) <= 2.0 + 1e-9

    emit_bench_json("E5", {
        "gossip_periods": periods,
        "strict_mean_latency": strict_series,
        "nonstrict_mean_latency": nonstrict_series,
        "stabilization_mean": stab_series,
    })

    benchmark(run_gossip_period, 2.0, 1)
