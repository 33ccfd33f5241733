"""Fault-tolerance tests (§9.3, Theorem 9.4): loss, duplication, crashes,
partitions and recovery of the timing bounds."""

import random

import pytest

from repro.algorithm.system import AlgorithmSystem
from repro.analysis.bounds import TimingAssumptions, check_latency_records_against_bounds
from repro.common import OperationIdGenerator
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.sim.cluster import SimulatedCluster, SimulationParams
from repro.sim.faults import DelaySpike, FaultSchedule, GossipOutage, ReplicaCrash
from repro.sim.workload import WorkloadSpec, run_workload
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.outcome import check_trace


class TestMessageLossAndDuplicationSafety:
    """Safety is unaffected by dropping or duplicating in-transit messages."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_invariants_hold_with_random_drops_and_duplicates(self, seed):
        rng = random.Random(seed)
        system = AlgorithmSystem(CounterType(), ["r1", "r2"], ["alice"])
        checker = AlgorithmInvariantChecker(system)
        gen = OperationIdGenerator("alice")
        history = []
        for index in range(5):
            prev = [history[-1].id] if history and rng.random() < 0.5 else []
            op = make_operation(
                rng.choice([CounterType.increment(), CounterType.read()]),
                gen.fresh(), prev=prev, strict=rng.random() < 0.3,
            )
            history.append(op)
            system.request(op)
        for _ in range(400):
            if rng.random() < 0.15:
                self._interfere(system, rng)
                checker.check_all()
            if system.random_step(rng) is None:
                break
            checker.check_all()
        # After interference stops, the system still converges.
        system.drain(rng)
        system.run_random(rng, 300)
        checker.check_all()
        check_trace(system).raise_for_failure()

    @staticmethod
    def _interfere(system, rng):
        """Drop or duplicate one random in-transit message."""
        channels = (
            list(system.request_channels.values())
            + list(system.response_channels.values())
            + list(system.gossip_channels.values())
        )
        populated = [ch for ch in channels if len(ch)]
        if not populated:
            return
        channel = rng.choice(populated)
        if rng.random() < 0.5:
            channel.receive(rng=rng)  # drop: remove without delivering
        else:
            message = rng.choice(channel.contents())
            channel.send(message)  # duplicate

    def test_lossy_simulated_network_still_answers_nonstrict(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0,
                                  loss_probability=0.2, request_fanout=2,
                                  retransmit_interval=4.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=8)
        spec = WorkloadSpec(operations_per_client=20, mean_interarrival=1.0,
                            strict_fraction=0.0)
        result = run_workload(cluster, spec, seed=9, drain_time=400.0)
        # With redundant sends and retransmission every request completes
        # despite 20% message loss.
        assert result.metrics.completed == 20
        check_trace(cluster).raise_for_failure()


class TestCrashRecovery:
    def test_crash_and_recovery_preserves_safety_and_liveness(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=5)
        faults = FaultSchedule().add(ReplicaCrash("r1", at=5.0, recover_at=15.0))
        faults.install(cluster)
        spec = WorkloadSpec(operations_per_client=20, mean_interarrival=1.0,
                            strict_fraction=0.2)
        run_workload(cluster, spec, seed=6, drain_time=300.0)
        assert cluster.outstanding_operations() == 0
        check_trace(cluster).raise_for_failure()

    def test_unrecovered_crash_blocks_strict_but_not_nonstrict(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=5)
        FaultSchedule().add(ReplicaCrash("r2", at=0.5)).install(cluster)
        nonstrict = cluster.submit("c0", CounterType.increment(), at=1.0)
        strict = cluster.submit("c0", CounterType.increment(), strict=True, at=1.0)
        cluster.run(duration=60.0)
        assert nonstrict.id in cluster.responded
        assert strict.id not in cluster.responded  # stability unreachable

    def test_fault_schedule_validation(self):
        with pytest.raises(ValueError):
            ReplicaCrash("r1", at=5.0, recover_at=4.0).install(
                SimulatedCluster(CounterType(), 2, ["c0"])
            )
        with pytest.raises(ValueError):
            GossipOutage("r1", start=5.0, end=5.0).install(
                SimulatedCluster(CounterType(), 2, ["c0"])
            )
        with pytest.raises(ValueError):
            DelaySpike(start=3.0, end=2.0).install(
                SimulatedCluster(CounterType(), 2, ["c0"])
            )


class TestTheorem94Recovery:
    def test_bounds_hold_from_resume_time_after_outage(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0,
                                  retransmit_interval=2.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c0", "c1"], params=params, seed=10)
        outage_end = 20.0
        faults = FaultSchedule().add(GossipOutage("r1", start=2.0, end=outage_end))
        faults.install(cluster)
        spec = WorkloadSpec(operations_per_client=10, mean_interarrival=1.0,
                            strict_fraction=0.4, prev_policy="last_own")
        result = run_workload(cluster, spec, seed=11, drain_time=300.0)
        assert cluster.outstanding_operations() == 0
        timing = TimingAssumptions(df=params.df, dg=params.dg,
                                   gossip_period=params.gossip_period)
        # During the outage the bounds may be exceeded...
        # ...but measured from the resume time (after the partition heals, the
        # next retransmission lands, and the next gossip round starts) they
        # hold again (Theorem 9.4).
        resume = (faults.last_fault_time() + params.retransmit_interval
                  + params.gossip_period)
        violations_after_resume = check_latency_records_against_bounds(
            result.metrics.records, timing, resume_time=resume
        )
        assert violations_after_resume == []

    def test_delay_spike_recovery(self):
        params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, spike_factor=6.0)
        cluster = SimulatedCluster(CounterType(), 3, ["c0"], params=params, seed=12)
        faults = FaultSchedule().add(DelaySpike(start=0.0, end=12.0))
        faults.install(cluster)
        spec = WorkloadSpec(operations_per_client=12, mean_interarrival=1.0,
                            strict_fraction=0.3)
        result = run_workload(cluster, spec, seed=13, drain_time=300.0)
        timing = TimingAssumptions(df=params.df, dg=params.dg,
                                   gossip_period=params.gossip_period)
        # Spiked deliveries can stretch past the end of the window (a message
        # sent just before the spike ends still takes the inflated delay), so
        # the timing assumptions are only guaranteed once those drain.
        resume = 12.0 + params.spike_factor * max(params.df, params.dg) + params.gossip_period
        violations = check_latency_records_against_bounds(
            result.metrics.records, timing, resume_time=resume
        )
        assert violations == []
