"""Tests for the asyncio replica runtime (:mod:`repro.net.runtime`).

Unlike the wire twins (tests/test_net_wire.py), which pin the codec-bearing
simulation twin to the plain simulator under virtual time, these run the
*real* :class:`NetCluster`: one asyncio protocol per connection, real frames
through the binary codec, gossip on wall-clock timers.  The in-process memory
transport keeps most of them fast and socket-free; the TCP class exercises
the same paths over loopback sockets.

No pytest-asyncio in the toolchain: each test drives its own event loop
through ``asyncio.run``.
"""

import asyncio
import dataclasses
import gc
import time

import pytest

from repro.algorithm.checkpoint import CompactionPolicy, OpIdSummary
from repro.algorithm.labels import Label
from repro.algorithm.messages import (
    CheckpointTransferMessage,
    RequestMessage,
    ResponseMessage,
)
from repro.common import ConfigurationError, InvariantViolation, OperationId
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType
from repro.datatypes.base import Operator
from repro.net.codec import FrameError, decode_frame, encode_message
from repro.net import driver
from repro.net.driver import run_load
from repro.net.runtime import MAX_FRAME_BYTES, NetCluster, NetParams, OperationFailed
from repro.service.keyed import KeyedStore
from repro.sim.sharded import ShardedCluster
from repro.sim.workload import KeyedWorkloadSpec, WorkloadSpec, run_workload
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.outcome import check_outcome

FAST = ReplicaConfig(delta_gossip=True, fast_core=True)


def make_cluster(transport="memory", clients=("c0", "c1"), config=FAST, **transport_knobs):
    return NetCluster(
        CounterType(), num_replicas=3, client_ids=clients,
        params=NetParams(**{"gossip_period": 0.01, **transport_knobs}),
        transport=transport, config=config,
    )


async def converge_and_check(cluster: NetCluster) -> None:
    """Quiesce, then run the outcome oracle every harness runs: everything
    answered and stable at every live replica, strict responses explained
    by the minimum-label witness, live replica states equal to each other
    and to the witness's, and the Section 7/8 invariants."""
    assert await cluster.quiesce(timeout=30.0), "cluster failed to converge"
    check_outcome(cluster).raise_for_failure()


class TestParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetParams(gossip_period=0.0)
        with pytest.raises(ConfigurationError):
            NetParams(send_queue_limit=0)
        with pytest.raises(ConfigurationError):
            NetParams(request_retry=0.0)
        with pytest.raises(ConfigurationError):
            NetParams(replica=ReplicaConfig(full_state_interval=0))

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError):
            NetCluster(CounterType(), transport="carrier-pigeon")

    def test_single_replica_rejected(self):
        with pytest.raises(ConfigurationError):
            NetCluster(CounterType(), num_replicas=1)


class TestMemoryTransport:
    def test_smoke_submit_and_converge(self):
        async def run():
            async with make_cluster() as cluster:
                values = []
                for _ in range(5):
                    values.append(await cluster.submit("c0", CounterType.increment()))
                await converge_and_check(cluster)
                # A non-strict read can legally see a stale prefix before
                # convergence (the service is *eventually* serializable);
                # after quiesce every replica's done order holds all five.
                assert await cluster.submit("c1", CounterType.read()) == 5
                return values

        values = asyncio.run(run())
        # Counter increments return the post-application value at the
        # answering replica: positive and never above the total submitted.
        assert all(1 <= v <= 5 for v in values)

    def test_concurrent_clients_coalesce_into_frames(self):
        async def run():
            async with make_cluster(clients=tuple(f"c{i}" for i in range(4))) as cluster:
                await asyncio.gather(*(
                    cluster.submit(cid, CounterType.increment())
                    for cid in cluster.client_ids for _ in range(5)
                ))
                await converge_and_check(cluster)
                assert await cluster.submit("c0", CounterType.read()) == 20
                return cluster.stats

        stats = asyncio.run(run())
        assert stats.frames_sent > 0 and stats.bytes_sent > 0
        # Responses answered in the same loop iteration share a frame.
        assert sum(stats.messages_by_kind.values()) > stats.frames_sent
        assert stats.messages_by_kind["request"] >= 21
        assert stats.messages_by_kind["gossip"] > 0
        # Payload bytes exclude the per-frame overhead bytes_sent includes.
        assert sum(stats.payload_bytes_by_kind.values()) < stats.bytes_sent

    def test_prev_chain_and_strict_read(self):
        async def run():
            async with make_cluster() as cluster:
                first = cluster.make_operation("c0", CounterType.increment())
                await cluster.execute(first)
                second = cluster.make_operation(
                    "c0", CounterType.increment(), prev=[first.id])
                await cluster.execute(second)
                # A strict read behind the chain is answered only once its
                # position in the eventual order is stable: it must see both.
                total = await cluster.submit(
                    "c1", CounterType.read(), prev=[second.id], strict=True)
                await converge_and_check(cluster)
                return total

        assert asyncio.run(run()) == 2

    def test_prev_must_reference_requested_operations(self):
        async def run():
            async with make_cluster() as cluster:
                ghost = cluster.make_operation("c0", CounterType.increment())
                with pytest.raises(ConfigurationError):
                    cluster.make_operation("c1", CounterType.read(), prev=[ghost.id])

        asyncio.run(run())

    def test_reused_identifier_rejected(self):
        async def run():
            async with make_cluster() as cluster:
                operation = cluster.make_operation("c0", CounterType.increment())
                await cluster.execute(operation)
                with pytest.raises(ConfigurationError):
                    await cluster.execute(operation)
                assert await cluster.quiesce(timeout=30.0)
            return cluster

        cluster = asyncio.run(run())
        # One request event: the rejected re-execute recorded nothing.
        assert len(cluster.trace.requests) == 1
        AlgorithmInvariantChecker(cluster).check_all()


class TestCrashRecovery:
    def test_volatile_crash_and_recovery_converges(self):
        async def run():
            config = dataclasses.replace(
                FAST,
                advert_gossip=True,
                compaction=CompactionPolicy(min_batch=4, value_retention=64),
            )
            async with make_cluster(config=config) as cluster:
                for _ in range(6):
                    await cluster.submit("c0", CounterType.increment())
                await cluster.crash_replica("r1", volatile_memory=True)
                for _ in range(4):
                    await cluster.submit("c1", CounterType.increment())
                await cluster.recover_replica("r1")
                await converge_and_check(cluster)
                assert await cluster.submit("c0", CounterType.read()) == 10
                return cluster

        cluster = asyncio.run(run())
        # The recovered replica holds the same stable knowledge as its peers.
        recovered = cluster.replicas["r1"]
        survivor = cluster.replicas["r0"]
        assert recovered.checkpoint.digest() == survivor.checkpoint.digest() or (
            recovered.checkpoint.count == 0 or survivor.checkpoint.count == 0
        )

    def test_unrecovered_replica_is_left_out_of_the_outcome_checks(self):
        async def run():
            async with make_cluster() as cluster:
                for _ in range(3):
                    await cluster.submit("c0", CounterType.increment())
                assert await cluster.quiesce(timeout=30.0)
                await cluster.crash_replica("r2", volatile_memory=True)
                return check_outcome(cluster).raise_for_failure(), cluster

        verdict, cluster = asyncio.run(run())
        # r2 lost its memory and never came back: the live replicas agree
        # with the witness, r2 is not compared, and the Section 7/8 sweep
        # (which assumes every replica up) does not run.
        assert cluster.replicas["r2"].replayed_state() == 0
        assert verdict.checks == [
            "answered",
            "quiesced",
            "witness_order",
            "states_converged",
            "states_match_witness",
        ]

    def test_requests_redirect_away_from_crashed_affinity_replica(self):
        async def run():
            async with make_cluster(request_retry=0.1) as cluster:
                # c0's affinity replica is r0; crash it and the retry loop
                # must redirect to a live replica within the timeout.
                await cluster.crash_replica("r0", volatile_memory=True)
                value = await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                await cluster.recover_replica("r0")
                await converge_and_check(cluster)
                return value

        assert asyncio.run(run()) == 1


    def test_first_request_skips_a_crashed_affinity_replica(self):
        async def run():
            async with make_cluster() as cluster:  # the default request_retry
                # c0's affinity replica is r0: with it crashed, the first
                # request must go to a live replica instead of being lost
                # there until the retry timer redirects it.
                await cluster.crash_replica("r0", volatile_memory=True)
                loop = asyncio.get_running_loop()
                begin = loop.time()
                value = await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                return value, loop.time() - begin, cluster.params.request_retry

        value, elapsed, retry = asyncio.run(run())
        assert value == 1
        assert elapsed < retry / 2, elapsed


class TestStaleValueVerdict:
    def test_nack_from_every_replica_fails_the_operation(self):
        """An operation every replica compacted and whose value every
        replica evicted is NACKed everywhere: ``execute`` raises
        ``OperationFailed``, the verdict lands in the client book, and
        nothing waits for the operation any more."""
        async def run():
            config = dataclasses.replace(
                FAST, compaction=CompactionPolicy(min_batch=1, value_retention=1)
            )
            async with make_cluster(config=config, request_retry=0.05) as cluster:
                lost = cluster.make_operation("c0", CounterType.increment())
                # Done and answered at r1 behind the client's back (the
                # response is discarded), so every replica may fold it; two
                # later operations push its value out of the retention window.
                cluster.nodes["r1"].handle([RequestMessage(lost)])
                for _ in range(2):
                    await cluster.submit("c1", CounterType.increment())
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                while not all(
                    core.is_compacted(lost.id) and lost.id not in core.checkpoint.values
                    for core in cluster.replicas.values()
                ):
                    assert loop.time() < deadline, "the value was never evicted"
                    await asyncio.sleep(cluster.params.gossip_period)
                with pytest.raises(OperationFailed):
                    await cluster.execute(lost, timeout=10.0)
                return cluster, lost.id

        cluster, op_id = asyncio.run(run())
        assert cluster.failed[op_id] == "stale-value"
        assert op_id not in cluster._futures
        assert cluster.outstanding_operations() == 0


class TestInvariantChecker:
    """The Section 7/8 checker reads a quiesced ``NetCluster`` as it is."""

    def test_checker_passes_on_a_quiesced_cluster_and_catches_a_bad_label(self):
        async def run():
            config = dataclasses.replace(
                FAST, advert_gossip=True, compaction=CompactionPolicy(min_batch=32)
            )
            cluster = NetCluster(
                CounterType(), num_replicas=4, client_ids=("c0", "c1", "c2", "c3"),
                params=NetParams(gossip_period=0.01), config=config,
            )
            async with cluster:
                await asyncio.gather(*(
                    cluster.submit(cid, CounterType.increment())
                    for _ in range(60) for cid in cluster.client_ids
                ))
                assert await cluster.quiesce(timeout=30.0)
                # One more operation at a time until a prefix is compacted
                # and one operation is still tracked (done, uncompacted) at
                # every replica: each replica folds at most once per 32
                # operations, a round or so after they are stable, so this
                # takes a few rounds.
                for _ in range(200):
                    if cluster.compaction_ledger.prefix and set.intersection(
                        *(set(core.labels) for core in cluster.replicas.values())
                    ):
                        break
                    await cluster.submit("c0", CounterType.increment())
                    assert await cluster.quiesce(timeout=30.0)
                else:
                    pytest.fail("no prefix compacted with an operation still tracked")
            return cluster

        cluster = asyncio.run(run())
        assert len(cluster.requested) >= 240 and cluster.compaction_ledger.prefix
        AlgorithmInvariantChecker(cluster).check_all()

        tracked = set.intersection(*(set(core.labels) for core in cluster.replicas.values()))
        op_id = min(tracked, key=repr)
        core = cluster.replicas["r1"]
        core.labels[op_id] = Label(max(label.rank for label in core.labels.values()) + 1, "r1")
        with pytest.raises(InvariantViolation):
            AlgorithmInvariantChecker(cluster).check_all()


def record_net_plan(cluster):
    """Wrap ``cluster.make_operation`` to log, per client, every operation
    the driver makes as ``(key, operator, strict, prev ids, id)``."""
    log, make = {}, cluster.make_operation

    def recording_make(client, operator, prev=(), strict=False):
        operation = make(client, operator, prev, strict)
        key, inner = operator.args
        log.setdefault(client, []).append((key, inner, strict, tuple(prev), operation.id))
        return operation

    cluster.make_operation = recording_make
    return log


def keyed_cluster():
    return NetCluster(
        KeyedStore(CounterType()), num_replicas=3, client_ids=("c0", "c1"),
        params=NetParams(gossip_period=0.01), transport="memory", config=FAST,
    )


class TestLoadDriver:
    def test_open_loop_counts_an_event_loop_stall(self):
        """Arrivals due during a stall are timed from their due time, so
        they all see the wait, not just the one or two in flight."""

        async def run():
            async with make_cluster(clients=("c0",)) as cluster:
                spec = WorkloadSpec(operations_per_client=100, mean_interarrival=0.01,
                                    poisson_arrivals=True)
                asyncio.get_running_loop().call_later(0.3, time.sleep, 0.3)
                return await run_load(cluster, spec, mode="open")

        report = asyncio.run(run())
        assert report.failures == 0 and report.operations == 100
        assert report.latency_p95 >= 0.1

    def test_simulator_and_runtime_submit_the_same_stream(self):
        """One spec at one seed: the sharded simulator and the open-loop
        driver submit, per client, the same keys, operators, strict flags
        and ``prev`` dependencies (as indices into the client's stream)."""
        spec = KeyedWorkloadSpec(operations_per_client=8, mean_interarrival=0.01,
                                 poisson_arrivals=True, strict_fraction=0.3,
                                 num_keys=4, key_distribution="zipfian",
                                 prev_policy="random_on_key")
        sharded = ShardedCluster(CounterType(), num_shards=2, replicas_per_shard=2,
                                 client_ids=["c0", "c1"], seed=5)
        sim_log, submit = {}, sharded.submit

        def recording_submit(client, key, operator, prev=(), strict=False, at=None):
            operation = submit(client, key, operator, prev=prev, strict=strict, at=at)
            entry = (key, operator, strict, tuple(prev), operation.id)
            sim_log.setdefault(client, []).append(entry)
            return operation

        sharded.submit = recording_submit
        run_workload(sharded, spec, seed=3)

        async def run():
            async with keyed_cluster() as cluster:
                log = record_net_plan(cluster)
                report = await run_load(cluster, spec, mode="open", seed=3)
                return log, report

        net_log, report = asyncio.run(run())

        def by_index(log):
            streams = {}
            for client, entries in log.items():
                index = {entry[-1]: i for i, entry in enumerate(entries)}
                streams[client] = [(key, operator, strict, sorted(index[p] for p in prev))
                                   for key, operator, strict, prev, _ in entries]
            return streams

        assert by_index(net_log) == by_index(sim_log)
        assert any(prev for stream in by_index(sim_log).values() for *_, prev in stream)
        assert report.failures == 0 and report.operations == 16

    def test_closed_loop_chains_prev_per_key(self):
        """``last_on_key`` on the real runtime: every operation depends on
        its client's previous operation on the same key."""
        spec = KeyedWorkloadSpec(operations_per_client=15, num_keys=3,
                                 prev_policy="last_on_key", strict_fraction=0.2)

        async def run():
            async with keyed_cluster() as cluster:
                log = record_net_plan(cluster)
                report = await run_load(cluster, spec, mode="closed", seed=1)
                assert await cluster.quiesce(timeout=30.0)
                return cluster, log, report

        cluster, log, report = asyncio.run(run())
        assert report.failures == 0 and report.operations == 30
        for entries in log.values():
            last_on = {}
            for key, _, _, prev, op_id in entries:
                assert prev == ((last_on[key],) if key in last_on else ())
                last_on[key] = op_id
        assert sum(1 for entries in log.values() for entry in entries if entry[3]) > 20
        AlgorithmInvariantChecker(cluster).check_all()

    def test_cli_open_loop_keyed_memory_run(self, capsys):
        argv = ["--transport", "memory", "--mode", "open", "--keys", "8", "--ops", "5",
                "--replicas", "3", "--clients", "2", "--interarrival", "0.005"]
        assert driver.main(argv) == 0
        assert "operations      10  (failures 0)" in capsys.readouterr().out


class TestBackpressure:
    def test_unreachable_peer_makes_gossip_skip_not_block(self):
        async def run():
            async with make_cluster(send_queue_limit=1, reconnect_delay=5.0) as cluster:
                await cluster.submit("c0", CounterType.increment())
                await cluster.crash_replica("r2", volatile_memory=False)
                # r2's server is gone and the re-dial is slow: the peers'
                # queues toward it fill and gossip rounds skip instead of
                # stalling the loop.  Live traffic keeps being answered.
                await asyncio.sleep(0.2)
                value = await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                return cluster.stats, value

        stats, value = asyncio.run(run())
        assert value == 2
        assert stats.gossip_skipped > 0

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_full_link_drops_and_counts_without_blocking(self, transport):
        def transfer():
            return CheckpointTransferMessage(
                sender="r0", requester="r2", digest="00" * 8, frontier=Label(1, "r0"),
                ids=OpIdSummary({}), values={}, base_state=None, order_digest="00" * 8,
            )

        async def run():
            loop = asyncio.get_running_loop()
            # No gossip round comes: the link toward r2 holds only what the
            # test hands it.
            async with make_cluster(
                transport, send_queue_limit=1, reconnect_delay=5.0, gossip_period=60.0
            ) as cluster:
                await cluster.submit("c0", CounterType.increment())
                # On a writable connection the bound caps a frame, not the
                # link: reaching it writes the frame out at once.
                healthy = cluster._endpoints["r0"].links["r1"]
                healthy.send("gossip", cluster.replicas["r0"].make_gossip("r1"))
                while healthy.pending:  # dialed and flushed
                    await asyncio.sleep(0.01)
                frames = cluster.stats.frames_sent
                for _ in range(3):
                    healthy.send("gossip", cluster.replicas["r0"].make_gossip("r1"))
                assert cluster.stats.frames_sent == frames + 2 and len(healthy.pending) == 1
                assert cluster.stats.messages_dropped == 0

                await cluster.crash_replica("r2", volatile_memory=False)
                link = cluster._endpoints["r0"].links["r2"]
                # The first message dials, finds no listener and is lost; the
                # next dial waits out reconnect_delay.
                link.send("transfer", transfer())
                while link.pending:
                    await asyncio.sleep(0.01)
                # A plain call, not a coroutine: the sender never waits.
                assert link.send("transfer", transfer()) is None
                assert link.send("transfer", transfer()) is None
                assert len(link.pending) == 1 and cluster.stats.messages_dropped == 1
                for expected in (2, 3, 4):
                    begin = loop.time()
                    assert await cluster.submit("c0", CounterType.increment()) == expected
                    assert loop.time() - begin < cluster.params.request_retry / 2
                # Still held, still undialed: the re-dial is seconds away.
                assert len(link.pending) == 1 and link.conn is None
                assert cluster.stats.messages_dropped == 1
                return cluster.stats

        stats = asyncio.run(run())
        assert stats.frames_unencodable == 0 and stats.frames_rejected == 0

    @pytest.mark.parametrize("transport", ["memory", "tcp"])
    def test_request_toward_a_paused_replica_is_dropped_then_retried(self, transport):
        async def run():
            async with make_cluster(transport, request_retry=0.05) as cluster:
                assert await cluster.submit("c0", CounterType.increment()) == 1
                affinity = cluster._affinity["c0"]
                paused = cluster._client_conns["c0"][affinity]
                paused.pause_writing()
                requests = cluster.stats.messages_by_kind["request"]
                # The first send is dropped, not buffered; the retry reaches
                # the other replicas on fresh connections.
                assert await cluster.submit("c0", CounterType.increment()) == 2
                assert cluster.stats.messages_dropped >= 1
                assert cluster.stats.messages_by_kind["request"] >= requests + 2
                assert paused.paused and not paused.closed
                return cluster.stats

        stats = asyncio.run(run())
        assert stats.frames_unencodable == 0 and stats.frames_rejected == 0


class TestTcpTransport:
    def test_tcp_smoke(self):
        async def run():
            async with make_cluster(transport="tcp") as cluster:
                await asyncio.gather(*(
                    cluster.submit("c0", CounterType.increment()) for _ in range(8)
                ))
                await converge_and_check(cluster)
                assert await cluster.submit("c1", CounterType.read()) == 8
                return cluster.stats

        stats = asyncio.run(run())
        assert stats.frames_sent > 0
        assert stats.messages_by_kind["gossip"] > 0

    def test_tcp_crash_recover_fresh_port(self):
        async def run():
            async with make_cluster(transport="tcp") as cluster:
                for _ in range(3):
                    await cluster.submit("c1", CounterType.increment())
                # Quiesce first: a responded-but-unstable operation held only
                # by the answering replica is a legitimate casualty of a
                # volatile crash (the paper's model allows it), and a lost
                # operation can never satisfy the all-requested quiesce.
                assert await cluster.quiesce(timeout=30.0)
                await cluster.crash_replica("r1", volatile_memory=True)
                await cluster.submit("c0", CounterType.increment(), timeout=10.0)
                await cluster.recover_replica("r1")
                await converge_and_check(cluster)
                return await cluster.submit("c0", CounterType.read())

        assert asyncio.run(run()) == 4


# --------------------------------------------------------------------------- #
# Hostile bytes: a bad frame costs the connection, never the reader           #
# --------------------------------------------------------------------------- #

GARBAGE = b"\xff\xfenot a wire frame"
#: A length prefix beyond MAX_FRAME_BYTES (no body follows: the limit is
#: checked on the header alone).
OVERSIZED = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")


async def _after_bad_bytes(transport, bad_bytes, toward):
    """Three operations, then *bad_bytes* written raw on c0's connection with
    its affinity replica — ``toward`` the ``"client"`` or the ``"replica"``
    end — then four more operations, timed.  Returns what the tests assert
    on, plus everything the loop's exception handler saw (an exception
    leaking out of a reader task surfaces there as "Task exception was never
    retrieved")."""
    loop = asyncio.get_running_loop()
    leaked = []
    loop.set_exception_handler(lambda _loop, context: leaked.append(context))
    async with make_cluster(transport=transport) as cluster:
        rid = cluster._affinity["c0"]
        for _ in range(3):
            await cluster.submit("c0", CounterType.increment())
        assert await cluster.quiesce(timeout=10.0)
        states = {r: core.replayed_state() for r, core in cluster.replicas.items()}
        tracked = {r: core.tracked_op_count() for r, core in cluster.replicas.items()}

        victim = cluster._client_conns["c0"][rid]
        if toward == "client":
            transport = cluster._endpoints[rid].client_out["c0"].conn.transport
        else:
            transport = victim.transport
        transport.write(bad_bytes)
        await asyncio.sleep(0.1)  # let the reject and the EOF propagate

        assert cluster.stats.frames_rejected == 1
        assert victim.closed and cluster._client_conns["c0"].get(rid) is not victim
        assert {r: c.replayed_state() for r, c in cluster.replicas.items()} == states
        assert {r: c.tracked_op_count() for r, c in cluster.replicas.items()} == tracked

        latencies, values = [], []
        for _ in range(4):
            begin = loop.time()
            values.append(await cluster.submit("c0", CounterType.increment()))
            latencies.append(loop.time() - begin)
        assert values == [4, 5, 6, 7]
        # Re-dialed: answered by the affinity replica at once, not by the
        # request_retry timer (1 s) firing on a connection nobody reads.
        assert max(latencies) < cluster.params.request_retry / 2, latencies
        assert cluster.stats.frames_rejected == 1
        await converge_and_check(cluster)
    gc.collect()
    await asyncio.sleep(0)
    assert leaked == []


def _length_prefixed(frame: bytes) -> bytes:
    return len(frame).to_bytes(4, "big") + frame


def _malformed_frames():
    """Well-framed bytes that used to get an exception other than the codec's
    own out of ``decode_frame`` — or, for the varint, to stall the loop."""
    operation = make_operation(Operator("add", ("x",)), OperationId("c0", 1))
    # A flipped byte in the identifier table: no longer UTF-8.
    not_utf8 = bytearray(encode_message(RequestMessage(operation)))
    not_utf8[not_utf8.index(b"c0")] = 0xFF
    # A dict keyed by a frozenset, its tag flipped to the *mutable* set's.
    response = ResponseMessage(operation, value={frozenset([1]): 2})
    unhashable = bytearray(encode_message(response))
    at = unhashable.index(bytes([9, 1, 8]))  # dict of 1 pair, key tag: frozenset
    unhashable[at + 2] = 14
    return {
        "endless varint": encode_message(RequestMessage(operation))[:3] + b"\xff" * 400_000,
        "not utf-8": bytes(not_utf8),
        "unhashable key": bytes(unhashable),
    }


MALFORMED = _malformed_frames()


@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("toward", ["client", "replica"])
class TestHostileFrames:
    def test_garbage_frame_drops_the_connection_only(self, transport, toward):
        asyncio.run(_after_bad_bytes(transport, _length_prefixed(GARBAGE), toward))

    def test_oversized_frame_drops_the_connection_only(self, transport, toward):
        asyncio.run(_after_bad_bytes(transport, OVERSIZED, toward))

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_frame_drops_the_connection_only(self, transport, toward, name):
        asyncio.run(_after_bad_bytes(transport, _length_prefixed(MALFORMED[name]), toward))


async def _after_hostile_replica_frame(transport, frame):
    """Write *frame* raw on r0's connection to r1, as if r0's encoder had gone
    mad: r1 rejects it and drops the connection, r0's link re-dials onto a
    fresh window, and nothing else notices."""
    loop = asyncio.get_running_loop()
    leaked = []
    loop.set_exception_handler(lambda _loop, context: leaked.append(context))
    async with make_cluster(transport=transport) as cluster:
        for _ in range(3):
            await cluster.submit("c0", CounterType.increment())
        assert await cluster.quiesce(timeout=10.0)
        states = {r: core.replayed_state() for r, core in cluster.replicas.items()}
        tracked = {r: core.tracked_op_count() for r, core in cluster.replicas.items()}

        link = cluster._endpoints["r0"].links["r1"]
        old_window = link.window
        link.conn.transport.write(_length_prefixed(frame))
        await asyncio.sleep(0.1)  # the reject, the close and a few gossip rounds

        assert cluster.stats.frames_rejected == 1
        assert {r: c.replayed_state() for r, c in cluster.replicas.items()} == states
        assert {r: c.tracked_op_count() for r, c in cluster.replicas.items()} == tracked
        assert link.window is not old_window  # the connection went, the window with it

        for _ in range(4):
            begin = loop.time()
            await cluster.submit("c0", CounterType.increment())
            # Answered at once, not by the request_retry timer.
            assert loop.time() - begin < cluster.params.request_retry / 2
        await converge_and_check(cluster)
        assert cluster.stats.frames_rejected == 1
        # Refused at the wire boundary: no core ever saw the message.
        assert all(c.stats.transfer_rejections == 0 for c in cluster.replicas.values())
        assert await cluster.submit("c1", CounterType.read()) == 7
    gc.collect()
    await asyncio.sleep(0)
    assert leaked == []


def _broken_transfer_frames():
    """Transfer frames a replica link could carry after a fault: the body
    ends early, or runs on past its last field."""
    frame = encode_message(CheckpointTransferMessage(
        sender="r0", requester="r1", digest="00" * 8, frontier=Label(1, "r0"),
        ids=OpIdSummary({"c0": [(0, 2)]}), values={OperationId("c0", 1): 1},
        base_state=2, order_digest="00" * 8,
    ))
    return {"cut short": frame[:-1], "trailing byte": frame + b"\x00"}


BROKEN_TRANSFERS = _broken_transfer_frames()


@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("name", sorted(BROKEN_TRANSFERS))
def test_broken_transfer_frame_costs_the_connection_only(transport, name):
    # Written raw on the live r0 -> r1 link: r1's codec refuses the frame,
    # so the core's ``_reject_transfer`` (and its re-pull) never runs.
    with pytest.raises(FrameError):
        decode_frame(BROKEN_TRANSFERS[name])
    asyncio.run(_after_hostile_replica_frame(transport, BROKEN_TRANSFERS[name]))


class Probe(asyncio.Protocol):
    """A bare connection end: writes raw bytes, notices being dropped."""

    transport = None
    lost = False

    def connection_made(self, transport):
        self.transport = transport

    def connection_lost(self, exc):
        self.lost = True


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_non_utf8_hello_is_rejected_not_raised(transport):
    async def run():
        loop = asyncio.get_running_loop()
        leaked = []
        loop.set_exception_handler(lambda _loop, context: leaked.append(context))
        async with make_cluster(transport=transport) as cluster:
            probe = Probe()
            await cluster.transport.connect("r0", probe)
            probe.transport.write(_length_prefixed(b"\xff\xfe\xfd"))
            await asyncio.sleep(0.1)
            assert cluster.stats.frames_rejected == 1
            assert probe.lost  # the replica dropped the connection
            assert await cluster.submit("c0", CounterType.increment()) == 1
        gc.collect()
        await asyncio.sleep(0)
        assert leaked == []

    asyncio.run(run())


# --------------------------------------------------------------------------- #
# A value the wire cannot spell: it costs its message, never a link           #
# --------------------------------------------------------------------------- #

#: The widest integer the wire carries has 895 bits (``2**894`` is one).
WIDEST = 2**894


def _wide(amount):
    """``add(amount)`` on a key of its own: only its responses are wide."""
    return KeyedStore.at("wide", CounterType.add(amount))


async def _around_an_unspellable_value(transport, poison):
    """c1 keeps incrementing a key of its own while *poison* plays on c0's;
    afterwards c0 must answer at once again and the deployment quiesce.
    Returns the cluster's stats."""
    loop = asyncio.get_running_loop()
    leaked = []
    loop.set_exception_handler(lambda _loop, context: leaked.append(context))
    cluster = NetCluster(
        KeyedStore(CounterType()), num_replicas=3, client_ids=("c0", "c1"),
        params=NetParams(gossip_period=0.01), transport=transport, config=FAST,
    )
    async with cluster:
        bystander_latencies = []

        async def bystander():
            for expected in range(1, 26):
                begin = loop.time()
                value = await cluster.submit(
                    "c1", KeyedStore.at("k", CounterType.increment())
                )
                bystander_latencies.append(loop.time() - begin)
                assert value == expected
                await asyncio.sleep(0.05)

        other = loop.create_task(bystander())
        assert await cluster.submit("c0", _wide(WIDEST)) == WIDEST
        await poison(cluster)
        begin = loop.time()
        # The same client's next operation: back below the bound, answered by
        # the affinity replica at once — not by a retry, not never.
        assert await cluster.submit("c0", _wide(-WIDEST), timeout=3.0) in (0, WIDEST)
        assert loop.time() - begin < cluster.params.request_retry / 2
        await other
        assert max(bystander_latencies) < cluster.params.request_retry / 2
        assert cluster.outstanding_operations() == 0
        assert await cluster.quiesce(timeout=10.0)
        for endpoint in cluster._endpoints.values():
            assert not any(link.closed for link in endpoint.links.values())
            assert not any(link.closed for link in endpoint.client_out.values())
        stats = cluster.stats
    gc.collect()
    await asyncio.sleep(0)
    assert leaked == []
    return stats


@pytest.mark.parametrize("transport", ["memory", "tcp"])
class TestUnspellableValues:
    def test_unencodable_response_costs_the_response_not_the_link(self, transport):
        async def poison(cluster):
            # The sum has 896 bits: every replica computes it, none can say it.
            with pytest.raises(asyncio.TimeoutError):
                await cluster.submit("c0", _wide(WIDEST), timeout=1.5)

        stats = asyncio.run(_around_an_unspellable_value(transport, poison))
        assert stats.frames_unencodable >= 1 and stats.frames_rejected == 0

    def test_unencodable_request_is_withdrawn(self, transport):
        async def poison(cluster):
            before = len(cluster.requested), len(cluster.trace.events)
            with pytest.raises(FrameError):
                await cluster.submit("c0", _wide(2**900))
            # It never left the client: nothing waits for it, anywhere.
            assert cluster.outstanding_operations() == 0
            assert (len(cluster.requested), len(cluster.trace.events)) == before
            assert not cluster.frontends["c0"].wait

        stats = asyncio.run(_around_an_unspellable_value(transport, poison))
        assert stats.frames_unencodable == 0 and stats.frames_rejected == 0

    def test_unencodable_message_on_a_replica_link_drops_the_connection_only(self, transport):
        async def poison(cluster):
            link = cluster._endpoints["r0"].links["r1"]
            while link.window is None:  # until the first gossip round dials
                await asyncio.sleep(0.01)
            window = link.window
            # A transfer whose base state is too wide, as a pull would get it.
            link.send("transfer", CheckpointTransferMessage(
                sender="r0", requester="r1", digest="00" * 8, frontier=Label(1, "r0"),
                ids=OpIdSummary({}), values={}, base_state=2**900, order_digest="00" * 8,
            ))
            while cluster.stats.frames_unencodable == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # gossip goes on, over a new connection
            assert not link.closed
            assert link.window is not None and link.window is not window

        stats = asyncio.run(_around_an_unspellable_value(transport, poison))
        assert stats.frames_unencodable == 1 and stats.frames_rejected == 0
