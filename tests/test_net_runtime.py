"""Tests for the asyncio replica runtime (:mod:`repro.net.runtime`).

Unlike the wire twins (tests/test_net_wire.py), which pin the codec-bearing
simulation twin to the plain simulator under virtual time, these run the
*real* :class:`NetCluster`: one asyncio task per replica, real frames through
the binary codec, gossip on wall-clock timers.  The in-process memory
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
from repro.net.driver import LoadSpec, run_load
from repro.net.runtime import MAX_FRAME_BYTES, NetCluster, NetParams, write_frame
from repro.service.keyed import KeyedStore
from repro.verification.invariants import AlgorithmInvariantChecker
from repro.verification.serializability import check_recorded_trace

FAST = ReplicaConfig(delta_gossip=True, fast_core=True)


def make_cluster(transport="memory", clients=("c0", "c1"), config=FAST, **transport_knobs):
    return NetCluster(
        CounterType(), num_replicas=3, client_ids=clients,
        params=NetParams(**{"gossip_period": 0.01, **transport_knobs}),
        transport=transport, config=config,
    )


async def converge_and_check(cluster: NetCluster) -> None:
    """Quiesce, then check the global oracles: a single eventual order at
    every live replica and strict responses explained by it."""
    assert await cluster.quiesce(timeout=30.0), "cluster failed to converge"
    witness = cluster.eventual_order()
    assert [op for op in witness] == sorted(witness, key=witness.index)  # sanity: a list of ids
    check_recorded_trace(cluster.data_type, cluster.trace, witness=witness)


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
                # One more operation at a time until one is still tracked
                # (done, uncompacted) at every replica: each replica folds
                # at most once per 32 operations, so this takes a few rounds.
                while not set.intersection(
                    *(set(core.labels) for core in cluster.replicas.values())
                ):
                    await cluster.submit("c0", CounterType.increment())
                    assert await cluster.quiesce(timeout=30.0)
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


class TestLoadDriver:
    def test_open_loop_counts_an_event_loop_stall(self):
        """Arrivals due during a stall are timed from their due time, so
        they all see the wait, not just the one or two in flight."""

        async def run():
            async with make_cluster(clients=("c0",)) as cluster:
                spec = LoadSpec(operations_per_client=100, mode="open", mean_interarrival=0.01)
                asyncio.get_running_loop().call_later(0.3, time.sleep, 0.3)
                return await run_load(cluster, spec)

        report = asyncio.run(run())
        assert report.failures == 0 and report.operations == 100
        assert report.latency_p95 >= 0.1


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
            writer = cluster._endpoints[rid].client_out["c0"]._writer
        else:
            writer = victim.writer
        writer.write(bad_bytes)
        await writer.drain()
        await asyncio.sleep(0.1)  # let the reject and the EOF propagate

        assert cluster.stats.frames_rejected == 1
        assert victim.dead and cluster._client_conns["c0"].get(rid) is not victim
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
        old_window = link._window
        link._writer.write(_length_prefixed(frame))
        await link._writer.drain()
        await asyncio.sleep(0.1)  # the reject, the close and a few gossip rounds

        assert cluster.stats.frames_rejected == 1
        assert {r: c.replayed_state() for r, c in cluster.replicas.items()} == states
        assert {r: c.tracked_op_count() for r, c in cluster.replicas.items()} == tracked
        assert link._window is not old_window  # the connection went, the window with it

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


@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("index, count", [(0, 0), (3, 3)])
def test_transfer_chunk_outside_its_count_costs_the_connection_only(transport, index, count):
    # Written raw on the live r0 -> r1 link: r1's codec refuses the chunk, so
    # the core's ``_reject_transfer`` (and its re-pull) never runs.
    frame = encode_message(CheckpointTransferMessage(
        sender="r0", requester="r1", epoch=0, digest="00" * 8,
        frontier=Label(1, "r0"), ids=OpIdSummary({"c0": [(0, 2)]}), values_chunk={},
        chunk_index=index, chunk_count=count,
    ))
    with pytest.raises(FrameError, match="transfer chunk"):
        decode_frame(frame)
    asyncio.run(_after_hostile_replica_frame(transport, frame))


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_non_utf8_hello_is_rejected_not_raised(transport):
    async def run():
        loop = asyncio.get_running_loop()
        leaked = []
        loop.set_exception_handler(lambda _loop, context: leaked.append(context))
        async with make_cluster(transport=transport) as cluster:
            _reader, writer = await cluster.transport.connect("r0")
            await write_frame(writer, b"\xff\xfe\xfd")
            await asyncio.sleep(0.1)
            assert cluster.stats.frames_rejected == 1
            assert await cluster.submit("c0", CounterType.increment()) == 1
            writer.close()
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
            assert not any(link.task.done() for link in endpoint.links.values())
            assert not any(link.task.done() for link in endpoint.client_out.values())
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
            assert cluster.frontends["c0"].pending_count() == 0

        stats = asyncio.run(_around_an_unspellable_value(transport, poison))
        assert stats.frames_unencodable == 0 and stats.frames_rejected == 0

    def test_unencodable_message_on_a_replica_link_drops_the_connection_only(self, transport):
        async def poison(cluster):
            link = cluster._endpoints["r0"].links["r1"]
            while link._window is None:  # until the first gossip round dials
                await asyncio.sleep(0.01)
            window = link._window
            # A transfer whose base state is too wide, as a pull would get it.
            await link.send("transfer", CheckpointTransferMessage(
                sender="r0", requester="r1", epoch=0, digest="00" * 8,
                frontier=Label(1, "r0"), ids=OpIdSummary({}), values_chunk={},
                chunk_index=0, chunk_count=1, base_state=2**900,
            ))
            while cluster.stats.frames_unencodable == 0:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.1)  # gossip goes on, over a new connection
            assert not link.task.done()
            assert link._window is not None and link._window is not window

        stats = asyncio.run(_around_an_unspellable_value(transport, poison))
        assert stats.frames_unencodable == 1 and stats.frames_rejected == 0
