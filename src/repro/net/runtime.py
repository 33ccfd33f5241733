"""The asyncio replica runtime: real concurrency, real bytes, same cores.

One asyncio task group per replica speaks the binary codec
(:mod:`repro.net.codec`) over a duplex stream transport, driving the
*unchanged* replica cores through the same sans-IO
:class:`~repro.algorithm.node.ReplicaNode` the seeded simulator drives: a
decoded frame goes into ``handle``, the outbox goes onto the send links.

Transports
    ``tcp``
        every replica listens on a loopback socket (OS-assigned port);
        replicas dial one outgoing connection per peer, clients dial one
        duplex connection per replica (requests out, responses back).
    ``memory``
        the same stream discipline over in-process pipes built from
        ``asyncio.StreamReader`` pairs — no OS sockets, deterministic enough
        for CI, and a crashed endpoint breaks its peers' writers exactly
        like a reset socket would.

Framing and flow control
    Every frame is length-prefixed (4-byte big-endian).  Each sender->peer
    link owns a **bounded** send queue drained by one writer task, which
    **coalesces** everything currently queued into a single frame (one
    magic/table overhead amortized over the batch).  A full queue means the
    peer is slow: clients and the pull/transfer plane block on ``put``
    (backpressure), while the gossip tick *skips* the peer for that round
    before building a message — deliberately, since a skipped gossip is
    indistinguishable from a lost one and, under delta gossip, building a
    message that is then dropped would burn a stream seqno and stall the
    receiver's cumulative ack.

Descriptor windows and tables
    A connection is reliable and FIFO, so each direction of a
    replica->replica connection owns a
    :class:`~repro.net.codec.DescriptorWindow`: a descriptor crosses in full
    once and by back-reference afterwards.  The window's lifetime is the
    connection's — the send link dials *before* it encodes and drops window
    and connection together on a failed write; the serve task's half dies
    with the task — so the first frame on every connection is spelled in
    full and no handshake is needed after a crash or a rejected frame.
    Every window — client links have one too, which stays empty — carries
    the :class:`~repro.net.codec.DescriptorTable` of the endpoint it belongs
    to: one per replica *incarnation* (:class:`_Endpoint`) and one per
    client.  Through it a replica parses a descriptor once however many
    links relay it, re-sends the bytes it received, and holds one object
    per descriptor; a crashed replica's table goes with its endpoint.

Loss tolerance
    Connections (re)connect lazily; a write onto a broken link loses the
    batch, and nothing retransmits at the transport level.  That is the
    algorithm's own fault model — gossip re-sends knowledge every period,
    pulls are re-queued off the next advert, and the front end retries
    unanswered requests — so replica crash/recovery needs no connection
    handshake beyond re-dialing.  A message holding a value the wire cannot
    spell is lost the same way, alone: the writer task counts it
    (``NetStats.frames_unencodable``) and carries on, and a request that
    cannot be spelled is raised to its submitter and withdrawn.

The cluster shares :class:`~repro.deployment.Deployment` with the simulator
(``requested`` / ``responded`` / ``trace`` / ``replicas`` /
``compaction_ledger``, ``algorithm_view`` / ``eventual_order``), so the
Section 7/8 invariant checker and the serializability oracles run unmodified
against a quiesced network deployment.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithm.messages import ResponseMessage
from repro.algorithm.node import ReplicaNode
from repro.common import ConfigurationError, EsdsError, OperationId
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor
from repro.datatypes.base import Operator, SerialDataType
from repro.deployment import Deployment
from repro.net.codec import (
    DescriptorTable,
    DescriptorWindow,
    FrameError,
    decode_frame,
    encode_frame_detailed,
)

#: Upper bound on one frame (a defensive limit, far above any real frame).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")


class OperationFailed(EsdsError):
    """Every replica NACKed the operation (its retained value aged out)."""


@dataclass
class NetParams:
    """Transport and timing knobs of a network deployment, plus the replica
    features (``replica``) every harness shares."""

    #: Seconds between gossip rounds at each replica.
    gossip_period: float = 0.05
    #: Bounded per-peer send queue length (messages). Full queue = slow peer:
    #: senders block (clients, pulls) or skip the round (gossip).
    send_queue_limit: int = 64
    #: Front ends re-send an unanswered request after this many seconds
    #: (redirecting away from replicas that NACKed, like the simulator).
    request_retry: float = 1.0
    #: Delay before a broken link re-dials its peer.
    reconnect_delay: float = 0.05
    #: The replica-level features — the one :class:`~repro.config.ReplicaConfig`
    #: every harness takes.  Its simulator-only fields (``batch_gossip``,
    #: ``compaction_interval``) are ignored here.
    replica: ReplicaConfig = field(default_factory=ReplicaConfig)

    def __post_init__(self) -> None:
        if self.gossip_period <= 0:
            raise ConfigurationError("gossip_period must be positive")
        if self.send_queue_limit < 1:
            raise ConfigurationError("send_queue_limit must be at least 1")
        if self.request_retry <= 0:
            raise ConfigurationError("request_retry must be positive")
        self.replica.require_single_policy("NetParams")


@dataclass
class NetStats:
    """Actual traffic accounting.  ``payload_bytes_by_kind`` attributes each
    message's encoded payload to its kind; ``bytes_sent`` additionally
    counts the shared frame overhead (magic, table, length prefixes)."""

    KINDS = ("request", "response", "gossip", "pull", "transfer")

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0
    messages_by_kind: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in NetStats.KINDS}
    )
    payload_bytes_by_kind: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in NetStats.KINDS}
    )
    #: Gossip rounds skipped because a peer's send queue was full.
    gossip_skipped: int = 0
    #: Inbound frames that failed to decode or exceeded the size limit; each
    #: cost its sender the connection.
    frames_rejected: int = 0
    #: Outbound messages dropped because they held a value the wire cannot
    #: spell (an integer wider than 895 bits, an unknown type).
    frames_unencodable: int = 0

    def record_frame(
        self, batch: Sequence[Tuple[str, Any]], frame_len: int, sizes: Sequence[int]
    ) -> None:
        self.frames_sent += 1
        self.bytes_sent += frame_len + _LEN.size
        for (kind, _), size in zip(batch, sizes):
            self.messages_by_kind[kind] += 1
            self.payload_bytes_by_kind[kind] += size


# --------------------------------------------------------------------------- #
# Stream helpers (shared by both transports)                                  #
# --------------------------------------------------------------------------- #

async def read_frame(reader) -> Optional[bytes]:
    """Read one length-prefixed frame; ``None`` on EOF / reset."""
    try:
        header = await reader.readexactly(_LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise EsdsError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} limit")
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None


async def write_frame(writer, frame: bytes) -> None:
    """Write one length-prefixed frame."""
    writer.write(_LEN.pack(len(frame)) + frame)
    await writer.drain()


def _close_quietly(writer) -> None:
    try:
        writer.close()
    except Exception:
        pass


async def _read_hello(reader) -> Optional[str]:
    frame = await read_frame(reader)
    if frame is None:
        return None
    try:
        return frame.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError("hello frame is not UTF-8") from exc


async def _write_hello(writer, name: str) -> None:
    await write_frame(writer, name.encode("utf-8"))


# --------------------------------------------------------------------------- #
# In-process transport: StreamReader pairs wired back to back                 #
# --------------------------------------------------------------------------- #

class _MemoryWriter:
    """Write end of an in-process pipe.  Closing it EOFs the peer's reader
    and *breaks* the peer's write end, so a crashed endpoint surfaces to its
    peers as a reset connection — same failure surface as a socket."""

    def __init__(self, peer_reader: asyncio.StreamReader) -> None:
        self._peer_reader = peer_reader
        self._peer_writer: Optional["_MemoryWriter"] = None
        self._closed = False
        self._broken = False

    def write(self, data: bytes) -> None:
        if self._closed or self._broken:
            raise ConnectionResetError("in-process peer closed")
        self._peer_reader.feed_data(data)

    async def drain(self) -> None:
        if self._closed or self._broken:
            raise ConnectionResetError("in-process peer closed")
        # Yield to the event loop so readers run; there is no real buffer.
        await asyncio.sleep(0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._peer_reader.feed_eof()
        if self._peer_writer is not None:
            self._peer_writer._broken = True

    def is_closing(self) -> bool:
        return self._closed

    async def wait_closed(self) -> None:
        return


class _MemoryTransport:
    """The registry of listening in-process nodes."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Any] = {}

    async def listen(self, name: str, handler) -> "_MemoryServer":
        self._handlers[name] = handler
        return _MemoryServer(self, name)

    async def connect(self, name: str):
        handler = self._handlers.get(name)
        if handler is None:
            raise ConnectionRefusedError(f"no listener named {name!r}")
        here_reader = asyncio.StreamReader()
        there_reader = asyncio.StreamReader()
        here_writer = _MemoryWriter(there_reader)
        there_writer = _MemoryWriter(here_reader)
        here_writer._peer_writer = there_writer
        there_writer._peer_writer = here_writer
        asyncio.get_running_loop().create_task(handler(there_reader, there_writer))
        return here_reader, here_writer


class _MemoryServer:
    def __init__(self, transport: _MemoryTransport, name: str) -> None:
        self._transport = transport
        self._name = name

    def close(self) -> None:
        self._transport._handlers.pop(self._name, None)

    async def wait_closed(self) -> None:
        return


# --------------------------------------------------------------------------- #
# TCP transport (loopback)                                                    #
# --------------------------------------------------------------------------- #

def _set_nodelay(writer) -> None:
    """Disable Nagle on a TCP stream.  The protocol is strictly small
    request/response and gossip frames; with Nagle on, every sub-MSS frame
    waits for the peer's delayed ACK (~40ms on Linux loopback), which caps
    a ping-pong client at ~25 ops/s regardless of how fast the replicas
    are.  Both the dialing and the accepting side must opt out — either
    side's Nagle re-introduces the stall."""
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (or a platform without the knob)


class _TcpTransport:
    """Loopback TCP with a name -> (host, port) registry, resolved at every
    connect so a recovered replica's fresh port is picked up lazily."""

    def __init__(self) -> None:
        self._addresses: Dict[str, Tuple[str, int]] = {}

    async def listen(self, name: str, handler):
        async def accept(reader, writer):
            _set_nodelay(writer)
            await handler(reader, writer)

        server = await asyncio.start_server(accept, "127.0.0.1", 0)
        self._addresses[name] = server.sockets[0].getsockname()[:2]
        return _TcpServer(self, name, server)

    async def connect(self, name: str):
        address = self._addresses.get(name)
        if address is None:
            raise ConnectionRefusedError(f"no listener named {name!r}")
        reader, writer = await asyncio.open_connection(*address)
        _set_nodelay(writer)
        return reader, writer


class _TcpServer:
    def __init__(self, transport: _TcpTransport, name: str, server: asyncio.AbstractServer) -> None:
        self._transport = transport
        self._name = name
        self._server = server

    def close(self) -> None:
        self._transport._addresses.pop(self._name, None)
        self._server.close()

    async def wait_closed(self) -> None:
        await self._server.wait_closed()


# --------------------------------------------------------------------------- #
# Send links                                                                  #
# --------------------------------------------------------------------------- #

class _SendLink:
    """One bounded outgoing queue + writer task toward a fixed peer.

    ``dial=True`` links own their connection (replica->replica: lazily
    (re)connected through the transport registry) and, with it, the sending
    half of its :class:`~repro.net.codec.DescriptorWindow` — born with the
    connection, dropped with it, so the first frame on every connection is
    spelled in full; ``dial=False`` links write onto an already-accepted
    connection's writer (replica->client responses ride the client's own
    duplex connection), which carries no gossip: their window stays empty.
    Every window of the link brings along *table*, the sending endpoint's
    :class:`~repro.net.codec.DescriptorTable`."""

    def __init__(self, cluster: "NetCluster", source: str, dest: str,
                 table: DescriptorTable, writer=None) -> None:
        self._cluster = cluster
        self._source = source
        self._dest = dest
        self._table = table
        self._writer = writer
        self._dial = writer is None
        self._window: Optional[DescriptorWindow] = (
            None if self._dial else DescriptorWindow(table)
        )
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=cluster.params.send_queue_limit)
        self.task = asyncio.get_running_loop().create_task(self._run())

    async def send(self, kind: str, message) -> None:
        await self.queue.put((kind, message))

    def send_nowait(self, kind: str, message) -> bool:
        try:
            self.queue.put_nowait((kind, message))
            return True
        except asyncio.QueueFull:
            return False

    def close(self) -> None:
        self.task.cancel()
        if self._writer is not None:
            _close_quietly(self._writer)
            self._writer = None

    async def _run(self) -> None:
        #: Messages of a batch that failed to encode, to be sent one by one.
        singly: Deque[Tuple[str, Any]] = deque()
        while True:
            if singly:
                batch: List[Tuple[str, Any]] = [singly.popleft()]
            else:
                # One frame takes everything queued; the bounded queue
                # bounds the frame.
                batch = [await self.queue.get()]
                while not self.queue.empty():
                    batch.append(self.queue.get_nowait())
            # Dial before encoding: a windowed frame advances the window, so
            # it must be written to the connection the window belongs to.
            if self._writer is None and self._dial:
                self._writer = await self._connect()
                if self._writer is None:
                    continue  # peer unreachable: the batch is lost (fault model)
                self._window = DescriptorWindow(self._table)
            try:
                frame, sizes = encode_frame_detailed(
                    [message for _, message in batch], self._window
                )
            except FrameError:
                # A value the wire cannot spell costs the message that holds
                # it — lost like any other — and never the link: the rest of
                # its batch goes out one message a frame.  A half-encoded
                # windowed frame has already advanced the window, so a dialed
                # connection goes with it.
                if len(batch) > 1:
                    singly.extend(batch)
                else:
                    self._cluster.stats.frames_unencodable += 1
                if self._dial:
                    self._drop_connection()
                continue
            try:
                await write_frame(self._writer, frame)
            except (ConnectionError, OSError):
                self._drop_connection()
                continue  # batch lost; re-dial on the next one
            self._cluster.stats.record_frame(batch, len(frame), sizes)

    def _drop_connection(self) -> None:
        if self._writer is not None:
            _close_quietly(self._writer)
        self._writer = None
        self._window = None
        if not self._dial:
            # An accepted connection cannot be re-dialed from this side;
            # the peer re-connects and a fresh link replaces this one.
            self.task.cancel()

    async def _connect(self):
        try:
            reader, writer = await self._cluster.transport.connect(self._dest)
            await _write_hello(writer, self._source)
        except (ConnectionError, OSError):
            await asyncio.sleep(self._cluster.params.reconnect_delay)
            return None
        # The reverse direction of a dialed replica link is unused; leave
        # the reader unconsumed (EOF surfaces through write errors).
        return writer


# --------------------------------------------------------------------------- #
# Endpoints                                                                   #
# --------------------------------------------------------------------------- #

class _Endpoint:
    """The connections and tasks of one incarnation of a replica: its
    listening server, outgoing links, and the tasks serving what it
    accepted.  A crash tears the endpoint down; recovery builds a new one
    (and a new :class:`ReplicaNode`, so tasks of the dead incarnation keep
    seeing ``crashed``)."""

    def __init__(self, node: ReplicaNode) -> None:
        self.node = node
        #: What this incarnation knows about descriptor spellings; shared by
        #: the windows of all its links, gone with it.
        self.table = DescriptorTable()
        self.server = None
        #: Outgoing replica->replica links.
        self.links: Dict[str, _SendLink] = {}
        #: Response links keyed by client id (onto accepted connections).
        self.client_out: Dict[str, _SendLink] = {}
        #: Tasks serving accepted connections (+ the gossip loop).
        self.tasks: Set[asyncio.Task] = set()

    def teardown(self) -> None:
        self.node.crashed = True
        if self.server is not None:
            self.server.close()
            self.server = None
        for task in self.tasks:
            task.cancel()
        self.tasks.clear()
        for link in self.links.values():
            link.close()
        self.links.clear()
        for link in self.client_out.values():
            link.close()
        self.client_out.clear()


class _ClientConn:
    """A client's duplex connection to one replica.  It carries no gossip,
    so one (empty) window serves both directions: it brings the client's
    descriptor table to the codec."""

    def __init__(self, writer, window: DescriptorWindow) -> None:
        self.writer = writer
        self.window = window
        self.reader_task: Optional[asyncio.Task] = None
        self.lock = asyncio.Lock()
        self.dead = False

    def close(self) -> None:
        self.dead = True
        if self.reader_task is not None:
            self.reader_task.cancel()
        _close_quietly(self.writer)


class NetCluster(Deployment):
    """A full ESDS deployment over asyncio streams.

    Usage (an event loop must be running — tests wrap in ``asyncio.run``)::

        cluster = NetCluster(Counter(), num_replicas=4, client_ids=("c0",),
                             config=ReplicaConfig(delta_gossip=True), transport="tcp")
        async with cluster:
            value = await cluster.submit("c0", Operator("add", (5,)))
            await cluster.quiesce()

    The constructor mirrors :class:`~repro.sim.cluster.SimulatedCluster`
    where the concepts coincide; time is real, so there are no ``df``/``dg``
    knobs — delivery takes as long as the event loop takes.
    """

    def __init__(
        self,
        data_type: SerialDataType,
        num_replicas: int = 3,
        client_ids: Sequence[str] = ("c0",),
        params: Optional[NetParams] = None,
        transport: str = "memory",
        config: Optional[ReplicaConfig] = None,
    ) -> None:
        self.params = params or NetParams()
        if config is not None:
            self.params = replace(self.params, replica=config)
        if transport == "memory":
            self.transport = _MemoryTransport()
        elif transport == "tcp":
            self.transport = _TcpTransport()
        else:
            raise ConfigurationError(f"unknown transport {transport!r}")
        super().__init__(data_type, num_replicas, client_ids, self.params.replica)
        self.stats = NetStats()

        self._endpoints: Dict[str, _Endpoint] = {}
        #: Live client connections, by client then replica; dialed lazily.
        self._client_conns: Dict[str, Dict[str, _ClientConn]] = defaultdict(dict)
        #: One descriptor table per client, shared by its connections.
        self._client_tables: Dict[str, DescriptorTable] = defaultdict(DescriptorTable)
        self._futures: Dict[OperationId, asyncio.Future] = {}
        self._started = False

    def _record_compaction(self, replica: str, batch, checkpoint) -> None:
        # The book keeps the clients' own descriptors (``requested`` holds
        # them anyway), not the reporting replica's copies: what a replica
        # decoded — and its table's entry for it — goes when its core folds it.
        requested = self.requested
        super()._record_compaction(
            replica, [requested.get(op.id, op) for op in batch], checkpoint
        )

    # -- lifecycle -------------------------------------------------------------

    async def __aenter__(self) -> "NetCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def start(self) -> None:
        if self._started:
            return
        self._started = True
        for rid in self.replica_ids:
            await self._start_replica(rid)
        for cid in self.client_ids:
            for rid in self.replica_ids:
                await self._connect_client(cid, rid)

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        for endpoint in self._endpoints.values():
            endpoint.teardown()
        for conns in self._client_conns.values():
            for conn in list(conns.values()):
                conn.close()
            conns.clear()
        # Let cancellations unwind before the loop closes.
        await asyncio.sleep(0)

    async def _start_replica(self, rid: str) -> None:
        endpoint = _Endpoint(self.nodes[rid])
        self._endpoints[rid] = endpoint

        async def serve(reader, writer) -> None:
            await self._serve_connection(endpoint, reader, writer)

        endpoint.server = await self.transport.listen(rid, serve)
        for dest in self.replica_ids:
            if dest != rid:
                endpoint.links[dest] = _SendLink(self, rid, dest, endpoint.table)
        task = asyncio.get_running_loop().create_task(self._gossip_loop(endpoint))
        endpoint.tasks.add(task)

    # -- replica side ----------------------------------------------------------

    async def _serve_connection(self, endpoint: _Endpoint, reader, writer) -> None:
        task = asyncio.current_task()
        endpoint.tasks.add(task)
        node = endpoint.node
        response_link = None
        # The receiving half of this connection's descriptor window: it lives
        # and dies with this task.
        window = DescriptorWindow(endpoint.table)
        try:
            sender = await _read_hello(reader)
            if sender is None or node.crashed:
                return
            if sender in self.frontends:
                # The client's duplex connection doubles as its response
                # channel; a reconnect replaces any stale link.
                old = endpoint.client_out.pop(sender, None)
                if old is not None:
                    old.close()
                response_link = _SendLink(
                    self, node.id, sender, endpoint.table, writer=writer
                )
                endpoint.client_out[sender] = response_link
            while True:
                frame = await read_frame(reader)
                if frame is None or node.crashed:
                    break
                self.stats.frames_received += 1
                self.stats.bytes_received += len(frame) + _LEN.size
                await self._handle_frame(endpoint, decode_frame(frame, window))
        except EsdsError:
            # Hostile or corrupt bytes: after one bad frame the stream's
            # framing cannot be trusted, so the *connection* goes — never the
            # replica.  Nothing of the frame reached the core.
            self.stats.frames_rejected += 1
        except asyncio.CancelledError:
            # Replica crash / cluster stop cancels serve tasks; exiting
            # normally keeps asyncio's stream-protocol callback quiet.
            pass
        finally:
            endpoint.tasks.discard(task)
            if response_link is not None and endpoint.client_out.get(sender) is response_link:
                del endpoint.client_out[sender]
                response_link.close()
            _close_quietly(writer)

    async def _handle_frame(self, endpoint: _Endpoint, messages: Sequence[Any]) -> None:
        """One decoded frame — one sender's wakeup worth of messages — goes
        through the node as a single burst; its outbox goes onto the links.
        Pulls, transfers and responses block on a full queue (backpressure).
        A response for a client with no connection here is lost, exactly
        like a dropped message; the front end's retry path recovers."""
        for kind, destination, message in endpoint.node.handle(messages):
            if kind == "response":
                link = endpoint.client_out.get(destination)
            else:
                link = endpoint.links[destination]
            if link is not None:
                await link.send(kind, message)

    async def _gossip_loop(self, endpoint: _Endpoint) -> None:
        loop = asyncio.get_running_loop()
        node = endpoint.node
        while True:
            await asyncio.sleep(self.params.gossip_period)
            if node.crashed:
                return
            for dest, link in endpoint.links.items():
                if link.queue.full():
                    # Skip *before* building: under delta gossip a built-
                    # then-dropped message would consume a stream seqno.
                    self.stats.gossip_skipped += 1
                    continue
                message = node.core.make_gossip(dest)
                message.sent_at = loop.time()
                if not link.send_nowait("gossip", message):
                    self.stats.gossip_skipped += 1

    # -- client side -----------------------------------------------------------

    async def _connect_client(self, cid: str, rid: str) -> Optional[_ClientConn]:
        try:
            reader, writer = await self.transport.connect(rid)
            await _write_hello(writer, cid)
        except (ConnectionError, OSError):
            return None
        conn = _ClientConn(writer, DescriptorWindow(self._client_tables[cid]))
        conn.reader_task = asyncio.get_running_loop().create_task(
            self._client_reader(cid, rid, conn, reader)
        )
        self._client_conns[cid][rid] = conn
        return conn

    async def _client_reader(self, cid: str, rid: str, conn: _ClientConn, reader) -> None:
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self.stats.frames_received += 1
                self.stats.bytes_received += len(frame) + _LEN.size
                for message in decode_frame(frame, conn.window):
                    if message.kind == "response":
                        self._deliver_response(cid, message)
        except EsdsError:
            self.stats.frames_rejected += 1
        finally:
            # EOF, a rejected frame or cancellation: nobody reads this
            # connection any more, so the next send must re-dial.
            conn.dead = True
            _close_quietly(conn.writer)
            if self._client_conns[cid].get(rid) is conn:
                del self._client_conns[cid][rid]

    def _deliver_response(self, cid: str, message: ResponseMessage) -> None:
        if not self.accept_response(cid, message):
            return
        op_id = message.operation.id
        future = self._futures.pop(op_id, None)
        if future is not None and not future.done():
            if message.stale:
                future.set_exception(OperationFailed(self.failed[op_id]))
            else:
                future.set_result(self.responded[op_id])

    async def _send_request(self, cid: str, rid: str, message) -> None:
        conn = self._client_conns[cid].get(rid)
        if conn is None or conn.dead:
            conn = await self._connect_client(cid, rid)
            if conn is None:
                return  # replica unreachable: the send is lost
        frame, sizes = encode_frame_detailed([message], conn.window)
        try:
            async with conn.lock:
                await write_frame(conn.writer, frame)
        except (ConnectionError, OSError):
            conn.close()
            return
        self.stats.record_frame([("request", message)], len(frame), sizes)

    # -- public client API -----------------------------------------------------

    async def ingest(
        self, operations: Sequence[OperationDescriptor], timeout: float = 30.0
    ) -> Dict[OperationId, Any]:
        """Replay a ``prev``-chained operation slice under its original
        (possibly foreign) client identities — the network-side hook a
        resharding coordinator uses to hand a migrated history to its new
        owner.  Operations execute sequentially so every link's ``prev`` is
        answered at the affinity replica before the next link is sent; the
        returned mapping carries each operation's response value."""
        values: Dict[OperationId, Any] = {}
        for operation in operations:
            self.ensure_client(operation.id.client)
            if operation.id in self.responded:
                values[operation.id] = self.responded[operation.id]
                continue
            values[operation.id] = await self.execute(operation, timeout=timeout)
        return values

    async def submit(
        self,
        client: str,
        operator: Operator,
        prev: Iterable[OperationId] = (),
        strict: bool = False,
        timeout: float = 30.0,
    ) -> Any:
        """Submit one operation and await its response value.

        Raises :class:`OperationFailed` if every replica NACKs it, and
        ``asyncio.TimeoutError`` if nothing answers within *timeout*."""
        operation = self.make_operation(client, operator, prev, strict)
        return await self.execute(operation, timeout=timeout)

    async def execute(self, operation: OperationDescriptor, timeout: float = 30.0) -> Any:
        client = operation.id.client
        frontend = self.frontends[client]
        frontend.request(operation)
        self.requested[operation.id] = operation
        self.trace.record_request(operation)
        future = asyncio.get_running_loop().create_future()
        self._futures[operation.id] = future
        message = frontend.make_request_message(operation)
        targets: List[str] = [self._affinity[client]]
        deadline = asyncio.get_running_loop().time() + timeout
        try:
            while True:
                for rid in targets:
                    await self._send_request(client, rid, message)
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= 0:
                    raise asyncio.TimeoutError(f"operation {operation.id} unanswered")
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(future), min(self.params.request_retry, remaining)
                    )
                except asyncio.TimeoutError:
                    if future.done():
                        return future.result()
                    # Retry, redirected away from replicas that NACKed (the
                    # affinity replica would otherwise be retried forever).
                    nacked = frontend.nacked.get(operation.id, ())
                    live = self.live_replica_ids()
                    targets = [rid for rid in live if rid not in nacked] or list(
                        self.replica_ids
                    )
        except FrameError:
            # The wire cannot spell the operation, so it never left the
            # client and no replica will ever hold it: withdraw the request,
            # or the deployment waits for its stability for ever.
            frontend.wait.discard(operation)
            del self.requested[operation.id]
            self.trace.events.remove(("request", operation))
            raise
        finally:
            # However the wait ended, nobody awaits this future any more.
            self._futures.pop(operation.id, None)

    # -- faults ----------------------------------------------------------------

    async def crash_replica(self, rid: str, volatile_memory: bool = True) -> None:
        """Crash a replica: its server stops, every connection breaks, its
        volatile state is lost (labels survive in stable storage)."""
        self._endpoints[rid].teardown()
        self.replicas[rid].crash(volatile_memory=volatile_memory)
        for conns in self._client_conns.values():
            conn = conns.pop(rid, None)
            if conn is not None:
                conn.close()
        await asyncio.sleep(0)

    async def recover_replica(self, rid: str) -> None:
        """Restart a crashed replica: reload stable storage, listen again
        (on a fresh port); peers and clients re-dial lazily and the next
        gossip rounds resupply the lost state (Section 9.3)."""
        self.replicas[rid].recover_from_stable_storage()
        self.nodes[rid] = ReplicaNode(rid, self.replicas[rid])
        await self._start_replica(rid)

    # -- convergence -----------------------------------------------------------

    def fully_converged(self) -> bool:
        """Has every requested operation become stable at every *live*
        replica?  A crashed replica learns nothing until it recovers, and a
        deployment that lost one must still be able to quiesce."""
        return self._all_stable_at(self.replicas[rid] for rid in self.live_replica_ids())

    def outstanding_operations(self) -> int:
        return len(self._futures)

    async def quiesce(self, timeout: float = 30.0) -> bool:
        """Wait (gossip keeps flowing) until every submitted operation is
        answered and every live replica knows everything stable; ``True`` on
        convergence, ``False`` on timeout."""
        deadline = asyncio.get_running_loop().time() + timeout
        while asyncio.get_running_loop().time() < deadline:
            if not self._futures and self.fully_converged():
                return True
            await asyncio.sleep(self.params.gossip_period)
        return False
