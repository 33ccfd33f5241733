"""The asyncio replica runtime: real concurrency, real bytes, same cores.

Each replica speaks the binary codec (:mod:`repro.net.codec`) over real
connections, driving the *unchanged* replica cores through the same sans-IO
:class:`~repro.algorithm.node.ReplicaNode` the seeded simulator drives.
Every connection end is one ``asyncio.Protocol`` (:class:`_Connection`):
``data_received`` feeds a sans-IO :class:`FrameParser`, and each frame is
decoded and handed over synchronously — to ``ReplicaNode.handle`` at a
replica, whose outbox goes onto the send links, to the front end at a
client.  The only tasks are each replica's gossip timer and short-lived dial
attempts.

Transports
    Replicas dial one connection per peer, clients one duplex connection
    per replica (requests out, responses back).  ``tcp`` listens on
    loopback sockets (OS-assigned ports); ``memory`` is an in-process
    transport pair whose ``write`` schedules the peer's ``data_received``
    with ``loop.call_soon`` and whose ``close`` delivers ``connection_lost``
    to both ends, so a crashed endpoint looks to its peers like a closed
    socket.

Framing and flow control
    Every frame is length-prefixed (4-byte big-endian); the first one names
    the sender (the hello); a header announcing more than
    :data:`MAX_FRAME_BYTES` is refused on the spot.  Each sender->peer link
    keeps a pending list **bounded** by ``send_queue_limit``, which one
    ``loop.call_soon`` flush per loop iteration **coalesces** into one frame
    and one write (a writable link at its bound writes at once).  A link is
    full while its peer is slow (the transport paused writing) or
    unreachable (a dial is pending): the gossip tick
    then *skips* the peer before building a message — a skipped gossip is
    indistinguishable from a lost one, while under delta gossip a built,
    then dropped message would burn a stream seqno — and any other message
    is dropped and counted (``NetStats.messages_dropped``).  Clients encode
    and write each request at submit, so one the wire cannot spell is
    raised to its submitter and withdrawn; one toward a paused replica is
    then dropped and counted too, and the front end's retry resends it.

Descriptor windows and tables
    A connection is reliable and FIFO, so each direction of a
    replica->replica connection has a
    :class:`~repro.net.codec.DescriptorWindow`: a descriptor crosses in full
    once, by back-reference afterwards.  Each :class:`_Connection` makes its
    own window and a send link dials *before* it encodes, so no handshake is
    needed after a crash or a rejected frame.  Every window carries its
    endpoint's :class:`~repro.net.codec.DescriptorTable` — one per replica
    *incarnation* (:class:`_Endpoint`), one per client — so a replica parses
    a descriptor once however many links relay it.

Loss tolerance
    Links dial lazily, when something waits to be sent; a failed dial loses
    what waited and holds the next one off for ``reconnect_delay``; nothing
    retransmits at the transport level.  That is the algorithm's own fault
    model — gossip re-sends knowledge every period, pulls are re-queued off
    the next advert, front ends retry — so crash/recovery needs no
    handshake beyond re-dialing.  A bad or oversized inbound frame costs its
    connection (``NetStats.frames_rejected``) and reaches no core; a message
    holding a value the wire cannot spell is lost alone
    (``NetStats.frames_unencodable``), on a dialed link with its connection.

The cluster shares :class:`~repro.deployment.Deployment` with the simulator
and the action-level system, so the Section 7/8 invariant checker and the
serializability oracles run unmodified against a quiesced deployment.
"""

from __future__ import annotations

import asyncio
import struct
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    encode_message,
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
    #: Bound on the messages a link holds between flushes (messages).  A full
    #: link means a slow, paused or unreachable peer: the gossip tick skips
    #: the round, and anything else handed to it is dropped and counted.
    send_queue_limit: int = 64
    #: Front ends re-send an unanswered request after this many seconds
    #: (redirecting away from replicas that NACKed, like the simulator).
    request_retry: float = 1.0
    #: Delay after a failed dial before a link dials its peer again.
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
    #: Gossip rounds skipped because the link to a peer was full.
    gossip_skipped: int = 0
    #: Other outbound messages a full link or a paused client refused.
    messages_dropped: int = 0
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
# Framing (sans-IO)                                                           #
# --------------------------------------------------------------------------- #

class FrameParser:
    """Bytes in, length-prefixed frames out, with no I/O of its own.

    :meth:`feed` takes whatever the transport delivered — any split of the
    stream — and returns the frames it completes, in order; a partial frame
    stays buffered until its last byte arrives.  A header announcing more
    than :data:`MAX_FRAME_BYTES` raises :class:`~repro.net.codec.FrameError` as soon as
    its four bytes are in: no byte of that body is awaited or kept, and the
    connection, whose framing can no longer be trusted, is the caller's to
    drop."""

    __slots__ = ("_buffer", "_wanted")

    def __init__(self) -> None:
        #: The stream's unparsed tail (a partial frame), and how long it must
        #: grow before parsing it again can complete a header or a frame.
        self._buffer = bytearray()
        self._wanted = 0

    def feed(self, data: bytes) -> List[bytes]:
        buffer = self._buffer
        if buffer:
            buffer += data
            if len(buffer) < self._wanted:
                return []
            data = bytes(buffer)
            buffer.clear()
        frames: List[bytes] = []
        start, end = 0, len(data)
        while True:
            if end - start < _LEN.size:
                wanted = _LEN.size
                break
            (length,) = _LEN.unpack_from(data, start)
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} limit")
            stop = start + _LEN.size + length
            if stop > end:
                wanted = stop - start
                break
            frames.append(data[start + _LEN.size:stop])
            start = stop
        if start < end:
            buffer += memoryview(data)[start:]
            self._wanted = wanted
        return frames


class _Connection(asyncio.Protocol):
    """One end of one connection, on either transport: each frame the
    parser completes goes, synchronously and in order, to ``on_frame``.  An
    :class:`EsdsError` out of a frame (bad, oversized, a hello that is not
    UTF-8) costs the connection, never the reader, and is counted; a frame
    is decoded whole before dispatch, so none of a bad one reaches a core.
    The connection makes its own descriptor window and takes it along: the
    sending half on a dialed replica link, the receiving half on an
    accepted one, one (empty) window both ways on a client's."""

    def __init__(self, stats: "NetStats", table: DescriptorTable) -> None:
        self.stats = stats
        self.window = DescriptorWindow(table)
        #: A dialed replica link's peer never writes back.
        self.on_frame: Callable[[bytes], None] = lambda frame: None
        self.on_lost: Optional[Callable[[], None]] = None
        self.on_resume: Optional[Callable[[], None]] = None
        self.transport: Optional[asyncio.BaseTransport] = None
        self.parser = FrameParser()
        self.closed = False
        self.paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        if self.closed:
            return
        try:
            for frame in self.parser.feed(data):
                self.on_frame(frame)
                if self.closed:
                    return
        except EsdsError:
            self.stats.frames_rejected += 1
            self.close()

    def connection_lost(self, exc) -> None:
        self.close()

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        if self.on_resume is not None:
            self.on_resume()

    def write(self, frame: bytes) -> None:
        if not self.closed:
            self.transport.write(_LEN.pack(len(frame)) + frame)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.transport is not None:
            self.transport.close()
        if self.on_lost is not None:
            self.on_lost()


# --------------------------------------------------------------------------- #
# Transports: a name registry, listen and connect                             #
# --------------------------------------------------------------------------- #

class _MemoryPipe(asyncio.Transport):
    """One end of an in-process connection.  ``write`` hands the bytes to
    the peer's protocol on the next loop iteration; ``close`` delivers
    ``connection_lost`` to both ends, after whatever was written before it.
    Nothing is buffered, so it never pauses."""

    def __init__(self, loop: asyncio.AbstractEventLoop, protocol: asyncio.Protocol) -> None:
        super().__init__()
        self._loop = loop
        self._protocol = protocol
        self.peer: Optional["_MemoryPipe"] = None
        self._closing = False

    def write(self, data) -> None:
        if not self._closing:
            self._loop.call_soon(self.peer._protocol.data_received, bytes(data))

    def close(self) -> None:
        if self._closing:
            return
        for end in (self, self.peer):
            end._closing = True
            self._loop.call_soon(end._protocol.connection_lost, None)


class _MemoryTransport:
    """In-process listeners by name.  ``listen`` returns the function that
    stops listening; ``connect`` pairs *protocol* with a fresh one of the
    listener's, like an accepted socket."""

    def __init__(self) -> None:
        self._listeners: Dict[str, Callable[[], asyncio.Protocol]] = {}

    async def listen(self, name: str, factory: Callable[[], asyncio.Protocol]):
        self._listeners[name] = factory
        return lambda: self._listeners.pop(name, None)

    async def connect(self, name: str, protocol: asyncio.Protocol) -> None:
        factory = self._listeners.get(name)
        if factory is None:
            raise ConnectionRefusedError(f"no listener named {name!r}")
        loop = asyncio.get_running_loop()
        here, there = _MemoryPipe(loop, protocol), _MemoryPipe(loop, factory())
        here.peer, there.peer = there, here
        there._protocol.connection_made(there)
        protocol.connection_made(here)


class _TcpTransport:
    """Loopback TCP with a name -> (host, port) registry, resolved at every
    connect so a recovered replica's fresh port is picked up lazily.  The
    event loop's socket transports disable Nagle on both ends (with it on,
    every sub-MSS frame would wait ~40 ms for the peer's delayed ACK)."""

    def __init__(self) -> None:
        self._addresses: Dict[str, Tuple[str, int]] = {}

    async def listen(self, name: str, factory: Callable[[], asyncio.Protocol]):
        server = await asyncio.get_running_loop().create_server(factory, "127.0.0.1", 0)
        self._addresses[name] = server.sockets[0].getsockname()[:2]

        def stop() -> None:
            self._addresses.pop(name, None)
            server.close()

        return stop

    async def connect(self, name: str, protocol: asyncio.Protocol) -> None:
        address = self._addresses.get(name)
        if address is None:
            raise ConnectionRefusedError(f"no listener named {name!r}")
        await asyncio.get_running_loop().create_connection(lambda: protocol, *address)


# --------------------------------------------------------------------------- #
# Send links                                                                  #
# --------------------------------------------------------------------------- #

class _SendLink:
    """The way out toward one peer: a pending list bounded by
    ``send_queue_limit``, flushed once per loop iteration as one frame.

    A *dialed* link (replica->replica) owns its connection, dialed lazily
    when something waits to be sent; a *response* link (replica->client)
    writes on the connection the client dialed.  A full link refuses what
    it is handed and counts it; the gossip tick asks :meth:`full` first."""

    def __init__(self, cluster: "NetCluster", source: str, dest: str,
                 table: DescriptorTable, conn: Optional[_Connection] = None) -> None:
        self._cluster = cluster
        self._source = source
        self._dest = dest
        self._table = table
        self._limit = cluster.params.send_queue_limit
        self._loop = asyncio.get_running_loop()
        self._dial = conn is None
        self.conn = conn
        if conn is not None:
            conn.on_resume = self._schedule_flush
        self.pending: List[Tuple[str, Any]] = []
        self.closed = False
        self._flush_scheduled = False
        self._dialing: Optional[asyncio.Task] = None
        #: No dial starts before this loop time (set by a failed one).
        self._dial_after = 0.0

    @property
    def window(self) -> Optional[DescriptorWindow]:
        return None if self.conn is None else self.conn.window

    def full(self) -> bool:
        """At the bound with no way out (peer paused or unreachable)?  On a
        writable connection the bound caps a frame: reaching it flushes."""
        if len(self.pending) >= self._limit and self.conn is not None and not self.conn.paused:
            self._flush()
        return len(self.pending) >= self._limit

    def send(self, kind: str, message) -> None:
        if self.full():
            self._cluster.stats.messages_dropped += 1
            return
        self.pending.append((kind, message))
        self._schedule_flush()

    def close(self) -> None:
        self.closed = True
        self.pending.clear()
        if self._dialing is not None:
            self._dialing.cancel()
        if self.conn is not None:
            self.conn.close()

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        conn = self.conn
        if self.closed or not self.pending:
            return
        if conn is None:
            # Dial before encoding: a windowed frame advances the window, so
            # it must be written to the connection the window belongs to.
            if self._dialing is None:
                self._dialing = self._loop.create_task(self._redial())
            return
        if conn.paused:
            return  # ``resume_writing`` flushes
        batch, self.pending = self.pending, []
        try:
            frame, sizes = encode_frame_detailed([message for _, message in batch], conn.window)
        except FrameError:
            self._drop_unspellable(batch)
            return
        conn.write(frame)
        self._cluster.stats.record_frame(batch, len(frame), sizes)

    def _drop_unspellable(self, batch: List[Tuple[str, Any]]) -> None:
        """A value the wire cannot spell costs the message holding it, never
        the link: the rest of the batch goes back to the head of the pending
        list (spellability depends on a message's values alone, so a
        stateless encode tells).  A half-encoded frame has already advanced
        the window, so a dialed connection goes too."""
        spellable = []
        for kind, message in batch:
            try:
                encode_message(message)
            except FrameError:
                self._cluster.stats.frames_unencodable += 1
            else:
                spellable.append((kind, message))
        self.pending[:0] = spellable
        if self._dial:
            self.conn.close()
        self._schedule_flush()

    def _lost(self, conn: _Connection) -> None:
        if self.conn is conn:
            self.conn = None
            if self.pending:
                self._schedule_flush()  # re-dials

    async def _redial(self) -> None:
        cluster = self._cluster
        try:
            delay = self._dial_after - self._loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            conn = _Connection(cluster.stats, self._table)
            try:
                await cluster.transport.connect(self._dest, conn)
            except (ConnectionError, OSError):
                # Unreachable: what waited is lost (the fault model).
                self.pending.clear()
                self._dial_after = self._loop.time() + cluster.params.reconnect_delay
                return
            except asyncio.CancelledError:
                conn.close()  # the link closed under the dial
                raise
            conn.on_lost = lambda: self._lost(conn)
            conn.on_resume = self._schedule_flush
            conn.write(self._source.encode("utf-8"))  # the hello
            self.conn = conn
        finally:
            self._dialing = None
        self._flush()


# --------------------------------------------------------------------------- #
# Endpoints                                                                   #
# --------------------------------------------------------------------------- #

class _Endpoint:
    """The connections of one incarnation of a replica: its listener,
    outgoing links, the connections it accepted and its gossip timer.  A
    crash tears the endpoint down; recovery builds a new one (and a new
    :class:`ReplicaNode`, so callbacks of the dead incarnation keep seeing
    ``crashed``)."""

    def __init__(self, node: ReplicaNode) -> None:
        self.node = node
        #: What this incarnation knows about descriptor spellings; shared by
        #: the windows of all its connections, gone with it.
        self.table = DescriptorTable()
        self.stop_listening: Optional[Callable[[], None]] = None
        #: Outgoing replica->replica links, and response links by client id.
        self.links: Dict[str, _SendLink] = {}
        self.client_out: Dict[str, _SendLink] = {}
        #: The connections it accepted and has not lost.
        self.accepted: Set[_Connection] = set()
        self.gossip: Optional[asyncio.Task] = None

    def teardown(self) -> None:
        self.node.crashed = True
        if self.stop_listening is not None:
            self.stop_listening()
            self.stop_listening = None
        if self.gossip is not None:
            self.gossip.cancel()
        for link in self.links.values():
            link.close()
        self.links.clear()
        # An accepted connection takes the response link on it along.
        for conn in list(self.accepted):
            conn.close()


class NetCluster(Deployment):
    """A full ESDS deployment over asyncio connections.

    Usage (an event loop must be running — tests wrap in ``asyncio.run``)::

        cluster = NetCluster(Counter(), num_replicas=4, client_ids=("c0",),
                             config=ReplicaConfig(fast_core=True, delta_gossip=True),
                             transport="tcp")
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
        replica_ids = [f"r{i}" for i in range(num_replicas)]
        super().__init__(data_type, replica_ids, client_ids, self.params.replica)
        self.stats = NetStats()

        self._endpoints: Dict[str, _Endpoint] = {}
        #: Live client connections, by client then replica; dialed lazily.
        self._client_conns: Dict[str, Dict[str, _Connection]] = defaultdict(dict)
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
                conn.close()  # and forgets itself
        # Let cancellations unwind before the loop closes.
        await asyncio.sleep(0)

    async def _start_replica(self, rid: str) -> None:
        endpoint = _Endpoint(self.nodes[rid])
        self._endpoints[rid] = endpoint
        endpoint.stop_listening = await self.transport.listen(
            rid, lambda: self._accept(endpoint)
        )
        for dest in self.replica_ids:
            if dest != rid:
                endpoint.links[dest] = _SendLink(self, rid, dest, endpoint.table)
        endpoint.gossip = asyncio.get_running_loop().create_task(self._gossip_loop(endpoint))

    # -- replica side ----------------------------------------------------------

    def _accept(self, endpoint: _Endpoint) -> _Connection:
        """The protocol of a connection *endpoint* accepts: a hello naming
        the sender (a client's connection doubles as its response channel,
        replacing any stale one), then frames for the node."""
        conn = _Connection(self.stats, endpoint.table)
        endpoint.accepted.add(conn)
        sender = None

        def hello(frame: bytes) -> None:
            nonlocal sender
            try:
                sender = frame.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FrameError("hello frame is not UTF-8") from exc
            if endpoint.node.crashed:
                conn.close()
                return
            if sender in self.frontends:
                old = endpoint.client_out.pop(sender, None)
                if old is not None:
                    old.close()
                endpoint.client_out[sender] = _SendLink(
                    self, endpoint.node.id, sender, endpoint.table, conn
                )
            conn.on_frame = lambda frame: self._dispatch(endpoint, self._decode(frame, conn))

        def lost() -> None:
            endpoint.accepted.discard(conn)
            link = endpoint.client_out.get(sender)
            if link is not None and link.conn is conn:
                del endpoint.client_out[sender]
                link.close()

        conn.on_frame, conn.on_lost = hello, lost
        return conn

    def _decode(self, frame: bytes, conn: _Connection) -> List[Any]:
        """A frame after the hello, counted and decoded."""
        stats = self.stats
        stats.frames_received += 1
        stats.bytes_received += len(frame) + _LEN.size
        return decode_frame(frame, conn.window)

    def _dispatch(self, endpoint: _Endpoint, messages: Sequence[Any]) -> None:
        """One decoded frame — one sender's wakeup worth of messages — goes
        through the node as a single burst; its outbox goes onto the links.
        A response for a client with no connection here is lost, exactly
        like a dropped message; the front end's retry path recovers."""
        for kind, destination, message in endpoint.node.handle(messages):
            if kind == "response":
                link = endpoint.client_out.get(destination)
                if link is None:
                    continue
            else:
                link = endpoint.links[destination]
            link.send(kind, message)

    async def _gossip_loop(self, endpoint: _Endpoint) -> None:
        loop = asyncio.get_running_loop()
        node = endpoint.node
        while True:
            await asyncio.sleep(self.params.gossip_period)
            if node.crashed:
                return
            for dest, link in endpoint.links.items():
                if link.full():
                    # Skip *before* building: under delta gossip a built-
                    # then-dropped message would consume a stream seqno.
                    self.stats.gossip_skipped += 1
                    continue
                message = node.core.make_gossip(dest)
                message.sent_at = loop.time()
                link.send("gossip", message)

    # -- client side -----------------------------------------------------------

    async def _connect_client(self, cid: str, rid: str) -> Optional[_Connection]:
        conn = _Connection(self.stats, self._client_tables[cid])
        try:
            await self.transport.connect(rid, conn)
        except (ConnectionError, OSError):
            return None
        conns = self._client_conns[cid]

        def lost() -> None:
            # Nobody reads this connection any more: the next send re-dials.
            if conns.get(rid) is conn:
                del conns[rid]

        def responses(frame: bytes) -> None:
            for message in self._decode(frame, conn):
                if message.kind == "response":
                    self._deliver_response(cid, message)

        conn.on_frame, conn.on_lost = responses, lost
        conn.write(cid.encode("utf-8"))  # the hello
        conns[rid] = conn
        return conn

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
        if conn is None:
            conn = await self._connect_client(cid, rid)
            if conn is None:
                return  # replica unreachable: the send is lost
        frame, sizes = encode_frame_detailed([message], conn.window)
        if conn.paused:  # lost, not buffered: the front end's retry resends it
            self.stats.messages_dropped += 1
            return
        conn.write(frame)
        self.stats.record_frame([("request", message)], len(frame), sizes)

    # -- public client API -----------------------------------------------------

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
        if operation.id in self.requested:
            raise ConfigurationError(f"operation identifier {operation.id} reused")
        client = operation.id.client
        frontend = self.frontends[client]
        frontend.request(operation)
        self.requested[operation.id] = operation
        self.trace.record_request(operation)
        future = asyncio.get_running_loop().create_future()
        self._futures[operation.id] = future
        message = frontend.make_request_message(operation)
        targets: List[str] = [self.affinity_replica(client)]
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
            if rid in conns:
                conns[rid].close()  # and forgets itself
        await asyncio.sleep(0)

    async def recover_replica(self, rid: str) -> None:
        """Restart a crashed replica: reload stable storage, listen again
        (on a fresh port); peers and clients re-dial lazily and the next
        gossip rounds resupply the lost state (Section 9.3)."""
        self.replicas[rid].recover_from_stable_storage()
        self.nodes[rid] = ReplicaNode(rid, self.replicas[rid])
        await self._start_replica(rid)

    # -- convergence -----------------------------------------------------------

    def converging_replica_ids(self) -> List[str]:
        """The *live* replicas: a crashed replica learns nothing until it
        recovers, and a deployment that lost one must still be able to
        quiesce."""
        return self.live_replica_ids()

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
