"""E13 — bytes on the wire: the binary codec measured, not estimated.

Every payload claim before this experiment (E8 delta/full, E11 advert
flatness) counted *op-refs* via ``size_estimate()``.  E13 re-states them in
**measured bytes**: the :class:`~repro.net.wire.WireCluster` twin pushes
every message of a seeded execution through :mod:`repro.net.codec` and
meters the frames, so the numbers below are exactly what would cross a
socket — and, through the :class:`JsonSizedWire` subclass, what the same
messages would cost under a plain tagged-JSON encoding.

Three parts:

* **E13a** — eager full-state vs delta vs advert/pull gossip at n=4 and
  n=8 replicas under the identical seeded load: bytes per message kind,
  binary-vs-JSON ratio (the codec must stay ≥3× smaller), and the
  execution unchanged across modes.
* **E13b** — steady-state gossip *message size in bytes* vs history
  length: eager checkpoint shipping grows with history, advert stays flat
  (the byte-level restatement of E11).
* **E13d** — what a link's descriptor window saves, on a seeded stream: a
  ``NetCluster``'s byte counts depend on how many wall-clock gossip rounds a
  run fits, so the delta and advert modes are run under the simulator at
  n=4 and every directed link's gossip messages are *also* spelled through a
  paired sender/receiver :class:`~repro.net.codec.DescriptorWindow`, in send
  order.  Gated: windowed over stateless gossip bytes (hard max 0.8).  Each
  replica's six windows share one :class:`~repro.net.codec.DescriptorTable`,
  as an endpoint's do, and what the windows decode is what the cores receive;
  full descriptor parses and spellings are counted from outside.  Gated:
  parses per operation (hard max 4.0 — once per replica) and spellings per
  operation (hard max 1.0 — once, where the request arrived).

Closed-loop ops/s over TCP loopback is not measured here: the budget
benchmark's ``tcp_closed`` workload measures it under its run contract.

Environment knob: ``E13_SIM_OPS`` (E13a ops, default 400).
"""

import contextlib
import json
import os
from typing import Any, Dict, Sequence

from repro.algorithm.checkpoint import Checkpoint, CompactionPolicy, OpIdSummary
from repro.algorithm.labels import Label
from repro.algorithm.messages import ResponseMessage
from repro.common import INFINITY, OperationId
from repro.config import ReplicaConfig
from repro.core.operations import OperationDescriptor, make_operation
from repro.datatypes import CounterType
from repro.datatypes.base import Operator
from repro.net import codec
from repro.net.codec import (
    DescriptorTable,
    DescriptorWindow,
    decode_frame,
    encode_frame,
    encode_message,
)
from repro.net.wire import WireCluster
from repro.sim.cluster import SimulationParams
from repro.sim.workload import WorkloadSpec, run_workload

from conftest import emit_bench_json, print_table

SIM_OPS = int(os.environ.get("E13_SIM_OPS", "400"))
CLIENTS = [f"c{i}" for i in range(4)]
#: The acceptance bar: binary frames at most 1/3 the JSON bytes (≥3×).
MAX_BINARY_OVER_JSON = 1.0 / 3.0

MODES = ("full", "delta", "advert")


# --------------------------------------------------------------------------- #
# JSON baseline (the comparison point of binary_over_json)                    #
# --------------------------------------------------------------------------- #

def _json_value(value: Any) -> Any:
    """Tagged-JSON form of a leaf value (the conformance-codec conventions
    extended with the domain atoms the wire carries)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if value is INFINITY:
        return {"inf": True}
    if isinstance(value, float):
        return {"f": repr(value)}
    if isinstance(value, Operator):
        return {"op": [value.name, _json_value(value.args)]}
    if isinstance(value, OperationId):
        return {"id": f"{value.client}#{value.seqno}"}
    if isinstance(value, Label):
        return {"l": [value.rank, value.replica]}
    if isinstance(value, tuple):
        return {"t": [_json_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        encoded = [_json_value(item) for item in value]
        encoded.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"s": encoded}
    if isinstance(value, dict):
        pairs = [[_json_value(k), _json_value(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"d": pairs}
    raise ValueError(f"cannot JSON-encode value of type {type(value).__name__}")


def _json_operation(op: OperationDescriptor) -> Dict[str, Any]:
    return {
        "op": _json_value(op.op),
        "id": f"{op.id.client}#{op.id.seqno}",
        "prev": sorted(f"{p.client}#{p.seqno}" for p in op.prev),
        "strict": op.strict,
    }


def _json_summary(summary: OpIdSummary) -> Dict[str, Any]:
    return {client: [list(iv) for iv in ivs] for client, ivs in sorted(summary.ranges.items())}


def _json_checkpoint(checkpoint: Checkpoint) -> Dict[str, Any]:
    return {
        "base_state": _json_value(checkpoint.base_state),
        "frontier": _json_value(checkpoint.frontier),
        "ids": _json_summary(checkpoint.ids),
        "values": [
            [f"{op_id.client}#{op_id.seqno}", _json_value(value)]
            for op_id, value in checkpoint.values.items()
        ],
    }


def _json_message(message: Any) -> Dict[str, Any]:
    kind = message.kind
    if kind == "request":
        return {"kind": kind, "operation": _json_operation(message.operation)}
    if kind == "response":
        return {
            "kind": kind,
            "operation": _json_operation(message.operation),
            "value": _json_value(message.value),
            "stale": message.stale,
            "sender": message.sender,
        }
    if kind == "gossip":
        doc: Dict[str, Any] = {
            "kind": kind,
            "sender": message.sender,
            "received": sorted(
                (_json_operation(op) for op in message.received),
                key=lambda d: d["id"],
            ),
            "done": sorted(
                (_json_operation(op) for op in message.done), key=lambda d: d["id"]
            ),
            "stable": sorted(
                (_json_operation(op) for op in message.stable), key=lambda d: d["id"]
            ),
            "labels": {
                f"{op_id.client}#{op_id.seqno}": _json_value(message.labels[op_id])
                for op_id in sorted(message.labels)
            },
            "epoch": message.epoch,
            "stream": message.stream,
            "seqno": message.seqno,
            "ack": message.ack,
            "ack_epoch": message.ack_epoch,
            "ack_stream": message.ack_stream,
            "is_delta": message.is_delta,
            "sent_at": message.sent_at,
        }
        if message.checkpoint is not None:
            doc["checkpoint"] = _json_checkpoint(message.checkpoint)
        if message.advert is not None:
            doc["advert"] = {
                "frontier": _json_value(message.advert.frontier),
                "digest": message.advert.digest,
                "ids": _json_summary(message.advert.ids),
            }
        return doc
    if kind == "pull":
        return {
            "kind": kind,
            "requester": message.requester,
            "target": message.target,
            "digest": message.digest,
            "frontier": _json_value(message.frontier),
            "have_frontier": _json_value(message.have_frontier),
        }
    if kind == "transfer":
        return {
            "kind": kind,
            "sender": message.sender,
            "requester": message.requester,
            "epoch": message.epoch,
            "digest": message.digest,
            "frontier": _json_value(message.frontier),
            "ids": _json_summary(message.ids),
            "values_chunk": [
                [f"{op_id.client}#{op_id.seqno}", _json_value(value)]
                for op_id, value in message.values_chunk.items()
            ],
            "chunk_index": message.chunk_index,
            "chunk_count": message.chunk_count,
            "base_state": _json_value(message.base_state),
        }
    raise ValueError(f"cannot JSON-encode message kind {kind!r}")


def json_frame(messages: Sequence[Any]) -> bytes:
    """The plain-JSON baseline encoding of *messages* — same content, no
    interning, no varints, no set-union sharing.  E13 measures the binary
    codec against this."""
    doc = [_json_message(message) for message in messages]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode(
        "utf-8"
    )


class JsonSizedWire(WireCluster):
    """The wire twin that also sizes every message under :func:`json_frame`,
    so one run yields both sides of the binary-vs-JSON comparison."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.json_bytes_by_kind = dict.fromkeys(self.wire_stats.bytes_by_kind, 0)

    def _transit(self, kind, message):
        self.json_bytes_by_kind[kind] += len(json_frame([message]))
        return super()._transit(kind, message)

    @property
    def total_json_bytes(self) -> int:
        return sum(self.json_bytes_by_kind.values())


def test_e13_json_twin_spells_value_objects_before_plain_tuples():
    # OperationId / Label / Operator ARE tuples and equal the plain tuple of
    # their fields, so only the tags show whether the JSON twin tested for
    # them before the generic ``tuple`` branch.
    operation = make_operation(Operator("add", (1,)), OperationId("c0", 1))
    value = {"k": (OperationId("c", 1), Label(2, "r0"), Operator("add", (1,)), ("c", 1))}
    typed = json_frame([ResponseMessage(operation, value=value)])
    assert b'{"id":"c#1"}' in typed and b'{"l":[2,"r0"]}' in typed
    assert b'{"op":["add",{"t":[1]}]}' in typed and b'{"t":["c",1]}' in typed


def mode_params(mode: str) -> SimulationParams:
    features = dict(batch_gossip=True)
    if mode != "full":
        features.update(delta_gossip=True, full_state_interval=8)
    if mode == "advert":
        features.update(
            compaction=CompactionPolicy(), compaction_interval=8.0, advert_gossip=True
        )
    return SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0, replica=ReplicaConfig(**features)
    )


def run_cluster(cluster_class, mode: str, num_replicas: int, total_ops: int = SIM_OPS,
                seed: int = 3, **cluster_kwargs):
    """The seeded E13 load on a wire twin of *cluster_class*, run to idle."""
    cluster = cluster_class(CounterType(), num_replicas, CLIENTS,
                            params=mode_params(mode), seed=seed, **cluster_kwargs)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=0.5, strict_fraction=0.05)
    run_workload(cluster, spec, seed=seed + 1)
    cluster.run_until_idle()
    return cluster


def run_mode(mode: str, num_replicas: int, total_ops: int = SIM_OPS, seed: int = 3):
    cluster = run_cluster(JsonSizedWire, mode, num_replicas, total_ops, seed)
    stats = cluster.wire_stats
    completed = max(len(cluster.responded), 1)
    return {
        "responded": dict(cluster.responded),
        "total_bytes": stats.total_bytes,
        "total_json_bytes": cluster.total_json_bytes,
        "gossip_bytes": stats.bytes_for("gossip", "pull", "transfer"),
        "bytes_by_kind": dict(stats.bytes_by_kind),
        "bytes_per_op": stats.total_bytes / completed,
        "binary_over_json": stats.total_bytes / max(cluster.total_json_bytes, 1),
    }


def test_e13a_binary_codec_beats_json_and_delta_beats_full():
    outcomes = {}
    rows = []
    for n in (4, 8):
        for mode in MODES:
            outcome = run_mode(mode, n)
            outcomes[(n, mode)] = outcome
            rows.append((
                n, mode,
                f"{outcome['total_bytes']:,}",
                f"{outcome['gossip_bytes']:,}",
                f"{outcome['bytes_per_op']:.0f}",
                f"{outcome['binary_over_json']:.3f}",
            ))
    print_table(
        f"E13a: measured wire bytes by gossip mode ({SIM_OPS} ops, identical load)",
        ["replicas", "mode", "total B", "gossip-plane B", "B/op", "binary/json"],
        rows,
    )

    for n in (4, 8):
        # The wire format changes; the execution must not.
        assert outcomes[(n, "full")]["responded"] == outcomes[(n, "delta")]["responded"]
        assert outcomes[(n, "full")]["responded"] == outcomes[(n, "advert")]["responded"]
        for mode in MODES:
            ratio = outcomes[(n, mode)]["binary_over_json"]
            assert ratio <= MAX_BINARY_OVER_JSON, (
                f"binary codec only {1/ratio:.2f}x smaller than JSON "
                f"(n={n}, {mode}; need >= 3x)"
            )
        # Delta gossip ships fewer *bytes* than eager full state, not just
        # fewer op-refs — and the advert/pull plane stays below full too.
        assert (outcomes[(n, "delta")]["gossip_bytes"]
                < outcomes[(n, "full")]["gossip_bytes"])
        assert (outcomes[(n, "advert")]["gossip_bytes"]
                < outcomes[(n, "full")]["gossip_bytes"])

    _E13A_CACHE.update(outcomes)
    emit_bench_json("E13", e13a_metrics(outcomes))


def e13a_metrics(outcomes):
    metrics = {
        "sim_ops": SIM_OPS,
        "binary_over_json": {
            f"{mode}_n{n}": outcomes[(n, mode)]["binary_over_json"]
            for (n, mode) in outcomes
        },
        "bytes_per_op": {
            f"{mode}_n{n}": outcomes[(n, mode)]["bytes_per_op"]
            for (n, mode) in outcomes
        },
        "delta_over_full_gossip_bytes_n8": (
            outcomes[(8, "delta")]["gossip_bytes"]
            / outcomes[(8, "full")]["gossip_bytes"]
        ),
        "advert_over_full_gossip_bytes_n8": (
            outcomes[(8, "advert")]["gossip_bytes"]
            / outcomes[(8, "full")]["gossip_bytes"]
        ),
    }
    # E13b/d fill in their own keys on top (same BENCH file, see below).
    metrics.update(_E13B_METRICS)
    metrics.update(_E13D_METRICS)
    return metrics


#: Cross-test metric accumulators: pytest runs the three parts in file
#: order, and the LAST emit wins, so each part re-emits the merged dict.
_E13B_METRICS = {}
_E13D_METRICS = {}


def steady_gossip_bytes(total_ops: int, advert: bool, seed: int = 5) -> int:
    """Encoded size of a steady-state full-state gossip message after the
    history has quiesced and compacted (the E11 measurement, in bytes)."""
    params = SimulationParams(
        df=1.0, dg=1.0, gossip_period=2.0,
        replica=ReplicaConfig(
            batch_gossip=True,
            compaction=CompactionPolicy(min_batch=16, value_retention=None),
            compaction_interval=8.0,
            advert_gossip=advert,
        ),
    )
    cluster = WireCluster(CounterType(), 3, CLIENTS, params=params, seed=seed)
    spec = WorkloadSpec(operations_per_client=total_ops // len(CLIENTS),
                        mean_interarrival=0.25, strict_fraction=0.05)
    run_workload(cluster, spec, seed=seed + 1)
    for _ in range(6):
        for replica in cluster.replicas.values():
            replica.maybe_compact(force=True)
        cluster.run(params.gossip_period + params.dg)
    return max(
        len(encode_message(cluster.replicas[rid].make_gossip()))
        for rid in cluster.replica_ids
    )


def test_e13b_advert_keeps_steady_state_bytes_flat():
    histories = (SIM_OPS, SIM_OPS * 4)
    eager = {total: steady_gossip_bytes(total, advert=False) for total in histories}
    advert = {total: steady_gossip_bytes(total, advert=True) for total in histories}
    print_table(
        "E13b: steady-state gossip message size in bytes, eager vs advert/pull",
        ["history", "eager B", "advert B"],
        [(total, f"{eager[total]:,}", f"{advert[total]:,}") for total in histories],
    )

    small, large = histories
    eager_growth = eager[large] / eager[small]
    advert_flatness = advert[large] / advert[small]
    assert eager_growth > 2.0, f"eager bytes grew only {eager_growth:.2f}x"
    assert advert_flatness < 2.0, f"advert bytes grew {advert_flatness:.2f}x"
    assert advert[large] < eager[large] / 5

    _E13B_METRICS.update({
        "steady_bytes_eager": {str(t): eager[t] for t in histories},
        "steady_bytes_advert": {str(t): advert[t] for t in histories},
        "eager_byte_growth_ratio": eager_growth,
        "advert_byte_flatness_ratio": advert_flatness,
    })
    emit_bench_json("E13", e13a_metrics_cached())


@contextlib.contextmanager
def counted_descriptor_work(counts):
    """Count, from outside the codec, the full descriptor parses and
    spellings made inside the block."""
    spell, parse = codec._spell_descriptor, codec._Decoder.descriptor_body

    def counting_spell(op):
        counts["spellings"] += 1
        return spell(op)

    def counting_parse(decoder, client, end):
        counts["parses"] += 1
        return parse(decoder, client, end)

    codec._spell_descriptor, codec._Decoder.descriptor_body = counting_spell, counting_parse
    try:
        yield
    finally:
        codec._spell_descriptor, codec._Decoder.descriptor_body = spell, parse


class WindowedLinks(WireCluster):
    """Every gossip message is spelled the way a ``NetCluster`` connection
    would spell it — through its directed link's window pair, in send order,
    each replica's windows sharing that replica's descriptor table — and the
    cores receive what the windows decoded, once it is checked against the
    stateless twin's decode.  Requests and responses stay stateless, so a
    replica first meets a descriptor either in its own request or in gossip."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tables = {rid: DescriptorTable() for rid in self.replica_ids}
        self._windows = {}  # (source, destination) -> (sender's, receiver's)
        self._link = None
        self.windowed_gossip_bytes = 0
        self.stateless_descriptors = 0
        #: Full parses and spellings on the table-sharing links.
        self.interned = {"parses": 0, "spellings": 0}

    def _send(self, kind, source, destination, message=None) -> None:
        self._link = (source, destination)
        super()._send(kind, source, destination, message)

    def _transit(self, kind, message):
        decoded = super()._transit(kind, message)
        if kind != "gossip":
            return decoded
        source, destination = self._link
        sender, receiver = self._windows.setdefault(
            self._link,
            (
                DescriptorWindow(self._tables[source]),
                DescriptorWindow(self._tables[destination]),
            ),
        )
        with counted_descriptor_work(self.interned):
            frame = encode_frame([message], sender)
            (windowed,) = decode_frame(frame, receiver)
        self.windowed_gossip_bytes += len(frame)
        assert encode_message(windowed) == encode_message(decoded)
        self.stateless_descriptors += len(decoded.received | decoded.done | decoded.stable)
        return windowed

    def windowed_descriptors(self) -> int:
        """Descriptors that crossed some link in full."""
        return sum(
            receiver.start + len(receiver.ops) for _sender, receiver in self._windows.values()
        )


def test_e13d_link_window_shrinks_the_gossip_plane():
    rows, ratios, crossings, parses, spellings = [], {}, {}, {}, {}
    for mode in ("delta", "advert"):
        cluster = run_cluster(WindowedLinks, mode, 4)
        completed = max(len(cluster.responded), 1)
        stateless = cluster.wire_stats.bytes_by_kind["gossip"]
        ratios[f"{mode}_n4"] = cluster.windowed_gossip_bytes / stateless
        crossings[f"{mode}_n4"] = cluster.windowed_descriptors() / completed
        parses[f"{mode}_n4"] = cluster.interned["parses"] / completed
        spellings[f"{mode}_n4"] = cluster.interned["spellings"] / completed
        rows.append((
            mode,
            f"{stateless:,}",
            f"{cluster.windowed_gossip_bytes:,}",
            f"{ratios[f'{mode}_n4']:.3f}",
            f"{cluster.stateless_descriptors / completed:.1f}",
            f"{crossings[f'{mode}_n4']:.1f}",
            f"{parses[f'{mode}_n4']:.2f}",
            f"{spellings[f'{mode}_n4']:.2f}",
        ))
        # The same seeded execution E13a measured: only the spelling differs.
        if (4, mode) in _E13A_CACHE:
            assert _E13A_CACHE[(4, mode)]["bytes_by_kind"]["gossip"] == stateless
            assert _E13A_CACHE[(4, mode)]["responded"] == dict(cluster.responded)
    print_table(
        f"E13d: gossip through per-link windows and per-replica tables, n=4 ({SIM_OPS} ops)",
        ["mode", "stateless B", "windowed B", "windowed/stateless",
         "stateless parses/op", "full forms sent/op", "parses/op", "spellings/op"],
        rows,
    )
    for key, ratio in ratios.items():
        assert ratio < 0.8, f"link windows saved only {1 - ratio:.0%} of gossip bytes ({key})"
    for key in ratios:
        # Once per replica that did not take the request; once where it arrived.
        assert parses[key] <= 4.0 and spellings[key] <= 1.0, (key, parses[key], spellings[key])

    _E13D_METRICS.update({
        "windowed_over_stateless_gossip_bytes": ratios,
        "windowed_descriptor_parses_per_op": crossings,
        "interned_descriptor_parses_per_op": parses,
        "interned_descriptor_spellings_per_op": spellings,
    })
    emit_bench_json("E13", e13a_metrics_cached())


#: E13a's outcomes, cached so the later parts can re-emit the merged
#: metrics without re-running the sweep.
_E13A_CACHE = {}


def e13a_metrics_cached():
    if not _E13A_CACHE:
        for n in (4, 8):
            for mode in MODES:
                _E13A_CACHE[(n, mode)] = run_mode(mode, n)
    return e13a_metrics(_E13A_CACHE)
