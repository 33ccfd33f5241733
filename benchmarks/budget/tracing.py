"""Outside-in span tracing for the traced run.

Nothing under ``src/`` is instrumented.  The benchmark wraps the public
callables at each layer boundary from here:

* instance-level wrappers on every replica core's public methods and on
  every ``FrontEndCore``'s public methods;
* class-level wrappers on ``Checkpoint.digest`` / ``Checkpoint.extend``
  (checkpoints are immutable values created inside the core, so there is no
  instance to wrap ahead of time);
* the ``decode_frame`` / ``encode_frame_detailed`` names that
  ``repro.net.runtime`` imported, split by message kind.

A span is ``(name, start_ns, end_ns, parent)``; ``parent`` indexes the span
that was open when this one started (-1 for none).  Every wrapped callable is
synchronous and the event loop runs one callback at a time, so one stack is
enough.  A layer's self time is its spans' duration minus the part their
child spans cover.  Spans stay in memory and are written out only at the end
of the run.  Counts that no public stats struct carries are taken at the same
boundaries.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.algorithm.checkpoint import Checkpoint
from repro.net import runtime

Span = Tuple[str, int, int, int]

#: Replica-core public method -> the per-layer row its self time lands in.
REPLICA_SPANS = {
    "receive_request": "core.receive_request_s",
    "do_all_ready": "core.do_all_ready_s",
    "ready_responses": "core.ready_responses_s",
    "make_response": "core.make_response_s",
    # The response replay itself; a child of make_response except where a
    # harness asks for a value directly (core_catchup's final value).
    "compute_value": "core.make_response_s",
    "receive_gossip": "core.receive_gossip_s",
    "receive_gossip_batch": "core.receive_gossip_s",
    "make_gossip": "core.make_gossip_s",
    "take_stale_nacks": "core.other_s",
    "take_pending_pulls": "core.other_s",
    "maybe_compact": "checkpoint.compact_s",
    "receive_pull_request": "checkpoint.transfer_s",
    "receive_transfer": "checkpoint.transfer_s",
}

FRONTEND_METHODS = ("request", "make_request_message", "receive_response", "respond")

#: Every ``_s`` row a traced run reports (absent layers read 0).
SPAN_ROWS = sorted(
    set(REPLICA_SPANS.values())
    | {
        "checkpoint.digest_s",
        "checkpoint.extend_s",
        "frontend.cpu_s",
        "codec.encode_s",
        "codec.decode_s",
        "codec.encode_gossip_s",
        "codec.decode_gossip_s",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Boundary counts (``op_decodes``, ``op_refs``, ``stale_nacks``,
        #: ``frontend_nacks``, ``tracked_ops_peak``).
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def wrap(
        self,
        name: Union[str, Callable[[tuple, Any], str]],
        fn: Callable,
        after: Optional[Callable[[Dict[str, float], tuple, Any], None]] = None,
    ) -> Callable:
        """*fn* recorded as one span per call.  *name* may be a function of
        ``(args, result)`` (the codec rows are split by message kind);
        *after* takes boundary counts from the same call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fixed or "failed", start, end, parent)
            if fixed is None:
                spans[index] = (name(args, result), start, end, parent)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (called as the window opens)."""
        del self.spans[:]
        self.counts.clear()

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        covered = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), inside in zip(self.spans, covered):
            totals[name] += (end - start - inside) / 1e9
        return dict(totals)

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w") as out:
            json.dump({**header, "fields": ["name", "start_ns", "end_ns", "parent"]}, out)
            out.write("\n")
            for span in self.spans:
                json.dump(span, out)
                out.write("\n")


# --------------------------------------------------------------------------- #
# Boundary counts                                                             #
# --------------------------------------------------------------------------- #


def _count_decoded(counts, args, messages) -> None:
    for message in messages:
        if message.kind == "gossip":
            counts["op_decodes"] += (
                len(message.received) + len(message.done) + len(message.stable)
            )
        elif message.kind in ("request", "response"):
            counts["op_decodes"] += 1


def _count_gossip_refs(counts, args, message) -> None:
    counts["op_refs"] += message.size_estimate()


def _count_stale_nacks(counts, args, operations) -> None:
    counts["stale_nacks"] += len(operations)


def _count_frontend_nacks(counts, args, recorded) -> None:
    counts["frontend_nacks"] += bool(args[0].stale)


def _has_gossip(messages) -> bool:
    return any(message.kind == "gossip" for message in messages)


# --------------------------------------------------------------------------- #
# Installation                                                                #
# --------------------------------------------------------------------------- #


def trace_replica(tracer: Tracer, core) -> None:
    def sample_tracked(counts, args, result) -> None:
        counts["tracked_ops_peak"] = max(counts["tracked_ops_peak"], core.tracked_op_count())

    after = {
        "make_gossip": _count_gossip_refs,
        "take_stale_nacks": _count_stale_nacks,
        "do_all_ready": sample_tracked,
    }
    for method, row in REPLICA_SPANS.items():
        setattr(core, method, tracer.wrap(row, getattr(core, method), after.get(method)))


def trace_frontend(tracer: Tracer, frontend) -> None:
    for method in FRONTEND_METHODS:
        after = _count_frontend_nacks if method == "receive_response" else None
        setattr(frontend, method, tracer.wrap("frontend.cpu_s", getattr(frontend, method), after))


def trace_checkpoints(tracer: Tracer) -> None:
    Checkpoint.digest = tracer.wrap("checkpoint.digest_s", Checkpoint.digest)
    Checkpoint.extend = tracer.wrap("checkpoint.extend_s", Checkpoint.extend)


def trace_codec(tracer: Tracer) -> None:
    """A frame carrying any gossip message is a gossip frame (replica links
    carry almost nothing else; client links carry none)."""
    runtime.decode_frame = tracer.wrap(
        lambda args, messages: (
            "codec.decode_gossip_s" if _has_gossip(messages) else "codec.decode_s"
        ),
        runtime.decode_frame,
        _count_decoded,
    )
    runtime.encode_frame_detailed = tracer.wrap(
        lambda args, result: (
            "codec.encode_gossip_s" if _has_gossip(args[0]) else "codec.encode_s"
        ),
        runtime.encode_frame_detailed,
    )


def trace_cluster(tracer: Tracer, cluster) -> None:
    """Wrap the core, front-end and checkpoint boundaries of a constructed
    cluster (either harness)."""
    for core in cluster.replicas.values():
        trace_replica(tracer, core)
    for frontend in cluster.frontends.values():
        trace_frontend(tracer, frontend)
    trace_checkpoints(tracer)
