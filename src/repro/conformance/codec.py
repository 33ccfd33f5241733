"""Canonical encoding and content digests for conformance vectors.

Vector files must be *stable*: regenerating the corpus from the same seeds
has to be byte-identical across processes, machines and Python versions (the
CI nightly job enforces this).  Two rules make that hold:

* **Canonical values.**  Simulation values (operation results, replica
  states) are arbitrary hashable Python data — ints, strings, tuples,
  frozensets (the g-set state), ``None``.  JSON has no tuples or sets, and
  ``repr`` of a set depends on ``PYTHONHASHSEED``, so values are encoded
  into *tagged* JSON: tuples become ``{"t": [...]}``, (frozen)sets become
  ``{"s": [...]}`` with elements **sorted by their canonical encoding**, and
  mappings become ``{"d": [[k, v], ...]}`` sorted by encoded key.  Scalars
  pass through.  Decoding inverts the tags exactly, so replaying a vector
  compares decoded expectations against live Python values directly.

* **Canonical JSON.**  Documents are serialized with sorted keys, a fixed
  separator style and ``ensure_ascii``; the content digest is the sha-256 of
  that serialization with the ``digest`` field removed.  Any byte of drift —
  hand-edits, format changes, nondeterministic generation — shows up as a
  digest mismatch before a single scenario is replayed.

The format is versioned (``FORMAT_VERSION``); the replayer refuses vectors
from a different major format rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.algorithm.labels import Label
from repro.common import EsdsError, OperationId
from repro.datatypes.base import Operator

#: Bump on any change to the vector schema or the canonical encoding.
FORMAT_VERSION = 1

#: The ``kind`` discriminator every vector file carries.
VECTOR_KIND = "esds-conformance-vector"

#: Reserved single-key tags of the value encoding (see module docstring).
_TAGS = ("t", "s", "d", "f")


class ConformanceError(EsdsError):
    """A vector failed to decode, verify or replay."""


def encode_value(value: Any) -> Any:
    """*value* as tagged, canonical JSON-compatible data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # Floats ride under a tag so integral-valued floats (1.0) survive
        # the JSON round trip distinct from ints.
        return {"f": repr(value)}
    if isinstance(value, tuple) and not isinstance(value, (OperationId, Label, Operator)):
        # The three value objects are tuples by representation only:
        # ``{"t": [...]}`` would decode them as plain tuples, so a bare one
        # falls through to the refusal below.
        return {"t": [encode_value(item) for item in value]}
    if isinstance(value, list):
        raise ConformanceError("simulation values are immutable; got a list")
    if isinstance(value, (set, frozenset)):
        encoded = [encode_value(item) for item in value]
        encoded.sort(key=lambda item: canonical_json(item))
        return {"s": encoded}
    if isinstance(value, dict):
        pairs = [[encode_value(k), encode_value(v)] for k, v in value.items()]
        pairs.sort(key=lambda pair: canonical_json(pair[0]))
        return {"d": pairs}
    raise ConformanceError(f"cannot canonically encode {type(value).__name__}: {value!r}")


def decode_value(encoded: Any) -> Any:
    """Invert :func:`encode_value`."""
    if encoded is None or isinstance(encoded, (bool, int, str, float)):
        return encoded
    if isinstance(encoded, dict):
        if len(encoded) != 1 or next(iter(encoded)) not in _TAGS:
            raise ConformanceError(f"not a tagged value: {encoded!r}")
        tag, payload = next(iter(encoded.items()))
        if tag == "f":
            return float(payload)
        if tag == "t":
            return tuple(decode_value(item) for item in payload)
        if tag == "s":
            return frozenset(decode_value(item) for item in payload)
        return {decode_value(k): decode_value(v) for k, v in payload}
    raise ConformanceError(f"cannot decode {encoded!r}")


def encode_op_id(op_id: OperationId) -> str:
    return f"{op_id.client}#{op_id.seqno}"


def decode_op_id(text: str) -> OperationId:
    client, _, seqno = text.rpartition("#")
    return OperationId(client=client, seqno=int(seqno))


def canonical_json(doc: Any) -> str:
    """The canonical (digest-grade) serialization of a JSON document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_digest(doc: Dict[str, Any]) -> str:
    """sha-256 over the canonical serialization, ``digest`` field excluded."""
    body = {key: value for key, value in doc.items() if key != "digest"}
    material = canonical_json(body).encode("utf-8")
    return "sha256:" + hashlib.sha256(material).hexdigest()


def seal(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp kind, format version and content digest onto a vector body."""
    doc = dict(doc)
    doc["kind"] = VECTOR_KIND
    doc["format_version"] = FORMAT_VERSION
    doc["digest"] = content_digest(doc)
    return doc


def verify_sealed(doc: Dict[str, Any], source: str = "<vector>") -> None:
    """Check kind, format version and digest; raise on any mismatch."""
    if doc.get("kind") != VECTOR_KIND:
        raise ConformanceError(f"{source}: not a conformance vector (kind={doc.get('kind')!r})")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConformanceError(
            f"{source}: format version {doc.get('format_version')!r}, "
            f"this codec understands {FORMAT_VERSION}"
        )
    expected = content_digest(doc)
    if doc.get("digest") != expected:
        raise ConformanceError(
            f"{source}: content digest mismatch — file says {doc.get('digest')!r}, "
            f"contents hash to {expected!r} (vector edited or generator drifted)"
        )


def dumps_vector(doc: Dict[str, Any]) -> str:
    """The on-disk form: pretty-printed but still canonical (sorted keys,
    ascii, trailing newline) so regeneration is byte-identical."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def loads_vector(text: str, source: str = "<vector>") -> Dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConformanceError(f"{source}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConformanceError(f"{source}: vector root must be an object")
    return doc


def encode_op_map(mapping: Dict[OperationId, Any]) -> Dict[str, Any]:
    """A ``{op_id: value}`` map in canonical form (sorted by construction of
    the canonical serializer; values tagged)."""
    return {encode_op_id(op_id): encode_value(value) for op_id, value in mapping.items()}


def decode_op_map(encoded: Dict[str, Any]) -> Dict[OperationId, Any]:
    return {decode_op_id(text): decode_value(value) for text, value in encoded.items()}


def encode_op_list(op_ids) -> List[str]:
    return [encode_op_id(op_id) for op_id in op_ids]


def decode_op_list(encoded) -> List[OperationId]:
    return [decode_op_id(text) for text in encoded]


def state_digest(state: Any) -> str:
    """A short digest of a replica state, via the canonical value encoding
    (stable across processes, unlike ``repr`` of sets)."""
    material = canonical_json(encode_value(state)).encode("utf-8")
    return hashlib.sha256(material).hexdigest()[:16]
