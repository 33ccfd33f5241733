"""Property tests for the runtime's sans-IO framing (:class:`FrameParser`).

A transport may hand a connection's bytes over in any split — one frame per
chunk, several frames per chunk, a header torn in two — and the parser must
see the same frames in the same order whatever the split.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import FrameError
from repro.net.runtime import MAX_FRAME_BYTES, FrameParser


def prefixed(frame: bytes) -> bytes:
    return len(frame).to_bytes(4, "big") + frame


#: A connection's frames: the hello (a name) first, then arbitrary bodies —
#: empty ones included, which are still frames.
streams = st.tuples(
    st.text(min_size=1, max_size=8).map(lambda name: name.encode("utf-8")),
    st.lists(st.binary(max_size=64), max_size=12),
).map(lambda pair: [pair[0], *pair[1]])


def split(data: bytes, cuts) -> list:
    """*data* cut into non-empty chunks at the offsets *cuts* (modulo its
    length)."""
    bounds = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=300, deadline=None)
@given(frames=streams, cuts=st.lists(st.integers(min_value=0), max_size=40))
def test_any_split_yields_the_same_frames_in_order(frames, cuts):
    parser = FrameParser()
    out = []
    for chunk in split(b"".join(prefixed(frame) for frame in frames), cuts):
        out.extend(parser.feed(chunk))
    assert out == frames
    assert len(parser._buffer) == 0


@settings(max_examples=200, deadline=None)
@given(frames=streams, data=st.data())
def test_a_partial_frame_is_held_not_emitted(frames, data):
    stream = b"".join(prefixed(frame) for frame in frames)
    # Stop anywhere short of the end of the last frame.
    stop = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
    parser = FrameParser()
    out = parser.feed(stream[:stop])
    # Exactly the frames that ended by *stop* came out; the rest is held.
    ends, end = [], 0
    for frame in frames:
        end += 4 + len(frame)
        ends.append(end)
    complete = sum(1 for end in ends if end <= stop)
    assert out == frames[:complete]
    assert len(parser._buffer) == stop - (ends[complete - 1] if complete else 0)
    # The held bytes complete the rest once the stream goes on.
    assert parser.feed(stream[stop:]) == frames[complete:]
    assert len(parser._buffer) == 0


@settings(max_examples=200, deadline=None)
@given(
    before=st.lists(st.binary(max_size=16), max_size=3),
    length=st.integers(min_value=MAX_FRAME_BYTES + 1, max_value=2**32 - 1),
    body=st.binary(max_size=64),
    cuts=st.lists(st.integers(min_value=0), max_size=6),
)
def test_an_oversized_header_raises_before_its_body(before, length, body, cuts):
    """Whatever precedes it and however it arrives, the refusal comes with
    the header's fourth byte: no byte of the announced body is awaited or
    kept."""
    legit = b"".join(prefixed(frame) for frame in before)
    header = length.to_bytes(4, "big")
    parser = FrameParser()
    seen = []
    chunks = split(legit + header, cuts)
    for chunk in chunks[:-1]:
        seen.extend(parser.feed(chunk))
    with pytest.raises(FrameError, match="exceeds"):
        parser.feed(chunks[-1] + body)
    assert len(parser._buffer) == 0
    # Only whole frames that came in earlier chunks were emitted.
    assert seen == before[: len(seen)]


def test_limit_is_inclusive():
    parser = FrameParser()
    # A header announcing exactly the limit is accepted: its body is awaited.
    assert parser.feed(MAX_FRAME_BYTES.to_bytes(4, "big")) == []
    parser = FrameParser()
    with pytest.raises(FrameError):
        parser.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
