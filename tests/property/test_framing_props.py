"""Property tests for the frame batcher (repro.runtime.framing).

Whatever a :class:`FrameBatcher` is handed — small pickled frames, raw
chunks whose payload arrives as arbitrarily split parts, in any
interleaving, under any byte ``limit``, over a socket that accepts any
short prefix of what it is offered — the bytes that reach the wire are
**identical to the frames sent one by one**, and no single ``sendmsg``
ever carries more than :data:`IOV_CAP` buffers (past the kernel's
``IOV_MAX`` the call fails with ``EMSGSIZE``: bench/README finding a).
The stream then parses back, frame for frame and payload for payload,
through a :class:`FrameReader` of any read-ahead size.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.runtime.framing import (
    IOV_CAP,
    FrameBatcher,
    FrameReader,
    FrameStats,
)


class _RecordingSocket:
    """Accepts a seeded-random prefix of every ``sendmsg``; replays the
    recorded stream to ``recv_into`` in seeded-random slices."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.stream = bytearray()
        self.iov_counts: list[int] = []
        self._rpos = 0

    def sendmsg(self, buffers) -> int:
        self.iov_counts.append(len(buffers))
        offered = b"".join(bytes(b) for b in buffers)
        n = self._rng.randint(1, len(offered))
        self.stream += offered[:n]
        return n

    def recv_into(self, view) -> int:
        n = min(len(view), len(self.stream) - self._rpos,
                self._rng.randint(1, 4096))
        view[:n] = self.stream[self._rpos:self._rpos + n]
        self._rpos += n
        return n


@st.composite
def _frames(draw):
    """(header, parts | None): None marks a plain pickled frame."""
    out = []
    for i in range(draw(st.integers(0, 40))):
        if draw(st.booleans()):
            out.append((("data", i, draw(st.binary(max_size=48))), None))
            continue
        payload = draw(st.binary(max_size=2000))
        cuts = sorted(draw(st.lists(st.integers(0, len(payload)),
                                    max_size=12)))
        parts = [memoryview(payload)[a:b]
                 for a, b in zip([0, *cuts], [*cuts, len(payload)])]
        out.append((("chunk", i, len(payload)), parts))
    return out


def _stage(batch: FrameBatcher, frames) -> None:
    for header, parts in frames:
        if parts is None:
            batch.add(header)
        else:
            batch.add_raw(header, parts)


@settings(max_examples=120, deadline=None)
@given(frames=_frames(), limit=st.integers(1, 1 << 17),
       bufsize=st.integers(8, 8192), seed=st.integers(0, 2 ** 32))
def test_any_staging_is_the_one_by_one_stream(frames, limit, bufsize, seed):
    sock = _RecordingSocket(seed)
    stats = FrameStats()
    batch = FrameBatcher(sock, limit=limit, stats=stats)
    _stage(batch, frames)
    batch.flush()

    reference = _RecordingSocket(seed + 1)
    for frame in frames:
        one = FrameBatcher(reference)
        _stage(one, [frame])
        one.flush()
    assert bytes(sock.stream) == bytes(reference.stream)
    assert stats.bytes_out == len(sock.stream)
    assert stats.frames_out == len(frames)
    assert max(sock.iov_counts, default=0) <= IOV_CAP

    rstats = FrameStats()
    reader = FrameReader(sock, bufsize=bufsize, stats=rstats)
    for header, parts in frames:
        assert reader.read_frame() == header
        if parts is not None:
            target = bytearray(header[2])
            reader.read_raw_into(memoryview(target))
            assert bytes(target) == b"".join(parts)
    assert rstats.bytes_in == len(sock.stream)


@settings(max_examples=20, deadline=None)
@given(nframes=st.integers(IOV_CAP // 2, 3 * IOV_CAP),
       nparts=st.integers(0, 3), seed=st.integers(0, 2 ** 32))
def test_no_sendmsg_exceeds_the_iovec_cap(nframes, nparts, seed):
    # staged without a flush: 2 + nparts buffers per frame, far past the cap
    sock = _RecordingSocket(seed)
    batch = FrameBatcher(sock, limit=1 << 40)
    for i in range(nframes):
        batch.add_raw(("chunk", i, nparts), [b"p"] * nparts)
    assert not sock.iov_counts
    batch.flush()
    assert max(sock.iov_counts) <= IOV_CAP
    reader = FrameReader(sock)
    for i in range(nframes):
        assert reader.read_frame() == ("chunk", i, nparts)
        target = bytearray(nparts)
        reader.read_raw_into(memoryview(target))
        assert target == b"p" * nparts
