"""Unit tests for wire framing, including the allowlist unpickler.

The mp runtime's frames are plain-data only; a peer that sends a pickle
naming any other global (the classic ``__reduce__`` → ``os.system``
gadget) must get :class:`UnsafeFrame`, not code execution.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import numpy as np
import pytest

from repro.runtime.framing import (
    ALLOWED_GLOBALS,
    IOV_CAP,
    MAX_FRAME,
    FrameBatcher,
    FrameClosed,
    FrameReader,
    FrameStats,
    UnsafeFrame,
    recv_frame,
    restricted_loads,
    send_frame,
)


def _pair():
    return socket.socketpair()


def test_roundtrip_plain_data_frame():
    a, b = _pair()
    try:
        obj = ("hdr", {"rank": 3, "tag": (1, 2)}, b"\x00payload",
               [1.5, None, True], frozenset({7}))
        t = threading.Thread(target=send_frame, args=(a, obj))
        t.start()
        assert recv_frame(b) == obj
        t.join()
    finally:
        a.close()
        b.close()


def _evil_payload(canary) -> bytes:
    """A pickle that reduces to ``os.system`` — the textbook gadget."""

    class Evil:
        def __reduce__(self):
            import os
            return (os.system, (f"touch {canary}",))

    return pickle.dumps(Evil())


def test_hostile_frame_is_rejected_not_executed(tmp_path):
    canary = tmp_path / "owned"
    payload = _evil_payload(canary)

    # pickle records os.system under its real module (posix on unix)
    with pytest.raises(UnsafeFrame, match=r"forbidden global \w+\.system"):
        restricted_loads(payload)
    assert not canary.exists()


def test_hostile_frame_over_a_socket_is_rejected(tmp_path):
    a, b = _pair()
    try:
        payload = _evil_payload(tmp_path / "owned")
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(UnsafeFrame):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_naming_any_class_is_rejected():
    # even a harmless-looking class outside the vocabulary is refused
    payload = pickle.dumps(ValueError("boom"))
    with pytest.raises(UnsafeFrame, match="builtins.ValueError"):
        restricted_loads(payload)


def test_allowlist_is_containers_and_frame_vocabulary_only():
    # the shard daemons register their message dataclasses on import
    import repro.runtime.mp_directory  # noqa: F401

    assert ("builtins", "dict") in ALLOWED_GLOBALS
    # builtins: plain containers; beyond that, only the frozen directory
    # frame vocabulary — never a callable that can do work on load
    extras = {(m, n) for m, n in ALLOWED_GLOBALS if m != "builtins"}
    assert extras == {
        ("repro.directory.messages", "DirLookup"),
        ("repro.directory.messages", "DirUpdate"),
        ("repro.directory.messages", "DirUpdateAck"),
        ("repro.core.messages", "LookupReply"),
    }
    assert all(isinstance(obj, type) for obj in ALLOWED_GLOBALS.values())
    assert ("builtins", "eval") not in ALLOWED_GLOBALS
    assert ("os", "system") not in ALLOWED_GLOBALS


def test_oversized_frame_is_refused():
    a, b = _pair()
    try:
        a.sendall(struct.pack(">I", 1 << 31))
        with pytest.raises(ValueError, match="exceeds limit"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_clean_eof_raises_frame_closed():
    a, b = _pair()
    a.close()
    try:
        with pytest.raises(FrameClosed):
            recv_frame(b)
    finally:
        b.close()


# -- one wire format across every sender/reader pairing ---------------------

def test_scatter_gather_send_one_shot_recv_interop():
    a, b = _pair()
    try:
        obj = ("data", 0, 7, b"x" * 100_000)
        t = threading.Thread(target=send_frame, args=(a, obj))
        t.start()
        assert recv_frame(b) == obj
        t.join()
    finally:
        a.close()
        b.close()


def test_small_send_streamed_recv_interop():
    a, b = _pair()
    try:
        obj = {"k": [1, 2, 3], "blob": b"\xff" * 1000}
        t = threading.Thread(target=send_frame, args=(a, obj))
        t.start()
        assert FrameReader(b).read_frame() == obj
        t.join()
    finally:
        a.close()
        b.close()


def test_frame_reader_many_frames_one_buffer():
    a, b = _pair()
    try:
        frames = [("seq", i, b"p" * (i * 37 % 501)) for i in range(200)]

        def feed():
            for f in frames:
                send_frame(a, f)
            a.close()

        t = threading.Thread(target=feed)
        t.start()
        # small initial buffer forces compaction and growth on the way
        reader = FrameReader(b, bufsize=64)
        got = [reader.read_frame() for _ in range(len(frames))]
        assert got == frames
        with pytest.raises(FrameClosed):
            reader.read_frame()
        t.join()
    finally:
        b.close()


def test_frame_reader_grows_past_initial_buffer():
    a, b = _pair()
    try:
        obj = ("blob", 0, b"z" * 300_000, True, 300_000)
        t = threading.Thread(target=send_frame, args=(a, obj))
        t.start()
        assert FrameReader(b, bufsize=1024).read_frame() == obj
        t.join()
    finally:
        a.close()
        b.close()


def test_frame_reader_rejects_hostile_frame(tmp_path):
    a, b = _pair()
    try:
        payload = _evil_payload(tmp_path / "owned")
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(UnsafeFrame):
            FrameReader(b).read_frame()
        assert not (tmp_path / "owned").exists()
    finally:
        a.close()
        b.close()


def test_frame_reader_enforces_frame_limit():
    a, b = _pair()
    try:
        a.sendall(struct.pack(">I", 1 << 31))
        with pytest.raises(ValueError, match="exceeds limit"):
            FrameReader(b).read_frame()
    finally:
        a.close()
        b.close()


def test_batcher_coalesces_and_stays_parseable():
    a, b = _pair()
    try:
        frames = [("ctl", i) for i in range(50)] + \
                 [("recvlist", [(0, 1, b"m")]), ("blob", 0, b"s", True, 1)]

        def feed():
            batch = FrameBatcher(a, limit=4096)
            for f in frames:
                batch.add(f)
            batch.flush()

        t = threading.Thread(target=feed)
        t.start()
        # one-shot receiver: the coalesced stream is byte-identical
        got = [recv_frame(b) for _ in range(len(frames))]
        assert got == frames
        t.join()
    finally:
        a.close()
        b.close()


def test_batcher_stages_more_frames_than_one_sendmsg_can_carry():
    # 600 frames are 1200 buffers, past the kernel's IOV_MAX: the caller
    # never flushes, and nothing may fail with EMSGSIZE
    a, b = _pair()
    try:
        frames = [("data", 0, 0, (i, b"x" * 16)) for i in range(600)]
        batch = FrameBatcher(a, limit=1 << 30)
        for f in frames:
            batch.add(f)
        assert len(batch) == 600
        assert 2 * len(batch) > IOV_CAP
        t = threading.Thread(target=batch.flush)
        t.start()
        reader = FrameReader(b)
        assert [reader.read_frame() for _ in frames] == frames
        t.join()
        assert len(batch) == 0
    finally:
        a.close()
        b.close()


# -- frames that announce a raw payload -------------------------------------

def _send_raw(sock, frames, limit=64 * 1024, stats=None):
    """frames: (obj, parts-or-None) in order, through one batcher."""
    batch = FrameBatcher(sock, limit=limit, stats=stats)
    for obj, parts in frames:
        if parts is None:
            batch.add(obj)
        else:
            batch.add_raw(obj, parts)
    batch.flush()


def test_raw_payload_that_starts_inside_the_read_ahead():
    a, b = _pair()
    try:
        payload = bytes(range(256)) * 8
        # header and payload leave in one sendmsg, so the reader's first
        # recv_into pulls the payload's head in along with the header
        _send_raw(a, [(("chunk", 0, len(payload)),
                       (payload[:100], memoryview(payload)[100:]))])
        stats = FrameStats()
        reader = FrameReader(b, bufsize=512, stats=stats)
        assert reader.read_frame() == ("chunk", 0, len(payload))
        assert reader._end - reader._start > 0  # payload bytes read ahead
        target = bytearray(len(payload))
        reader.read_raw_into(memoryview(target))
        assert bytes(target) == payload
        # every wire byte is counted once, on either side
        out = FrameStats()
        c, d = _pair()
        try:
            _send_raw(c, [(("chunk", 0, len(payload)), (payload,))],
                      stats=out)
        finally:
            c.close()
            d.close()
        assert stats.bytes_in == out.bytes_out
        assert stats.frames_in == out.frames_out == 1
    finally:
        a.close()
        b.close()


def test_raw_payload_spanning_many_recvs_then_a_pickled_frame():
    a, b = _pair()
    try:
        payload = bytes(i * 7 % 251 for i in range(3_000_000))
        parts = [memoryview(payload)[i:i + 70_001]
                 for i in range(0, len(payload), 70_001)]
        frames = [(("recvlist", [(0, 1, b"m")], "t-1"), None),
                  (("chunk", 0, len(payload), True, len(payload)), parts),
                  (("after", 1), None)]
        t = threading.Thread(target=_send_raw, args=(a, frames))
        t.start()
        reader = FrameReader(b, bufsize=4096)
        assert reader.read_frame() == frames[0][0]
        assert reader.read_frame() == frames[1][0]
        target = bytearray(len(payload))
        reader.read_raw_into(memoryview(target))
        assert bytes(target) == payload
        # the stream is back in frame sync after the unframed bytes
        assert reader.read_frame() == ("after", 1)
        t.join()
    finally:
        a.close()
        b.close()


def test_raw_payload_cut_short_reports_what_arrived():
    a, b = _pair()
    try:
        _send_raw(a, [(("chunk", 0, 1000), (b"p" * 400,))])
        a.close()
        reader = FrameReader(b)
        assert reader.read_frame() == ("chunk", 0, 1000)
        target = bytearray(1000)
        with pytest.raises(FrameClosed, match="400/1000") as err:
            reader.read_raw_into(memoryview(target))
        assert err.value.received == 400
        assert bytes(target[:400]) == b"p" * 400
    finally:
        b.close()


class _NoRecv:
    """A socket stand-in that fails the test if anything is received."""

    def recv_into(self, view):
        raise AssertionError("payload bytes were read")


def test_oversized_raw_payload_is_refused_on_both_sides():
    # (np.empty: address space only, no page of it is ever touched)
    huge = memoryview(np.empty(MAX_FRAME + 1, dtype=np.uint8))
    reader = FrameReader(_NoRecv())
    with pytest.raises(ValueError, match="exceeds limit"):
        reader.read_raw_into(huge)
    a, b = _pair()
    try:
        batch = FrameBatcher(a)
        with pytest.raises(ValueError, match="exceeds limit"):
            batch.add_raw(("chunk", 0), (huge,))
        assert len(batch) == 0
    finally:
        a.close()
        b.close()
