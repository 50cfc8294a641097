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

import pytest

from repro.runtime.framing import (
    ALLOWED_GLOBALS,
    FrameBatcher,
    FrameClosed,
    FrameReader,
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
        obj = ("state_chunk", 0, b"z" * 300_000, True, 300_000)
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
                 [("recvlist", [(0, 1, b"m")]), ("state_chunk", 0, b"s", True, 1)]

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
