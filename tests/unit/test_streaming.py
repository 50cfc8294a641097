"""ChunkAssembler: one set of stream checks over two payload sources.

``add`` takes chunks whose parts are already in memory (the simulator,
``bench/layers.py``); ``receive`` admits a header from the wire and has
the payload written straight into one preallocated buffer (the mp
runtime). A gap, a duplicate, a second ``last``, a short or overlong
stream and an unallocatable total are all ``MigrationError`` — and on
the wire path each is raised **before** any payload byte is read.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.codec import NATIVE, SPARC32, decode, decode_owned, encode
from repro.core.messages import StateChunk
from repro.core.streaming import ChunkAssembler, ChunkSource
from repro.runtime.framing import (
    MAX_FRAME,
    FrameBatcher,
    FrameClosed,
    FrameReader,
)
from repro.util.errors import MigrationError


def _chunk(seq, data, last, total):
    return StateChunk(seq=seq, parts=(data,), nbytes=len(data), last=last,
                      total_nbytes=total, src_arch="x86_64")


def _state():
    return {"grid": np.arange(5000, dtype="f8").reshape(50, 100),
            "ids": np.arange(300, dtype="i4"), "step": 7, "tags": ["a", "b"]}


# -- the part-list path (simulator) -----------------------------------------

@pytest.mark.parametrize("chunk_bytes", [1, 100, 4096, 1 << 20])
def test_add_then_assemble_is_the_encoded_blob(chunk_bytes):
    blob = encode(_state(), SPARC32)
    source = ChunkSource(_state(), SPARC32, chunk_bytes)
    asm = ChunkAssembler()
    while not source.exhausted:
        asm.add(source.next_chunk())
    assert asm.complete and asm.nbytes == asm.total_nbytes == len(blob)
    assert asm.src_arch == "sparc32"
    assert asm.assemble() == blob


def test_add_refuses_gap_duplicate_and_chunk_after_last():
    asm = ChunkAssembler()
    asm.add(_chunk(0, b"ab", False, 4))
    with pytest.raises(MigrationError, match="out of order: got 2, expected 1"):
        asm.add(_chunk(2, b"cd", True, 4))
    with pytest.raises(MigrationError, match="out of order: got 0, expected 1"):
        asm.add(_chunk(0, b"ab", False, 4))
    asm.add(_chunk(1, b"cd", True, 4))
    with pytest.raises(MigrationError, match="after the stream completed"):
        asm.add(_chunk(2, b"ef", True, 6))


def test_add_refuses_a_last_chunk_that_leaves_the_stream_short():
    asm = ChunkAssembler()
    asm.add(_chunk(0, b"ab", False, 10))
    with pytest.raises(MigrationError,
                       match="truncated: got 4 of 10 bytes in 2 chunks"):
        asm.add(_chunk(1, b"cd", True, 10))
    assert not asm.complete
    with pytest.raises(MigrationError, match="incomplete"):
        asm.assemble()


# -- the receive-buffer path (mp wire) ---------------------------------------

class _Wire:
    """A socketpair with a FrameReader on the receiving end."""

    def __init__(self):
        self.tx, self.rx = socket.socketpair()
        self.reader = FrameReader(self.rx, bufsize=256)

    def send(self, header, payload=b""):
        batch = FrameBatcher(self.tx)
        batch.add_raw(header, (payload,))
        batch.flush()

    def receive(self, asm):
        frame = self.reader.read_frame()
        assert frame[0] == "chunk"
        asm.receive(*frame[1:], fill=self.reader.read_raw_into)

    def close(self):
        self.tx.close()
        self.rx.close()


@pytest.fixture
def wire():
    w = _Wire()
    yield w
    w.close()


def _refused(asm, header, match, exc=MigrationError):
    """*header* must be refused before fill is asked for one byte."""
    def fill(view):
        raise AssertionError("payload read after a refused header")
    with pytest.raises(exc, match=match):
        asm.receive(*header, fill=fill)


@pytest.mark.parametrize("arch", [NATIVE, SPARC32], ids=lambda a: a.name)
@pytest.mark.parametrize("chunk_bytes", [37, 4096, 1 << 20])
def test_receive_lays_the_stream_out_in_one_buffer(wire, arch, chunk_bytes):
    blob = encode(_state(), arch)
    source = ChunkSource(_state(), arch, chunk_bytes)
    asm = ChunkAssembler()
    while not source.exhausted:
        c = source.next_chunk()
        batch = FrameBatcher(wire.tx)
        batch.add_raw(("chunk", c.seq, c.nbytes, c.last, c.total_nbytes),
                      c.parts)
        batch.flush()
        wire.receive(asm)
    assert asm.complete and asm.nchunks == source.nchunks
    buf = asm.buffer
    assert buf.dtype == np.uint8 and buf.flags.writeable
    assert buf.tobytes() == blob
    restored = decode_owned(buf)
    assert np.shares_memory(restored["grid"], buf)
    np.testing.assert_array_equal(restored["grid"], _state()["grid"])
    assert restored["step"] == 7 and restored["tags"] == ["a", "b"]
    with pytest.raises(MigrationError, match="incomplete"):
        ChunkAssembler().buffer


def test_receive_refuses_hostile_headers_before_any_payload_byte():
    asm = ChunkAssembler()
    # field types: negative, non-int, bool-as-int, int-as-bool
    _refused(asm, (-1, 4, False, 8), "bad state chunk header: seq=-1")
    _refused(asm, (0, "4", False, 8), "bad state chunk header: nbytes='4'")
    _refused(asm, (0, 4.0, False, 8), "bad state chunk header: nbytes=4.0")
    _refused(asm, (0, 4, False, True), "bad state chunk header: total_nbytes")
    _refused(asm, (0, 4, 1, 8), "bad state chunk header: last=1")
    # a total nobody can allocate: MigrationError, not MemoryError
    _refused(asm, (0, 4, False, 1 << 62), "cannot allocate")
    _refused(asm, (0, 4, False, 1 << 70), "cannot allocate")
    # a first chunk past its own total
    _refused(asm, (0, 9, False, 8), "runs past the announced total")
    assert asm.nchunks == 0 and asm.nbytes == 0 and not asm.complete


def test_receive_refuses_gap_overrun_changed_total_and_second_last(wire):
    asm = ChunkAssembler()
    wire.send(("chunk", 0, 4, False, 8), b"abcd")
    wire.receive(asm)
    _refused(asm, (2, 4, True, 8), "out of order: got 2, expected 1")
    _refused(asm, (0, 4, False, 8), "out of order: got 0, expected 1")
    _refused(asm, (1, 5, False, 8), "runs past the announced total")
    _refused(asm, (1, 4, False, 9), "announces 9 total bytes")
    _refused(asm, (1, 3, True, 8),
             "truncated: got 7 of 8 bytes in 2 chunks")
    wire.send(("chunk", 1, 4, True, 8), b"efgh")
    wire.receive(asm)
    assert asm.buffer.tobytes() == b"abcdefgh"
    _refused(asm, (2, 0, True, 8), "after the stream completed")


def test_receive_never_writes_outside_the_chunk_it_admitted(wire):
    asm = ChunkAssembler()
    seen = []

    def fill(view):
        seen.append(len(view))
        assert not view.readonly
        view[:] = b"x" * len(view)

    asm.receive(0, 3, False, 8, fill=fill)
    asm.receive(1, 5, True, 8, fill=fill)
    assert seen == [3, 5]
    assert asm.buffer.tobytes() == b"x" * 8


def test_payload_over_max_frame_is_refused_by_the_reader():
    class _NoRecv:
        def recv_into(self, view):
            raise AssertionError("payload bytes were read")

    asm = ChunkAssembler()
    reader = FrameReader(_NoRecv())
    with pytest.raises(ValueError, match="exceeds limit"):
        asm.receive(0, MAX_FRAME + 1, False, 2 * MAX_FRAME,
                    fill=reader.read_raw_into)
    assert asm.nchunks == 0 and asm.nbytes == 0


def test_connection_lost_mid_payload_is_a_named_truncation(wire):
    asm = ChunkAssembler()
    wire.send(("chunk", 0, 4, False, 100), b"abcd")
    wire.receive(asm)
    wire.send(("chunk", 1, 50, False, 100), b"z" * 20)
    wire.tx.close()
    with pytest.raises(FrameClosed) as err:
        wire.receive(asm)
    # the interrupted chunk is not counted; the error names what arrived
    assert asm.nchunks == 1 and asm.nbytes == 4
    assert str(asm.truncated(err.value.received)) == (
        "state stream truncated: got 24 of 100 bytes in 1 chunks")
    assert "an unannounced number" in str(ChunkAssembler().truncated())


def test_pure_decode_still_reads_an_assembled_blob():
    blob = encode(_state(), SPARC32)
    asm = ChunkAssembler()
    asm.add(_chunk(0, blob, True, len(blob)))
    out = decode(asm.assemble())
    np.testing.assert_array_equal(out["ids"], _state()["ids"])
