"""Layer replay: walk one migration's bytes through the program's layers
by hand, timing each public call on the same seeded state ``mig_large``
migrates.

    encode → chunk → join → frame/pickle → TCP → unframe → assemble → decode

plus the ceilings the layer below allows (raw loopback TCP at the same
chunk size, memcpy) and the checkpoint store on the ``crash_recover``
state. Every stage is repeated and reported as a median; receivers run in
a forked process, as a migration's destination does.
"""

from __future__ import annotations

import multiprocessing
import shutil
import socket
import tempfile
import time

import numpy as np

from common import TMP, Spans, body_pool, make_state, median, state_digest, state_nbytes

from repro.codec import NATIVE, SPARC32, decode, encode, encode_parts
from repro.core.checkpointing import CheckpointStore
from repro.core.messages import StateChunk
from repro.core.streaming import DEFAULT_CHUNK_BYTES, ChunkAssembler, ChunkSource
from repro.runtime.framing import FrameBatcher, FrameClosed, FrameReader, FrameStats

_MB = 1e6


def _timed(spans: Spans, name: str, reps: int, fn, **attrs):
    """Run *fn* *reps* times under a span each; ``(median seconds, last
    return value)``."""
    seconds, value = [], None
    for rep in range(reps):
        with spans.span(name, op=rep, **attrs):
            t0 = time.perf_counter()
            value = fn()
            seconds.append(time.perf_counter() - t0)
    return median(seconds), value


# ---------------------------------------------------------------------------
# receiving side: a forked sink per connection
# ---------------------------------------------------------------------------

def _sink_main(listener: socket.socket, mode: str, pipe) -> None:
    sock, _ = listener.accept()
    listener.close()
    t0 = time.time()
    nbytes = frames = 0
    chunks = []
    if mode == "raw":
        buf = bytearray(DEFAULT_CHUNK_BYTES)
        while True:
            n = sock.recv_into(buf)
            if not n:
                break
            nbytes += n
    else:
        stats = FrameStats()
        reader = FrameReader(sock, stats=stats)
        try:
            while True:
                frame = reader.read_frame()
                frames += 1
                if frame[0] == "state_chunk":
                    chunks.append(frame[2])
        except FrameClosed:
            pass
        nbytes = stats.bytes_in
    t1 = time.time()
    pipe.send({"t_accept": t0, "t_last": t1, "nbytes": nbytes,
               "frames": frames,
               "payload_nbytes": sum(len(c) for c in chunks)})
    pipe.close()


class _Sink:
    """A forked receiver on a loopback listener; ``with`` yields the
    connected sending socket, ``report`` holds what the sink saw."""

    def __init__(self, mode: str):
        ctx = multiprocessing.get_context("fork")
        listener = socket.create_server(("127.0.0.1", 0))
        self._parent, child = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(target=_sink_main,
                                 args=(listener, mode, child), daemon=True)
        self._proc.start()
        child.close()
        self._addr = listener.getsockname()
        listener.close()
        self.report: dict = {}

    def __enter__(self) -> socket.socket:
        self._sock = socket.create_connection(self._addr)
        return self._sock

    def __exit__(self, *exc) -> None:
        self._sock.close()
        if exc[0] is None and self._parent.poll(30.0):
            self.report = self._parent.recv()
        self._parent.close()
        self._proc.join(5.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()


# ---------------------------------------------------------------------------
# the replay
# ---------------------------------------------------------------------------

def replay_transfer(spans: Spans, rng, nbytes: int, reps: int,
                    arch=NATIVE) -> dict:
    """codec → streaming → framing → TCP and back on a *nbytes* state
    encoded for *arch* (the workload's destination architecture: what a
    migrating rank encodes in from its second move on); returns
    per-layer metrics plus ``_replay_s``, the seconds one migration's
    transfer would spend in these layers end to end."""
    state = make_state(rng, nbytes)
    payload = state_nbytes(state)
    m: dict[str, float] = {}

    t_enc, blob = _timed(spans, "codec.encode", reps,
                         lambda: encode(state, NATIVE), bytes_in=payload)
    enc_nbytes = len(blob)
    t_dec, restored = _timed(spans, "codec.decode", reps,
                             lambda: decode(blob), bytes_in=enc_nbytes)
    t_enc_sw, blob_sw = _timed(spans, "codec.encode_swapped", reps,
                               lambda: encode(state, SPARC32),
                               bytes_in=payload)
    t_dec_sw, restored_sw = _timed(spans, "codec.decode_swapped", reps,
                                   lambda: decode(blob_sw),
                                   bytes_in=len(blob_sw))
    t_parts, parts = _timed(spans, "codec.encode_parts", reps,
                            lambda: encode_parts(state, arch),
                            bytes_in=payload)
    # the walk below moves the bytes a rank of this workload would move
    walk_blob, t_walk_dec = ((blob, t_dec) if arch is NATIVE
                             else (blob_sw, t_dec_sw))
    ok = (state_digest(restored) == state["digest"]
          and state_digest(restored_sw) == state["digest"]
          and b"".join(parts) == walk_blob)
    del restored, restored_sw
    m["codec.encode_mb_s"] = enc_nbytes / t_enc / _MB
    m["codec.encode_parts_mb_s"] = enc_nbytes / t_parts / _MB
    m["codec.decode_mb_s"] = enc_nbytes / t_dec / _MB
    m["codec.encode_swapped_mb_s"] = enc_nbytes / t_enc_sw / _MB
    m["codec.decode_swapped_mb_s"] = enc_nbytes / t_dec_sw / _MB
    enc_nbytes = len(walk_blob)  # the header names the architecture
    m["codec.encoded_nbytes"] = enc_nbytes
    m["codec.nparts"] = len(parts)

    def slice_all():
        source = ChunkSource(arch=arch, chunk_bytes=DEFAULT_CHUNK_BYTES,
                             parts=parts)
        out = []
        while not source.exhausted:
            out.append(source.next_chunk())
        return out

    t_chunk, chunks = _timed(spans, "streaming.chunk", reps, slice_all,
                             bytes_in=enc_nbytes)
    m["streaming.chunk_mb_s"] = enc_nbytes / t_chunk / _MB
    m["streaming.nchunks"] = len(chunks)

    # what mp's _migrate does per chunk: slice, join, pickle into a
    # frame, hand to the batcher — against a destination process
    send_s, recv_s, xfer_s = [], [], []
    wire = 0
    for rep in range(reps):
        sink = _Sink("frames")
        with spans.span("framing.chunk_send+recv", op=rep,
                        bytes_in=enc_nbytes) as row, sink as sock:
            stats = FrameStats()
            t_first = time.time()
            t0 = time.perf_counter()
            batch = FrameBatcher(sock, stats=stats)
            batch.add(("state_transfer", 1, "replay"))
            batch.add(("recvlist", [], "replay"))
            source = ChunkSource(arch=arch,
                                 chunk_bytes=DEFAULT_CHUNK_BYTES, parts=parts)
            while not source.exhausted:
                c = source.next_chunk()
                batch.add(("state_chunk", c.seq, b"".join(c.parts), c.last,
                           c.total_nbytes, "replay"))
            batch.flush()
            send_s.append(time.perf_counter() - t0)
            wire = stats.bytes_out
            row["bytes_out"] = wire
        rep_ = sink.report
        ok = ok and rep_.get("payload_nbytes") == enc_nbytes
        recv_s.append(rep_["t_last"] - rep_["t_accept"])
        xfer_s.append(rep_["t_last"] - t_first)
    m["framing.chunk_send_mb_s"] = enc_nbytes / median(send_s) / _MB
    m["framing.chunk_recv_mb_s"] = enc_nbytes / median(recv_s) / _MB
    m["framing.wire_overhead_ratio"] = wire / enc_nbytes

    def assemble():
        asm = ChunkAssembler()
        for c in joined:
            asm.add(c)
        return asm.assemble()

    joined = [StateChunk(seq=c.seq, parts=(b"".join(c.parts),),
                         nbytes=c.nbytes, last=c.last,
                         total_nbytes=c.total_nbytes, src_arch=c.src_arch)
              for c in chunks]
    t_asm, whole = _timed(spans, "streaming.assemble", reps, assemble,
                          bytes_in=enc_nbytes)
    ok = ok and whole == walk_blob
    m["streaming.assemble_mb_s"] = enc_nbytes / t_asm / _MB
    del joined, whole, chunks

    # 64-byte data frames, flushed every 256 like the `stream` phase
    pool = body_pool(rng, 64, 16)
    nframes = 256 * 200
    rates = []
    for rep in range(reps):
        sink = _Sink("frames")
        with spans.span("framing.small_frames", op=rep,
                        frames=nframes), sink as sock:
            batch = FrameBatcher(sock)
            for seq in range(nframes):
                batch.add(("data", 0, 0, (seq, pool[seq % 16])))
                if seq % 256 == 255:
                    batch.flush()
            batch.flush()
        rep_ = sink.report
        ok = ok and rep_.get("frames") == nframes
        rates.append(nframes / (rep_["t_last"] - rep_["t_accept"]))
    m["framing.small_frames_per_s"] = median(rates)

    # ceilings: the same bytes with no program code in the way
    view = memoryview(walk_blob)
    rates = []
    for rep in range(reps):
        sink = _Sink("raw")
        with spans.span("ceiling.tcp_loopback", op=rep,
                        bytes_in=enc_nbytes), sink as sock:
            for off in range(0, enc_nbytes, DEFAULT_CHUNK_BYTES):
                sock.sendall(view[off:off + DEFAULT_CHUNK_BYTES])
        rep_ = sink.report
        ok = ok and rep_.get("nbytes") == enc_nbytes
        rates.append(enc_nbytes / (rep_["t_last"] - rep_["t_accept"]) / _MB)
    m["ceiling.tcp_loopback_mb_s"] = median(rates)
    src = np.frombuffer(walk_blob, dtype=np.uint8)
    dst = np.zeros(enc_nbytes, dtype=np.uint8)  # pages touched up front
    t_cpy, _ = _timed(spans, "ceiling.memcpy", reps,
                      lambda: np.copyto(dst, src), bytes_in=enc_nbytes)
    m["ceiling.memcpy_mb_s"] = enc_nbytes / t_cpy / _MB
    # join, assemble and decode each copy into memory they have just
    # allocated; on a VM that is a page-fault rate, not a copy rate
    t_new, _ = _timed(spans, "ceiling.alloc_copy", reps,
                      lambda: bytes(view), bytes_in=enc_nbytes)
    m["ceiling.alloc_copy_mb_s"] = enc_nbytes / t_new / _MB

    m["_replay_s"] = t_parts + median(xfer_s) + t_asm + t_walk_dec
    m["_ok"] = ok
    return m


def replay_checkpoints(spans: Spans, rng, nbytes: int, reps: int) -> dict:
    """``CheckpointStore`` full and delta saves/loads of a *nbytes*
    state, on disk under the run's temp directory."""
    state = make_state(rng, nbytes)
    blob = encode(state, NATIVE)
    n = len(blob)
    m: dict[str, float] = {}
    root = tempfile.mkdtemp(prefix="bench-ckpt-", dir=TMP)
    try:
        full = CheckpointStore(f"{root}/full")
        versions = iter(range(1, reps + 1))
        t_save, _ = _timed(spans, "checkpointing.save_blob", reps,
                           lambda: full.save_blob(1, next(versions), blob),
                           bytes_in=n)
        t_load, loaded = _timed(spans, "checkpointing.load_blob", reps,
                                lambda: full.load_blob(1, reps), bytes_in=n)
        ok = loaded == blob
        m["checkpointing.save_mb_s"] = n / t_save / _MB
        m["checkpointing.load_mb_s"] = n / t_load / _MB

        # delta chain: version 1 is self-contained, every later version
        # differs from its predecessor in one of the six arrays
        delta = CheckpointStore(f"{root}/delta", delta=True,
                                delta_max_chain=reps + 1)
        delta.save_parts(1, 1, encode_parts(state, NATIVE))
        seconds, ratios = [], []
        for v in range(2, reps + 2):
            state["u16"] = state["u16"] + 1
            parts = encode_parts(state, NATIVE)
            with spans.span("checkpointing.save_parts(delta)", op=v,
                            bytes_in=n) as row:
                t0 = time.perf_counter()
                written = delta.save_parts(1, v, parts)
                seconds.append(time.perf_counter() - t0)
                row["bytes_out"] = written
            ratios.append(written / n)
        ok = ok and state_digest(decode(delta.load_blob(1, reps + 1))) \
            == state_digest(state)
        m["checkpointing.delta_save_mb_s"] = n / median(seconds) / _MB
        m["checkpointing.delta_bytes_ratio"] = median(ratios)
        m["_ok"] = ok
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return m
