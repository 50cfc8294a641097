"""Incremental state collection and chunked transfer.

The paper's Tables 1-2 show migration cost dominated by three sequential
stages: collect the machine-independent state, ship it, restore it. This
module turns that sequence into a pipeline: :class:`ChunkSource` slices
the zero-copy part list from :func:`repro.codec.encode_parts` into
chunk frames that the migrating process collects-and-sends one
at a time — interleaved with the channel drain, and with the network and
the destination's restore work proceeding concurrently in virtual time.
:class:`ChunkAssembler` is the destination side: it checks every chunk
as it arrives (order, completeness, the announced total) and puts the
payload where restore wants it. In the simulator the parts are already
in memory, are kept by reference (restore cost charged per chunk) and
joined exactly once when the last chunk lands. On a real socket the
first chunk's ``total_nbytes`` preallocates one receive buffer and each
payload is received straight into its offset — the named-chunk-under-a-
manifest discipline: the object is laid out before its bytes come, so
there is nothing to join and restore overlaps transfer.

Chunk sizing is a *policy*: the source slices lazily, asking its size
provider — a fixed integer, or anything with a ``next_size()`` method
such as :class:`repro.core.adaptive.ChunkController` — how large the
*next* chunk should be just before cutting it. The adaptive controller
feeds per-chunk ship latencies back between cuts, so a slow link gets
small pipeline-friendly chunks and a fast one gets large amortized ones.

``assemble()`` and the receive buffer hold exactly the bytes
``encode(state, arch)`` produces: chunk *boundaries* never affect the
assembled bytes — only the framing — so the decoded state cannot depend
on the chunk size.

Chunks ride the same reliable FIFO transfer channel as the
received-message-list, and they are *protocol-control* payloads: when a
drain timeout aborts a migration after some chunks were already shipped,
the stranded chunks at the terminating initialized process are dropped as
benign control traffic (the retry re-encodes and re-sends everything on a
fresh channel), so Theorem 2's no-data-loss check is unaffected.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.codec import Architecture, encode_parts
from repro.core.messages import StateChunk
from repro.util.errors import MigrationError

__all__ = ["ChunkSource", "ChunkAssembler", "DEFAULT_CHUNK_BYTES"]

#: default state_chunk payload size — small enough that drain traffic is
#: never stalled behind a chunk for long, large enough that per-chunk
#: fixed costs (send_fixed, per-message dispatch) stay negligible
DEFAULT_CHUNK_BYTES = 256 * 1024


class ChunkSource:
    """Slices one encoded state into :class:`StateChunk` payloads.

    Encoding happens eagerly (the state must be captured at one point in
    virtual time — the paper's collect step), but into zero-copy parts:
    large array buffers are never flattened on the source host, only
    sliced into per-chunk ``memoryview`` groups — and the slicing itself
    is lazy, one chunk per :meth:`next_chunk`, sized by the provider at
    the moment of the cut.

    ``parts`` lets a caller that already holds the encoded part list
    (e.g. the delta-checkpoint path, which encodes and hashes the same
    state for its manifest) hand it over instead of encoding twice.
    """

    def __init__(self, state: Any = None, arch: Architecture = None,
                 chunk_bytes=DEFAULT_CHUNK_BYTES, *, parts: list | None = None):
        if arch is None:
            raise MigrationError("ChunkSource requires an architecture")
        self._sizer = None
        if hasattr(chunk_bytes, "next_size"):
            self._sizer = chunk_bytes
        elif not isinstance(chunk_bytes, int) or chunk_bytes <= 0:
            raise MigrationError(
                f"chunk_bytes must be a positive int or a size provider: "
                f"{chunk_bytes!r}")
        self.arch = arch
        self.chunk_bytes = chunk_bytes
        if parts is None:
            parts = encode_parts(state, arch)
        mvs: list[tuple[Any, "memoryview", int]] = []
        total = 0
        for part in parts:
            mv = part if isinstance(part, memoryview) else memoryview(part)
            n = mv.nbytes
            total += n
            if n:
                mvs.append((part, mv, n))
        self.total_nbytes = total
        self._mvs = mvs
        self._pi = 0   # index of the part the cursor is in
        self._off = 0  # byte offset within that part
        self._sent = 0 # bytes emitted so far
        self._seq = 0
        self._done = False

    @property
    def nchunks(self) -> int:
        """Chunks emitted so far (the final count once exhausted)."""
        return self._seq

    @property
    def sent_nbytes(self) -> int:
        """Bytes emitted so far, for live transfer-progress surfaces.

        With concurrent migration windows sharing one link, per-window
        progress is how an operator tells a transfer that is pacing
        itself under a contended bandwidth budget from one that is
        stuck — the mp worker exports it as the ``mp.transfer_nbytes``
        gauge."""
        return self._sent

    @property
    def progress(self) -> float:
        """Fraction of the encoded state emitted (1.0 once exhausted)."""
        if self.total_nbytes == 0:
            return 1.0 if self._done else 0.0
        return self._sent / self.total_nbytes

    @property
    def exhausted(self) -> bool:
        return self._done

    def _next_size(self) -> int:
        if self._sizer is None:
            return self.chunk_bytes
        size = self._sizer.next_size()
        if not isinstance(size, int) or size <= 0:
            raise MigrationError(f"size provider returned {size!r}")
        return size

    def next_chunk(self) -> StateChunk:
        """The next chunk frame, in order; ``last`` set on the final one."""
        if self._done:
            raise MigrationError("chunk source exhausted")
        target = self._next_size()
        cur: list = []
        cur_n = 0
        while cur_n < target and self._pi < len(self._mvs):
            part, mv, n = self._mvs[self._pi]
            take = min(target - cur_n, n - self._off)
            if self._off == 0 and take == n:
                cur.append(part)  # whole part fits — keep it intact
            else:
                cur.append(mv[self._off:self._off + take])
            cur_n += take
            self._off += take
            if self._off == n:
                self._pi += 1
                self._off = 0
        self._sent += cur_n
        seq = self._seq
        self._seq = seq + 1
        self._done = self._sent >= self.total_nbytes
        return StateChunk(seq=seq, parts=tuple(cur), nbytes=cur_n,
                          last=self._done,
                          total_nbytes=self.total_nbytes,
                          src_arch=self.arch.name)


def _truncation(got: int, total_nbytes: int | None,
                nchunks: int) -> MigrationError:
    total = "an unannounced number" if total_nbytes is None else total_nbytes
    return MigrationError(
        f"state stream truncated: got {got} of {total} bytes in "
        f"{nchunks} chunks")


class ChunkAssembler:
    """Destination-side reassembly of a :class:`ChunkSource` stream.

    The transfer channel is FIFO, so chunks arrive in sequence; a gap,
    a duplicate or a byte count that disagrees with the announced total
    means a protocol bug or a hostile peer, not a network condition, and
    raises :class:`MigrationError`. The same checks guard both ways a
    payload can arrive:

    * :meth:`add` — the chunk's parts are already in memory (the
      simulator hands them over by reference); they are kept as a part
      list and :meth:`assemble` joins them exactly once.
    * :meth:`receive` — the payload is still on a socket (the mp
      runtime). The first header's ``total_nbytes`` preallocates one
      receive buffer, every payload is written straight into its offset,
      and :attr:`buffer` hands the filled buffer over — there is no join,
      and ``repro.codec.decode_owned`` restores arrays as views over it.
    """

    def __init__(self) -> None:
        self._parts: list = []
        self._buf: "np.ndarray | None" = None
        self.nbytes = 0
        self.nchunks = 0
        self.complete = False
        self.total_nbytes: int | None = None
        self.src_arch: str | None = None
        #: virtual seconds of restore cost charged while absorbing chunks
        self.restore_seconds = 0.0

    def _admit(self, seq: int, nbytes: int, last: bool,
               total_nbytes: int) -> None:
        """The order / completeness checks, run before a payload is
        accepted."""
        if self.complete:
            raise MigrationError(
                f"state chunk {seq} after the stream completed")
        if seq != self.nchunks:
            raise MigrationError(
                f"state chunk out of order: got {seq}, "
                f"expected {self.nchunks}")
        if last and total_nbytes != self.nbytes + nbytes:
            raise _truncation(self.nbytes + nbytes, total_nbytes,
                              self.nchunks + 1)

    def _advance(self, nbytes: int, last: bool, total_nbytes: int) -> None:
        self.nbytes += nbytes
        self.nchunks += 1
        if last:
            self.total_nbytes = total_nbytes
            self.complete = True

    def truncated(self, partial: int = 0) -> MigrationError:
        """The error for a stream that stopped before its ``last`` chunk,
        *partial* bytes into the chunk after the last whole one."""
        return _truncation(self.nbytes + partial, self.total_nbytes,
                           self.nchunks)

    def add(self, chunk: StateChunk) -> None:
        self._admit(chunk.seq, chunk.nbytes, chunk.last, chunk.total_nbytes)
        self._parts.extend(chunk.parts)
        self._advance(chunk.nbytes, chunk.last, chunk.total_nbytes)
        if chunk.last:
            self.src_arch = chunk.src_arch

    def assemble(self) -> bytes:
        """Join the parts handed to :meth:`add` into the full blob (the
        one copy)."""
        if not self.complete:
            raise MigrationError("state stream incomplete")
        return b"".join(self._parts)

    def receive(self, seq: int, nbytes: int, last: bool, total_nbytes: int,
                fill: Callable[[memoryview], None]) -> None:
        """Admit one chunk header from the wire, then have *fill* write
        the chunk's *nbytes* payload into its place in the receive
        buffer.

        Every check runs before *fill* is called: field types, order,
        the total staying what the first header said, the payload ending
        inside the buffer, and — on the first header — that the buffer
        can be allocated at all. If *fill* raises (the connection closed
        mid-payload), the chunk is not counted.
        """
        for name, value in (("seq", seq), ("nbytes", nbytes),
                            ("total_nbytes", total_nbytes)):
            if type(value) is not int or value < 0:
                raise MigrationError(
                    f"bad state chunk header: {name}={value!r}")
        if type(last) is not bool:
            raise MigrationError(f"bad state chunk header: last={last!r}")
        self._admit(seq, nbytes, last, total_nbytes)
        if self._buf is not None and total_nbytes != self.total_nbytes:
            raise MigrationError(
                f"state chunk {seq} announces {total_nbytes} total bytes, "
                f"the stream began with {self.total_nbytes}")
        if self.nbytes + nbytes > total_nbytes:
            raise MigrationError(
                f"state chunk {seq} runs past the announced total: "
                f"{self.nbytes} + {nbytes} > {total_nbytes} bytes")
        if self._buf is None:
            try:
                # numpy's allocator advises huge pages for large blocks:
                # fresh-page faults are what receiving costs
                self._buf = np.empty(total_nbytes, dtype=np.uint8)
            except (MemoryError, ValueError, OverflowError) as exc:
                raise MigrationError(
                    f"cannot allocate a {total_nbytes}-byte state buffer: "
                    f"{exc}") from None
            self.total_nbytes = total_nbytes
        fill(memoryview(self._buf)[self.nbytes:self.nbytes + nbytes])
        self._advance(nbytes, last, total_nbytes)

    @property
    def buffer(self) -> "np.ndarray":
        """The filled receive buffer (uint8, writable), once complete."""
        if not self.complete or self._buf is None:
            raise MigrationError("state stream incomplete")
        return self._buf
