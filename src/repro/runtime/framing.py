"""Length-prefixed message framing over stream sockets.

The multiprocess backend's wire format: a 4-byte big-endian length
followed by a pickled header/payload tuple. TCP gives the FIFO, reliable,
connection-oriented channel the protocols assume (paper Section 2.3 lists
TCP explicitly as a suitable substrate). The pickle layer here plays the
role PVM's own wire encoding played, while heterogeneity of process state
is handled by :mod:`repro.codec`.

Deserialization is **restricted**: control frames are built from a small
closed vocabulary (tuples, dicts, strings, numbers, byte blobs), so
every reader uses an allowlist unpickler that refuses to reconstruct
anything else. A peer that injects a frame naming any other class — the
classic ``__reduce__`` → ``os.system`` pickle gadget — gets
:class:`UnsafeFrame` instead of code execution. Application *data*
payloads travel inside frames too and are therefore limited to the same
plain-data vocabulary.

Migration *state* is neither pickled nor framed: a frame may **announce
a raw payload** — its pickled tuple carries the byte count, and that many
unframed bytes follow it on the stream. :meth:`FrameBatcher.add_raw`
stages the announcing frame plus the payload's buffers (the codec's
``memoryview`` parts, handed to ``sendmsg`` as iovecs — nothing is joined
or pickled), and :meth:`FrameReader.read_raw_into` delivers the payload
into a writable view the caller supplies (its read-ahead first, then
``recv_into`` the target directly). The announcing frame is an ordinary
pickled frame, so it passes the allowlist unpickler; raw payload bytes
never reach any unpickler. Which frames announce a payload is the
caller's protocol (mp's ``("chunk", seq, nbytes, last, total_nbytes)``,
see docs/protocol.md) — this module only moves the bytes.

Per-frame copies are avoided where they cost: :func:`send_frame`
scatter-gathers the header and a large payload through ``sendmsg``
instead of concatenating them, :class:`FrameBatcher` coalesces small
frames into one ``sendmsg`` (never more than :data:`IOV_CAP` buffers per
call), and :class:`FrameReader` fills one reusable buffer with
``recv_into``. :func:`recv_frame` is the one-shot reader for handshakes
and request/reply exchanges — it never reads past its frame, so the
socket can be handed to a :class:`FrameReader` afterwards. All of them
speak the same wire format and every pickled byte goes through the same
allowlist unpickler.
"""

from __future__ import annotations

import io
import os
import pickle
import socket
import struct
from typing import Any

__all__ = ["send_frame", "recv_frame", "FrameReader",
           "FrameBatcher", "FrameStats", "FrameClosed", "UnsafeFrame",
           "restricted_loads", "allow_frame_global", "ALLOWED_GLOBALS",
           "MAX_FRAME", "IOV_CAP"]

_HDR = struct.Struct(">I")
#: refuse absurd frames and announced raw payloads (corrupt stream guard)
MAX_FRAME = 256 * 1024 * 1024


def _iov_cap() -> int:
    try:
        iov_max = os.sysconf("SC_IOV_MAX")
    except (AttributeError, ValueError, OSError):
        iov_max = -1
    # 16 is POSIX's guaranteed minimum (_XOPEN_IOV_MAX)
    return max(1, (iov_max if iov_max > 0 else 16) // 2)


#: most buffers one ``sendmsg`` call is handed — safely under the
#: kernel's IOV_MAX, past which the call fails with ``EMSGSIZE``
IOV_CAP = _iov_cap()

#: The complete vocabulary a wire frame may reference. Everything the mp
#: runtime sends is built from builtins plus these; anything else is an
#: attack or a bug, and both should fail loudly.
ALLOWED_GLOBALS: dict[tuple[str, str], Any] = {}


def allow_frame_global(module: str, name: str) -> None:
    """Admit ``module.name`` into the frame vocabulary.

    Subsystems that put their own (plain-data) message classes on the
    wire — e.g. the out-of-process directory daemons speaking
    :mod:`repro.directory.messages` — register them here at import time.
    Everything else stays forbidden; the allowlist grows only by
    explicit, reviewable calls.
    """
    import importlib
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    ALLOWED_GLOBALS[(module, name)] = obj


# builtins that legitimate frames reference (pickle names a global for
# these when reconstructing containers and memoryview-backed bytes)
for _name in ("tuple", "list", "dict", "set", "frozenset", "bytes",
              "bytearray", "complex"):
    allow_frame_global("builtins", _name)


class FrameStats:
    """Per-connection wire accounting (single writer: the owning thread).

    ``frames_out``/``bytes_out`` count what left through this object,
    ``frames_in``/``bytes_in`` what arrived — raw payload bytes count
    toward the frame that announced them; for a :class:`FrameBatcher`,
    ``flushes`` counts the flushes actually issued (one ``sendmsg`` each
    unless over :data:`IOV_CAP` buffers were staged), so ``frames_out -
    flushes`` is the number of syscalls coalescing saved.
    """

    __slots__ = ("frames_out", "bytes_out", "frames_in", "bytes_in",
                 "flushes")

    def __init__(self) -> None:
        self.frames_out = 0
        self.bytes_out = 0
        self.frames_in = 0
        self.bytes_in = 0
        self.flushes = 0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def add(self, other: "FrameStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class FrameClosed(Exception):
    """The peer closed the connection (clean EOF between frames).

    ``received`` is how many bytes of an interrupted raw payload had
    already landed in the caller's view (0 for any other close).
    """

    received = 0


class UnsafeFrame(Exception):
    """A frame referenced a global outside the frame vocabulary."""


class _RestrictedUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        try:
            return ALLOWED_GLOBALS[(module, name)]
        except KeyError:
            raise UnsafeFrame(
                f"frame references forbidden global {module}.{name}"
            ) from None


def restricted_loads(payload) -> Any:
    """Deserialize wire bytes (any bytes-like), allowing only the frame
    vocabulary."""
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise FrameClosed(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)")
        buf.extend(chunk)
    return bytes(buf)


def recv_frame(sock: socket.socket,
               stats: "FrameStats | None" = None) -> Any:
    """Read one frame (blocking); raises :class:`FrameClosed` on EOF.

    Frames are deserialized through the allowlist unpickler — a hostile
    frame raises :class:`UnsafeFrame` rather than executing anything.
    """
    (length,) = _HDR.unpack(_recv_exact(sock, _HDR.size))
    if length > MAX_FRAME:
        raise ValueError(f"frame of {length} bytes exceeds limit")
    obj = restricted_loads(_recv_exact(sock, length))
    if stats is not None:
        stats.frames_in += 1
        stats.bytes_in += _HDR.size + length
    return obj


def _sendmsg_all(sock: socket.socket, buffers: list) -> None:
    """Write every buffer fully, scatter-gather where the OS allows.

    Buffers go to ``sendmsg`` at most :data:`IOV_CAP` at a time, so any
    number of staged frames or state parts is legal. ``sendmsg`` may stop
    short (socket buffer full); the remainder is retried from the first
    unsent byte without re-copying — only the partially-sent buffer gets
    a narrowed memoryview.
    """
    bufs = [memoryview(b) for b in buffers if len(b)]
    i = 0
    while i < len(bufs):
        try:
            sent = sock.sendmsg(bufs[i:i + IOV_CAP])
        except AttributeError:  # platform without sendmsg
            for b in bufs[i:]:
                sock.sendall(b)
            return
        while sent:
            n = len(bufs[i])
            if sent >= n:
                sent -= n
                i += 1
            else:
                bufs[i] = bufs[i][sent:]
                sent = 0


#: below this, concatenating header+payload beats scatter-gather setup
_SMALL_SEND = 16 * 1024


def send_frame(sock: socket.socket, obj: Any,
               stats: "FrameStats | None" = None) -> int:
    """Serialize *obj* and write it as one frame (blocking).

    The 4-byte header and the pickled payload go out as one
    scatter-gather ``sendmsg`` — for multi-megabyte state frames this
    skips a full extra copy of the payload. Small frames use one
    ``sendall``: copying a few KB is cheaper than building an iovec.
    Returns the wire bytes written (header included).
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) < _SMALL_SEND:
        sock.sendall(_HDR.pack(len(payload)) + payload)
    else:
        _sendmsg_all(sock, [_HDR.pack(len(payload)), payload])
    nbytes = _HDR.size + len(payload)
    if stats is not None:
        stats.frames_out += 1
        stats.bytes_out += nbytes
        stats.flushes += 1
    return nbytes


class FrameBatcher:
    """Opt-in coalescing of small frames into one ``sendmsg``.

    Control-heavy sequences (handshake, recvlist, the first state
    chunks) otherwise cost one syscall + one small TCP segment each.
    ``add`` queues the encoded frame; everything flushes together once
    ``limit`` bytes accumulate, or explicitly via :meth:`flush`. The
    receiver needs no changes — the stream is byte-identical to the
    frames sent one by one, however many are staged.
    """

    def __init__(self, sock: socket.socket, limit: int = 64 * 1024,
                 stats: "FrameStats | None" = None):
        self._sock = sock
        self._limit = limit
        self._pending: list = []
        self._nframes = 0
        self._nbytes = 0
        self.stats = stats

    def __len__(self) -> int:
        """Queued-but-unflushed frame count."""
        return self._nframes

    def add(self, obj: Any) -> None:
        self.add_raw(obj, ())

    def add_raw(self, obj: Any, parts) -> None:
        """Stage frame *obj* followed by the raw bytes of *parts*.

        *obj* must announce ``sum(len(p) for p in parts)`` to its reader
        (see :meth:`FrameReader.read_raw_into`). The parts are staged by
        reference — bytes-like objects, typically ``memoryview`` slices
        of live arrays — and must not change before the next flush.
        """
        raw = sum(len(part) for part in parts)
        if raw > MAX_FRAME:
            raise ValueError(f"raw payload of {raw} bytes exceeds limit")
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        nbytes = _HDR.size + len(payload) + raw
        self._pending.append(_HDR.pack(len(payload)))
        self._pending.append(payload)
        self._pending.extend(parts)
        self._nframes += 1
        self._nbytes += nbytes
        if self.stats is not None:
            self.stats.frames_out += 1
            self.stats.bytes_out += nbytes
        if self._nbytes >= self._limit:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            _sendmsg_all(self._sock, self._pending)
            self._pending = []
            self._nframes = 0
            self._nbytes = 0
            if self.stats is not None:
                self.stats.flushes += 1


class FrameReader:
    """Frame parser over a reusable ``recv_into`` buffer.

    Where the one-shot :func:`recv_frame` allocates a fresh bytearray
    per frame, this reader keeps one growable buffer, appends raw socket
    data into it, and deserializes each frame from a memoryview of that
    buffer — the only copy left is the unpickler's own. Same framing,
    same :data:`MAX_FRAME` guard, same allowlist unpickler. It reads
    ahead, so once a socket has a reader every later frame must come
    through it.
    """

    def __init__(self, sock: socket.socket, bufsize: int = 64 * 1024,
                 stats: "FrameStats | None" = None):
        self._sock = sock
        self.stats = stats
        self._buf = bytearray(bufsize)
        # cached export of _buf; recreated only when the buffer grows
        # (mutating contents through a live export is fine, resizing is
        # not — growth releases and re-exports)
        self._mv = memoryview(self._buf)
        self._start = 0  # parse position
        self._end = 0    # filled bytes

    def _fill(self, need: int) -> None:
        """Block until ``need`` unread bytes are available from _start."""
        while self._end - self._start < need:
            if self._start + need > len(self._buf):
                unread = self._end - self._start
                if self._start:
                    # compact: move unread bytes to the front (no realloc)
                    self._buf[:unread] = self._buf[self._start:self._end]
                    self._start, self._end = 0, unread
                if need > len(self._buf):
                    self._mv.release()
                    self._buf.extend(
                        bytes(max(need, 2 * len(self._buf))
                              - len(self._buf)))
                    self._mv = memoryview(self._buf)
            with self._mv[self._end:] as window:
                n = self._sock.recv_into(window)
            if n == 0:
                have = self._end - self._start
                if have:
                    raise FrameClosed(
                        f"connection closed mid-frame ({have}/{need} bytes)")
                raise FrameClosed("connection closed")
            self._end += n

    def read_frame(self) -> Any:
        """Read one frame (blocking); :class:`FrameClosed` on EOF."""
        self._fill(_HDR.size)
        (length,) = _HDR.unpack_from(self._buf, self._start)
        if length > MAX_FRAME:
            raise ValueError(f"frame of {length} bytes exceeds limit")
        self._fill(_HDR.size + length)
        body_start = self._start + _HDR.size
        with self._mv[body_start:body_start + length] as body:
            obj = restricted_loads(body)
        self._start = body_start + length
        if self._start == self._end:
            self._start = self._end = 0
        if self.stats is not None:
            self.stats.frames_in += 1
            self.stats.bytes_in += _HDR.size + length
        return obj

    def read_raw_into(self, view) -> None:
        """Fill the writable byte view *view* with the next ``len(view)``
        stream bytes: the raw payload the frame just read announced.

        Whatever part of it the read-ahead already holds is copied out
        first; the rest is received by the kernel straight into *view*.
        A length over :data:`MAX_FRAME` is refused before any byte
        moves; EOF raises :class:`FrameClosed` with ``received`` set.
        """
        need = len(view)
        if need > MAX_FRAME:
            raise ValueError(f"raw payload of {need} bytes exceeds limit")
        got = min(need, self._end - self._start)
        if got:
            view[:got] = self._mv[self._start:self._start + got]
            self._start += got
            if self._start == self._end:
                self._start = self._end = 0
        while got < need:
            n = self._sock.recv_into(view[got:])
            if n == 0:
                closed = FrameClosed(
                    f"connection closed mid-payload ({got}/{need} bytes)")
                closed.received = got
                raise closed
            got += n
        if self.stats is not None:
            self.stats.bytes_in += need
