"""Low-level self-describing binary writer/reader (XDR-like).

These are the primitive field encoders the memory-graph codec
(:mod:`repro.codec.memgraph`) is built on. Unlike :mod:`pickle`, the format
is explicit about byte order: a :class:`Writer` produces bytes in its
*architecture's* endianness, and a :class:`Reader` is told which
architecture produced the stream and converts on the fly — this is where
heterogeneous encode-on-MIPS / decode-on-SPARC actually happens at the
byte level.

* :class:`Writer` appends bytes-like *parts* without intermediate copies
  (a large payload buffer goes straight into the part list as a
  ``memoryview``) and keeps a running byte count, so ``len(w)`` is O(1)
  and nested writers splice via :meth:`Writer.raw_parts` without joining;
* :class:`Reader` wraps the input in a single :class:`memoryview` and
  hands out zero-copy slices (:meth:`Reader.raw_view`); ``raw()`` still
  returns real ``bytes`` for callers that need an owning object.

The copy-per-field scalar writer/reader this pair is checked against
byte-for-byte lives in ``tests/helpers/reference_codec.py``.
"""

from __future__ import annotations

import struct

from repro.codec.arch import Architecture
from repro.util.errors import CodecError

__all__ = ["Writer", "Reader"]

#: one cached Struct per (byte order, format) — struct.pack on a module
#: string re-parses the format on every call; these never do.
_STRUCTS: dict[str, tuple[struct.Struct, struct.Struct, struct.Struct]] = {
    order: (struct.Struct(order + "I"), struct.Struct(order + "Q"),
            struct.Struct(order + "d"))
    for order in ("<", ">")
}

#: single-byte objects, indexed by value (u8 / small-varint fast path)
_BYTE = [bytes([i]) for i in range(256)]


class Writer:
    """Appends primitive fields to a byte buffer in *arch* byte order.

    Parts are kept as a list of bytes-like objects; :meth:`getvalue` joins
    them exactly once. Immutable inputs (``bytes``) and buffer views are
    appended without copying — a ``memoryview`` part keeps its exporter
    alive, so callers may hand over temporary array buffers.
    """

    __slots__ = ("arch", "_parts", "_order", "_structs", "_nbytes")

    def __init__(self, arch: Architecture):
        self.arch = arch
        self._parts: list = []
        self._order = arch.struct_order
        self._structs = _STRUCTS[self._order]
        self._nbytes = 0

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        # running count: length checks stay O(1) however many parts
        return self._nbytes

    # -- fixed-width fields ---------------------------------------------------
    def u8(self, v: int) -> None:
        if not 0 <= v <= 0xFF:
            raise CodecError(f"u8 out of range: {v}")
        self._parts.append(_BYTE[v])
        self._nbytes += 1

    def u32(self, v: int) -> None:
        if not 0 <= v <= 0xFFFFFFFF:
            raise CodecError(f"u32 out of range: {v}")
        self._parts.append(self._structs[0].pack(v))
        self._nbytes += 4

    def u64(self, v: int) -> None:
        if not 0 <= v < 1 << 64:
            raise CodecError(f"u64 out of range: {v}")
        self._parts.append(self._structs[1].pack(v))
        self._nbytes += 8

    def f64(self, v: float) -> None:
        self._parts.append(self._structs[2].pack(v))
        self._nbytes += 8

    # -- variable-width fields ---------------------------------------------
    def varint(self, v: int) -> None:
        """Unsigned LEB128 (endian-free by construction)."""
        if v < 0:
            raise CodecError(f"varint must be non-negative: {v}")
        if v < 0x80:
            self._parts.append(_BYTE[v])
            self._nbytes += 1
            return
        out = bytearray()
        while True:
            byte = v & 0x7F
            v >>= 7
            if v:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self._parts.append(bytes(out))
        self._nbytes += len(out)

    def bigint(self, v: int) -> None:
        """Arbitrary-precision signed integer: sign byte + magnitude."""
        sign = 0 if v >= 0 else 1
        mag = abs(v)
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, self.arch.endian)
        self.u8(sign)
        self.varint(len(raw))
        self._parts.append(raw)
        self._nbytes += len(raw)

    def raw(self, data) -> None:
        """Length-prefixed byte string.

        ``bytes`` input is appended as-is (it cannot change under us);
        mutable input (``bytearray``, writable buffers) is snapshotted.
        """
        n = len(data)
        self.varint(n)
        if not isinstance(data, bytes):
            data = bytes(data)
        self._parts.append(data)
        self._nbytes += n

    def put(self, data) -> None:
        """Append *data* with no length prefix (stream magic / preamble)."""
        n = len(data)
        if not isinstance(data, bytes):
            data = bytes(data)
        self._parts.append(data)
        self._nbytes += n

    def put_buffer(self, buf: memoryview) -> None:
        """Append a C-contiguous buffer with no length prefix, zero copy.

        Unlike :meth:`put` (which snapshots non-``bytes`` input), the
        view goes into the part list as-is — the splice primitive for
        callers that already wrote the length themselves, e.g. the
        memory-graph encoder's cached ndarray node headers.
        """
        self._parts.append(buf)
        self._nbytes += buf.nbytes

    def raw_parts(self, other: "Writer") -> None:
        """Length-prefixed splice of another writer's parts, zero copy.

        Equivalent to ``self.raw(other.getvalue())`` without materializing
        *other* — this is how the memory-graph encoder nests node bodies
        without one join-and-copy per node.
        """
        self.varint(other._nbytes)
        self._parts.extend(other._parts)
        self._nbytes += other._nbytes

    def string(self, s: str) -> None:
        self.raw(s.encode("utf-8"))


class Reader:
    """Consumes fields from a buffer produced by a :class:`Writer`.

    ``arch`` must be the architecture that *wrote* the stream (the
    memory-graph header records it). The input is wrapped in a single
    ``memoryview``; every slice handed out internally is a zero-copy view.
    """

    __slots__ = ("data", "arch", "_order", "_structs", "pos", "_mv", "_end")

    def __init__(self, data, arch: Architecture):
        self.data = data
        self.arch = arch
        self._order = arch.struct_order
        self._structs = _STRUCTS[self._order]
        self._mv = data if isinstance(data, memoryview) else memoryview(data)
        self._end = self._mv.nbytes
        self.pos = 0

    def _take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > self._end:
            raise CodecError(
                f"truncated stream: need {n} bytes at offset {self.pos}, "
                f"have {self._end - self.pos}")
        out = self._mv[self.pos:end]
        self.pos = end
        return out

    @property
    def exhausted(self) -> bool:
        return self.pos >= self._end

    # -- fixed-width fields -------------------------------------------------
    def u8(self) -> int:
        if self.pos >= self._end:
            raise CodecError(
                f"truncated stream: need 1 byte at offset {self.pos}, have 0")
        v = self._mv[self.pos]
        self.pos += 1
        return v

    def u32(self) -> int:
        return self._structs[0].unpack(self._take(4))[0]

    def u64(self) -> int:
        return self._structs[1].unpack(self._take(8))[0]

    def f64(self) -> float:
        return self._structs[2].unpack(self._take(8))[0]

    # -- variable-width fields ------------------------------------------------
    def varint(self) -> int:
        shift = 0
        out = 0
        while True:
            b = self.u8()
            out |= (b & 0x7F) << shift
            if not b & 0x80:
                return out
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")

    def bigint(self) -> int:
        sign = self.u8()
        n = self.varint()
        mag = int.from_bytes(self._take(n), self.arch.endian)
        return -mag if sign else mag

    def raw(self) -> bytes:
        n = self.varint()
        return bytes(self._take(n))

    def raw_view(self) -> memoryview:
        """Length-prefixed field as a zero-copy view into the stream.

        The bulk decode paths (ndarray payloads, nested node blobs) use
        this instead of :meth:`raw` — nothing is copied until a consumer
        actually needs an owning object.
        """
        n = self.varint()
        return self._take(n)

    def string(self) -> str:
        n = self.varint()
        return str(self._take(n), "utf-8")
