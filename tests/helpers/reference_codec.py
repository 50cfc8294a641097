"""Scalar reference codec: the oracle the production codec is pinned to.

``repro.codec`` encodes through cached headers, vectorized scalar runs and
zero-copy buffer parts. This module is the same wire format written the
slow, obvious way — one field at a time through :class:`ReferenceWriter`,
per-item dispatch, every payload copied — and shares no code with the
production encoder or decoder beyond :class:`Architecture` and the error
type. Tests require ``reference_encode(x, arch) == encode(x, arch)`` for
the golden fixtures (``tests/unit/test_codec_golden.py``) and for
Hypothesis-generated states (``tests/property/test_codec_props.py``).

Wire layout: magic, arch name, endian byte, word bits, node count, each
node body length-prefixed in discovery order, then the length-prefixed
root value. Identity-bearing objects are numbered when first referenced,
root first, and written in that order.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.codec.arch import NATIVE, Architecture
from repro.util.errors import CodecError

__all__ = ["ReferenceWriter", "ReferenceReader", "reference_encode",
           "reference_decode"]

_MAGIC = b"SNOWMEM1"

# value tags
(_T_NONE, _T_FALSE, _T_TRUE, _T_INT, _T_FLOAT, _T_COMPLEX, _T_STR, _T_BYTES,
 _T_TUPLE, _T_FROZENSET, _T_REF, _T_NPSCALAR) = range(12)
# node kinds
_N_LIST, _N_DICT, _N_SET, _N_BYTEARRAY, _N_NDARRAY = range(5)

_NODE_TYPES = (list, dict, set, bytearray, np.ndarray)
_NP_SCALARS = (np.bool_, np.integer, np.floating, np.complexfloating)


class ReferenceWriter:
    """Copy-per-field scalar writer: one ``bytes`` object per field, no
    caches, no buffer views. Byte output must equal :class:`Writer`'s."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        self._parts: list[bytes] = []
        self._order = arch.struct_order

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self._parts)

    # -- fixed-width fields ---------------------------------------------------
    def u8(self, v: int) -> None:
        if not 0 <= v <= 0xFF:
            raise CodecError(f"u8 out of range: {v}")
        self._parts.append(bytes([v]))

    def u32(self, v: int) -> None:
        if not 0 <= v <= 0xFFFFFFFF:
            raise CodecError(f"u32 out of range: {v}")
        self._parts.append(struct.pack(self._order + "I", v))

    def u64(self, v: int) -> None:
        if not 0 <= v < 1 << 64:
            raise CodecError(f"u64 out of range: {v}")
        self._parts.append(struct.pack(self._order + "Q", v))

    def f64(self, v: float) -> None:
        self._parts.append(struct.pack(self._order + "d", v))

    # -- variable-width fields ---------------------------------------------
    def varint(self, v: int) -> None:
        if v < 0:
            raise CodecError(f"varint must be non-negative: {v}")
        while True:
            byte = v & 0x7F
            v >>= 7
            if v:
                self._parts.append(bytes([byte | 0x80]))
            else:
                self._parts.append(bytes([byte]))
                return

    def bigint(self, v: int) -> None:
        sign = 0 if v >= 0 else 1
        mag = abs(v)
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, self.arch.endian)
        self.u8(sign)
        self.varint(len(raw))
        self._parts.append(raw)

    def raw(self, data) -> None:
        self.varint(len(data))
        self._parts.append(bytes(data))

    def put(self, data) -> None:
        self._parts.append(bytes(data))

    def string(self, s: str) -> None:
        self.raw(s.encode("utf-8"))


class ReferenceReader:
    """Bytes-slicing scalar reader (every ``_take`` copies)."""

    def __init__(self, data: bytes, arch: Architecture):
        self.data = bytes(data)
        self.arch = arch
        self._order = arch.struct_order
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CodecError(
                f"truncated stream: need {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)

    # -- fixed-width fields -------------------------------------------------
    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack(self._order + "I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(self._order + "Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack(self._order + "d", self._take(8))[0]

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
        return self._take(n)

    def string(self) -> str:
        return self.raw().decode("utf-8")


def _set_order(items) -> list:
    return sorted(items, key=lambda x: (str(type(x).__name__), repr(x)))


def _swappable(dtype: np.dtype) -> bool:
    return dtype.kind in "iufc" and dtype.itemsize > 1


class _ScalarEncoder:
    def __init__(self, arch: Architecture):
        self.arch = arch
        self.ids: dict[int, int] = {}
        self.nodes: list[Any] = []

    def _dtype(self, w: ReferenceWriter, dtype: np.dtype) -> None:
        if dtype.kind not in "biufc":
            raise CodecError(f"unsupported ndarray dtype {dtype}")
        w.string(dtype.kind)
        w.varint(dtype.itemsize)

    def _payload(self, obj) -> bytes:
        dtype = obj.dtype
        if _swappable(dtype):
            dtype = dtype.newbyteorder(self.arch.struct_order)
        return np.ascontiguousarray(obj, dtype=dtype).tobytes()

    def value(self, w: ReferenceWriter, obj: Any) -> None:
        if obj is None:
            w.u8(_T_NONE)
        elif obj is True:
            w.u8(_T_TRUE)
        elif obj is False:
            w.u8(_T_FALSE)
        elif isinstance(obj, _NODE_TYPES):
            nid = self.ids.get(id(obj))
            if nid is None:
                nid = self.ids[id(obj)] = len(self.nodes)
                self.nodes.append(obj)
            w.u8(_T_REF)
            w.varint(nid)
        elif isinstance(obj, _NP_SCALARS):
            w.u8(_T_NPSCALAR)
            self._dtype(w, obj.dtype)
            w.raw(self._payload(obj))
        elif isinstance(obj, int):
            w.u8(_T_INT)
            w.bigint(obj)
        elif isinstance(obj, float):
            w.u8(_T_FLOAT)
            w.f64(obj)
        elif isinstance(obj, complex):
            w.u8(_T_COMPLEX)
            w.f64(obj.real)
            w.f64(obj.imag)
        elif isinstance(obj, str):
            w.u8(_T_STR)
            w.string(obj)
        elif isinstance(obj, bytes):
            w.u8(_T_BYTES)
            w.raw(obj)
        elif isinstance(obj, (tuple, frozenset)):
            is_tuple = isinstance(obj, tuple)
            w.u8(_T_TUPLE if is_tuple else _T_FROZENSET)
            items = obj if is_tuple else _set_order(obj)
            w.varint(len(items))
            for item in items:
                self.value(w, item)
        else:
            raise CodecError(f"cannot encode {type(obj).__name__}")

    def node(self, w: ReferenceWriter, obj: Any) -> None:
        if isinstance(obj, (list, set)):
            is_list = isinstance(obj, list)
            w.u8(_N_LIST if is_list else _N_SET)
            items = obj if is_list else _set_order(obj)
            w.varint(len(items))
            for item in items:
                self.value(w, item)
        elif isinstance(obj, dict):
            w.u8(_N_DICT)
            w.varint(len(obj))
            for k, v in obj.items():
                self.value(w, k)
                self.value(w, v)
        elif isinstance(obj, bytearray):
            w.u8(_N_BYTEARRAY)
            w.raw(bytes(obj))
        else:
            w.u8(_N_NDARRAY)
            self._dtype(w, obj.dtype)
            w.varint(obj.ndim)
            for dim in obj.shape:
                w.varint(dim)
            w.raw(self._payload(obj))


def reference_encode(obj: Any, arch: Architecture) -> bytes:
    """Join-per-node, copy-per-payload encode of *obj* for *arch*."""
    enc = _ScalarEncoder(arch)
    root = ReferenceWriter(arch)
    enc.value(root, obj)
    bodies: list[bytes] = []
    i = 0
    while i < len(enc.nodes):  # nodes are appended while we write
        w = ReferenceWriter(arch)
        enc.node(w, enc.nodes[i])
        bodies.append(w.getvalue())
        i += 1
    head = ReferenceWriter(arch)
    head.put(_MAGIC)
    head.string(arch.name)
    head.u8(0 if arch.endian == "little" else 1)
    head.u8(arch.word_bits)
    head.varint(len(bodies))
    for body in bodies:
        head.raw(body)
    head.raw(root.getvalue())
    return head.getvalue()


class _ScalarDecoder:
    _SHELLS = {_N_LIST: list, _N_DICT: dict, _N_SET: set,
               _N_BYTEARRAY: bytearray, _N_NDARRAY: lambda: None}

    def __init__(self, blobs: list[bytes], arch: Architecture):
        self.arch = arch
        self.blobs = blobs
        # empty containers first, so cycles can be wired
        self.shells = [self._SHELLS[blob[0]]() for blob in blobs]
        self.filled = [False] * len(blobs)
        for nid in range(len(blobs)):
            self.fill(nid)

    def _dtype(self, r: ReferenceReader) -> np.dtype:
        dtype = np.dtype(f"{r.string()}{r.varint()}")
        if _swappable(dtype):
            return dtype.newbyteorder(self.arch.struct_order)
        return dtype

    def value(self, r: ReferenceReader) -> Any:
        tag = r.u8()
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return r.bigint()
        if tag == _T_FLOAT:
            return r.f64()
        if tag == _T_COMPLEX:
            return complex(r.f64(), r.f64())
        if tag == _T_STR:
            return r.string()
        if tag == _T_BYTES:
            return r.raw()
        if tag == _T_TUPLE:
            return tuple(self.value(r) for _ in range(r.varint()))
        if tag == _T_FROZENSET:
            return frozenset(self.value(r) for _ in range(r.varint()))
        if tag == _T_NPSCALAR:
            dtype = self._dtype(r)
            return np.frombuffer(r.raw(), dtype=dtype)[0]
        if tag == _T_REF:
            nid = r.varint()
            self.fill(nid)
            return self.shells[nid]
        raise CodecError(f"bad value tag {tag}")

    def fill(self, nid: int) -> None:
        if self.filled[nid]:
            return
        self.filled[nid] = True
        r = ReferenceReader(self.blobs[nid], self.arch)
        kind = r.u8()
        shell = self.shells[nid]
        if kind == _N_LIST:
            for _ in range(r.varint()):
                shell.append(self.value(r))
        elif kind == _N_DICT:
            for _ in range(r.varint()):
                k = self.value(r)
                shell[k] = self.value(r)
        elif kind == _N_SET:
            for _ in range(r.varint()):
                shell.add(self.value(r))
        elif kind == _N_BYTEARRAY:
            shell.extend(r.raw())
        else:
            dtype = self._dtype(r)
            shape = tuple(r.varint() for _ in range(r.varint()))
            arr = np.frombuffer(r.raw(), dtype=dtype).reshape(shape)
            self.shells[nid] = arr.astype(dtype.newbyteorder("="))


def reference_decode(data) -> Any:
    """Decode with a fresh ``bytes`` copy per slice."""
    data = bytes(data)
    if data[:8] != _MAGIC:
        raise CodecError("bad magic: not a SNOW memory-graph blob")
    # the header after the magic is endian-free (utf-8 / u8 / varint)
    hdr = ReferenceReader(data[8:], NATIVE)
    arch = Architecture(hdr.string(), "little" if hdr.u8() == 0 else "big",
                        hdr.u8())
    r = ReferenceReader(data[8 + hdr.pos:], arch)
    blobs = [r.raw() for _ in range(r.varint())]
    root = ReferenceReader(r.raw(), arch)
    value = _ScalarDecoder(blobs, arch).value(root)
    if not root.exhausted:
        raise CodecError("trailing bytes after root value")
    return value
