"""Memory-graph encoder: machine-independent process memory state.

The SNOW system models the data structures of a process as a graph and
transforms the graph and its contents into machine-independent information
(paper Section 1, their reference [11]). This module is that component for
Python-level state:

* the object graph is traversed once; every *identity-bearing* object
  (list, dict, set, bytearray, numpy array) becomes a numbered graph node,
  so **shared references and cycles survive the round trip** exactly;
* values are written through the XDR-like :class:`Writer` in the *source*
  architecture's byte order; the header records that architecture, so the
  destination converts — encode on a big-endian 32-bit machine, decode on
  a little-endian 64-bit one, and the state is bit-identical in meaning;
* supported leaf types: ``None``, ``bool``, ``int`` (arbitrary precision),
  ``float``, ``complex``, ``str``, ``bytes``; containers: ``list``,
  ``tuple``, ``dict``, ``set``, ``frozenset``, ``bytearray``; plus numpy
  ``ndarray`` (any shape, numeric/bool dtypes) and numpy scalars.

This is what the migration protocol ships as "execution and memory state":
the application's declared state dict goes through :func:`encode` on the
source host and :func:`decode` on the destination.

The encoder appends array buffers and nested node bodies as zero-copy
parts (one final join, or none at all via :func:`encode_parts`, which
the chunked migration pipeline slices into chunk frames); the decoder
reads through ``memoryview`` slices. It has two entry points over one
``_Decoder`` that differ only at the ndarray node:

* :func:`decode` is **pure**: the input is never mutated and every array
  is an owned native-order copy (one ``astype`` pass per array). The
  simulator and the checkpoint store use it.
* :func:`decode_owned` **consumes** a writable buffer the caller gives
  up — the mp runtime's receive buffer: native-order arrays come back as
  writable views over it (no copy at all), foreign-order arrays are
  byte-swapped in place, once, and viewed in native order.

The wire bytes are pinned by the golden fixtures and by the scalar oracle
in ``tests/helpers/reference_codec.py``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.codec.arch import NATIVE, Architecture
from repro.codec.xdr import Reader, Writer
from repro.util.errors import CodecError

__all__ = ["encode", "encode_parts", "decode", "decode_owned",
           "encoded_size", "peek_arch"]

_MAGIC = b"SNOWMEM1"

# value tags
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_COMPLEX = 5
_T_STR = 6
_T_BYTES = 7
_T_TUPLE = 8
_T_FROZENSET = 9
_T_REF = 10  # reference to a numbered graph node
_T_NPSCALAR = 11

# node kinds (identity-bearing objects)
_N_LIST = 0
_N_DICT = 1
_N_SET = 2
_N_BYTEARRAY = 3
_N_NDARRAY = 4

_NODE_TYPES = (list, dict, set, bytearray, np.ndarray)

# dtype kinds the ndarray path accepts (byte-order handled explicitly)
_OK_DTYPE_KINDS = frozenset("biufc")

# ---------------------------------------------------------------------------
# nested/ragged fast paths
# ---------------------------------------------------------------------------
# An ndarray node's entire header — kind byte, dtype, shape, payload
# length prefix — is a pure function of (dtype kind, itemsize, shape),
# and every field in it is endian-free (u8/varint/utf-8), so one cached
# bytes object serves all architectures. A dict/list of many arrays then
# costs two part appends per array instead of a fresh Writer and ~8
# appends each.
_ND_HEADER_CACHE: dict[tuple, bytes] = {}
_ND_HEADER_CACHE_MAX = 4096

#: minimum run of same-type scalars in a list/tuple before the
#: vectorized matrix encoder beats per-item dispatch
_VEC_MIN_RUN = 32
#: largest magnitude the vectorized int encoder handles (fits uint64);
#: anything bigger falls back to the per-item bigint path
_VEC_INT_MAX = (1 << 64) - 1


def _ndarray_header(dtype: np.dtype, shape: tuple, nbytes: int) -> bytes:
    key = (dtype.kind, dtype.itemsize, shape)
    header = _ND_HEADER_CACHE.get(key)
    if header is None:
        out = bytearray([_N_NDARRAY])
        kind_raw = dtype.kind.encode()
        out.append(len(kind_raw))
        out += kind_raw
        _append_varint(out, dtype.itemsize)
        _append_varint(out, len(shape))
        for dim in shape:
            _append_varint(out, dim)
        _append_varint(out, nbytes)
        header = bytes(out)
        if len(_ND_HEADER_CACHE) >= _ND_HEADER_CACHE_MAX:
            _ND_HEADER_CACHE.clear()
        _ND_HEADER_CACHE[key] = header
    return header


def _append_varint(out: bytearray, v: int) -> None:
    while True:
        byte = v & 0x7F
        v >>= 7
        if v:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _pack_float_run(vals: list, order: str) -> bytes:
    """``[_T_FLOAT, f64] * n`` as one (n, 9) uint8 matrix, one tobytes."""
    n = len(vals)
    arr = np.array(vals, dtype=np.dtype("f8").newbyteorder(order))
    m = np.empty((n, 9), dtype=np.uint8)
    m[:, 0] = _T_FLOAT
    m[:, 1:] = arr.view(np.uint8).reshape(n, 8)
    return m.tobytes()


def _pack_int_run(vals: list, endian: str) -> bytes:
    """``[_T_INT, sign, nbytes, magnitude...] * n``, ragged, vectorized.

    Each record is 3 header bytes plus 1-8 magnitude bytes in *endian*
    order — exactly what per-item :meth:`Writer.bigint` writes (``nbytes``
    is at most 8, so its varint is the byte itself). The records are
    carved out of a full (n, 11) matrix by a boolean gather: row-major
    ``m[mask]`` concatenates each row's valid bytes in order.
    """
    n = len(vals)
    mag = np.fromiter((v if v >= 0 else -v for v in vals),
                      dtype=np.uint64, count=n)
    nb = np.ones(n, dtype=np.uint8)
    for k in range(1, 8):
        nb += (mag >= (1 << (8 * k))).astype(np.uint8)
    m = np.empty((n, 11), dtype=np.uint8)
    m[:, 0] = _T_INT
    m[:, 1] = np.fromiter((1 if v < 0 else 0 for v in vals),
                          dtype=np.uint8, count=n)
    m[:, 2] = nb
    col = np.arange(11, dtype=np.uint8)
    if endian == "little":
        # little-endian magnitude = the low nb bytes, already leading
        m[:, 3:] = mag.astype("<u8").view(np.uint8).reshape(n, 8)
        mask = col[None, :] < (3 + nb)[:, None]
    else:
        # big-endian magnitude = the trailing nb bytes of the 8-byte
        # representation; the gather keeps column order, so selecting
        # the tail yields [tag, sign, nb, magnitude...] per row
        m[:, 3:] = mag.astype(">u8").view(np.uint8).reshape(n, 8)
        mask = (col[None, :] < 3) | (col[None, :] >= (11 - nb)[:, None])
    return m[mask].tobytes()


class _Encoder:
    def __init__(self, arch: Architecture):
        self.arch = arch
        self.ids: dict[int, int] = {}  # id(obj) -> node number
        self.nodes: list[Any] = []  # node number -> object
        # Hold references so ids stay valid during encoding even if the
        # caller's graph contains temporaries.
        self._pins: list[Any] = []

    def node_id(self, obj: Any) -> int:
        """Get or assign the graph-node number for an identity object."""
        key = id(obj)
        nid = self.ids.get(key)
        if nid is None:
            nid = len(self.nodes)
            self.ids[key] = nid
            self.nodes.append(obj)
            self._pins.append(obj)
        return nid

    def write_value(self, w, obj: Any) -> None:
        """Write one value: a leaf inline, an identity object as a REF."""
        if obj is None:
            w.u8(_T_NONE)
        elif obj is True:
            w.u8(_T_TRUE)
        elif obj is False:
            w.u8(_T_FALSE)
        elif isinstance(obj, _NODE_TYPES):
            w.u8(_T_REF)
            w.varint(self.node_id(obj))
        elif isinstance(obj, (np.bool_, np.integer, np.floating, np.complexfloating)):
            w.u8(_T_NPSCALAR)
            self._write_dtype(w, obj.dtype)
            # np.array(...) rather than .astype(): numpy scalars ignore byte
            # order in astype, a 0-dim array honours it.
            if obj.dtype.kind in "iufc" and obj.dtype.itemsize > 1:
                payload = np.array(
                    obj, dtype=obj.dtype.newbyteorder(self.arch.struct_order))
            else:
                payload = np.array(obj)
            w.raw(payload.tobytes())
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
        elif isinstance(obj, tuple):
            w.u8(_T_TUPLE)
            w.varint(len(obj))
            self.write_items(w, obj)
        elif isinstance(obj, frozenset):
            w.u8(_T_FROZENSET)
            items = _canonical_set_order(obj)
            w.varint(len(items))
            for item in items:
                self.write_value(w, item)
        else:
            raise CodecError(
                f"cannot encode object of type {type(obj).__name__}; "
                "declare migratable state using plain containers, scalars "
                "and numpy arrays")

    def _write_dtype(self, w, dtype: np.dtype) -> None:
        if dtype.kind not in _OK_DTYPE_KINDS:
            raise CodecError(f"unsupported ndarray dtype {dtype}")
        w.string(dtype.kind)
        w.varint(dtype.itemsize)

    def write_items(self, w, items) -> None:
        """Write a value sequence, batching homogeneous scalar runs.

        Scans for runs of plain floats / plain ints (``type`` checks, so
        bools and subclasses keep their own encodings) and emits each
        long run as one vectorized matrix —
        byte-identical to per-item dispatch. This is what makes ragged
        containers (lists of lists of numbers) cheap: every inner list
        body is mostly one or two such runs.
        """
        if len(items) < _VEC_MIN_RUN:
            for item in items:
                self.write_value(w, item)
            return
        i, n = 0, len(items)
        while i < n:
            t = type(items[i])
            if t is float or t is int:
                j = i + 1
                while j < n and type(items[j]) is t:
                    j += 1
                if j - i >= _VEC_MIN_RUN:
                    run = items[i:j] if isinstance(items, list) \
                        else list(items[i:j])
                    if t is float:
                        w.put(_pack_float_run(run, self.arch.struct_order))
                        i = j
                        continue
                    if all(-_VEC_INT_MAX <= v <= _VEC_INT_MAX
                           for v in run):
                        w.put(_pack_int_run(run, self.arch.endian))
                        i = j
                        continue
                for k in range(i, j):
                    self.write_value(w, items[k])
                i = j
                continue
            self.write_value(w, items[i])
            i += 1

    def write_node(self, w, obj: Any) -> None:
        """Write one graph node's kind and contents."""
        if isinstance(obj, list):
            w.u8(_N_LIST)
            w.varint(len(obj))
            self.write_items(w, obj)
        elif isinstance(obj, dict):
            w.u8(_N_DICT)
            w.varint(len(obj))
            for k, v in obj.items():
                self.write_value(w, k)
                self.write_value(w, v)
        elif isinstance(obj, set):
            w.u8(_N_SET)
            items = _canonical_set_order(obj)
            w.varint(len(items))
            self.write_items(w, items)
        elif isinstance(obj, bytearray):
            w.u8(_N_BYTEARRAY)
            w.raw(bytes(obj))
        elif isinstance(obj, np.ndarray):
            if obj.dtype.kind not in _OK_DTYPE_KINDS:
                raise CodecError(f"unsupported ndarray dtype {obj.dtype}")
            # Re-order the payload into the *source architecture's* byte
            # order — the self-describing part of heterogeneity support.
            # ascontiguousarray does the whole-buffer byte swap in one
            # vectorized pass (or returns the original array untouched if
            # it is already contiguous in the target order).
            if obj.dtype.kind in "iufc" and obj.dtype.itemsize > 1:
                payload = np.ascontiguousarray(
                    obj, dtype=obj.dtype.newbyteorder(self.arch.struct_order))
            else:
                payload = np.ascontiguousarray(obj)
            # the whole node header (kind, dtype, shape, payload length)
            # comes from the cache as one bytes object; the payload view
            # splices in zero-copy — two appends total
            w.put(_ndarray_header(obj.dtype, obj.shape, payload.nbytes))
            # (flattened first: memoryview cannot cast an empty n-d shape)
            w.put_buffer(memoryview(payload.reshape(-1)).cast("B"))
        else:  # pragma: no cover - guarded by _NODE_TYPES
            raise CodecError(f"not a node type: {type(obj).__name__}")


def _canonical_set_order(items) -> list:
    """Deterministic set serialization order (stable across runs)."""
    try:
        return sorted(items, key=lambda x: (str(type(x).__name__), repr(x)))
    except Exception as exc:  # pragma: no cover - exotic unsortable members
        raise CodecError(f"cannot canonicalize set: {exc}") from exc


def _encode_writer(obj: Any, arch: Architecture) -> Writer:
    """Encode into a part-list Writer (no join performed)."""
    enc = _Encoder(arch)
    root = Writer(arch)
    enc.write_value(root, obj)
    # Node payloads: written in discovery order; new nodes may be appended
    # while we write (children of children), so iterate by index.
    bodies: list[Writer] = []
    i = 0
    while i < len(enc.nodes):
        w = Writer(arch)
        enc.write_node(w, enc.nodes[i])
        bodies.append(w)
        i += 1

    head = Writer(arch)
    head.put(_MAGIC)
    head.string(arch.name)
    head.u8(0 if arch.endian == "little" else 1)
    head.u8(arch.word_bits)
    head.varint(len(bodies))
    for body in bodies:
        head.raw_parts(body)
    head.raw_parts(root)
    return head


def encode(obj: Any, arch: Architecture = NATIVE) -> bytes:
    """Encode *obj* into the machine-independent memory-graph format.

    The root value is written first; graph nodes are appended as they are
    discovered (node ids are allocated before descending into children, so
    cycles terminate).
    """
    return _encode_writer(obj, arch).getvalue()


def encode_parts(obj: Any, arch: Architecture = NATIVE) -> list:
    """Encode *obj* into a list of bytes-like parts without joining.

    ``b"".join(parts)`` equals ``encode(obj, arch)`` exactly. The chunked
    migration pipeline slices these parts into chunk frames, so
    a multi-megabyte array buffer is never copied into one flat blob on
    the source host. Parts may be ``memoryview`` objects pinning live
    array buffers — consume them before mutating the encoded state.
    """
    return _encode_writer(obj, arch)._parts


def peek_arch(data) -> Architecture:
    """Read the architecture that produced an encoded blob."""
    mv = data if isinstance(data, memoryview) else memoryview(data)
    if bytes(mv[:8]) != _MAGIC:
        raise CodecError("bad magic: not a SNOW memory-graph blob")
    # The header fields after the magic are endian-free (varint/u8/utf8).
    r = Reader(mv[8:], NATIVE)
    name = r.string()
    endian = "little" if r.u8() == 0 else "big"
    word_bits = r.u8()
    return Architecture(name, endian, word_bits)


class _Decoder:
    def __init__(self, node_blobs: list, arch: Architecture, owned: bool):
        self.arch = arch
        #: arrays may alias (and byte-swap) the blob instead of copying
        self.owned = owned
        self.blobs = node_blobs
        self.shells: list[Any] = [None] * len(node_blobs)
        self.filled = [False] * len(node_blobs)
        self._make_shells()
        for i in range(len(node_blobs)):
            self._fill(i)

    def _make_shells(self) -> None:
        """First pass: create empty containers so cycles can be wired."""
        for i, blob in enumerate(self.blobs):
            kind = blob[0]
            if kind == _N_LIST:
                self.shells[i] = []
            elif kind == _N_DICT:
                self.shells[i] = {}
            elif kind == _N_SET:
                self.shells[i] = set()
            elif kind == _N_BYTEARRAY:
                self.shells[i] = bytearray()
            elif kind == _N_NDARRAY:
                self.shells[i] = None  # arrays filled on demand (no cycles)
            else:
                raise CodecError(f"bad node kind {kind}")

    def read_value(self, r) -> Any:
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
            n = r.varint()
            return tuple(self.read_value(r) for _ in range(n))
        if tag == _T_FROZENSET:
            n = r.varint()
            return frozenset(self.read_value(r) for _ in range(n))
        if tag == _T_NPSCALAR:
            dtype = self._read_dtype(r)
            raw = r.raw()
            return np.frombuffer(raw, dtype=dtype)[0]
        if tag == _T_REF:
            nid = r.varint()
            self._fill(nid)
            return self.shells[nid]
        raise CodecError(f"bad value tag {tag}")

    def _read_dtype(self, r) -> np.dtype:
        kind = r.string()
        itemsize = r.varint()
        base = np.dtype(f"{kind}{itemsize}")
        if kind in "iufc" and itemsize > 1:
            return base.newbyteorder(self.arch.struct_order)
        return base

    def _fill(self, nid: int) -> None:
        if self.filled[nid]:
            return
        self.filled[nid] = True
        r = Reader(self.blobs[nid], self.arch)
        kind = r.u8()
        shell = self.shells[nid]
        if kind == _N_LIST:
            n = r.varint()
            for _ in range(n):
                shell.append(self.read_value(r))
        elif kind == _N_DICT:
            n = r.varint()
            for _ in range(n):
                k = self.read_value(r)
                v = self.read_value(r)
                shell[k] = v
        elif kind == _N_SET:
            n = r.varint()
            for _ in range(n):
                shell.add(self.read_value(r))
        elif kind == _N_BYTEARRAY:
            shell.extend(r.raw())
        elif kind == _N_NDARRAY:
            dtype = self._read_dtype(r)
            ndim = r.varint()
            shape = tuple(r.varint() for _ in range(ndim))
            # frombuffer wraps the zero-copy view without copying
            arr = np.frombuffer(r.raw_view(), dtype=dtype).reshape(shape)
            # convert to the *native* byte order of the decoding machine
            native = dtype.newbyteorder("=")
            if not self.owned:
                # the single vectorized conversion into freshly owned
                # memory; astype (not ascontiguousarray) keeps 0-dim
                # shapes intact
                arr = arr.astype(native)
            elif not dtype.isnative:
                arr = arr.byteswap(inplace=True).view(native)
            self.shells[nid] = arr
        else:  # pragma: no cover
            raise CodecError(f"bad node kind {kind}")


def decode(data) -> Any:
    """Decode a blob produced by :func:`encode` (on any architecture).

    Accepts ``bytes``, ``bytearray`` or ``memoryview``. Pure: *data* is
    left byte-identical, and node payloads are never copied out of it
    until the final per-array native-order conversion into owned memory.
    """
    return _decode(data, owned=False)


def decode_owned(buf) -> Any:
    """Decode a blob, taking ownership of the writable buffer holding it.

    The consuming twin of :func:`decode` for a caller that will never
    read *buf* as a blob again (the mp destination's receive buffer):
    every ndarray comes back as a **writable view over** *buf* — native
    source order costs no copy, a foreign order one in-place ``byteswap``
    — so *buf* lives as long as the longest-lived restored array and its
    bytes no longer decode afterwards. Array payloads sit at whatever
    offset the encoding put them, so the views may be unaligned; numpy
    handles that on every supported platform. Everything that is not an
    ndarray is built exactly as :func:`decode` builds it.
    """
    mv = memoryview(buf)
    if mv.readonly:
        raise CodecError("decode_owned needs a writable buffer")
    return _decode(mv, owned=True)


def _decode(data, owned: bool) -> Any:
    src_arch = peek_arch(data)
    mv = data if isinstance(data, memoryview) else memoryview(data)
    r = Reader(mv[8:], src_arch)
    r.string()  # arch name (already peeked)
    r.u8()
    r.u8()
    nblobs = r.varint()
    blobs = [r.raw_view() for _ in range(nblobs)]
    root_blob = r.raw_view()
    dec = _Decoder(blobs, src_arch, owned)
    root_reader = Reader(root_blob, src_arch)
    value = dec.read_value(root_reader)
    if not root_reader.exhausted:
        raise CodecError("trailing bytes after root value")
    return value


def encoded_size(obj: Any, arch: Architecture = NATIVE) -> int:
    """Size in bytes of the machine-independent encoding of *obj*.

    Used by the protocol layer to charge realistic wire and CPU costs for
    application payloads and state transfers — a no-join, no-copy size
    computation over the part list.
    """
    return len(_encode_writer(obj, arch))
