"""Application-level checkpoint/restart (the fault-tolerance motivation).

The paper lists fault tolerance among the motivations for state-transfer
machinery, and §7 discusses checkpoint-based systems at length. This
module provides the classic *application-level* variant for SPMD codes on
top of the reproduction's machine-independent codec:

* each rank calls :meth:`SnowAPI-style checkpoint <CheckpointStore>`
  at an **iteration boundary** — the same places the migration poll
  points live. For loop-synchronous programs these boundaries are
  message-quiescent by construction (every message sent in an iteration
  is received in it), so the set of per-rank checkpoints with a common
  version number is globally consistent *without* any runtime
  coordination;
* after a crash (or intentionally — "users can crash a process
  intentionally and restart ... on a new machine", §1), the computation
  restarts from the latest version every rank completed, on any hosts,
  any architectures: blobs are self-describing.

What this deliberately does **not** do is checkpoint mid-iteration with
messages in flight — capturing channel state at arbitrary points is the
coordinated-checkpointing territory of CoCheck (see
:mod:`repro.baselines.cocheck` for that mechanism and its costs).
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from pathlib import Path

from repro.codec import NATIVE, Architecture, decode, encode, encode_parts
from repro.util.errors import ReproError
from repro.util.fsio import atomic_write_bytes
from repro.vm.ids import Rank

__all__ = ["CheckpointStore", "checkpoint_state", "restore_state"]

#: Disk-blob integrity header: magic, CRC-32 and length of the payload.
#: Every file a store writes starts with this magic or the delta one; a
#: file that starts with neither is damaged, never a restore point.
_MAGIC = b"RPCK1\x00"
_HEADER = struct.Struct(">6sIQ")

#: Delta-checkpoint files reuse the exact header discipline with their
#: own magic; the CRC covers the whole delta payload, so a torn tail is
#: detected before any part of the manifest is trusted.
_DELTA_MAGIC = b"RPCD1\x00"
#: delta payload head: base_version + 1 (0 = self-contained), full state
#: size in bytes, number of parts in this version's encoding
_D_HEAD = struct.Struct(">QQI")
#: one manifest record per part: part length, changed flag, part digest
_D_PART = struct.Struct(">QB16s")
_D_DIGEST_BYTES = 16


def _part_digest(buf) -> bytes:
    return hashlib.blake2b(buf, digest_size=_D_DIGEST_BYTES).digest()


class CheckpointStore:
    """Versioned per-rank checkpoint blobs, in memory or on disk.

    Disk layout (when *directory* is given): one file per checkpoint,
    ``ckpt-r<rank>-v<version>.bin``. Writes are crash-safe — payloads
    carry a CRC-framed header and land via fsync-and-rename — so a file
    that exists is either complete or detectably torn, never silently
    half-written into the codec.

    With ``delta=True``, :meth:`save_parts` (and
    :func:`checkpoint_state`) writes *incremental* checkpoints: the
    encoded state's zero-copy part list is hashed part-by-part against
    the previous version, and only changed parts hit the disk, alongside
    a manifest naming every part's length and digest plus the base
    version. :meth:`load_blob` resolves the delta chain transparently and
    digest-asserts the materialized state, so readers (restore, recovery,
    migration reuse) never see the difference. Every
    ``delta_max_chain``-th save is self-contained — the compaction point
    bounding chain length and file retention.
    """

    def __init__(self, directory: str | Path | None = None, *,
                 delta: bool = False, delta_max_chain: int = 8,
                 delta_gc: bool = True):
        self._dir = Path(directory) if directory is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self._mem: dict[tuple[Rank, int], bytes] = {}
        #: incremental mode: :meth:`save_parts` diffs against the rank's
        #: previous version and writes only changed parts
        self.delta = delta
        #: garbage-collect superseded chain files at compaction points:
        #: after each durable self-contained write, versions older than
        #: the *previous* compaction point are deleted (one full chain
        #: window is retained so peers lagging a version still find a
        #: common recovery line). The new file is fsynced and renamed
        #: before any unlink — a crash mid-GC only leaves extra files.
        self.delta_gc = delta_gc
        if delta_max_chain < 1:
            raise ReproError(
                f"delta_max_chain must be >= 1: {delta_max_chain}")
        #: deltas allowed on top of a self-contained base before the next
        #: save compacts (writes self-contained again) — bounds both the
        #: restore read chain and how long old files must be retained
        self.delta_max_chain = delta_max_chain
        #: (version, [part digests]) of each rank's last save_parts —
        #: the diff base; process-local, so a fresh process (post-crash)
        #: naturally starts its chain with a self-contained write
        self._part_cache: dict[Rank, tuple[int, list[bytes]]] = {}
        self._chain_len: dict[Rank, int] = {}
        #: version of each rank's previous self-contained save_parts —
        #: the GC cutoff at the next compaction point
        self._last_compaction: dict[Rank, int] = {}
        #: versions deleted by the last automatic GC (test/report hook)
        self.last_gc_deleted: list[int] = []
        #: part-hash invocations (tests assert single-pass hashing when
        #: a migration reuses checkpoint parts)
        self.hash_ops = 0
        #: payload bytes of the last save_parts (bench A/B artifact)
        self.last_write_nbytes = 0
        self.last_parts_changed = 0

    # -- raw blob access -------------------------------------------------
    def save_blob(self, rank: Rank, version: int, blob: bytes) -> None:
        if self._dir is None:
            self._mem[(rank, version)] = blob
        else:
            framed = _HEADER.pack(_MAGIC, zlib.crc32(blob), len(blob)) + blob
            atomic_write_bytes(
                self._dir / f"ckpt-r{rank}-v{version}.bin", framed)

    def save_parts(self, rank: Rank, version: int, parts: list) -> int:
        """Incremental save from an encoded zero-copy part list.

        Hashes each part and, when the rank's previous :meth:`save_parts`
        version is cached, writes a delta file carrying only the changed
        parts plus a full manifest (every part's length, changed flag and
        digest) and the full-state digest. A cold start, a part-count
        explosion or a chain at ``delta_max_chain`` writes self-contained
        (all parts present — the compaction point). Returns the payload
        bytes actually written.
        """
        mvs = [p if isinstance(p, memoryview) else memoryview(p)
               for p in parts]
        mvs = [mv.cast("B") if mv.format != "B" or mv.ndim != 1 else mv
               for mv in mvs]
        digests = []
        for mv in mvs:
            digests.append(_part_digest(mv))
            self.hash_ops += 1
        full_nbytes = sum(mv.nbytes for mv in mvs)
        full_digest = _part_digest(b"".join(mvs))

        cached = self._part_cache.get(rank)
        chain = self._chain_len.get(rank, 0)
        base_plus1 = 0
        base_digests: list[bytes] = []
        if self.delta and cached is not None \
                and chain < self.delta_max_chain:
            base_version, base_digests = cached
            base_plus1 = base_version + 1

        records = []
        changed_payload = []
        nchanged = 0
        for i, (mv, digest) in enumerate(zip(mvs, digests)):
            unchanged = (i < len(base_digests)
                         and digest == base_digests[i] and base_plus1 > 0)
            if not unchanged:
                nchanged += 1
                changed_payload.append(mv)
            records.append(_D_PART.pack(mv.nbytes, 0 if unchanged else 1,
                                        digest))
        payload = b"".join(
            [_D_HEAD.pack(base_plus1, full_nbytes, len(mvs)), full_digest,
             *records, *changed_payload])
        framed = _HEADER.pack(_DELTA_MAGIC, zlib.crc32(payload),
                              len(payload)) + payload
        if self._dir is None:
            self._mem[(rank, version)] = framed
        else:
            atomic_write_bytes(
                self._dir / f"ckpt-r{rank}-v{version}.bin", framed)
        self._part_cache[rank] = (version, digests)
        self._chain_len[rank] = chain + 1 if base_plus1 else 1
        self.last_write_nbytes = len(payload)
        self.last_parts_changed = nchanged
        if base_plus1 == 0:
            # Compaction point: the self-contained write above is durable
            # (fsync-and-rename), so chain files behind the *previous*
            # compaction point can never be needed again — not by this
            # version's read chain, not by the walk-back restore scan
            # (which stops at the retained previous window).
            prev = self._last_compaction.get(rank)
            self._last_compaction[rank] = version
            self.last_gc_deleted = (
                self._delete_versions_below(rank, prev)
                if self.delta_gc and prev is not None and prev <= version
                else [])
        return len(payload)

    def _delete_versions_below(self, rank: Rank,
                               cutoff: int) -> list[int]:
        """Delete every stored version of *rank* older than *cutoff*."""
        deleted = []
        for version in self.versions(rank):
            if version >= cutoff:
                continue
            if self._dir is None:
                del self._mem[(rank, version)]
            else:
                path = self._dir / f"ckpt-r{rank}-v{version}.bin"
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
            deleted.append(version)
        return deleted

    def gc_superseded(self, rank: Rank) -> list[int]:
        """Delete every version unreachable from the newest restorable
        self-contained checkpoint of *rank*; returns what was deleted.

        Stronger than the automatic compaction-point GC (which retains
        one full chain window): this keeps only the newest version that
        both passes its integrity check and depends on no older file —
        a full-blob checkpoint, or a delta whose manifest says
        self-contained. Meant for explicit quiesce points (a supervisor
        after a verified recovery line, an operator reclaiming space);
        nothing below the survivor can be referenced by any later delta,
        because chains only ever grow from their own compaction base.
        """
        keep_from = None
        for version in reversed(self.versions(rank)):
            try:
                data = self._read_raw(rank, version)
                if data.startswith(_DELTA_MAGIC):
                    payload = self._checked_payload(
                        data, f"r{rank} v{version}")
                    base_plus1, _, _ = _D_HEAD.unpack_from(payload)
                    if base_plus1 != 0:
                        continue  # delta: needs an older base file
                self.load_blob(rank, version)
            except ReproError:
                continue
            keep_from = version
            break
        if keep_from is None:
            return []
        return self._delete_versions_below(rank, keep_from)

    def _read_raw(self, rank: Rank, version: int) -> bytes:
        if self._dir is None:
            try:
                return self._mem[(rank, version)]
            except KeyError:
                raise ReproError(
                    f"no checkpoint for rank {rank} version {version}"
                ) from None
        path = self._dir / f"ckpt-r{rank}-v{version}.bin"
        if not path.exists():
            raise ReproError(f"no checkpoint file {path}")
        return path.read_bytes()

    def load_blob(self, rank: Rank, version: int) -> bytes:
        data = self._read_raw(rank, version)
        name = f"r{rank} v{version}"
        if data.startswith(_DELTA_MAGIC):
            payload = self._checked_payload(data, name)
            parts = self._materialize(rank, version, payload, depth=0)
            return b"".join(parts)
        if self._dir is None:
            # in-memory save_blob keeps the raw blob: there is no file
            # to tear, so there is no header to check
            return data
        if not data.startswith(_MAGIC):
            # a flipped bit in the magic, or a write torn inside it
            raise ReproError(
                f"checkpoint {name} is corrupt or truncated "
                f"(no integrity header)")
        return self._checked_payload(data, name)

    @staticmethod
    def _checked_payload(data: bytes, name: str) -> bytes:
        """Validate one framed file (either magic); return its payload."""
        if len(data) < _HEADER.size:
            raise ReproError(f"checkpoint {name} is truncated")
        _magic, crc, length = _HEADER.unpack_from(data)
        blob = data[_HEADER.size:]
        if len(blob) != length:
            raise ReproError(
                f"checkpoint {name} is truncated: "
                f"{len(blob)} of {length} payload bytes")
        if zlib.crc32(blob) != crc:
            raise ReproError(f"checkpoint {name} is corrupt "
                             f"(CRC mismatch)")
        return blob

    def _materialize(self, rank: Rank, version: int, payload: bytes,
                     depth: int) -> list[bytes]:
        """Resolve one delta payload into the full ordered part list.

        Unchanged parts are pulled from the base version by *position* —
        the base must itself be delta-format (save_parts only ever chains
        on its own writes), so its manifest gives exact part boundaries.
        The chain is digest-asserted at every level.
        """
        if depth > max(self.delta_max_chain, 64):
            raise ReproError(
                f"checkpoint r{rank} v{version}: delta chain too deep")
        base_plus1, full_nbytes, nparts = _D_HEAD.unpack_from(payload)
        off = _D_HEAD.size
        full_digest = payload[off:off + _D_DIGEST_BYTES]
        off += _D_DIGEST_BYTES
        records = []
        for _ in range(nparts):
            records.append(_D_PART.unpack_from(payload, off))
            off += _D_PART.size
        base_parts: list[bytes] | None = None
        if any(not changed for _len, changed, _d in records):
            if base_plus1 == 0:
                raise ReproError(
                    f"checkpoint r{rank} v{version}: unchanged parts "
                    f"in a self-contained delta")
            base_version = base_plus1 - 1
            base_raw = self._read_raw(rank, base_version)
            if not base_raw.startswith(_DELTA_MAGIC):
                raise ReproError(
                    f"checkpoint r{rank} v{version}: base v{base_version} "
                    f"is not delta-format")
            base_payload = self._checked_payload(
                base_raw, f"r{rank} v{base_version}")
            base_parts = self._materialize(rank, base_version,
                                           base_payload, depth + 1)
        parts: list[bytes] = []
        for i, (part_len, changed, digest) in enumerate(records):
            if changed:
                part = payload[off:off + part_len]
                off += part_len
            else:
                if i >= len(base_parts):
                    raise ReproError(
                        f"checkpoint r{rank} v{version}: part {i} missing "
                        f"from base")
                part = base_parts[i]
            if len(part) != part_len or _part_digest(part) != digest:
                raise ReproError(
                    f"checkpoint r{rank} v{version}: part {i} digest "
                    f"mismatch")
            parts.append(part)
        if sum(len(p) for p in parts) != full_nbytes \
                or _part_digest(b"".join(parts)) != full_digest:
            raise ReproError(
                f"checkpoint r{rank} v{version}: materialized state "
                f"digest mismatch")
        return parts

    # -- catalogue ----------------------------------------------------------
    def versions(self, rank: Rank) -> list[int]:
        if self._dir is None:
            return sorted(v for r, v in self._mem if r == rank)
        prefix = f"ckpt-r{rank}-v"
        out = []
        for p in self._dir.glob(f"{prefix}*.bin"):
            tail = p.name[len(prefix):-4]
            if tail.isdigit():
                out.append(int(tail))
        return sorted(out)

    def ranks(self) -> list[Rank]:
        if self._dir is None:
            return sorted({r for r, _ in self._mem})
        out = set()
        for p in self._dir.glob("ckpt-r*-v*.bin"):
            head = p.name[len("ckpt-r"):].split("-v", 1)[0]
            if head.isdigit():
                out.add(int(head))
        return sorted(out)

    def latest_complete_version(self, rank: Rank) -> int | None:
        """Newest version of *rank* whose blob passes its integrity check.

        This is the restore selector under crash-during-checkpoint: a
        torn or corrupt newest file (the write the crash interrupted,
        had it not been atomic — or a file damaged after the fact) is
        skipped with its reason logged by the caller, and the scan walks
        back to the newest *complete* one.
        """
        for version in reversed(self.versions(rank)):
            try:
                self.load_blob(rank, version)
            except ReproError:
                continue
            return version
        return None

    def latest_common_version(self, nranks: int) -> int | None:
        """Largest version every one of ``nranks`` ranks has stored.

        This is the recovery line: a crash may interrupt version *k* with
        only some ranks saved, in which case everyone restarts from
        *k - 1*.
        """
        common: set[int] | None = None
        for rank in range(nranks):
            versions = set(self.versions(rank))
            common = versions if common is None else (common & versions)
            if not common:
                return None
        return max(common) if common else None


def checkpoint_state(store: CheckpointStore, rank: Rank, version: int,
                     state: dict, arch: Architecture = NATIVE) -> int:
    """Encode and store one rank's state; returns the bytes written.

    A delta-mode store diffs the encoded part list against the rank's
    previous version and writes only what changed; otherwise the full
    blob is written as before.
    """
    if store.delta:
        return store.save_parts(rank, version,
                                encode_parts(state, arch))
    blob = encode(state, arch)
    store.save_blob(rank, version, blob)
    return len(blob)


def restore_state(store: CheckpointStore, rank: Rank, version: int) -> dict:
    """Load and decode one rank's state at *version*."""
    state = decode(store.load_blob(rank, version))
    if not isinstance(state, dict):
        raise ReproError(
            f"checkpoint r{rank} v{version} is {type(state).__name__}, "
            "expected dict")
    return state
