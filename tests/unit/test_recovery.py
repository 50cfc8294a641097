"""Units for the crash-recovery building blocks.

Policy/tracker (pure, synthetic clocks), the recovery spec coercions,
the durable-I/O primitives (atomic write, CRC framing), the directory
WAL (append / replay / compaction / torn tails) and the checkpoint
store's integrity header. The end-to-end supervised-restart paths live
in ``tests/integration/test_recovery_mp.py`` and the stress suite.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time

import pytest

from repro.core.checkpointing import CheckpointStore
from repro.directory.wal import DirectoryWAL
from repro.recovery import RecoverySpec, RestartPolicy, RestartTracker
from repro.runtime.mp import _Worker
from repro.util.errors import ReproError
from repro.util.fsio import atomic_write_bytes, crc_frame, iter_crc_frames


# -- restart policy / tracker ----------------------------------------------

def test_tracker_backoff_is_exponential_and_capped():
    t = RestartTracker(RestartPolicy(base_delay=0.1, factor=2.0,
                                     max_delay=0.5, max_restarts=10))
    delays = [t.next_delay(float(i)) for i in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]  # capped at max_delay


def test_tracker_escalates_after_window_budget():
    t = RestartTracker(RestartPolicy(max_restarts=3, window_s=60.0))
    assert all(t.next_delay(1.0 * i) is not None for i in range(3))
    assert t.next_delay(3.0) is None  # 4th inside the window: permanent
    assert t.next_delay(4.0) is None  # and it stays permanent


def test_tracker_window_expiry_resets_budget():
    t = RestartTracker(RestartPolicy(base_delay=0.05, max_restarts=2,
                                     window_s=10.0))
    assert t.next_delay(0.0) is not None
    assert t.next_delay(1.0) is not None
    assert t.next_delay(2.0) is None
    # both restarts age out of the window: budget (and backoff) reset
    assert t.next_delay(20.0) == pytest.approx(0.05)


# -- spec coercion ---------------------------------------------------------

def test_recovery_spec_coerce_variants(tmp_path):
    assert RecoverySpec.coerce(None) is None
    assert RecoverySpec.coerce(False) is None
    assert RecoverySpec.coerce(True) == RecoverySpec()
    spec = RecoverySpec.coerce(str(tmp_path / "durable"))
    assert spec.dir == str(tmp_path / "durable")
    assert RecoverySpec.coerce(spec) is spec
    with pytest.raises(TypeError):
        RecoverySpec.coerce(42)


def test_recovery_spec_resolve_dir(tmp_path):
    explicit = RecoverySpec(dir=str(tmp_path / "r"))
    assert explicit.resolve_dir() == str(tmp_path / "r")
    assert (tmp_path / "r").is_dir()  # created on resolve
    temp = RecoverySpec().resolve_dir()
    assert os.path.isdir(temp)
    os.rmdir(temp)


def test_recovery_spec_defaults():
    spec = RecoverySpec()
    assert (spec.dir, spec.checkpoint_every, spec.heartbeat_timeout,
            spec.delta_checkpoints) == (None, 1, None, False)
    assert spec.policy == RestartPolicy()


# -- the parked worker --------------------------------------------------------

class _ParkedStub:
    """Just what ``_Worker._park_until_teardown`` touches."""

    def __init__(self):
        self.inbox: queue.Queue = queue.Queue()
        self.rank = 1
        self.flushes = 0
        self.dispatched: list = []

    def _flush_links(self):
        self.flushes += 1

    def _dispatch(self, item):
        if item[0] == "bad":
            raise ValueError("a bad frame")
        self.dispatched.append(item)


def test_park_blocks_on_the_inbox_and_returns_on_ctl_closed():
    stub = _ParkedStub()
    parked = threading.Thread(target=_Worker._park_until_teardown,
                              args=(stub,), daemon=True)
    parked.start()
    # an idle parked worker is blocked, not polling: one flush before
    # the first wait, none while nothing arrives
    time.sleep(0.5)
    assert parked.is_alive() and stub.flushes == 1
    nudge = ("replay_nudge", 2, None)
    for item in (nudge, ("bad", 0, None), ("ctl", None, ("closed",)),
                 ("replay_nudge", 0, None)):
        stub.inbox.put(item)
    parked.join(5.0)
    assert not parked.is_alive()
    # a failing dispatch is logged, not fatal; nothing after the close
    # is dispatched
    assert stub.dispatched == [nudge]
    assert stub.flushes == 3  # one before each wait on the inbox
    assert stub.inbox.get_nowait() == ("replay_nudge", 0, None)


# -- durable I/O primitives -------------------------------------------------

def test_atomic_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "blob.bin"
    atomic_write_bytes(target, b"abc")
    atomic_write_bytes(target, b"defgh")  # overwrite is atomic too
    assert target.read_bytes() == b"defgh"
    assert list(tmp_path.iterdir()) == [target]


def test_crc_frames_roundtrip_and_stop_at_torn_tail():
    payloads = [b"one", b"", b"three"]
    data = b"".join(crc_frame(p) for p in payloads)
    assert list(iter_crc_frames(data)) == payloads
    # truncated tail: the partial frame disappears, the rest survives
    assert list(iter_crc_frames(data + crc_frame(b"tail")[:-2])) == payloads
    # corrupt tail: flip a payload byte of the last frame
    bad = bytearray(data)
    bad[-1] ^= 0xFF
    assert list(iter_crc_frames(bytes(bad))) == payloads[:-1]


# -- directory WAL ----------------------------------------------------------

def _rec(version, status="running", addr=("127.0.0.1", 1)):
    return (status, addr, None, version)


def test_wal_replay_applies_newest_version(tmp_path):
    wal = DirectoryWAL(tmp_path)
    wal.append(0, _rec(1))
    wal.append(0, _rec(3))
    wal.append(1, _rec(2, status="migrating"))
    wal.append(0, _rec(2))  # stale: version check must ignore it
    wal.close()
    records = DirectoryWAL(tmp_path).replay()
    assert records[0] == ("running", ("127.0.0.1", 1), None, 3)
    assert records[1][0] == "migrating" and records[1][3] == 2


def test_wal_compaction_snapshot_plus_overlapping_log(tmp_path):
    wal = DirectoryWAL(tmp_path, compact_every=2)
    wal.append(0, _rec(1))
    wal.append(1, _rec(1))
    assert wal.maybe_compact({0: _rec(1), 1: _rec(1)})
    assert wal.compactions == 1
    # post-compaction appends land in the fresh log; replay merges both
    wal.append(0, _rec(2))
    wal.close()
    records = DirectoryWAL(tmp_path).replay()
    assert records[0][3] == 2 and records[1][3] == 1


def test_wal_replay_tolerates_torn_tail_and_snapshot(tmp_path):
    wal = DirectoryWAL(tmp_path)
    wal.append(0, _rec(1))
    wal.append(1, _rec(4))
    wal.close()
    # crash mid-append: garbage tail bytes after the last full frame
    with open(tmp_path / "wal.log", "ab") as fh:
        fh.write(b"\x00\x00\x00\x99partial")
    (tmp_path / "snapshot.json").write_text('{"records": {"0"')  # torn
    records = DirectoryWAL(tmp_path).replay()
    assert records == {0: _rec(1), 1: _rec(4)}


# -- checkpoint store integrity header --------------------------------------

def test_store_header_roundtrip_and_latest_complete(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save_blob(0, 1, b"v1")
    store.save_blob(0, 2, b"v2")
    assert store.load_blob(0, 2) == b"v2"
    assert store.latest_complete_version(0) == 2


def test_store_restore_skips_truncated_blob(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save_blob(3, 1, b"good")
    store.save_blob(3, 2, b"interrupted" * 10)
    path = tmp_path / "ckpt-r3-v2.bin"
    path.write_bytes(path.read_bytes()[:-5])  # torn payload
    with pytest.raises(ReproError, match="truncated"):
        store.load_blob(3, 2)
    assert store.latest_complete_version(3) == 1


def test_store_restore_skips_corrupt_blob(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save_blob(0, 1, b"good")
    store.save_blob(0, 2, b"damaged-later")
    path = tmp_path / "ckpt-r0-v2.bin"
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # bit rot inside the payload
    path.write_bytes(bytes(data))
    with pytest.raises(ReproError, match="corrupt"):
        store.load_blob(0, 2)
    assert store.latest_complete_version(0) == 1


def test_store_rejects_file_without_integrity_header(tmp_path):
    """A bit flip inside the magic must not turn header + payload into
    an accepted restore point: restore walks back instead."""
    store = CheckpointStore(tmp_path)
    store.save_blob(0, 1, b"good")
    store.save_blob(0, 2, b"magic-damaged-later")
    path = tmp_path / "ckpt-r0-v2.bin"
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(ReproError, match="no integrity header"):
        store.load_blob(0, 2)
    assert store.latest_complete_version(0) == 1


def test_store_all_versions_bad_means_no_restore_point(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save_blob(0, 1, b"x" * 64)
    path = tmp_path / "ckpt-r0-v1.bin"
    path.write_bytes(path.read_bytes()[:10])
    assert store.latest_complete_version(0) is None


# -- delta (incremental) checkpoints ----------------------------------------

def _parts(*blobs):
    return [bytes(b) for b in blobs]


def test_delta_store_writes_only_changed_parts(tmp_path):
    store = CheckpointStore(tmp_path, delta=True)
    big, small = b"A" * 50_000, b"s" * 100
    first = store.save_parts(0, 1, _parts(big, small))
    second = store.save_parts(0, 2, _parts(big, b"t" * 100))
    assert first > 50_000                  # self-contained cold start
    assert second < 1_000                  # only the small part shipped
    assert store.last_parts_changed == 1
    assert store.load_blob(0, 2) == big + b"t" * 100


def test_delta_compaction_at_max_chain(tmp_path):
    store = CheckpointStore(tmp_path, delta=True, delta_max_chain=3,
                            delta_gc=False)
    big = b"B" * 20_000
    sizes = [store.save_parts(0, v, _parts(big, bytes([v])))
             for v in range(1, 8)]
    # v1 self-contained, v2-v3 deltas, v4 compacts, v5-v6 deltas, v7 compacts
    assert sizes[0] > 20_000 and sizes[3] > 20_000 and sizes[6] > 20_000
    for i in (1, 2, 4, 5):
        assert sizes[i] < 1_000
    for v in range(1, 8):
        assert store.load_blob(0, v) == big + bytes([v])


def test_delta_gc_deletes_behind_previous_compaction(tmp_path):
    """At each compaction the chain window *behind the previous* durable
    self-contained write is deleted; everything retained still loads."""
    store = CheckpointStore(tmp_path, delta=True, delta_max_chain=3)
    big = b"G" * 20_000
    for v in range(1, 8):
        store.save_parts(0, v, _parts(big, bytes([v])))
    # v7 compacted (previous compaction point: v4) -> v1-v3 deleted
    assert store.last_gc_deleted == [1, 2, 3]
    assert store.versions(0) == [4, 5, 6, 7]
    for v in range(4, 8):
        assert store.load_blob(0, v) == big + bytes([v])
    assert store.latest_complete_version(0) == 7


def test_delta_gc_crash_safe_ordering(tmp_path, monkeypatch):
    """A compaction write that fails leaves every old file intact — the
    unlink pass runs only after the new self-contained file is durable."""
    import repro.core.checkpointing as ckpt

    store = CheckpointStore(tmp_path, delta=True, delta_max_chain=2)
    big = b"C" * 10_000
    for v in range(1, 5):                      # v1 full, v2 delta, v3 full,
        store.save_parts(0, v, _parts(big))    # v4 delta (gc ran at v3)
    before = store.versions(0)

    def boom(path, data):
        raise OSError("disk full")             # crash before rename

    monkeypatch.setattr(ckpt, "atomic_write_bytes", boom)
    with pytest.raises(OSError):
        store.save_parts(0, 5, _parts(b"D" * 10_000))  # would compact
    monkeypatch.undo()
    # nothing was unlinked, and the pre-crash versions all still load
    assert store.versions(0) == before
    reader = CheckpointStore(tmp_path)
    assert reader.latest_complete_version(0) == 4
    assert reader.load_blob(0, 4) == big


def test_gc_superseded_keeps_only_newest_self_contained(tmp_path):
    store = CheckpointStore(tmp_path, delta=True, delta_max_chain=3,
                            delta_gc=False)
    big = b"S" * 15_000
    for v in range(1, 6):   # v1 full, v2-v3 deltas, v4 compacts, v5 delta
        store.save_parts(0, v, _parts(big, bytes([v])))
    deleted = store.gc_superseded(0)
    assert deleted == [1, 2, 3]
    assert store.versions(0) == [4, 5]
    for v in (4, 5):
        assert store.load_blob(0, v) == big + bytes([v])


def test_gc_superseded_skips_corrupt_candidate(tmp_path):
    """A damaged newest self-contained file is not trusted as the GC
    survivor: the scan walks back to an older restorable one."""
    store = CheckpointStore(tmp_path, delta=True, delta_max_chain=2,
                            delta_gc=False)
    big = b"K" * 8_000
    for v in range(1, 4):   # v1 full, v2 delta, v3 compacts
        store.save_parts(0, v, _parts(big))
    path = tmp_path / "ckpt-r0-v3.bin"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    deleted = CheckpointStore(tmp_path).gc_superseded(0)
    assert deleted == []    # v1 is the survivor; nothing is older
    reader = CheckpointStore(tmp_path)
    assert reader.latest_complete_version(0) == 2


def test_delta_reader_needs_no_part_cache(tmp_path):
    writer = CheckpointStore(tmp_path, delta=True)
    writer.save_parts(3, 1, _parts(b"x" * 1000, b"y"))
    writer.save_parts(3, 2, _parts(b"x" * 1000, b"z"))
    # a plain (non-delta) store in a fresh process still reads both
    reader = CheckpointStore(tmp_path)
    assert reader.load_blob(3, 2) == b"x" * 1000 + b"z"
    assert reader.latest_complete_version(3) == 2


def test_delta_in_memory_store(tmp_path):
    store = CheckpointStore(delta=True)
    store.save_parts(0, 1, _parts(b"m" * 500))
    store.save_parts(0, 2, _parts(b"m" * 500))
    assert store.last_parts_changed == 0
    assert store.load_blob(0, 2) == b"m" * 500


def test_delta_checkpoint_state_roundtrip(tmp_path):
    from repro.core.checkpointing import checkpoint_state, restore_state
    store = CheckpointStore(tmp_path, delta=True)
    state = {"i": 1, "blob": b"Q" * 30_000}
    n1 = checkpoint_state(store, 0, 1, state)
    state["i"] = 2
    n2 = checkpoint_state(store, 0, 2, state)
    assert n2 < n1 / 5                     # mostly-unchanged state shrinks
    assert restore_state(store, 0, 2) == state


def test_delta_corrupt_base_fails_dependent_version(tmp_path):
    store = CheckpointStore(tmp_path, delta=True)
    store.save_parts(0, 1, _parts(b"c" * 5_000))
    store.save_parts(0, 2, _parts(b"c" * 5_000))     # delta on v1
    path = tmp_path / "ckpt-r0-v1.bin"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    reader = CheckpointStore(tmp_path)
    with pytest.raises(ReproError):
        reader.load_blob(0, 2)
    assert reader.latest_complete_version(0) is None


def test_delta_max_chain_validation(tmp_path):
    with pytest.raises(ReproError):
        CheckpointStore(tmp_path, delta=True, delta_max_chain=0)


def test_recovery_spec_delta_field_is_the_one_delta_knob(tmp_path):
    spec = RecoverySpec(dir=str(tmp_path), delta_checkpoints=True)
    assert spec.delta_checkpoints
    # chain bound and collection are the store's defaults
    store = CheckpointStore(tmp_path, delta=spec.delta_checkpoints)
    assert store.delta and store.delta_max_chain == 8 and store.delta_gc
