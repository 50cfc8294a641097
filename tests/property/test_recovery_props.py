"""Crash-during-checkpoint properties of the durable recovery state.

Hypothesis injects partial writes and bit corruption into the
:class:`~repro.core.checkpointing.CheckpointStore` disk layout and
truncates :class:`~repro.directory.wal.DirectoryWAL` logs at arbitrary
byte offsets, then checks the invariants restore correctness rests on:

* **newest-complete selection** — whatever subset of blob files a crash
  (or later damage) tore, ``latest_complete_version`` returns the
  newest version that still passes its integrity check, and loading it
  returns exactly the bytes that were saved — never a torn payload;
* **torn-tail monotonicity** — truncating a WAL at any offset yields a
  replay that is a *prefix* of the full replay in version space: every
  surviving rank maps to a version it really held at some append, and
  versions never exceed the untruncated outcome;
* **restart-policy sanity** — under any timestamp sequence the tracker
  never exceeds its window budget and its delays stay within
  ``[base_delay, max_delay]``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.checkpointing import CheckpointStore
from repro.directory.wal import DirectoryWAL
from repro.recovery import RestartPolicy, RestartTracker
from repro.util.errors import ReproError

# (version -> payload, which versions are damaged, how)
blobs_strategy = st.lists(st.binary(min_size=1, max_size=200),
                          min_size=1, max_size=6)
damage_strategy = st.lists(
    st.tuples(st.integers(0, 5),            # which version index
              st.sampled_from(["truncate", "flip", "erase"]),
              st.integers(1, 50)),          # how much / where
    max_size=4)


@given(payloads=blobs_strategy, damage=damage_strategy)
@settings(max_examples=80, deadline=None)
def test_restore_selects_newest_complete_version(tmp_path_factory,
                                                 payloads, damage):
    tmp_path = tmp_path_factory.mktemp("store")
    store = CheckpointStore(tmp_path)
    saved, framed = {}, {}
    for version, payload in enumerate(payloads, start=1):
        store.save_blob(0, version, payload)
        saved[version] = payload
        path = tmp_path / f"ckpt-r0-v{version}.bin"
        framed[version] = path.read_bytes()  # the pristine on-disk form
    for index, kind, amount in damage:
        version = index + 1
        if version not in saved:
            continue
        path = tmp_path / f"ckpt-r0-v{version}.bin"
        data = path.read_bytes()
        if kind == "truncate":
            path.write_bytes(data[:max(0, len(data) - amount)])
        elif kind == "flip":
            # Any byte: magic, CRC, length or payload — every one of
            # them must make the version unrestorable (amounts 1..6 land
            # inside the magic).
            if not data:
                continue  # already truncated to nothing
            pos = (amount - 1) % len(data)
            mutated = bytearray(data)
            mutated[pos] ^= 0xFF
            path.write_bytes(bytes(mutated))
        else:
            path.unlink()
            del saved[version]
    # broken-ness is empirical: compound damage may cancel (a byte
    # flipped twice is pristine again), so compare against the original
    # framed bytes rather than predicting from the damage list
    broken = {v for v in saved
              if (tmp_path / f"ckpt-r0-v{v}.bin").read_bytes() != framed[v]}
    intact = [v for v in saved if v not in broken]
    selected = store.latest_complete_version(0)
    if not intact:
        assert selected is None
        return
    assert selected == max(intact)
    # the selected blob restores byte-identically; no torn blob ever loads
    assert store.load_blob(0, selected) == saved[selected]
    for version in broken:
        if version in saved:
            try:
                store.load_blob(0, version)
            except ReproError:
                continue
            raise AssertionError(f"damaged v{version} loaded silently")


appends_strategy = st.lists(
    st.tuples(st.integers(0, 3),           # rank
              st.integers(1, 9)),          # version
    min_size=1, max_size=20)


@given(appends=appends_strategy, cut=st.integers(0, 400))
@settings(max_examples=80, deadline=None)
def test_wal_truncation_replays_a_version_prefix(tmp_path_factory,
                                                 appends, cut):
    tmp_path = tmp_path_factory.mktemp("wal")
    wal = DirectoryWAL(tmp_path)
    applied: dict[int, int] = {}      # the daemon's version-checked apply
    for rank, version in appends:
        if version > applied.get(rank, 0):
            wal.append(rank, ("running", ("127.0.0.1", 1), None, version))
            applied[rank] = version
    wal.close()
    full = DirectoryWAL(tmp_path).replay()
    assert {r: rec[3] for r, rec in full.items()} == applied

    log = tmp_path / "wal.log"
    data = log.read_bytes()
    log.write_bytes(data[:min(cut, len(data))])
    partial = DirectoryWAL(tmp_path).replay()
    for rank, rec in partial.items():
        # every surviving record was really appended, at most as new as
        # the untruncated outcome — a torn tail loses the suffix only
        assert rec[3] <= applied[rank]


@given(times=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1,
                      max_size=30).map(sorted))
@settings(max_examples=80, deadline=None)
def test_restart_tracker_budget_and_delay_bounds(times):
    policy = RestartPolicy(base_delay=0.05, factor=2.0, max_delay=1.0,
                           max_restarts=4, window_s=100.0)
    tracker = RestartTracker(policy)
    granted: list[float] = []
    for now in times:
        delay = tracker.next_delay(now)
        if delay is None:
            # budget spent: the window really holds max_restarts grants
            recent = [t for t in granted if t >= now - policy.window_s]
            assert len(recent) >= policy.max_restarts
        else:
            assert policy.base_delay <= delay <= policy.max_delay
            granted.append(now)
        assert len(tracker.history) <= policy.max_restarts
