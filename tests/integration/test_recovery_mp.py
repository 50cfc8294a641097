"""Supervised crash recovery on the real multiprocess runtime.

Recovery *is* migration-from-disk: the supervisor spawns a replacement
through the same ``register_init`` / accept-from-start path a live
migration uses, ships the newest complete checkpoint (program state plus
the communication-state epoch) over a plain socket, and flips the
registry record; peers converge through the normal refused-or-unacked
connect → lookup → redial ladder. These tests pin the end-to-end paths — restore
from checkpoint, restart from scratch, heartbeat detection of a frozen
rank, permanent-failure escalation — with exactly-once delivery asserted
on the surviving receiver.
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import threading
import time

import pytest

from repro.codec import decode
from repro.recovery import RecoverySpec, RestartPolicy
from repro.runtime import MPCluster, mp as mp_mod

COUNT = 40


def _state_digest(state: dict) -> str:
    return hashlib.sha256(repr(sorted(state.items())).encode()).hexdigest()


def _relay(api, state):
    """rank 0 -> rank 1 -> rank 2, tagged so receives are deterministic."""
    entered_with = _state_digest(state)
    i = state.get("i", 0)
    if api.rank == 0:
        while i < COUNT:
            api.send(1, i, tag=i)
            i += 1
            state["i"] = i
            api.compute(0.002)
            api.poll_migration(state)
        return {"sent": i, "incarnation": api.incarnation}
    if api.rank == 1:
        while i < COUNT:
            api.send(2, api.recv(src=0, tag=i).body, tag=i)
            i += 1
            state["i"] = i
            api.compute(0.002)
            api.poll_migration(state)
        return {"relayed": i, "incarnation": api.incarnation,
                "entered_with": entered_with}
    got = state.setdefault("got", [])
    while i < COUNT:
        got.append(api.recv(src=1, tag=i).body)
        i += 1
        state["i"] = i
        api.poll_migration(state)
    return {"got": got, "incarnation": api.incarnation}


def _wait_for_checkpoint(cluster, rank, version, timeout=20.0):
    store = cluster.checkpoint_store()
    deadline = time.time() + timeout
    while time.time() < deadline:
        v = store.latest_complete_version(rank)
        if v is not None and v >= version:
            return v
        time.sleep(0.005)
    raise AssertionError(f"rank {rank} never reached ckpt v{version}")


def test_rank_recovers_from_checkpoint(tmp_path):
    # an explicit dir outlives join(), so the blobs can be inspected
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        recovery=RecoverySpec(checkpoint_every=2,
                                              dir=str(tmp_path)))
    try:
        cluster.start()
        _wait_for_checkpoint(cluster, 1, 2)
        cluster.kill_rank(1)
        results = cluster.join(timeout=60)
        restores = [e for e in cluster.obs_events()
                    if e["kind"] == "span_end" and e["phase"] == "restore"]
        store = cluster.checkpoint_store()
        on_disk = {v: store.load_blob(1, v) for v in store.versions(1)}
    finally:
        cluster.terminate()
    # exactly once, in order, despite the mid-stream SIGKILL
    assert results[2]["got"] == list(range(COUNT))
    assert results[1]["incarnation"] == 1  # the replacement finished
    # the checkpoint crossed as a one-chunk state stream, and what the
    # replacement resumed from is digest-identical to a blob on disk
    (restore,) = restores
    assert restore["rank"] == 1 and restore["chunks"] == 1
    assert restore["trace_id"].startswith("rec-")
    assert any(len(blob) == restore["nbytes"]
               and _state_digest(decode(blob)["state"])
               == results[1]["entered_with"]
               for blob in on_disk.values())
    rep = cluster.recovery_report()
    assert rep["restarts"] == 1 and not rep["permanent_failures"]
    assert rep["events"][0]["kind"] == "rank"


def test_rank_recovers_from_scratch_before_first_checkpoint():
    # a huge interval ensures no checkpoint exists when the kill lands:
    # the replacement restarts from the version-0 empty wrapper and the
    # peers' dedup absorbs every regenerated message
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        recovery=RecoverySpec(checkpoint_every=10_000))
    try:
        cluster.start()
        time.sleep(0.05)
        cluster.kill_rank(1)
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[2]["got"] == list(range(COUNT))
    assert results[1]["incarnation"] == 1
    assert cluster.recovery_report()["restarts"] == 1


def test_recovery_observability_and_metrics():
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        _wait_for_checkpoint(cluster, 1, 2)
        cluster.kill_rank(1)
        results = cluster.join(timeout=60)
        events = cluster.obs_events()
        snap = {m["name"]: m["value"] for m in cluster.metrics_snapshot()
                if not m["labels"]}
    finally:
        cluster.terminate()
    assert results[2]["got"] == list(range(COUNT))
    # the launcher-observed recover span brackets the whole restart
    spans = [e for e in events if e["kind"] == "span_end"
             and e["phase"] == "recover"]
    assert spans and spans[0]["rank"] == 1 and spans[0]["seconds"] > 0
    assert snap["sup.restarts"] == 1
    assert snap["sup.backoff_ms"] >= 50
    # the queue-depth / live-links gauges surface in the merged stream
    gauges = {(e["actor"], e["name"]) for e in events
              if e["kind"] == "gauge"}
    assert any(name == "mp.queue_depth" for _a, name in gauges)
    assert any(name == "mp.live_links" for _a, name in gauges)


def test_heartbeat_detects_frozen_rank():
    # SIGSTOP freezes the whole process (program *and* heartbeat thread,
    # which beacons every timeout / 10 = 50 ms); the supervisor must
    # notice the stale beacon, SIGKILL the zombie and let the exit-code
    # path run the normal recovery
    cluster = MPCluster(
        _relay, nranks=3, obs=True,
        recovery=RecoverySpec(checkpoint_every=2, heartbeat_timeout=0.5))
    try:
        cluster.start()
        _wait_for_checkpoint(cluster, 1, 2)
        member = cluster.live_member(1)
        os.kill(member.proc.pid, signal.SIGSTOP)
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[2]["got"] == list(range(COUNT))
    assert results[1]["incarnation"] == 1
    assert cluster.recovery_report()["restarts"] == 1


def test_permanent_failure_escalates_and_join_raises():
    def _always_crashes(api, state):
        if api.rank == 1:
            api.compute(0.01)
            os._exit(3)  # crash loop: every incarnation dies the same way
        # rank 0 blocks forever on the doomed peer, so only escalation
        # can end this run
        if api.rank == 0:
            api.recv(src=1)
        return {}

    cluster = MPCluster(
        _always_crashes, nranks=2, obs=True,
        recovery=RecoverySpec(
            checkpoint_every=10_000,
            policy=RestartPolicy(base_delay=0.01, max_delay=0.05,
                                 max_restarts=2, window_s=30.0)))
    try:
        cluster.start()
        with pytest.raises(RuntimeError, match="permanent failure"):
            cluster.join(timeout=60)
        rep = cluster.recovery_report()
    finally:
        cluster.terminate()
    assert "rank/1" in rep["permanent_failures"]
    assert rep["restarts"] == 2  # the budget, then escalation


def test_recovery_disabled_keeps_legacy_wire_format():
    # without a RecoverySpec the cluster must not grow any recovery
    # machinery: no supervisor, no checkpoint store, 4-tuple data frames
    cluster = MPCluster(_relay, nranks=3)
    try:
        cluster.start()
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[2]["got"] == list(range(COUNT))
    assert cluster.supervisor is None
    with pytest.raises(RuntimeError, match="recovery"):
        cluster.checkpoint_store()


def _oneway(api, state):
    """Pure producer/consumer: no reverse data traffic, so only the
    explicit ack tick can tell rank 0 its messages are durable."""
    i = state.get("i", 0)
    if api.rank == 0:
        while i < COUNT:
            api.send(1, i, tag=i)
            i += 1
            state["i"] = i
            api.poll_migration(state)
        # linger so the consumer's post-checkpoint acks arrive and the
        # last gauge refresh sees the pruned outbox
        for _ in range(30):
            api.compute(0.005)
            api.poll_migration(state)
        return {"sent": i}
    got = state.setdefault("got", [])
    while i < COUNT:
        got.append(api.recv(src=0, tag=i).body)
        i += 1
        state["i"] = i
        api.poll_migration(state)
    return {"got": got}


def test_ack_tick_bounds_producer_outbox():
    """One-directional flow: without the ack tick the producer's
    sender-retained outbox holds all COUNT messages at exit (nothing
    ever acknowledges them); with it the outbox stays near the
    consumer's checkpoint window."""
    cluster = MPCluster(_oneway, nranks=2, obs=True,
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        results = cluster.join(timeout=60)
        snap = cluster.metrics_snapshot()
    finally:
        cluster.terminate()
    assert results[1]["got"] == list(range(COUNT))
    outbox = {s["labels"]["rank"]: s["value"]
              for s in snap if s["name"] == "mp.outbox_len"}
    assert outbox[0] <= 8, f"producer outbox not pruned: {outbox}"


def test_delta_checkpoints_recover_and_shrink_disk_writes():
    """Delta mode end-to-end: the run checkpoints incrementally, a
    SIGKILLed rank restores from the delta chain, and delivery stays
    exactly-once. The on-disk v>1 files are dramatically smaller than
    the self-contained base once the state is mostly unchanged."""
    cluster = MPCluster(
        _relay, nranks=3, obs=True,
        recovery=RecoverySpec(checkpoint_every=2, delta_checkpoints=True))
    try:
        cluster.start()
        _wait_for_checkpoint(cluster, 1, 3)
        cluster.kill_rank(1)
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[2]["got"] == list(range(COUNT))
    assert results[1]["incarnation"] == 1


def _stream_to_1(api, state):
    """Rank 0 streams COUNT paced messages to rank 1; both poll."""
    i = state.get("i", 0)
    got = state.setdefault("got", [])
    while i < COUNT:
        if api.rank == 0:
            api.send(1, i, tag=i)
        else:
            got.append(api.recv(src=0, tag=i).body)
        i += 1
        state["i"] = i
        api.compute(0.02)
        api.poll_migration(state)
    return got


def test_orphaned_initialized_process_dies_with_its_source(monkeypatch):
    """The source SIGKILLs itself on the ``new_process`` reply, before it
    ever connects to its initialized process. Recovery takes the rank
    over and the registry cancels the orphan through its control
    connection, instead of the orphan waiting out ``_CONNECT_TIMEOUT``."""
    rpc = mp_mod._Worker._rpc

    def dying_rpc(self, request, reply_kind):
        reply = rpc(self, request, reply_kind)
        if request[0] == "migration_start" and self.incarnation == 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return reply

    monkeypatch.setattr(mp_mod._Worker, "_rpc", dying_rpc)
    orphan_addr: list = []
    signal_migrate = mp_mod._Registry.signal_migrate

    def recording_signal(self, rank, *args):
        orphan_addr.append(self.record(rank).init_vmid)
        return signal_migrate(self, rank, *args)

    monkeypatch.setattr(mp_mod._Registry, "signal_migrate", recording_signal)
    recovered = threading.Event()
    recover_rank = mp_mod.MPCluster.recover_rank

    def recover_and_tell(self, rank):
        out = recover_rank(self, rank)
        recovered.set()
        return out

    monkeypatch.setattr(mp_mod.MPCluster, "recover_rank", recover_and_tell)
    cluster = MPCluster(_stream_to_1, nranks=2,
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        cluster.migrate(1)
        orphan = next(m.proc for m in cluster.members()
                      if m.rank == 1 and m.role == "init")
        assert recovered.wait(30.0), "rank 1 was never recovered"
        orphan.join(2.0)
        assert not orphan.is_alive(), "the orphan outlived recovery by 2 s"
        with pytest.raises(OSError):
            socket.create_connection(orphan_addr[0], timeout=1.0).close()
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[1] == list(range(COUNT))
    assert cluster.recovery_report()["restarts"] == 1


LONG = 150


def _relay_then_crash(api, state):
    """``_relay`` over a longer paced stream, except that rank 1's second
    migrated incarnation SIGKILLs itself three poll points in: after the
    checkpoint of its second poll and after its third poll flushed one
    more relayed message, which the replacement therefore re-sends."""
    i = state.get("i", 0)
    polls = 0
    if api.rank == 0:
        while i < LONG:
            api.send(1, i, tag=i)
            i += 1
            state["i"] = i
            api.compute(0.004)
            api.poll_migration(state)
        return {"sent": i}
    got = state.setdefault("got", [])
    while i < LONG:
        body = api.recv(src=api.rank - 1, tag=i).body
        if api.rank == 1:
            api.send(2, body, tag=i)
        else:
            got.append(body)
        i += 1
        state["i"] = i
        api.poll_migration(state)
        polls += 1
        if api.rank == 1 and api.incarnation == 2 and polls == 3:
            os.kill(os.getpid(), signal.SIGKILL)
    return {"got": got, "incarnation": api.incarnation}


def test_full_store_recovery_after_two_live_migrations():
    """The full (non-delta) store: rank 1 live-migrates twice, each time
    shipping the epoch's wrapper, then dies and is restored from disk.
    The stream stays exactly-once, and the re-sent message is dropped
    as a duplicate at rank 2."""
    cluster = MPCluster(_relay_then_crash, nranks=3, obs=True,
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        for _ in range(2):
            cluster.migrate(1)
            cluster.wait_migrations(timeout=30)
        results = cluster.join(timeout=60)
        snap = cluster.metrics_snapshot()
    finally:
        cluster.terminate()
    assert results[2]["got"] == list(range(LONG))
    assert results[1]["incarnation"] == 3  # two migrations, one recovery
    assert cluster.recovery_report()["restarts"] == 1
    dups = sum(m["value"] for m in snap
               if m["name"] == "recovery.dups_dropped")
    assert dups >= 1
