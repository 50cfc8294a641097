"""SIGKILL crash-stop of supervised ranks and shards, end to end.

The acceptance bar for the crash-recovery subsystem, asserted on real OS
processes: a worker rank and its primary directory shard are SIGKILLed
mid-run — separately and together — and the supervisor auto-recovers
both with **zero lost or duplicated messages**, producing a received
stream whose digest is **byte-identical** to a fault-free run of the
same program. The durable-shard scenario additionally pins that a
supervised shard restart replays from its **own WAL** with the registry
re-seed disabled, not from a fresh re-publish.

``REPRO_RECOVERY_SMOKE=1`` (the ``make recovery-smoke`` / CI job) runs a
compact combined kill pass and prints the recovery summary the workflow
can grep.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time

import pytest

from repro.directory import DirectorySpec
from repro.recovery import RecoverySpec
from repro.runtime import MPCluster

pytestmark = pytest.mark.stress

SMOKE = bool(os.environ.get("REPRO_RECOVERY_SMOKE"))

COUNT = 60
DIR_SPEC = dict(backend="sharded", nodes=3, replication=2)


def _relay(api, state):
    """rank 0 → rank 1 → rank 2, one tagged message per sequence number.

    The sink returns the exact sequence it saw: any drop, duplicate or
    reorder across a crash + restart shows up in the digest.
    """
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
        return {"relayed": i, "incarnation": api.incarnation}
    got = state.setdefault("got", [])
    while i < COUNT:
        got.append(api.recv(src=1, tag=i).body)
        i += 1
        state["i"] = i
        api.poll_migration(state)
    return {"got": got, "incarnation": api.incarnation}


def _digest(results) -> str:
    """The sink's received byte stream, hashed — the cross-run oracle."""
    raw = ",".join(repr(b) for b in results[2]["got"]).encode()
    return hashlib.sha256(raw).hexdigest()


_FAULT_FREE: dict[str, str] = {}


def _fault_free_digest() -> str:
    """Digest of one crash-free run of the same program (cached)."""
    if "digest" not in _FAULT_FREE:
        cluster = MPCluster(_relay, nranks=3)
        try:
            cluster.start()
            results = cluster.join(timeout=120)
        finally:
            cluster.terminate()
        assert results[2]["got"] == list(range(COUNT))
        _FAULT_FREE["digest"] = _digest(results)
    return _FAULT_FREE["digest"]


def _wait_for_checkpoint(cluster, rank, version, timeout=20.0):
    store = cluster.checkpoint_store()
    deadline = time.time() + timeout
    while time.time() < deadline:
        v = store.latest_complete_version(rank)
        if v is not None and v >= version:
            return v
        time.sleep(0.005)
    raise AssertionError(f"rank {rank} never reached ckpt v{version}")


def _wait_until(pred, timeout, what):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if pred():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def _primary_owner_of(cluster, rank):
    """The shard a round-0 lookup for ``rank`` goes to first."""
    return cluster.registry.daemon_host.topology.owners(rank)[0]


def _sigkill_shard(cluster, node_id) -> int:
    """Crash a shard daemon *behind the host's back* — unlike
    ``directory_kill`` this is an unannounced death only the
    supervisor's ``reap_dead`` scan can discover."""
    pid = cluster.registry.daemon_host._procs[node_id].pid
    os.kill(pid, signal.SIGKILL)
    return pid


def _assert_exactly_once(results):
    assert results[2]["got"] == list(range(COUNT))
    assert results[0]["sent"] == COUNT and results[1]["relayed"] == COUNT


# -- rank crash ------------------------------------------------------------

def test_rank_sigkill_mid_run_digest_identical():
    """SIGKILL the relay rank mid-iteration (a checkpoint exists): the
    supervisor restores it from disk and the sink's stream digest equals
    the fault-free run's, byte for byte."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        _wait_for_checkpoint(cluster, 1, 2)
        cluster.kill_rank(1)
        results = cluster.join(timeout=120)
        rep = cluster.recovery_report()
    finally:
        cluster.terminate()
    _assert_exactly_once(results)
    assert _digest(results) == _fault_free_digest()
    assert results[1]["incarnation"] == 1
    assert rep["restarts"] == 1 and not rep["permanent_failures"]
    assert rep["events"][0]["kind"] == "rank"


# -- shard crash (durable, supervised) -------------------------------------

def test_shard_sigkill_supervised_wal_replay_digest_identical():
    """SIGKILL the primary shard of the relay rank's record. The
    supervisor discovers the unannounced death, restarts the daemon at
    its old address and — because the run is durable — the shard replays
    its own WAL instead of waiting for a registry re-seed."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        directory=DirectorySpec(**DIR_SPEC),
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        victim = _primary_owner_of(cluster, 1)
        host = cluster.registry.daemon_host
        assert host.wal_dir is not None  # recovery made the shards durable
        time.sleep(0.05)  # let the seed publishes land in the WAL
        _sigkill_shard(cluster, victim)
        _wait_until(lambda: cluster.recovery_report()["restarts"] >= 1,
                    30, "supervised shard restart")
        _wait_until(lambda: cluster.directory_live_shards() == 3,
                    30, "live-shard gauge recovery")
        # poll the daemon over its own socket while it is still up —
        # join() tears the host down with the rest of the registry
        stats = cluster.directory_stats()[victim]
        records = host.records_on(victim)
        results = cluster.join(timeout=120)
        rep = cluster.recovery_report()
        snap = {m["name"]: m["value"] for m in cluster.metrics_snapshot()
                if not m["labels"]}
    finally:
        cluster.terminate()
    _assert_exactly_once(results)
    assert _digest(results) == _fault_free_digest()
    # the restarted daemon itself reports the WAL replay, and the
    # records it serves came from its log, not a re-seed
    assert stats is not None and stats["replayed"] >= 1
    assert any(rank in records for rank in range(3))
    assert snap["recovery.replayed_records"] >= 1
    assert rep["events"][0] == {**rep["events"][0], "kind": "shard",
                                "id": victim}


def test_wal_restart_with_reseed_disabled_serves_records():
    """The explicit no-re-seed pin: kill + restart a durable shard with
    ``reseed=False`` forced — every record it serves afterwards can only
    have come from its own WAL replay."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        directory=DirectorySpec(**DIR_SPEC),
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        victim = _primary_owner_of(cluster, 1)
        host = cluster.registry.daemon_host
        time.sleep(0.05)
        owned_before = {r for r in host.records_on(victim)}
        assert owned_before  # the seed publishes reached the victim
        host.kill(victim)
        replayed = host.restart(victim, reseed=False)
        assert replayed >= len(owned_before)
        after = host.records_on(victim)
        assert set(after) >= owned_before
        results = cluster.join(timeout=120)
    finally:
        cluster.terminate()
    _assert_exactly_once(results)


# -- rank + shard together -------------------------------------------------

def test_rank_and_primary_shard_sigkill_together():
    """The compound failure: the relay rank and the shard holding its
    record die at the same moment. Recovery must thread the replacement
    rank's re-publish and the peers' lookups through the replica walk
    while the supervisor brings the shard back — still exactly once,
    still digest-identical."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        directory=DirectorySpec(**DIR_SPEC),
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        victim = _primary_owner_of(cluster, 1)
        _wait_for_checkpoint(cluster, 1, 2)
        _sigkill_shard(cluster, victim)
        cluster.kill_rank(1)
        results = cluster.join(timeout=120)
        rep = cluster.recovery_report()
    finally:
        cluster.terminate()
    _assert_exactly_once(results)
    assert _digest(results) == _fault_free_digest()
    assert results[1]["incarnation"] == 1
    assert rep["restarts"] == 2 and not rep["permanent_failures"]
    assert {e["kind"] for e in rep["events"]} == {"rank", "shard"}


# -- CI smoke --------------------------------------------------------------

@pytest.mark.skipif(not SMOKE, reason="REPRO_RECOVERY_SMOKE=1 only")
def test_recovery_smoke():
    """The CI smoke: SIGKILL a rank and a shard mid-run, finish with a
    digest identical to the fault-free baseline, print the summary."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        directory=DirectorySpec(**DIR_SPEC),
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        victim = _primary_owner_of(cluster, 1)
        _wait_for_checkpoint(cluster, 1, 2)
        _sigkill_shard(cluster, victim)
        cluster.kill_rank(1)
        results = cluster.join(timeout=120)
        rep = cluster.recovery_report()
        snap = {m["name"]: m["value"] for m in cluster.metrics_snapshot()
                if not m["labels"]}
    finally:
        cluster.terminate()
    _assert_exactly_once(results)
    identical = _digest(results) == _fault_free_digest()
    assert identical
    for ev in rep["events"]:
        print(f"restart {ev['kind']}/{ev['id']}: backoff={ev['delay']:.3f}s"
              f" recovered_in={ev['seconds']:.3f}s")
    print(f"smoke: restarts={rep['restarts']}"
          f" backoff_ms={rep['backoff_ms']}"
          f" replayed={snap.get('recovery.replayed_records', 0)}"
          f" digest_identical={identical}")
