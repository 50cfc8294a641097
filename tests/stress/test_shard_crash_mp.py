"""Crash-stop shard failures under a live mp workload.

Real OS processes end to end: worker ranks stream a tagged sequence
through a relay while the location directory is served by out-of-process
shard daemons (``DirectorySpec(backend="sharded")``). Mid-workload we
SIGKILL the shard that owns the migrating rank's record — the one the consumer's
first lookup round targets — and then migrate, so the reconnect path is
forced through the failover ladder against a genuinely dead socket.

The acceptance bar, per shard-kill scenario:

* **zero lost or duplicated messages** — the sink's received sequence is
  exactly ``0..COUNT-1`` (tags make reordering/duplication visible);
* **bounded recovery without operator intervention** — the run finishes
  inside the join timeout with lookups answered by surviving replicas
  (no restart needed for progress);
* **the live-shard gauge tells the truth** — ``dir.live_shards`` drops
  on the kill and recovers on restart, and the restarted daemon serves
  the re-seeded records.

``REPRO_SHARD_SMOKE=1`` (the ``make shard-smoke`` / CI job) additionally
runs a compact kill+restart+churn pass and prints the daemon stats
table the workflow can grep.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.directory import DirectorySpec
from repro.runtime import MPCluster

pytestmark = pytest.mark.stress

SMOKE = bool(os.environ.get("REPRO_SHARD_SMOKE"))

COUNT = 40
SPEC = dict(backend="sharded", nodes=3, replication=2)


def _relay(api, state):
    """rank 0 → rank 1 → rank 2, one tagged message per sequence number.

    The sink returns the exact sequence it saw: any drop, duplicate or
    reorder across migration + shard failure shows up in the result.
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


def _primary_owner_of(cluster, rank):
    """The shard a round-0 lookup for ``rank`` goes to first."""
    return cluster.registry.daemon_host.topology.owners(rank)[0]


def _run(kill_at, migrate_rank=1, restart=False):
    """Start the relay, kill the migrating rank's primary shard at the
    chosen moment, migrate, optionally restart the shard, and join."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        directory=DirectorySpec(**SPEC))
    try:
        cluster.start()
        victim = _primary_owner_of(cluster, migrate_rank)
        if kill_at == "before_migrate":
            time.sleep(0.05)
            cluster.directory_kill(victim)
        cluster.migrate(migrate_rank)
        if kill_at == "during_migration":
            cluster.directory_kill(victim)
        live_after_kill = cluster.directory_live_shards()
        if restart:
            cluster.directory_restart(victim)
        live_after_restart = cluster.directory_live_shards()
        # poll the daemons over their own sockets while they are still
        # up — join() tears the host down with the rest of the registry
        stats = cluster.directory_stats()
        results = cluster.join(timeout=120)
        return cluster, victim, results, live_after_kill, \
            live_after_restart, stats
    finally:
        cluster.terminate()


def _assert_no_loss(results):
    assert results[2]["got"] == list(range(COUNT))
    assert results[0]["sent"] == COUNT and results[1]["relayed"] == COUNT


def test_shard_kill_before_migration_no_loss():
    """The consumer's reconnect lookup lands on a dead primary: the
    replica walk answers, the stream completes exactly once."""
    cluster, victim, results, live_kill, _, stats = _run("before_migrate")
    _assert_no_loss(results)
    assert results[1]["incarnation"] == 1
    # crash-stop, not membership change: 2 of 3 alive, ring unchanged
    assert live_kill == 2
    reg = cluster.registry.collector.metrics
    assert reg.value("dir.live_shards") == 2
    # the dead primary forced at least one failover hop somewhere
    assert reg.sum("mp.dir_failovers") >= 1
    # the victim's socket is dead, the replicas answered their polls
    assert stats[victim] is None
    assert sum(1 for s in stats.values() if s is not None) == 2


def test_shard_kill_during_migration_window_no_loss():
    """SIGKILL lands while the migration itself is in flight — the
    worst moment: the record is mid-handoff between incarnations."""
    _, _, results, live_kill, _, _ = _run("during_migration")
    _assert_no_loss(results)
    assert results[1]["incarnation"] == 1
    assert live_kill == 2


def test_shard_restart_recovers_gauge_and_records():
    """Kill → restart mid-run: the gauge round-trips 3 → 2 → 3 and the
    respawned daemon serves the re-seeded records at the old address."""
    cluster, victim, results, live_kill, live_restart, stats = _run(
        "before_migrate", restart=True)
    _assert_no_loss(results)
    assert (live_kill, live_restart) == (2, 3)
    reg = cluster.registry.collector.metrics
    assert reg.value("dir.live_shards") == 3
    assert reg.value("dir.daemon_restarts") >= 1
    # the restarted shard answered its own stats poll before join closed
    # the host — i.e. it came back as a serving replica, not a zombie
    assert all(s is not None for s in stats.values())


def test_membership_churn_mid_workload_no_loss():
    """A shard joins and another leaves while ranks are streaming and
    one rank migrates: handoffs verify record-by-record and the stream
    still arrives exactly once."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        directory=DirectorySpec(**SPEC))
    try:
        cluster.start()
        time.sleep(0.05)
        joined = cluster.directory_join()
        cluster.migrate(1)
        left = cluster.directory_leave(
            cluster.registry.daemon_host.node_ids[0])
        assert joined.complete and left.complete
        assert all(h.verified for h in joined.handoff + left.handoff)
        results = cluster.join(timeout=120)
        _assert_no_loss(results)
        assert results[1]["incarnation"] == 1
        reg = cluster.registry.collector.metrics
        assert reg.value("dir.live_shards") == 3  # 3 + join - leave
        assert reg.sum("dir.handoff_records") >= len(joined.handoff)
    finally:
        cluster.terminate()


@pytest.mark.skipif(not SMOKE, reason="REPRO_SHARD_SMOKE=1 only")
def test_shard_failure_smoke():
    """The CI smoke: one kill, one restart, one join/leave churn, stats
    printed from the daemons themselves."""
    cluster = MPCluster(_relay, nranks=3, obs=True,
                        directory=DirectorySpec(**SPEC))
    try:
        cluster.start()
        victim = _primary_owner_of(cluster, 1)
        time.sleep(0.05)
        cluster.directory_kill(victim)
        cluster.migrate(1)
        cluster.directory_restart(victim)
        change = cluster.directory_join()
        assert change.complete
        stats = cluster.directory_stats()
        results = cluster.join(timeout=120)
        _assert_no_loss(results)
        for node, s in sorted(stats.items()):
            print(f"shard {node}: "
                  + ("dead" if s is None else
                     " ".join(f"{k}={v}" for k, v in sorted(s.items()))))
        print(f"smoke: victim={victim} live={len([s for s in stats.values() if s is not None])}")
    finally:
        cluster.terminate()
