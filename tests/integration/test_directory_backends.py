"""End-to-end tests of the sharded location directory.

The scheduler stays the single writer; directory nodes are versioned
read replicas. These tests force the interesting path: a rank migrates
*before* a peer's first connect, so the peer's PL entry is stale, the
connect is nacked, and the location is learned through the directory —
not the scheduler.
"""

from __future__ import annotations

import time

import pytest

from repro import Application, VirtualMachine, check_invariants
from repro.analysis import directory_report
from repro.directory import DirectorySpec
from repro.runtime import MPCluster

#: the distributed backends (chord was deleted in PR 24)
BACKENDS = ("sharded",)


@pytest.fixture
def vm(kernel):
    machine = VirtualMachine(kernel)
    for h in ("h0", "h1", "h2", "h3", "h4", "h5"):
        machine.add_host(h)
    return machine


def _late_contact_program(results: dict):
    """Rank 0 first contacts rank 1 only after rank 1 has migrated."""

    def program(api, state):
        if api.rank == 1:
            # warm-up polls give the migration a window to land
            w = state.get("w", 0)
            while w < 10:
                api.compute(0.002)
                w += 1
                state["w"] = w
                api.poll_migration(state)
            for i in range(5):
                msg = api.recv(src=0, tag=i)
                api.send(0, ("pong", msg.body[1]), tag=i)
            results[1] = api.endpoint.ctx.vmid.host
        else:
            api.compute(0.03)  # rank 1 moves during this
            got = []
            for i in range(5):
                api.send(1, ("ping", i), tag=i)
                got.append(api.recv(src=1, tag=i).body)
            results[0] = got

    return program


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_connect_resolves_through_directory(vm, backend):
    results: dict = {}
    app = Application(vm, _late_contact_program(results),
                      placement=["h0", "h1"], scheduler_host="h2",
                      directory=DirectorySpec(backend=backend, nodes=4,
                                              replication=2))
    app.start()
    app.migrate_at(0.005, 1, "h3")
    app.run()

    assert results[0] == [("pong", i) for i in range(5)]
    assert results[1] == "h3"  # rank 1 finished on the migration target
    check_invariants(vm, app, expect_migrations=1).raise_if_failed()

    ep0 = app.endpoints[0]
    # the stale entry was disproved and corrected via the directory
    assert ep0.cache.stats.invalidations >= 1
    assert ep0.cache.stats.refreshes >= 1
    assert ep0.stats.extra.get("dir_lookups", 0) >= 1
    assert len(vm.trace.filter(kind="directory_consult")) >= 1
    # some directory node answered; the scheduler did not
    report = directory_report(vm, app)
    assert sum(report.node_lookups.values()) >= 1
    assert report.backend == backend


@pytest.mark.parametrize("backend", BACKENDS)
def test_updates_replicate_to_all_owners(vm, backend):
    results: dict = {}
    app = Application(vm, _late_contact_program(results),
                      placement=["h0", "h1"], scheduler_host="h2",
                      directory=DirectorySpec(backend=backend, nodes=3,
                                              replication=2))
    app.start()
    app.migrate_at(0.005, 1, "h4")
    app.run()

    cluster = app.directory_cluster
    owners = cluster.topology.owners(1)
    assert len(owners) == 2
    records = cluster.records_for(1)
    authoritative = app.scheduler_state.directory.record(1)
    for node in owners:
        rec = records[node]
        assert rec is not None, f"owner {node} never received the record"
        # every owner converged on the scheduler's final record: the
        # rank ran to completion at the migrated location
        assert rec == authoritative
        assert rec.status == "terminated"
        assert rec.vmid.host == "h4"
    # non-owners hold nothing for this rank
    for node, rec in records.items():
        if node not in owners:
            assert rec is None


def test_backends_agree_with_centralized_results(kernel):
    """Same program, both backends: same application-level outcome."""
    outcomes = {}
    for backend in (None, "sharded"):
        vm = VirtualMachine()
        for h in ("h0", "h1", "h2", "h3"):
            vm.add_host(h)
        results: dict = {}
        app = Application(vm, _late_contact_program(results),
                          placement=["h0", "h1"], scheduler_host="h2",
                          directory=backend)
        app.start()
        app.migrate_at(0.005, 1, "h3")
        app.run()
        check_invariants(vm, app, expect_migrations=1).raise_if_failed()
        outcomes[backend or "centralized"] = results[0]
        vm.shutdown()
    assert outcomes["centralized"] == outcomes["sharded"]


# ------------------------------------------------------------- mp runtime --

def _mp_pingpong(api, state):
    rounds = 60  # long enough that migrate() at t~0.1s lands mid-run
    i = state.get("i", 0)
    pids = state.setdefault("pids", [])
    if api.pid not in pids:
        pids.append(api.pid)
    while i < rounds:
        if api.rank == 0:
            api.send(1, ("ping", i), tag=i)
            assert api.recv(src=1, tag=i).body == ("pong", i)
        else:
            assert api.recv(src=0, tag=i).body == ("ping", i)
            api.send(0, ("pong", i), tag=i)
        i += 1
        state["i"] = i
        api.compute(0.002)
        api.poll_migration(state)
    return {"rounds": i, "pids": pids}


def test_mp_migration_with_sharded_directory():
    """``directory="sharded"`` on mp means real shard daemon processes:
    the registry publishes to them, the workers look peers up there."""
    cluster = MPCluster(_mp_pingpong, nranks=2, directory="sharded")
    try:
        cluster.start()
        time.sleep(0.1)
        cluster.migrate(1)
        cluster.wait_migrations(timeout=60)
        assert cluster.directory_live_shards() == 4
        # poll the daemons over their own sockets while they are still
        # up — join() tears the host down with the rest of the registry
        assert cluster.registry.daemon_host.flush(5.0)
        stats = cluster.directory_stats()
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[0]["rounds"] == 60
    assert results[1]["rounds"] == 60
    assert len(results[1]["pids"]) == 2  # the OS process really changed

    assert all(s is not None for s in stats.values())
    # registration + migration updates reached the shard processes, and
    # the workers' lookups were answered there
    assert sum(s["updates"] for s in stats.values()) > 0
    assert sum(s["lookups"] for s in stats.values()) > 0
