"""The theorems under faults, with the *distributed* directory in the loop.

PR 1's adversary drops, duplicates and delays control datagrams; with
the sharded backend that now includes every directory message —
lookups, published updates and their acks. The
acceptance bar: progress, exactly-once delivery, per-pair FIFO and
simultaneous-migration safety all hold at >=5% drop + 5% dup while
location lookups are answered by shard daemons instead of the scheduler.
"""

from __future__ import annotations

import pytest

from repro import FaultPlan, check_invariants
from repro.directory import DirectorySpec

from tests.stress.conftest import hardened_app, seq_check, seq_stream

pytestmark = pytest.mark.stress

COUNT = 30

SHARDED = DirectorySpec(backend="sharded", nodes=3, replication=2)


def _stream_program(done):
    def program(api, state):
        if api.rank == 0:
            seq_stream(api, state, dest=1, count=COUNT, pace=0.002,
                       poll=True)
        else:
            seq_check(api, state, src=0, count=COUNT, pace=0.003, poll=True)
            done["got"] = state["got"]
    return program


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11, 42, 1234])
def test_receiver_migrates_lossy_sharded_directory(make_vm, seed):
    """5% drop + 5% dup on *all* control traffic, shard daemons included:
    the stream arrives exactly once, in order."""
    vm = make_vm(FaultPlan.lossy(seed, drop=0.05, dup=0.05))
    done = {}
    app = hardened_app(vm, _stream_program(done), ["h0", "h1"], seed=seed,
                       directory=SHARDED)
    app.start()
    app.migrate_at(0.03, rank=1, dest_host="h3")
    app.run()
    assert done["got"] == list(range(COUNT))
    check_invariants(vm, app, expect_migrations=1).raise_if_failed()
    assert vm.fault_stats.examined > 0


@pytest.mark.parametrize("seed", [5, 17, 99])
def test_sender_migrates_lossy_jittery_sharded_directory(make_vm, seed):
    """The *sender* moves: drops, dups and jitter on its lookups and on
    the published updates must only slow it down, never break the
    stream."""
    vm = make_vm(FaultPlan.lossy(seed, drop=0.06, dup=0.06,
                                 delay=0.2, delay_max=0.01))
    done = {}
    app = hardened_app(vm, _stream_program(done), ["h0", "h1"], seed=seed,
                       directory=SHARDED)
    app.start()
    app.migrate_at(0.03, rank=0, dest_host="h3")
    app.run()
    assert done["got"] == list(range(COUNT))
    check_invariants(vm, app, expect_migrations=1).raise_if_failed()


@pytest.mark.parametrize("seed", [1, 3, 13, 42, 101])
def test_simultaneous_pair_migration_lossy_sharded(make_vm, seed):
    """Theorem 4's acceptance bar with the sharded backend: both peers
    migrate at the same instant under 5% drop + 5% dup."""
    vm = make_vm(FaultPlan.lossy(seed, drop=0.05, dup=0.05))
    done = {}

    def program(api, state):
        peer = 1 - api.rank
        i = state.get("i", 0)
        got = state.setdefault("got", [])
        while i < COUNT:
            api.send(peer, ("seq", i))
            assert api.recv(src=peer).body == ("seq", i)
            got.append(i)
            i += 1
            state["i"] = i
            api.compute(0.002)
            api.poll_migration(state)
        done[api.rank] = got

    app = hardened_app(vm, program, ["h0", "h1"], seed=seed,
                       directory=SHARDED)
    app.start()
    app.migrate_at(0.02, rank=0, dest_host="h3")
    app.migrate_at(0.02, rank=1, dest_host="h4")
    app.run()
    assert done[0] == list(range(COUNT))
    assert done[1] == list(range(COUNT))
    check_invariants(vm, app, expect_migrations=2).raise_if_failed()
    assert vm.fault_stats.examined > 0


@pytest.mark.parametrize("seed", [4, 21])
def test_ring_staggered_migrations_lossy_sharded(make_vm, seed):
    """All ranks of a token ring migrate while shard daemons field the
    lookups under 8% drop + 8% dup with jitter."""
    nranks, rounds = 4, 20
    vm = make_vm(FaultPlan.lossy(seed, drop=0.08, dup=0.08,
                                 delay=0.15, delay_max=0.005))
    sums = {}

    def program(api, state):
        right = (api.rank + 1) % api.size
        left = (api.rank - 1) % api.size
        i = state.get("i", 0)
        total = state.get("total", 0)
        token = state.get("token", api.rank)
        while i < rounds:
            api.send(right, token)
            token = api.recv(src=left).body
            total += token
            i += 1
            state.update(i=i, total=total, token=token)
            api.compute(0.002)
            api.poll_migration(state)
        sums[api.rank] = total

    app = hardened_app(vm, program, ["h0", "h1", "h2", "h3"],
                       scheduler_host="h4", seed=seed, directory=SHARDED)
    app.start()
    for r in range(nranks):
        app.migrate_at(0.01 + 0.01 * r, rank=r, dest_host="h5")
    app.run()
    expected = sum(range(nranks)) * (rounds // nranks)
    assert all(s == expected for s in sums.values())
    check_invariants(vm, app, expect_migrations=nranks).raise_if_failed()


@pytest.mark.parametrize("seed", [9, 27])
def test_directory_replicas_converge_after_lossy_run(make_vm, seed):
    """After quiescence every owner shard holds the scheduler's final
    record, even though the publish channel was lossy throughout."""
    vm = make_vm(FaultPlan.lossy(seed, drop=0.07, dup=0.07))
    done = {}
    app = hardened_app(vm, _stream_program(done), ["h0", "h1"], seed=seed,
                       directory=SHARDED)
    app.start()
    app.migrate_at(0.03, rank=1, dest_host="h3")
    app.run()
    check_invariants(vm, app, expect_migrations=1).raise_if_failed()
    cluster = app.directory_cluster
    for rank in (0, 1):
        authoritative = app.scheduler_state.directory.record(rank)
        for node in cluster.topology.owners(rank):
            assert cluster.records_for(rank)[node] == authoritative
