"""Unit tests for the centralized scheduler's protocol handling."""

from __future__ import annotations

import pytest

from repro.core.messages import (
    LookupReply,
    LookupRequest,
    MigrateRequest,
    TerminateNotice,
)
from repro.core.gang import GangAdmission
from repro.core.messages import MigrationCommit
from repro.core.pltable import PLTable
from repro.core.scheduler import (
    STATUS_RUNNING,
    STATUS_TERMINATED,
    MigrationRecord,
    SchedulerState,
    scheduler_main,
)
from repro.vm import VirtualMachine, VmId
from repro.vm.messages import ControlEnvelope


@pytest.fixture
def env(kernel):
    vm = VirtualMachine(kernel)
    for h in ("h0", "h1"):
        vm.add_host(h)
    pl = PLTable()
    spawned = []

    def spawn_init(rank, host):
        vmid = VmId(host, 99 + len(spawned))
        spawned.append((rank, host, vmid))
        return vmid

    state = SchedulerState(pl=pl, spawn_initialized=spawn_init)
    sched = vm.spawn("h0", scheduler_main, state, name="scheduler",
                     daemon=True)
    return vm, pl, state, sched, spawned


def _client(vm, host, fn):
    """Spawn a probe process running fn(ctx) and drive the sim."""
    vm.spawn(host, fn, name="probe")
    vm.run()


def test_lookup_running(env):
    vm, pl, state, sched, _ = env
    pl.update(3, VmId("h1", 5))
    state.status[3] = STATUS_RUNNING
    replies = []

    def probe(ctx):
        ctx.route_control(sched.vmid, LookupRequest(3, ctx.vmid, token=1))
        replies.append(ctx.next_message().msg)

    _client(vm, "h1", probe)
    (r,) = replies
    assert isinstance(r, LookupReply)
    assert r.status == "running" and r.vmid == VmId("h1", 5)
    assert state.lookups_served == 1


def test_lookup_unknown_rank_is_terminated(env):
    vm, pl, state, sched, _ = env
    replies = []

    def probe(ctx):
        ctx.route_control(sched.vmid, LookupRequest(9, ctx.vmid, token=2))
        replies.append(ctx.next_message().msg)

    _client(vm, "h1", probe)
    assert replies[0].status == "terminated" and replies[0].vmid is None


def test_migrate_request_spawns_and_signals(env):
    vm, pl, state, sched, spawned = env
    signals = []

    def target(ctx):
        ctx.on_signal("SIG_MIGRATE", lambda: signals.append("got"))
        pl.update(0, ctx.vmid)
        state.status[0] = STATUS_RUNNING
        sched.mailbox.put(ControlEnvelope(
            VmId("user", 0), MigrateRequest(rank=0, dest_host="h1")))
        ctx.compute(0.1)

    vm.spawn("h1", target, name="target", rank=0)
    vm.run()
    assert spawned == [(0, "h1", VmId("h1", 99))]
    assert signals == ["got"]
    assert state.directory.init_vmid[0] == VmId("h1", 99)
    assert len(state.migrations) == 1


def test_migrate_request_for_non_running_rank_ignored(env):
    vm, pl, state, sched, spawned = env
    state.status[0] = STATUS_TERMINATED

    def probe(ctx):
        sched.mailbox.put(ControlEnvelope(
            VmId("user", 0), MigrateRequest(rank=0, dest_host="h1")))
        ctx.compute(0.05)

    _client(vm, "h1", probe)
    assert spawned == []
    assert state.migrations == []


def test_duplicate_migrate_request_ignored(env):
    vm, pl, state, sched, spawned = env

    def target(ctx):
        pl.update(0, ctx.vmid)
        state.status[0] = STATUS_RUNNING
        for _ in range(2):
            sched.mailbox.put(ControlEnvelope(
                VmId("user", 0), MigrateRequest(rank=0, dest_host="h1")))
        ctx.compute(0.1)

    vm.spawn("h1", target, name="target", rank=0)
    vm.run()
    assert len(spawned) == 1
    assert len(state.migrations) == 1


# -- gang admission: concurrent windows ----------------------------------

def _running_rank(pl, state, rank, duration=0.1):
    """A target process that registers itself as a running rank."""

    def run(ctx):
        pl.update(rank, ctx.vmid)
        state.status[rank] = STATUS_RUNNING
        ctx.compute(duration)

    return run


def test_distinct_rank_windows_overlap(env):
    """Unbounded admission: two requests for different ranks both open
    immediately — neither waits for the other's commit."""
    vm, pl, state, sched, spawned = env

    def probe(ctx):
        ctx.compute(0.01)  # let both targets register
        for rank in (0, 1):
            sched.mailbox.put(ControlEnvelope(
                VmId("user", 0), MigrateRequest(rank=rank, dest_host="h1")))
        ctx.compute(0.05)

    vm.spawn("h0", _running_rank(pl, state, 0), name="t0", rank=0)
    vm.spawn("h1", _running_rank(pl, state, 1), name="t1", rank=1)
    vm.spawn("h1", probe, name="probe")
    vm.run()
    assert sorted(r for r, _, _ in spawned) == [0, 1]
    assert len(state.migrations) == 2
    # both windows are simultaneously open: no commit ever arrived
    assert sorted(state.windows.admission.inflight) == [0, 1]
    assert not any(e.kind == "migration_queued" for e in vm.trace.events)


def test_concurrency_cap_queues_then_dispatches_on_commit(env):
    """concurrency=1: the second rank's request parks in the admission
    queue and opens only when the first window commits."""
    vm, pl, state, sched, spawned = env
    state.windows.admission = GangAdmission(concurrency=1)

    def probe(ctx):
        ctx.compute(0.01)
        for rank in (0, 1):
            sched.mailbox.put(ControlEnvelope(
                VmId("user", 0), MigrateRequest(rank=rank, dest_host="h1")))
        ctx.compute(0.02)
        assert [r for r, _, _ in spawned] == [0]  # cap held rank 1 back
        # the commit comes from the window's initialized process
        sched.mailbox.put(ControlEnvelope(
            spawned[0][2], MigrationCommit(rank=0)))
        ctx.compute(0.02)

    vm.spawn("h0", _running_rank(pl, state, 0), name="t0", rank=0)
    vm.spawn("h1", _running_rank(pl, state, 1), name="t1", rank=1)
    vm.spawn("h1", probe, name="probe")
    vm.run()
    assert [r for r, _, _ in spawned] == [0, 1]
    queued = [e for e in vm.trace.events if e.kind == "migration_queued"]
    assert len(queued) == 1
    assert queued[0].detail["rank"] == 1
    assert queued[0].detail["verdict"] == "queued"
    dequeued = [e for e in vm.trace.events
                if e.kind == "migration_dequeued"]
    assert len(dequeued) == 1 and dequeued[0].detail["rank"] == 1
    # FIFO: the queue only opened after rank 0's commit
    commit = next(e for e in vm.trace.events
                  if e.kind == "migration_committed")
    assert dequeued[0].time >= commit.time


def test_queued_request_dropped_when_rank_stops_running(env):
    """A rank that stops running while parked in the admission queue is
    dropped at dispatch instead of opening a dead window."""
    vm, pl, state, sched, spawned = env
    state.windows.admission = GangAdmission(concurrency=1)

    def probe(ctx):
        ctx.compute(0.01)
        for rank in (0, 1):
            sched.mailbox.put(ControlEnvelope(
                VmId("user", 0), MigrateRequest(rank=rank, dest_host="h1")))
        ctx.compute(0.02)
        state.status[1] = STATUS_TERMINATED  # dies while queued
        sched.mailbox.put(ControlEnvelope(
            spawned[0][2], MigrationCommit(rank=0)))
        ctx.compute(0.02)

    vm.spawn("h0", _running_rank(pl, state, 0), name="t0", rank=0)
    vm.spawn("h1", _running_rank(pl, state, 1), name="t1", rank=1)
    vm.spawn("h1", probe, name="probe")
    vm.run()
    assert [r for r, _, _ in spawned] == [0]
    ignored = [e for e in vm.trace.events
               if e.kind == "migrate_request_ignored"]
    assert any(e.detail["rank"] == 1 for e in ignored)
    admission = state.windows.admission
    assert not admission.inflight and not admission.pending


def test_duplicate_commit_does_not_close_queued_same_rank_window(env):
    """Two same-instant requests for one rank: the second queues and
    opens when the first commits. A duplicate of that commit (5 % dup
    plan, or a retransmit whose ack was lost) belongs to the *first*
    window's initialized process — it must not commit and close the
    second window, whose MigrationStart would then go unanswered until
    the retry budget ran out (the failure pinned by ``@example`` in
    tests/property/test_directory_props.py)."""
    vm, pl, state, sched, spawned = env

    def probe(ctx):
        ctx.compute(0.01)
        for _ in range(2):
            sched.mailbox.put(ControlEnvelope(
                VmId("user", 0), MigrateRequest(rank=0, dest_host="h1")))
        ctx.compute(0.02)
        assert len(spawned) == 1  # second request queued behind the first
        first = spawned[0][2]
        sched.mailbox.put(ControlEnvelope(first, MigrationCommit(rank=0)))
        ctx.compute(0.02)
        assert len(spawned) == 2  # dequeued on commit
        sched.mailbox.put(ControlEnvelope(first, MigrationCommit(rank=0)))
        ctx.compute(0.02)

    vm.spawn("h0", _running_rank(pl, state, 0), name="t0", rank=0)
    vm.spawn("h1", probe, name="probe")
    vm.run()
    first, second = state.migrations
    assert first.completed and not second.completed
    assert state.windows.current(0) is second
    assert list(state.windows.admission.inflight) == [0]
    assert sum(e.kind == "migration_committed"
               for e in vm.trace.events) == 1
    assert any(e.kind == "scheduler_dup_reack" for e in vm.trace.events)


def test_terminate_notice_marks_rank(env):
    vm, pl, state, sched, _ = env
    state.status[2] = STATUS_RUNNING

    def probe(ctx):
        ctx.route_control(sched.vmid, TerminateNotice(2))
        ctx.compute(0.05)

    _client(vm, "h1", probe)
    assert state.status[2] == STATUS_TERMINATED


def test_migration_record_properties():
    rec = MigrationRecord(rank=1, dest_host="x", t_start=2.0,
                          t_restored=5.0, t_committed=5.5)
    assert rec.completed
    assert rec.duration == pytest.approx(3.0)
    assert not MigrationRecord(rank=1, dest_host="x").completed


def test_current_record_skips_closed_and_aborted():
    state = SchedulerState(pl=PLTable(), spawn_initialized=lambda r, h: None)
    done = MigrationRecord(rank=0, dest_host="a", t_committed=1.0)
    aborted = MigrationRecord(rank=0, dest_host="b", aborted=True)
    open_rec = MigrationRecord(rank=0, dest_host="c")
    state.migrations.extend([done, aborted, open_rec])
    assert state.windows.current(0) is open_rec
    assert state.windows.current(5) is None
