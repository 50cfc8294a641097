"""The centralized scheduler (paper Sections 2 and 3).

The scheduler is a (daemon) process in the virtual machine that

1. keeps track of hosts and application processes (the master PL table and
   each rank's execution status),
2. provides the lookup service that ``connect()`` consults after a
   connection rejection — location updates are therefore strictly
   *on demand*, never broadcast,
3. coordinates process migration: on a user migration request it performs
   *process initialization* (remotely invoking the migration-enabled
   executable on the destination) and then signals the migrating process;
   it answers ``migration_start`` with the initialized process's vmid,
   installs the new location at ``restore_complete``, and books the
   ``migration_commit``.

The paper notes the scheduler could equally be distributed (DNS/LDAP/
Chord-style); a centralized one is used "for the sake of simplicity" and
that is what we reproduce. The lookup *protocol* is what matters to the
communication state transfer, not the directory's internal structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.messages import (
    InitAbort,
    LookupRequest,
    MigrateRequest,
    MigrationAbort,
    MigrationCommit,
    MigrationStart,
    NewProcessReply,
    PLSnapshot,
    RestoreComplete,
    SchedulerAck,
    SIG_MIGRATE,
    TerminateNotice,
)
from repro.core.gang import ADMIT
from repro.core.pltable import PLTable
from repro.core.windows import IGNORED, MigrationRecord, Step, Windows
from repro.directory.base import CentralizedDirectory, LocationRecord
from repro.directory.messages import DirRetransmitTick, DirUpdateAck
from repro.directory.shard import reply_for
from repro.vm.ids import Rank, VmId
from repro.vm.messages import ControlEnvelope
from repro.vm.process import ProcessContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.directory.daemons import DirectoryPublisher

__all__ = ["SchedulerState", "MigrationRecord", "scheduler_main",
           "STATUS_RUNNING", "STATUS_MIGRATING", "STATUS_TERMINATED"]

STATUS_RUNNING = "running"
STATUS_MIGRATING = "migrating"
STATUS_TERMINATED = "terminated"

#: CPU cost (reference seconds) of remotely invoking the migration-enabled
#: executable on the destination host (process initialization).
PROCESS_INIT_COST = 5e-3


@dataclass
class SchedulerState:
    """Shared state between the scheduler process and the launcher.

    ``spawn_initialized`` is injected by the application launcher: it
    performs process initialization (spawning the migration-enabled
    executable on the destination) and returns the new process's vmid.

    Every record, window and admission decision belongs to ``windows``
    (:class:`~repro.core.windows.Windows`, over the master PL table):
    the scheduler only drives it. With a distributed backend configured
    every record it writes is also pushed to the directory daemons
    through ``publisher``. ``directory``, ``status`` and ``migrations``
    are live views for callers and tests.
    """

    pl: PLTable
    spawn_initialized: Callable[[Rank, str], VmId]
    windows: Windows | None = None
    #: pushes every directory mutation to the distributed backend's
    #: daemon nodes; ``None`` for the centralized backend (no daemons)
    publisher: "DirectoryPublisher | None" = None
    lookups_served: int = 0

    def __post_init__(self) -> None:
        if self.windows is None:
            self.windows = Windows(CentralizedDirectory(pl=self.pl))

    @property
    def directory(self) -> CentralizedDirectory:
        return self.windows.directory

    @property
    def status(self) -> dict[Rank, str]:
        """Live view of each rank's execution status (directory-backed)."""
        return self.directory.status

    @property
    def migrations(self) -> list[MigrationRecord]:
        return self.windows.records


def _publish(ctx: ProcessContext, state: SchedulerState,
             record: LocationRecord | None) -> None:
    """Push a freshly written record to the directory daemons, if any."""
    if state.publisher is not None and record is not None:
        state.publisher.publish(ctx, record)


def _open_window(ctx: ProcessContext, state: SchedulerState,
                 rec: MigrationRecord) -> None:
    """Open one admitted migration window: spawn the initialized
    process on the destination and signal the migrating process."""
    vm = ctx.vm
    rank = rec.rank
    rec.t_request = ctx.kernel.now
    rec.trace_id = f"sim-r{rank}-{state.migrations.index(rec)}"
    # Process initialization: remote invocation of the
    # migration-enabled executable on the destination machine.
    ctx.burn(PROCESS_INIT_COST)
    new_vmid = state.spawn_initialized(rank, rec.dest_host)
    _publish(ctx, state, state.windows.designate(rank, new_vmid))
    vm.trace_record(ctx.name, "initialized_process_spawned",
                    rank=rank, vmid=str(new_vmid), host=rec.dest_host)
    # Now instruct the migrating process.
    target = state.pl.lookup(rank)
    ctx.send_signal(target, SIG_MIGRATE)
    vm.trace_record(ctx.name, "migration_signalled", rank=rank,
                    target=str(target))


def _dispatch(ctx: ProcessContext, state: SchedulerState,
              step: Step) -> None:
    """Open the windows of the queued requests *step* admitted; trace
    the ones dropped because their rank stopped running."""
    for rank, rec in step.admitted:
        if rec is None:
            ctx.vm.trace_record(ctx.name, "migrate_request_ignored",
                                rank=rank, status=state.status.get(rank))
            continue
        ctx.vm.trace_record(ctx.name, "migration_dequeued", rank=rank,
                            dest=rec.dest_host)
        _open_window(ctx, state, rec)


def scheduler_main(ctx: ProcessContext, state: SchedulerState) -> None:
    """Event loop of the scheduler process (spawned as a daemon)."""
    vm = ctx.vm
    windows = state.windows
    while True:
        item = ctx.next_message()
        if not isinstance(item, ControlEnvelope):
            vm.trace_record(ctx.name, "scheduler_ignored",
                            item=type(item).__name__)
            continue
        msg = item.msg

        if isinstance(msg, LookupRequest):
            state.lookups_served += 1
            # the shards' reply ladder over the authoritative record (an
            # unknown rank's record reads terminated)
            reply = reply_for(msg.rank, state.directory.record(msg.rank),
                              msg.token)
            vm.trace_record(ctx.name, "lookup_served", rank=msg.rank,
                            status=reply.status)
            ctx.route_control(msg.reply_to, reply)

        elif isinstance(msg, MigrateRequest):
            verdict, rec = windows.request(msg.rank, msg.dest_host)
            if verdict == IGNORED:
                vm.trace_record(ctx.name, "migrate_request_ignored",
                                rank=msg.rank,
                                status=state.status.get(msg.rank))
            elif verdict != ADMIT:
                # Same-rank conflict or the concurrency cap: parked
                # until an open window closes (the queued-conflict case
                # in docs/protocol.md).
                vm.trace_record(ctx.name, "migration_queued",
                                rank=msg.rank, dest=msg.dest_host,
                                verdict=verdict,
                                depth=windows.admission.depth)
            else:
                _open_window(ctx, state, rec)

        elif isinstance(msg, MigrationStart):
            # Idempotent: a retransmit (its reply was lost) is answered
            # with the same NewProcessReply without disturbing the record.
            step = windows.start(msg.rank, ctx.kernel.now)
            if step.window is None:
                # Outlived its migration (completed or aborted): the
                # sender has moved on; nothing to coordinate.
                vm.trace_record(ctx.name, "scheduler_dup_ignored",
                                msg="MigrationStart", rank=msg.rank)
                continue
            _publish(ctx, state, step.publish)
            ctx.route_control(item.src_vmid,
                              NewProcessReply(msg.rank, step.window.new_vmid,
                                              trace_id=step.window.trace_id))
            vm.trace_record(ctx.name, "migration_start_acked", rank=msg.rank)

        elif isinstance(msg, RestoreComplete):
            # Idempotent per (rank, new_vmid): duplicates just get the
            # current PL snapshot again.
            step = windows.restored(msg.rank, msg.new_vmid, ctx.kernel.now)
            if step.window is None:
                vm.trace_record(ctx.name, "scheduler_dup_ignored",
                                msg="RestoreComplete", rank=msg.rank)
                continue
            if step.publish is not None:
                _publish(ctx, state, step.publish)
                vm.trace_record(ctx.name, "restore_complete", rank=msg.rank,
                                new_vmid=str(msg.new_vmid))
            else:
                vm.trace_record(ctx.name, "scheduler_dup_reack",
                                msg="RestoreComplete", rank=msg.rank)
            ctx.route_control(
                item.src_vmid,
                PLSnapshot(rank=msg.rank, table=state.pl.snapshot(),
                           old_vmid=step.window.old_vmid))

        elif isinstance(msg, MigrationCommit):
            # Idempotent per (rank, sender): the committing process is
            # the initialized process of exactly one window.
            step = windows.close(msg.rank, item.src_vmid, ctx.kernel.now)
            if step.window is not None:
                vm.trace_record(ctx.name, "migration_committed",
                                rank=msg.rank)
                _dispatch(ctx, state, step)
            else:
                vm.trace_record(ctx.name, "scheduler_dup_reack",
                                msg="MigrationCommit", rank=msg.rank)
            if msg.ack:
                ctx.route_control(item.src_vmid,
                                  SchedulerAck("migration_commit", msg.rank))

        elif isinstance(msg, MigrationAbort):
            # The migrating process gave up on its drain and reverted to
            # normal execution at its old vmid. Release the waiting
            # initialized process and, within the retry budget, re-issue
            # the migration request. A duplicate abort is re-acked.
            step = windows.abort(msg.rank)
            if step is not None:
                _publish(ctx, state, step.publish)
                if step.release is not None:
                    ctx.route_control(
                        step.release, InitAbort(rank=msg.rank,
                                                reason="migration-aborted"))
                vm.trace_record(ctx.name, "migration_aborted",
                                rank=msg.rank, reason=msg.reason,
                                init=(str(step.release) if step.release
                                      else None))
                if step.retry:
                    ctx.mailbox.put(ControlEnvelope(
                        src_vmid=ctx.vmid,
                        msg=MigrateRequest(rank=msg.rank,
                                           dest_host=step.window.dest_host)))
                    vm.trace_record(ctx.name, "migration_retry_queued",
                                    rank=msg.rank, attempt=step.retry)
                _dispatch(ctx, state, step)
            else:
                vm.trace_record(ctx.name, "scheduler_dup_reack",
                                msg="MigrationAbort", rank=msg.rank)
            ctx.route_control(item.src_vmid,
                              SchedulerAck("migration_abort", msg.rank))

        elif isinstance(msg, TerminateNotice):
            # If a migration was pending for this rank but its process
            # finished first, release the waiting initialized process.
            step = windows.terminate(msg.rank)
            _publish(ctx, state, step.publish)
            vm.trace_record(ctx.name, "rank_terminated", rank=msg.rank)
            if step.release is not None:
                ctx.route_control(step.release, InitAbort(rank=msg.rank))
                vm.trace_record(ctx.name, "migration_aborted",
                                rank=msg.rank, init=str(step.release))
            _dispatch(ctx, state, step)
            if msg.ack:
                ctx.route_control(item.src_vmid,
                                  SchedulerAck("terminate", msg.rank))

        elif isinstance(msg, DirUpdateAck):
            if state.publisher is not None:
                state.publisher.machine.on_ack(msg)

        elif isinstance(msg, DirRetransmitTick):
            if state.publisher is not None:
                state.publisher.on_tick(ctx)

        else:
            vm.trace_record(ctx.name, "scheduler_ignored",
                            item=type(msg).__name__)
