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

from dataclasses import dataclass, field
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
from repro.core.gang import ADMIT, GangAdmission
from repro.core.pltable import PLTable
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
class MigrationRecord:
    """Bookkeeping for one migration (scheduler's records)."""

    rank: Rank
    dest_host: str
    old_vmid: VmId | None = None
    new_vmid: VmId | None = None
    t_request: float = 0.0
    t_signalled: float = 0.0
    t_start: float = 0.0
    t_restored: float = 0.0
    t_committed: float = 0.0
    #: the rank finished before the migration could start
    aborted: bool = False
    #: causal trace id stitching every span of this migration (minted
    #: deterministically by the scheduler: ``sim-r<rank>-<n>``)
    trace_id: str | None = None

    @property
    def completed(self) -> bool:
        return self.t_committed > 0.0

    @property
    def duration(self) -> float:
        """migration_start → restore_complete (the paper's Migrate row)."""
        return self.t_restored - self.t_start


@dataclass
class SchedulerState:
    """Shared state between the scheduler process and the launcher.

    ``spawn_initialized`` is injected by the application launcher: it
    performs process initialization (spawning the migration-enabled
    executable on the destination) and returns the new process's vmid.

    The master PL table, rank statuses and init designations live in a
    :class:`~repro.directory.base.CentralizedDirectory` (``directory``):
    the scheduler is the directory's single writer, and with a
    distributed backend configured every mutation is also pushed to the
    directory daemons through ``publisher``. ``status`` and ``init_vmid``
    remain available as live dict views for callers and tests.
    """

    pl: PLTable
    spawn_initialized: Callable[[Rank, str], VmId]
    directory: CentralizedDirectory | None = None
    #: pushes every directory mutation to the distributed backend's
    #: daemon nodes; ``None`` for the centralized backend (no daemons)
    publisher: "DirectoryPublisher | None" = None
    migrations: list[MigrationRecord] = field(default_factory=list)
    lookups_served: int = 0
    #: how many times an aborted migration is re-requested per rank
    migration_retry_limit: int = 2
    #: aborted-and-retried counts, per rank
    abort_retries: dict[Rank, int] = field(default_factory=dict)
    #: overlapping-window admission: same-rank requests queue, others
    #: overlap up to the configured concurrency (1 = serialized)
    admission: GangAdmission = field(default_factory=GangAdmission)

    def __post_init__(self) -> None:
        if self.directory is None:
            self.directory = CentralizedDirectory(pl=self.pl)

    @property
    def status(self) -> dict[Rank, str]:
        """Live view of each rank's execution status (directory-backed)."""
        return self.directory.status

    @property
    def init_vmid(self) -> dict[Rank, VmId]:
        """Live view of designated initialized processes (directory-backed)."""
        return self.directory.init_vmid

    def current_record(self, rank: Rank) -> MigrationRecord:
        for rec in reversed(self.migrations):
            if rec.rank == rank and not rec.completed and not rec.aborted:
                return rec
        raise LookupError(f"no open migration record for rank {rank}")


def _publish(ctx: ProcessContext, state: SchedulerState,
             record: LocationRecord) -> None:
    """Push a freshly written record to the directory daemons, if any."""
    if state.publisher is not None:
        state.publisher.publish(ctx, record)


def _open_window(ctx: ProcessContext, state: SchedulerState,
                 rank: Rank, dest_host: str) -> None:
    """Open one migration window: spawn the initialized process on the
    destination and signal the migrating process. The caller has already
    passed the request through admission."""
    vm = ctx.vm
    rec = MigrationRecord(
        rank=rank, dest_host=dest_host,
        t_request=ctx.kernel.now,
        trace_id=f"sim-r{rank}-{len(state.migrations)}")
    state.migrations.append(rec)
    # Process initialization: remote invocation of the
    # migration-enabled executable on the destination machine.
    ctx.burn(PROCESS_INIT_COST)
    new_vmid = state.spawn_initialized(rank, dest_host)
    _publish(ctx, state,
             state.directory.designate_init(rank, new_vmid))
    rec.new_vmid = new_vmid
    vm.trace_record(ctx.name, "initialized_process_spawned",
                    rank=rank, vmid=str(new_vmid), host=dest_host)
    # Now instruct the migrating process.
    target = state.pl.lookup(rank)
    ctx.send_signal(target, SIG_MIGRATE)
    rec.t_signalled = ctx.kernel.now
    vm.trace_record(ctx.name, "migration_signalled", rank=rank,
                    target=str(target))


def _dispatch_admitted(ctx: ProcessContext, state: SchedulerState,
                       admitted: list) -> None:
    """Open windows for queued requests that admission just released.

    A rank that stopped running while it sat in the queue is dropped —
    and dropping it closes its just-granted window, which may in turn
    release further queued requests.
    """
    for rank, dest_host in admitted:
        if state.status.get(rank) != STATUS_RUNNING:
            ctx.vm.trace_record(ctx.name, "migrate_request_ignored",
                                rank=rank, status=state.status.get(rank))
            _dispatch_admitted(ctx, state, state.admission.complete(rank))
            continue
        ctx.vm.trace_record(ctx.name, "migration_dequeued", rank=rank,
                            dest=dest_host)
        _open_window(ctx, state, rank, dest_host)


def scheduler_main(ctx: ProcessContext, state: SchedulerState) -> None:
    """Event loop of the scheduler process (spawned as a daemon)."""
    vm = ctx.vm
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
            status = state.status.get(msg.rank)
            if status not in (STATUS_RUNNING, STATUS_MIGRATING):
                vm.trace_record(ctx.name, "migrate_request_ignored",
                                rank=msg.rank, status=status)
                continue
            verdict = state.admission.request(msg.rank, msg.dest_host)
            if verdict != ADMIT:
                # Same-rank conflict or the concurrency cap: parked
                # until an open window closes (the queued-conflict case
                # in docs/protocol.md).
                vm.trace_record(ctx.name, "migration_queued",
                                rank=msg.rank, dest=msg.dest_host,
                                verdict=verdict,
                                depth=state.admission.depth)
                continue
            _open_window(ctx, state, msg.rank, msg.dest_host)

        elif isinstance(msg, MigrationStart):
            # Idempotent: a retransmit (its reply was lost) is answered
            # with the same NewProcessReply without disturbing the record.
            try:
                rec = state.current_record(msg.rank)
            except LookupError:
                # Outlived its migration (completed or aborted): the
                # sender has moved on; nothing to coordinate.
                vm.trace_record(ctx.name, "scheduler_dup_ignored",
                                msg="MigrationStart", rank=msg.rank)
                continue
            if state.status.get(msg.rank) != STATUS_MIGRATING:
                _publish(ctx, state, state.directory.begin_migration(msg.rank))
                rec.old_vmid = msg.old_vmid
                rec.t_start = ctx.kernel.now
            new_vmid = state.init_vmid.get(msg.rank, rec.new_vmid)
            ctx.route_control(item.src_vmid,
                              NewProcessReply(msg.rank, new_vmid,
                                              trace_id=rec.trace_id))
            vm.trace_record(ctx.name, "migration_start_acked", rank=msg.rank)

        elif isinstance(msg, RestoreComplete):
            # Idempotent per (rank, new_vmid): duplicates just get the
            # current PL snapshot again.
            rec = next((r for r in reversed(state.migrations)
                        if r.rank == msg.rank
                        and r.new_vmid == msg.new_vmid), None)
            if rec is None or rec.aborted:
                vm.trace_record(ctx.name, "scheduler_dup_ignored",
                                msg="RestoreComplete", rank=msg.rank)
                continue
            if rec.t_restored == 0.0:
                rec.t_restored = ctx.kernel.now
                _publish(ctx, state,
                         state.directory.commit_migration(msg.rank,
                                                          msg.new_vmid))
                vm.trace_record(ctx.name, "restore_complete", rank=msg.rank,
                                new_vmid=str(msg.new_vmid))
            else:
                vm.trace_record(ctx.name, "scheduler_dup_reack",
                                msg="RestoreComplete", rank=msg.rank)
            ctx.route_control(
                item.src_vmid,
                PLSnapshot(rank=msg.rank, table=state.pl.snapshot(),
                           old_vmid=rec.old_vmid))

        elif isinstance(msg, MigrationCommit):
            # Idempotent per (rank, sender): the committing process is
            # the initialized process of exactly one window. Matching on
            # the rank alone would let a duplicate, arriving after a
            # queued same-rank window opened, commit and close *that*
            # window — its MigrationStart would never be answered.
            rec = next((r for r in reversed(state.migrations)
                        if r.rank == msg.rank
                        and r.new_vmid == item.src_vmid), None)
            if rec is not None and not rec.completed and not rec.aborted:
                rec.t_committed = ctx.kernel.now
                vm.trace_record(ctx.name, "migration_committed",
                                rank=msg.rank)
                _dispatch_admitted(ctx, state,
                                   state.admission.complete(msg.rank))
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
            # the migration request. Idempotent: a duplicate abort finds
            # the status already reverted and is simply re-acked.
            if state.status.get(msg.rank) == STATUS_MIGRATING \
                    or msg.rank in state.init_vmid:
                pending = state.init_vmid.get(msg.rank)
                _publish(ctx, state, state.directory.abort_migration(msg.rank))
                try:
                    rec = state.current_record(msg.rank)
                    rec.aborted = True
                    dest_host = rec.dest_host
                except LookupError:
                    dest_host = None
                if pending is not None:
                    ctx.route_control(
                        pending, InitAbort(rank=msg.rank,
                                           reason="migration-aborted"))
                vm.trace_record(ctx.name, "migration_aborted",
                                rank=msg.rank, reason=msg.reason,
                                init=str(pending) if pending else None)
                retries = state.abort_retries.get(msg.rank, 0)
                if dest_host is not None \
                        and retries < state.migration_retry_limit:
                    state.abort_retries[msg.rank] = retries + 1
                    ctx.mailbox.put(ControlEnvelope(
                        src_vmid=ctx.vmid,
                        msg=MigrateRequest(rank=msg.rank,
                                           dest_host=dest_host)))
                    vm.trace_record(ctx.name, "migration_retry_queued",
                                    rank=msg.rank, attempt=retries + 1)
                _dispatch_admitted(ctx, state,
                                   state.admission.complete(msg.rank))
            else:
                vm.trace_record(ctx.name, "scheduler_dup_reack",
                                msg="MigrationAbort", rank=msg.rank)
            ctx.route_control(item.src_vmid,
                              SchedulerAck("migration_abort", msg.rank))

        elif isinstance(msg, TerminateNotice):
            # If a migration was pending for this rank but its process
            # finished first, release the waiting initialized process.
            pending = state.init_vmid.get(msg.rank)
            _publish(ctx, state, state.directory.terminate(msg.rank))
            vm.trace_record(ctx.name, "rank_terminated", rank=msg.rank)
            if pending is not None:
                try:
                    rec = state.current_record(msg.rank)
                    rec.aborted = True
                except LookupError:
                    pass
                ctx.route_control(pending, InitAbort(rank=msg.rank))
                vm.trace_record(ctx.name, "migration_aborted",
                                rank=msg.rank, init=str(pending))
            _dispatch_admitted(ctx, state,
                               state.admission.cancel(msg.rank))
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
