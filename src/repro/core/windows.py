"""The scheduler's bookkeeping as one pure machine that both runtimes drive.

The paper's centralized scheduler (Section 2; Figs. 3, 5 and 7) does
three jobs: it answers ``lookup`` from the process-location table, it
coordinates each migration from the user's request through
``migration_start`` and ``restore_complete`` to the commit, and it keeps
the books. :class:`Windows` owns all of it: the versioned rank records
(a :class:`~repro.directory.base.CentralizedDirectory` and its one
version counter), gang admission
(:class:`~repro.core.gang.GangAdmission`), the record of every
migration window and the abort retry budget. The simulator's
``scheduler_main`` and the mp registry only feed it events and carry
out its answers (docs/protocol.md tabulates each transition and its
call sites). It performs no I/O, reads no clock, records no trace and
takes no lock: a driver passes in any timestamp it needs, and
Hypothesis drives it through arbitrary interleavings
(``tests/property/test_windows.py``). In mp, addresses stand in for
vmids.

A window opens when admission lets a request through, learns its
initialized process at ``designate``, starts at ``migration_start``,
restores at ``restore_complete`` and closes at the commit (mp closes at
``restore_complete``: it has no separate commit message). ``abort``,
``terminate`` and mp recovery's ``fail`` end it early. Every write
returns the versioned record to publish; whatever frees an admission
slot returns the queued requests it admits. There is one dispatch rule
for those: a request whose rank has terminated is dropped and its slot
freed. A rank that is recovering (mp) is not dropped: its window opens
once the replacement has committed, because the mp launcher opens a
window only on a running rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.gang import ADMIT, GangAdmission
from repro.directory.base import (
    STATUS_FAILED,
    STATUS_MIGRATING,
    STATUS_RUNNING,
    STATUS_TERMINATED,
    CentralizedDirectory,
    LocationRecord,
)
from repro.util.errors import ProtocolError
from repro.vm.ids import Rank

__all__ = ["IGNORED", "MigrationRecord", "Step", "Windows"]

#: the verdict on a request for a rank that is unknown or terminated
IGNORED = "ignored"


@dataclass
class MigrationRecord:
    """One migration window (the scheduler's records)."""

    rank: Rank
    dest_host: str
    old_vmid: object = None
    new_vmid: object = None
    #: when the driver opened the window (the sim's request time)
    t_request: float = 0.0
    t_start: float = 0.0
    t_restored: float = 0.0
    t_committed: float = 0.0
    #: ended before it committed: aborted, or its rank terminated or died
    aborted: bool = False
    #: causal trace id stitching every span of this migration
    trace_id: str | None = None

    @property
    def completed(self) -> bool:
        return self.t_committed > 0.0

    @property
    def duration(self) -> float:
        """migration_start → restore_complete (the paper's Migrate row)."""
        return self.t_restored - self.t_start


@dataclass
class Step:
    """What one transition asks of its driver."""

    #: the versioned record to push to the directory nodes
    publish: LocationRecord | None = None
    #: the window the transition acted on
    window: MigrationRecord | None = None
    #: an initialized process to release (it waits for a source that
    #: will never come)
    release: object = None
    #: queued requests this transition admitted, in FIFO order:
    #: ``(rank, window)``, or ``(rank, None)`` when the rank terminated
    #: while it was queued and the request was dropped
    admitted: list = field(default_factory=list)
    #: ``abort`` only: the attempt number of the re-request the driver
    #: issues, 0 when the retry budget is spent
    retry: int = 0


@dataclass
class Windows:
    """Rank records, migration windows and gang admission."""

    directory: CentralizedDirectory = field(
        default_factory=CentralizedDirectory)
    admission: GangAdmission = field(default_factory=GangAdmission)
    #: how many times an aborted migration is re-requested per rank
    retry_limit: int = 2
    #: every window ever opened, in the order admission opened them
    records: list = field(default_factory=list)
    #: aborted-and-retried counts, per rank
    retries: dict = field(default_factory=dict)

    # -- queries ---------------------------------------------------------

    def current(self, rank: Rank) -> MigrationRecord | None:
        """The rank's window that has neither committed nor ended."""
        for rec in reversed(self.records):
            if rec.rank == rank and not rec.completed and not rec.aborted:
                return rec
        return None

    def _window_of(self, rank: Rank, vmid) -> MigrationRecord | None:
        """The window whose initialized process is *vmid*."""
        if vmid is None:
            return None
        for rec in reversed(self.records):
            if rec.rank == rank and rec.new_vmid == vmid:
                return rec
        return None

    # -- transitions -----------------------------------------------------

    def install(self, rank: Rank, vmid) -> LocationRecord:
        """*rank* runs at *vmid* (launch, mp ``register``)."""
        return self.directory.install(rank, vmid)

    def designate(self, rank: Rank, vmid) -> LocationRecord:
        """The initialized process *vmid* exists for *rank*. A running
        rank's current window adopts it; a failed rank's is mp
        recovery's replacement, never a window's. A second one for a
        window is refused."""
        rec = self.current(rank)
        if rec is not None and rec.new_vmid is not None:
            raise ProtocolError(
                f"rank {rank}: its window already has the initialized "
                f"process {rec.new_vmid}")
        if rec is not None \
                and self.directory.status.get(rank) == STATUS_RUNNING:
            rec.new_vmid = vmid
        return self.directory.designate_init(rank, vmid)

    def request(self, rank: Rank, dest) -> tuple:
        """A user's migration request: ``(verdict, window)``.

        ``IGNORED`` for a rank that is unknown or terminated; otherwise
        admission's verdict, with the opened window on ``ADMIT``.
        """
        if self.directory.status.get(rank) in (None, STATUS_TERMINATED):
            return IGNORED, None
        verdict = self.admission.request(rank, dest)
        if verdict != ADMIT:
            return verdict, None
        return verdict, self._open(rank, dest)

    def start(self, rank: Rank, now: float) -> Step:
        """``migration_start``: lookups redirect to the initialized
        process from here on. No window, or one without an initialized
        process, is an empty step; a duplicate (or a start after the
        restore) returns the window and publishes nothing."""
        rec = self.current(rank)
        if rec is None or rec.new_vmid is None:
            return Step()
        if rec.t_start or rec.t_restored:
            return Step(window=rec)
        rec.old_vmid = self.directory.pl.get(rank)
        rec.t_start = now
        return Step(publish=self.directory.begin_migration(rank),
                    window=rec)

    def restored(self, rank: Rank, vmid, now: float) -> Step:
        """``restore_complete`` from *vmid*: the rank now lives there.

        Publishes only when *vmid* is the designated initialized
        process — a window's, or an mp recovery replacement's (no
        window). A duplicate returns its window and publishes nothing;
        a restore from an ended window is an empty step.
        """
        if vmid is not None and self.directory.init_vmid.get(rank) == vmid:
            rec = self.current(rank)
            if rec is not None and rec.new_vmid == vmid:
                rec.t_restored = now
            else:
                rec = None
            return Step(publish=self.directory.commit_migration(rank, vmid),
                        window=rec)
        rec = self._window_of(rank, vmid)
        if rec is None or rec.aborted:
            return Step()
        return Step(window=rec)

    def close(self, rank: Rank, vmid, now: float) -> Step:
        """The window whose initialized process is *vmid* committed:
        free its slot. Matching on the rank alone would let a duplicate
        commit of an earlier window close a queued same-rank window
        that opened since. A duplicate is an empty step."""
        rec = self._window_of(rank, vmid)
        if rec is None or rec.completed or rec.aborted:
            return Step()
        rec.t_committed = now
        return Step(window=rec,
                    admitted=self._dispatch(self.admission.complete(rank)))

    def abort(self, rank: Rank) -> Step | None:
        """The migrating process reverted to its old vmid (a drain that
        timed out), or the window's launch failed. ``None`` for a
        duplicate. Within the retry budget ``Step.retry`` asks the
        driver to re-request the window's destination."""
        rec = self.current(rank)
        if rec is not None and rec.new_vmid is None:
            # no initialized process ever registered: nothing to revert
            rec.aborted = True
            return Step(window=rec, admitted=self._dispatch(
                self.admission.complete(rank)))
        if not (self.directory.status.get(rank) == STATUS_MIGRATING
                or rank in self.directory.init_vmid):
            return None
        step = self._end(rank, rec, self.directory.abort_migration,
                         self.admission.complete)
        done = self.retries.get(rank, 0)
        if rec is not None and done < self.retry_limit:
            step.retry = self.retries[rank] = done + 1
        return step

    def terminate(self, rank: Rank) -> Step:
        """*rank* finished: a window that has not restored ends (its
        initialized process is released) and its queued request is
        dropped. Every notice is a write (a retransmitted one
        republishes)."""
        rec = self.current(rank)
        if rec is not None and rec.t_restored:
            rec = None  # restored: its commit may still arrive
        return self._end(rank, rec, self.directory.terminate,
                         self.admission.cancel)

    def fail(self, rank: Rank) -> Step:
        """mp recovery: *rank*'s process died. Its window (if any) ends
        — ``Step.window`` carries the interrupted trace — and its slot
        frees; a pending initialized process is released. The last
        address stays published until the replacement restores."""
        return self._end(rank, self.current(rank), self.directory.fail,
                         self.admission.complete)

    def recovering(self, rank: Rank) -> LocationRecord:
        """mp recovery: the replacement registered; lookups redirect to
        it, as they do between ``migration_start`` and restore."""
        if self.directory.status.get(rank) != STATUS_FAILED \
                or rank not in self.directory.init_vmid:
            raise ProtocolError(
                f"rank {rank}: no replacement registered for a failed rank")
        return self.directory.begin_migration(rank)

    # -- internals -------------------------------------------------------

    def _end(self, rank: Rank, rec, write, free) -> Step:
        """End window *rec* (if any) with the record *write* makes,
        releasing the designated process and freeing the slot."""
        release = self.directory.init_vmid.get(rank)
        if rec is not None:
            rec.aborted = True
        return Step(publish=write(rank), window=rec, release=release,
                    admitted=self._dispatch(free(rank)))

    def _open(self, rank: Rank, dest) -> MigrationRecord:
        rec = MigrationRecord(rank=rank, dest_host=dest)
        self.records.append(rec)
        return rec

    def _dispatch(self, admitted: list) -> list:
        """Open a window per admitted request; drop (and free the slot
        of) a rank that terminated while it was queued — which may
        admit further requests, handled depth-first."""
        out = []
        todo = list(admitted)
        while todo:
            rank, dest = todo.pop(0)
            if self.directory.status.get(rank) == STATUS_TERMINATED:
                out.append((rank, None))
                todo[:0] = self.admission.complete(rank)
            else:
                out.append((rank, self._open(rank, dest)))
        return out
