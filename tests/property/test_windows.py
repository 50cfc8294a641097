"""Property tests for the scheduler machine (repro.core.windows).

:class:`~repro.core.windows.Windows` is the one copy of the scheduler's
records, windows and admission that the simulator's ``scheduler_main``
and the mp registry drive. It is pure, so Hypothesis can feed it every
transition in any order — including duplicated ``start``, ``restored``
and ``close`` and an mp recovery (``fail`` → the replacement's
``designate`` → ``recovering`` → ``restored``) at any point — and check
after every step:

1. **One window per rank** — at most one window of a rank is open
   (neither committed nor ended).
2. **Capacity** — the open windows of ranks still alive are exactly the
   ranks holding an admission slot, so they never exceed
   ``concurrency``.
3. **Designated** — a window that learnt its initialized process and has
   not restored has that process designated in the rank's record.
4. **Versions** — every write returns its record, and each rank's
   version rises strictly with every write.
5. **No lost request** — a request that leaves the queue was opened, or
   dropped because its rank terminated; driven to quiescence, the
   queue drains empty.
6. **Duplicates are no-ops** — repeating a ``start``, ``restored`` or
   ``close`` changes nothing.
"""

from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gang import ADMIT, COALESCED, QUEUED, GangAdmission
from repro.core.windows import IGNORED, Step, Windows
from repro.directory.base import (
    STATUS_FAILED,
    STATUS_MIGRATING,
    STATUS_TERMINATED,
    LocationRecord,
)
from repro.util.errors import ProtocolError

NRANKS = 3
RANK = st.integers(0, NRANKS - 1)
#: which initialized process a restore / commit names: the designated
#: one, the rank's latest window's, or a stranger
WHICH = st.integers(0, 2)

#: every transition with any arguments, plus ``advance`` (a window's next
#: driver step, maybe at once duplicated) and ``dup`` (repeat the last
#: start / restore / commit), weighted so that windows get deep before
#: their ranks terminate
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("request"), RANK, st.sampled_from("ab")),
        st.tuples(st.just("designate"), RANK),
        st.tuples(st.just("start"), RANK),
        st.tuples(st.just("restored"), RANK, WHICH),
        st.tuples(st.just("close"), RANK, WHICH),
        st.tuples(st.just("abort"), RANK),
        st.tuples(st.just("terminate"), RANK),
        st.tuples(st.just("fail"), RANK),
        st.tuples(st.just("recovering"), RANK),
        *[st.tuples(st.just("advance"), RANK, st.booleans())] * 6,
        *[st.tuples(st.just("dup"))] * 3,
    ),
    min_size=20, max_size=80,
)
CONCURRENCY = st.one_of(st.none(), st.integers(1, 3))


def _state(w: Windows):
    """Everything a transition could change, as plain data."""
    d = w.directory
    return copy.deepcopy((
        [vars(r) for r in w.records], d.status, d.init_vmid, d.versions,
        d.pl.snapshot(), w.admission.inflight, w.admission.pending,
        w.retries))


class Model:
    """Drives one machine the way the two drivers do and checks the
    invariants after every transition."""

    def __init__(self, concurrency):
        self.w = Windows(admission=GangAdmission(concurrency=concurrency))
        self.concurrency = concurrency
        self.vmids = itertools.count()
        self.now = 0.0
        self.versions: dict = {}
        self.last: tuple | None = None
        for rank in range(NRANKS):
            self.wrote(self.w.install(rank, self.vmid()))

    def vmid(self):
        return ("v", next(self.vmids))

    # -- driving ---------------------------------------------------------

    def apply(self, op) -> None:
        w, kind = self.w, op[0]
        self.now += 1.0
        if kind == "dup":
            if self.last is not None:
                before = _state(w)
                self.call(*self.last)
                assert _state(w) == before, f"duplicate {self.last} wrote"
            return
        if kind == "advance":
            self.apply(self.next_step(op[1]))
            if op[2]:
                self.apply(("dup",))
            return
        rank, self.last = op[1], None
        if kind == "request":
            self.request(rank, op[2])
        elif kind in ("designate", "recovering"):
            # the machine refuses a second initialized process for a
            # window, and a recovery of a rank that has not failed
            before = _state(w)
            args = (self.vmid(),) if kind == "designate" else ()
            try:
                self.wrote(getattr(w, kind)(rank, *args))
            except ProtocolError:
                assert _state(w) == before
            self.check(Step(), kind, rank)
        elif kind in ("restored", "close"):
            self.last = (kind, rank, self.named(rank, op[2]), self.now)
            self.call(*self.last)
        elif kind == "start":
            self.last = (kind, rank, self.now)
            self.call(*self.last)
        else:
            self.call(kind, rank)

    def next_step(self, rank) -> tuple:
        """The driver's next call for *rank*'s window: request,
        designate, start, restore, a re-request that queues behind the
        window, commit."""
        w = self.w
        rec = w.current(rank)
        if rec is None:
            return ("request", rank, "a")
        if rec.new_vmid is None:
            return ("designate", rank)
        if not rec.t_start:
            return ("start", rank)
        if not rec.t_restored:
            return ("restored", rank, 1)
        if all(r != rank for r, _ in w.admission.pending):
            return ("request", rank, "b")
        return ("close", rank, 1)

    def named(self, rank, which):
        if which == 0:
            return self.w.directory.init_vmid.get(rank)
        if which == 1:
            mine = [r for r in self.w.records if r.rank == rank]
            return mine[-1].new_vmid if mine else None
        return self.vmid()

    def request(self, rank, dest) -> None:
        w = self.w
        status = w.directory.status.get(rank)
        verdict, rec = w.request(rank, dest)
        if status == STATUS_TERMINATED:
            assert verdict == IGNORED and rec is None
        else:
            assert verdict in (ADMIT, QUEUED, COALESCED)
            assert (rec is not None) == (verdict == ADMIT)
        self.check(Step(), "request", rank)

    def call(self, kind, rank, *args) -> Step:
        w = self.w
        queued = {r for r, _ in w.admission.pending}
        step = getattr(w, kind)(rank, *args) or Step()
        self.wrote(step.publish)
        for r, rec in step.admitted:
            if rec is None:
                assert w.directory.status[r] == STATUS_TERMINATED
            else:
                assert rec.rank == r and w.current(r) is rec
        self.check(step, kind, rank, queued)
        return step

    def wrote(self, record: LocationRecord | None) -> None:
        if record is not None:
            prev = self.versions.get(record.rank, 0)
            assert record.version > prev, "a write must raise the version"
            self.versions[record.rank] = record.version

    # -- invariants ------------------------------------------------------

    def check(self, step: Step, kind, rank, queued=frozenset()) -> None:
        w, d = self.w, self.w.directory
        # 4: no write went unreturned
        assert d.versions == self.versions
        # 1: one open window per rank
        open_ = [r for r in w.records if not r.completed and not r.aborted]
        assert len({r.rank for r in open_}) == len(open_)
        # 2: the live open windows are the slots, within the cap
        live = {r.rank for r in open_
                if d.status.get(r.rank) != STATUS_TERMINATED}
        assert live == set(w.admission.inflight)
        if self.concurrency is not None:
            assert len(w.admission.inflight) <= self.concurrency
        # 3: a window's initialized process stays designated until restore
        for rec in open_:
            if rec.new_vmid is not None and not rec.t_restored \
                    and d.status.get(rec.rank) != STATUS_TERMINATED:
                assert d.init_vmid.get(rec.rank) == rec.new_vmid
        # 5: whatever left the queue was opened, dropped or cancelled
        left = queued - {r for r, _ in w.admission.pending}
        admitted = {r for r, _ in step.admitted}
        for r in left:
            assert r in admitted or (kind == "terminate" and r == rank)

    def quiesce(self) -> None:
        """Finish every recovery and window until nothing is queued."""
        w, d = self.w, self.w.directory
        for _ in range(4 * NRANKS + 8):
            if not w.admission.inflight and not w.admission.pending:
                return
            for rank in range(NRANKS):
                if d.status[rank] == STATUS_FAILED:
                    if rank not in d.init_vmid:
                        self.wrote(w.designate(rank, self.vmid()))
                    self.wrote(w.recovering(rank))
                cur = w.current(rank)
                if d.status[rank] == STATUS_MIGRATING \
                        and (cur is None or cur.new_vmid is None):
                    # a recovery, not a window, holds the rank
                    self.call("restored", rank, d.init_vmid.get(rank),
                              self.now)
            for rank in list(w.admission.inflight):
                rec = w.current(rank)
                if rec.new_vmid is None:
                    self.wrote(w.designate(rank, self.vmid()))
                for kind in ("start", "restored", "close"):
                    self.now += 1.0
                    args = (self.now,) if kind == "start" else \
                        (rec.new_vmid, self.now)
                    self.call(kind, rank, *args)
        raise AssertionError("the machine did not quiesce")


@settings(max_examples=300, deadline=None)
@given(ops=OPS, concurrency=CONCURRENCY)
def test_invariants_hold_under_any_transition_order(ops, concurrency):
    model = Model(concurrency)
    for op in ops:
        model.apply(op)
    model.quiesce()
    assert not model.w.admission.pending and not model.w.admission.inflight


def test_fresh_window_walks_designate_start_restore_close():
    w = Windows()
    w.install(0, "p0")
    verdict, rec = w.request(0, "h1")
    assert verdict == ADMIT and w.current(0) is rec
    assert w.designate(0, "i0").init_vmid == "i0" and rec.new_vmid == "i0"
    started = w.start(0, 1.0)
    assert started.publish.status == STATUS_MIGRATING
    assert rec.old_vmid == "p0" and rec.t_start == 1.0
    restored = w.restored(0, "i0", 2.5)
    assert restored.window is rec and restored.publish.vmid == "i0"
    assert rec.duration == 1.5
    assert w.close(0, "i0", 3.0).window is rec and rec.completed
    assert w.directory.record(0).version == 4  # one bump per write


def test_queued_request_of_a_terminated_rank_is_dropped():
    w = Windows(admission=GangAdmission(concurrency=1))
    for rank in (0, 1):
        w.install(rank, f"p{rank}")
    w.request(0, "h")
    assert w.request(1, "h") == (QUEUED, None)
    w.directory.terminate(1)  # stopped running while queued
    w.designate(0, "i0")
    step = w.close(0, "i0", 1.0)
    assert step.admitted == [(1, None)]
    assert not w.admission.inflight and not w.admission.pending


def test_terminate_releases_the_pending_process_and_admits_the_queue():
    w = Windows(admission=GangAdmission(concurrency=1))
    for rank in (0, 1):
        w.install(rank, f"p{rank}")
    _, rec = w.request(0, "h")
    w.designate(0, "i0")
    w.request(0, "h2")  # queued behind its own window
    w.request(1, "h")  # queued on the cap
    step = w.terminate(0)
    assert step.release == "i0" and step.window is rec and rec.aborted
    assert [(r, win.dest_host) for r, win in step.admitted] == [(1, "h")]


def test_failed_rank_window_ends_and_replacement_is_no_window():
    w = Windows()
    w.install(0, "p0")
    _, rec = w.request(0, "h")
    w.designate(0, "i0")
    w.start(0, 1.0)
    ended = w.fail(0)
    assert ended.window is rec and rec.aborted and ended.release == "i0"
    assert ended.publish.status == STATUS_FAILED
    assert ended.publish.vmid == "p0"  # the old address stays published
    w.designate(0, "r0")
    assert w.recovering(0).status == STATUS_MIGRATING
    back = w.restored(0, "r0", 2.0)
    assert back.window is None and back.publish.vmid == "r0"
    assert not rec.t_restored


def test_recovering_needs_a_failed_rank_with_a_replacement():
    w = Windows()
    w.install(0, "p0")
    with pytest.raises(ProtocolError):
        w.recovering(0)
    w.fail(0)
    with pytest.raises(ProtocolError):
        w.recovering(0)


def test_abort_re_requests_within_the_retry_budget():
    w = Windows(retry_limit=1)
    w.install(0, "p0")
    for attempt in (1, 0):
        _, rec = w.request(0, "h")
        w.designate(0, f"i{attempt}")
        w.start(0, 1.0)
        step = w.abort(0)
        assert step.retry == attempt and step.window is rec
        assert step.publish.status == "running"
    assert w.abort(0) is None  # a duplicate


def test_second_initialized_process_for_a_window_is_refused():
    w = Windows()
    w.install(0, "p0")
    w.request(0, "h")
    w.designate(0, "i0")
    with pytest.raises(ProtocolError):
        w.designate(0, "i1")
    assert w.directory.init_vmid[0] == "i0"
