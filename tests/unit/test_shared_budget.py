"""The mp bandwidth budget: one slot cell per rank, no lock to die holding.

``_SharedBandwidthBudget`` lives in fork-shared memory. Each rank writes
only its own cells, through ``view(rank)``, so a worker SIGKILLed in the
middle of an update wedges nobody, and recovery releases exactly the
dead rank's slot.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

from repro.runtime import mp as mp_mod

_ctx = multiprocessing.get_context("fork")


def test_releasing_a_crashed_rank_that_held_nothing_keeps_live_slots():
    budget = mp_mod._SharedBandwidthBudget(_ctx, 2)
    budget.view(0).acquire()
    budget.view(1).release()  # recover_rank for rank 1: it never acquired
    assert budget.active == 1 and budget.share == 1


def test_views_share_one_ledger():
    budget = mp_mod._SharedBandwidthBudget(_ctx, 3)
    a, b = budget.view(0), budget.view(2)
    assert budget.rtt_floor is None
    a.acquire()
    b.acquire()
    assert a.share == b.share == 2
    a.observe_latency(3e-3)
    b.observe_latency(1e-3)
    a.observe_latency(2e-3)
    a.observe_latency(0.0)  # not a sample
    assert budget.rtt_floor == b.rtt_floor == 1e-3
    b.release()
    assert budget.stats() == {"active": 1, "peak_active": 2, "acquires": 2,
                              "rtt_floor": 1e-3}


def _churn(view, started) -> None:
    while True:
        view.acquire()
        view.observe_latency(1e-3)
        assert view.share >= 1
        view.release()
        started.set()


def test_a_rank_killed_inside_the_budget_wedges_nobody():
    budget = mp_mod._SharedBandwidthBudget(_ctx, 2)
    started = _ctx.Event()
    child = _ctx.Process(target=_churn, args=(budget.view(1), started),
                         daemon=True)
    child.start()
    try:
        assert started.wait(10.0)
    finally:
        os.kill(child.pid, signal.SIGKILL)
        child.join(10.0)
    assert not child.is_alive()
    mine, done = budget.view(0), threading.Event()

    def use() -> None:
        mine.acquire()
        assert mine.share >= 1
        mine.observe_latency(2e-3)
        done.set()

    threading.Thread(target=use, daemon=True).start()
    assert done.wait(1.0), "the killed rank left the budget wedged"
    budget.view(1).release()  # recovery of rank 1
    assert budget.active == 1


def _cycles(view, n: int) -> None:
    for _ in range(n):
        view.acquire()
        view.release()


def test_concurrent_ranks_lose_no_update():
    """More writer processes than cores, each on its own cells: the
    counters add up exactly, which a shared read-modify-write would not."""
    nranks, cycles = max(4, 2 * (os.cpu_count() or 1)), 300
    budget = mp_mod._SharedBandwidthBudget(_ctx, nranks)
    procs = [_ctx.Process(target=_cycles, args=(budget.view(r), cycles))
             for r in range(nranks)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(30.0)
        assert p.exitcode == 0
    stats = budget.stats()
    assert stats["active"] == 0
    assert stats["acquires"] == nranks * cycles
