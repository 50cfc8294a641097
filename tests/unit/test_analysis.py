"""Unit tests for the analysis layer (metrics + space-time rendering)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    app_progress_events,
    events_from_trace,
    makespan,
    migration_breakdown,
    obs_flights,
    render_spacetime,
)
from repro.sim import Trace
from repro.util.errors import ReproError


class _Clock:
    def __init__(self):
        self.now = 0.0


def _fake_migration_trace():
    clk = _Clock()
    tr = Trace(clock=clk)
    clk.now = 1.0
    tr.record("p0", "migration_start", rank=0)
    clk.now = 1.1
    tr.record("p0", "coordinate_done", seconds=0.1, captured=2)
    tr.record("p0", "captured_in_transit", src=1, nbytes=10)
    tr.record("p0", "captured_in_transit", src=7, nbytes=10)
    clk.now = 1.6
    tr.record("p0", "collect_done", seconds=0.5, nbytes=1000)
    clk.now = 1.65
    tr.record("p0", "state_sent", nbytes=1000)
    tr.record("p0", "migration_source_done", total_seconds=0.65)
    clk.now = 2.4
    tr.record("p0.m1", "state_received", nbytes=1000, src_arch="sparc32")
    clk.now = 2.9
    tr.record("p0.m1", "restore_done", seconds=0.5, old_vmid="h0:1")
    clk.now = 3.0
    tr.record("p0.m1", "migration_commit", rank=0)
    return tr


def test_migration_breakdown_extraction():
    bd = migration_breakdown(_fake_migration_trace(), "p0", "p0.m1")
    assert bd.coordinate == pytest.approx(0.1)
    assert bd.collect == pytest.approx(0.5)
    assert bd.tx == pytest.approx(0.8)  # state_received - collect_done
    assert bd.restore == pytest.approx(0.5)
    assert bd.migrate == pytest.approx(1.9)
    assert bd.wall == pytest.approx(2.0)
    assert bd.captured_messages == 2
    assert bd.state_bytes == 1000


def test_breakdown_table_renders():
    bd = migration_breakdown(_fake_migration_trace(), "p0", "p0.m1")
    table = bd.table()
    assert "Coordinate" in table and "Migrate" in table
    assert "1.900" in table


def test_breakdown_missing_events_raises():
    tr = Trace(clock=_Clock())
    with pytest.raises(ReproError):
        migration_breakdown(tr, "p0", "p0.m1")


def test_makespan():
    clk = _Clock()
    tr = Trace(clock=clk)
    clk.now = 5.0
    tr.record("p0", "process_exited")
    clk.now = 9.0
    tr.record("p1", "process_exited")
    clk.now = 11.0
    tr.record("scheduler", "process_exited")
    assert makespan(tr, ["p0", "p1"]) == 9.0


def test_app_progress_events_excludes_actors():
    clk = _Clock()
    tr = Trace(clock=clk)
    clk.now = 1.0
    tr.record("p0", "app_vcycle_done", iter=1)
    tr.record("p1", "app_vcycle_done", iter=1)
    clk.now = 5.0
    tr.record("p1", "app_vcycle_done", iter=2)
    evs = app_progress_events(tr, 0.0, 2.0, exclude=("p0",))
    assert len(evs) == 1 and evs[0].actor == "p1"


def test_spacetime_render_contains_rows_and_legend():
    clk = _Clock()
    tr = Trace(clock=clk)
    for i in range(5):
        clk.now = float(i)
        tr.record("p0", "snow_send", dest=1, tag=0, nbytes=10)
        tr.record("p1", "snow_recv", src=0, tag=0, nbytes=10, sent_at=clk.now)
    out = render_spacetime(events_from_trace(tr), actors=["p0", "p1"],
                           width=40)
    assert "p0 |" in out and "p1 |" in out
    assert "legend" in out
    assert "s" in out.split("p0 |")[1]


def test_spacetime_marks_migration_window():
    tr = _fake_migration_trace()
    tr.record_at(1.0, "p0", "span_start", phase="freeze", rank=0)
    tr.record_at(1.05, "p0", "span_end", phase="freeze", rank=0,
                 seconds=0.05)
    tr.record_at(1.05, "p0", "span_start", phase="reject", rank=0)
    tr.record_at(1.65, "p0", "span_end", phase="reject", rank=0, seconds=0.6)
    tr.record_at(1.2, "p0", "snow_send", dest=1, tag=0, nbytes=1)
    out = render_spacetime(events_from_trace(tr), actors=["p0", "p0.m1"],
                           width=60)
    p0_row = out.split("p0 |")[1].splitlines()[0]
    assert "M" in p0_row


def test_message_flights_pairing():
    clk = _Clock()
    tr = Trace(clock=clk)
    clk.now = 1.0
    tr.record("p0", "snow_send", dest=1, tag=3, nbytes=100)
    clk.now = 1.5
    tr.record("p1", "snow_recv", src=0, tag=3, nbytes=100, sent_at=1.0)
    flights = obs_flights(events_from_trace(tr))
    assert len(flights) == 1
    f = flights[0]
    assert f["src"] == "r0" and f["dst"] == "r1"
    assert f["sender"] == "p0" and f["receiver"] == "p1"
    assert f["t_send"] == 1.0 and f["t_recv"] == 1.5
    assert f["tag"] == 3 and f["nbytes"] == 100


def test_spacetime_empty_trace():
    tr = Trace(clock=_Clock())
    assert render_spacetime(events_from_trace(tr),
                            actors=["p0"]) == "(no events)"
