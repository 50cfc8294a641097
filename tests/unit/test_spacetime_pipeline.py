"""The one space-time pipeline: a sim trace is lifted into obs records
once, and both diagrams (ASCII and SVG) are drawn from those records.

Covers the lift itself on the paper's MG runs (every application
message becomes one ``send`` and one ``recv`` record, and every record
validates) and the diagram of a migration that aborts and is retried,
whose two attempts the span records keep apart.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro import VirtualMachine
from repro.analysis import (
    events_from_trace,
    obs_flights,
    phase_bars,
    render_obs_spacetime_svg,
    render_spacetime,
)
from repro.obs.events import validate_record

from tests.stress.conftest import hardened_app, seq_check, seq_stream

# ---------------------------------------------------------------------------
# the lift on the paper's MG runs
# ---------------------------------------------------------------------------

_MG: dict[str, object] = {}


def _mg(workload: str):
    if workload not in _MG:
        from repro.experiments import (
            run_mg_heterogeneous,
            run_mg_homogeneous,
        )
        _MG[workload] = (run_mg_heterogeneous(n=16)
                         if workload == "heterogeneous"
                         else run_mg_homogeneous(mode="migration", n=16))
    return _MG[workload]


@pytest.mark.parametrize("workload", ["homogeneous", "heterogeneous"])
def test_lift_keeps_every_message(workload):
    trace = _mg(workload).vm.trace
    events = events_from_trace(trace)
    assert all(validate_record(r) is None for r in events)
    sends = [r for r in events if r["kind"] == "send"]
    recvs = [r for r in events if r["kind"] == "recv"]
    assert len(sends) == trace.count("snow_send") == 672
    assert len(recvs) == trace.count("snow_recv") == 672
    # the detail fields ride along
    assert all({"dest", "tag", "nbytes"} <= r.keys() for r in sends)
    assert all({"src", "tag", "nbytes", "sent_at"} <= r.keys()
               for r in recvs)


@pytest.mark.parametrize("workload", ["homogeneous", "heterogeneous"])
def test_obs_flights_pair_every_lifted_message(workload):
    trace = _mg(workload).vm.trace
    flights = obs_flights(events_from_trace(trace))
    assert len(flights) == 672
    # the same messages the receivers saw: (src, dst rank, tag, recv time)
    seen = sorted((ev.detail["src"], int(ev.actor[1:].split(".")[0]),
                   ev.detail["tag"], ev.time)
                  for ev in trace.filter(kind="snow_recv"))
    paired = sorted((int(f["src"][1:]), int(f["dst"][1:]), f["tag"],
                     f["t_recv"]) for f in flights)
    assert paired == seen
    # a flight is stamped when its send returned: never after the recv,
    # never before the message was built
    sent_at = {(ev.actor, ev.time): ev.detail["sent_at"]
               for ev in trace.filter(kind="snow_recv")}
    for f in flights:
        assert sent_at[(f["receiver"], f["t_recv"])] <= f["t_send"] \
            <= f["t_recv"]


# ---------------------------------------------------------------------------
# abort-then-retry: the drain times out, the scheduler re-issues
# ---------------------------------------------------------------------------

_COUNT = 40
_STALL = 0.25


def _stall_then_receive(api, state):
    """Rank 1 takes one message, then goes deaf for ``_STALL`` seconds —
    rank 0's first migration attempt times out in the drain."""
    if api.rank == 0:
        seq_stream(api, state, dest=1, count=_COUNT, pace=0.002, poll=True)
    else:
        if not state.get("stalled"):
            seq_check(api, state, src=0, count=1)
            state["stalled"] = True
            ctx = api.endpoint.ctx
            ctx.hold_signals()
            api.compute(_STALL)
            ctx.release_signals()
        seq_check(api, state, src=0, count=_COUNT)


@pytest.fixture(scope="module")
def aborted_run():
    vm = VirtualMachine()
    for h in ("h0", "h1", "h2", "h3"):
        vm.add_host(h)
    app = hardened_app(vm, _stall_then_receive, ["h0", "h1"],
                       drain_timeout=0.05, migration_retry_limit=5)
    app.start()
    app.migrate_at(0.02, rank=0, dest_host="h3")
    app.run()
    events = events_from_trace(vm.trace)
    vm.shutdown()
    return events


# one column per millisecond of virtual time
_WIDTH = 401
_T1 = 0.4


def _col(t: float) -> int:
    return int(t * (_WIDTH - 1) / _T1)


def _row(diagram: str, actor: str) -> str:
    line = next(ln for ln in diagram.splitlines()
                if ln.lstrip().startswith(f"{actor} |"))
    return line.split("|")[1]


def test_abort_retry_ascii_keeps_the_attempts_apart(aborted_run):
    events = aborted_run
    bars = phase_bars(events)
    rejects = [b for b in bars if b["actor"] == "p0"
               and b["phase"] == "reject"]
    assert [b["aborted"] for b in rejects] == [True, False]
    abort = rejects[0]["t1"]
    retry = [b for b in bars if b["actor"] == "p0"
             and b["phase"] == "freeze"][1]["t0"]
    between = [r for r in events if r["actor"] == "p0"
               and r["kind"] == "send" and abort < r["ts"] < retry]
    assert between, "p0 resumes sending after the abort"

    diagram = render_spacetime(events, actors=["p0", "p1", "p0.m1"],
                               t0=0.0, t1=_T1, width=_WIDTH)
    p0 = _row(diagram, "p0")
    # both attempts are migration bands; normal execution in between
    assert p0[_col(rejects[0]["t0"])] == "M"
    assert p0[_col(retry) + 1] == "M"
    gap = p0[_col(abort) + 1:_col(retry)]
    assert "M" not in gap
    assert "s" in gap
    # the released initialized process shows its I band up to its abort
    restore = [b for b in bars if b["actor"] == "p0.m1"
               and b["phase"] == "restore"]
    assert len(restore) == 1 and restore[0]["aborted"]
    m1 = _row(diagram, "p0.m1")
    c0, c1 = _col(restore[0]["t0"]), _col(restore[0]["t1"])
    assert set(m1[c0:c1 + 1]) == {"I"}
    assert "I" not in m1[c1 + 1:]


def test_abort_retry_svg_dashes_the_aborted_attempt(aborted_run):
    root = ET.fromstring(render_obs_spacetime_svg(aborted_run))
    ns = "{http://www.w3.org/2000/svg}"
    dashed = sorted(
        " ".join(rect.find(f"{ns}title").text.split()[:2])
        for rect in root.iter(f"{ns}rect")
        if rect.get("class") == "phase-bar"
        and rect.get("stroke-dasharray"))
    assert dashed == ["p0 drain", "p0 reject", "p0.m1 restore"]
    # the retried attempt's bars are solid
    titles = [rect.find(f"{ns}title").text for rect in root.iter(f"{ns}rect")
              if rect.get("class") == "phase-bar"]
    assert any(t.startswith("p0.m2 restore") and "aborted" not in t
               for t in titles)
