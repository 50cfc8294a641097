"""Tests for trace save/load round-tripping."""

from __future__ import annotations

import pytest

from repro.analysis import (
    dumps_trace,
    events_from_trace,
    load_trace,
    loads_trace,
    migration_breakdown,
    render_spacetime,
    save_trace,
)
from repro.sim import Trace
from repro.util.errors import ReproError


class _Clock:
    def __init__(self):
        self.now = 0.0


def _mk_trace(n=20):
    clk = _Clock()
    tr = Trace(clock=clk)
    for i in range(n):
        clk.now = i * 0.5
        tr.record(f"p{i % 3}", "snow_send", dest=(i + 1) % 3, tag=i,
                  nbytes=100 * i)
    return tr


def test_roundtrip_in_memory():
    tr = _mk_trace()
    again = loads_trace(dumps_trace(tr))
    assert len(again) == len(tr)
    for a, b in zip(tr, again):
        assert (a.time, a.actor, a.kind, a.detail) == \
            (b.time, b.actor, b.kind, b.detail)


def test_roundtrip_via_file(tmp_path):
    tr = _mk_trace()
    path = tmp_path / "run.trace"
    n = save_trace(tr, path)
    assert n == len(tr)
    again = load_trace(path)
    assert len(again) == len(tr)
    assert again.filter(kind="snow_send", tag=3)[0].detail["nbytes"] == 300


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "junk.trace"
    path.write_text("this is not json\n")
    with pytest.raises(ReproError):
        load_trace(path)


def test_wrong_format_rejected():
    with pytest.raises(ReproError):
        loads_trace('{"format": "something-else", "version": 1}\n')


def test_wrong_version_rejected():
    with pytest.raises(ReproError):
        loads_trace('{"format": "repro-trace", "version": 99}\n')


def test_non_json_details_degrade_to_repr():
    clk = _Clock()
    tr = Trace(clock=clk)
    tr.record("p0", "weird", payload=object())
    again = loads_trace(dumps_trace(tr))
    assert "object" in again.events[0].detail["payload"]


def test_saved_trace_supports_analysis(tmp_path):
    """End to end: run a migration, save, reload, and regenerate the
    breakdown and the diagram from the file."""
    from repro import Application, VirtualMachine

    vm = VirtualMachine()
    for h in ("h0", "h1", "h2", "h3"):
        vm.add_host(h)

    def program(api, state):
        i = state.get("i", 0)
        while i < 15:
            if api.rank == 0:
                api.send(1, i)
            else:
                api.recv(src=0)
            i += 1
            state["i"] = i
            api.compute(0.004)
            api.poll_migration(state)

    app = Application(vm, program, placement=["h0", "h1"],
                      scheduler_host="h2")
    app.start()
    app.migrate_at(0.02, rank=1, dest_host="h3")
    app.run()
    live = migration_breakdown(vm.trace, "p1", "p1.m1")
    path = tmp_path / "mg.trace"
    save_trace(vm.trace, path)
    vm.shutdown()

    reloaded = load_trace(path)
    offline = migration_breakdown(reloaded, "p1", "p1.m1")
    assert offline.migrate == pytest.approx(live.migrate)
    assert offline.captured_messages == live.captured_messages
    diagram = render_spacetime(events_from_trace(reloaded),
                               actors=["p0", "p1", "p1.m1"])
    assert "M" in diagram and "I" in diagram
