"""Tests for the SVG space-time renderer on simulator traces.

A sim run reaches the one SVG renderer the way every caller does: its
trace is lifted into obs records with ``events_from_trace`` first.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.analysis import (
    events_from_trace,
    render_obs_spacetime_svg,
    save_obs_spacetime_svg,
)
from repro.sim import Trace


class _Clock:
    def __init__(self):
        self.now = 0.0


def _mk_trace():
    clk = _Clock()
    tr = Trace(clock=clk)
    clk.now = 1.0
    tr.record("p0", "snow_send", dest=1, tag=0, nbytes=128)
    clk.now = 1.2
    tr.record("p1", "snow_recv", src=0, tag=0, nbytes=128, sent_at=1.0)
    clk.now = 2.0
    tr.record("p0", "span_start", phase="freeze", rank=0)
    clk.now = 2.1
    tr.record("p0", "span_end", phase="freeze", rank=0, seconds=0.1)
    tr.record("p0", "span_start", phase="reject", rank=0)
    clk.now = 2.5
    tr.record("p0", "span_end", phase="reject", rank=0, seconds=0.4)
    tr.record_at(2.3, "p0.m1", "span_start", phase="restore", rank=0)
    tr.record_at(2.6, "p0.m1", "span_end", phase="restore", rank=0,
                 seconds=0.3)
    return tr


def _svg(trace: Trace) -> str:
    return render_obs_spacetime_svg(events_from_trace(trace))


def test_svg_is_well_formed_xml():
    root = ET.fromstring(_svg(_mk_trace()))
    assert root.tag.endswith("svg")


def test_svg_contains_rows_band_and_flight():
    svg = _svg(_mk_trace())
    # one lane per rank: p0 and p0.m1 share r0
    assert svg.count('class="lane"') == 2
    assert ">r0<" in svg and ">r1<" in svg
    # the source's freeze + reject bars, the destination's restore bar
    assert svg.count('class="phase-bar"') == 3
    assert "p0 reject" in svg and "p0.m1 restore" in svg
    assert svg.count('class="flight"') == 1
    assert "r0 → r1 tag=0" in svg   # flight tooltip


def test_svg_empty_trace():
    svg = _svg(Trace())
    assert "(no events)" in svg
    ET.fromstring(svg)


def test_save_svg(tmp_path):
    path = tmp_path / "diagram.svg"
    save_obs_spacetime_svg(events_from_trace(_mk_trace()), path)
    text = path.read_text()
    assert text.startswith("<svg")
    ET.fromstring(text)


def test_svg_from_real_migration_run(tmp_path):
    from repro import Application, VirtualMachine

    vm = VirtualMachine()
    for h in ("h0", "h1", "h2", "h3"):
        vm.add_host(h)

    def program(api, state):
        i = state.get("i", 0)
        while i < 12:
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
    app.migrate_at(0.015, rank=1, dest_host="h3")
    app.run()
    svg = _svg(vm.trace)
    vm.shutdown()
    ET.fromstring(svg)
    for bar in ("p1 freeze", "p1 reject", "p1.m1 restore", "p1.m1 commit"):
        assert bar in svg
    # every message is a flight, a send tick and a recv dot
    assert svg.count('class="flight"') == 12
    assert svg.count("<circle") == 12
    assert svg.count('stroke-width="1.5"') == 12
