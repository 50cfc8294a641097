"""SVG space-time rendering of observability event streams.

The graphical XPVM view of both runtimes, drawn from *obs event dicts* —
the merged JSONL artifact an :class:`~repro.runtime.mp.MPCluster` run
writes, or a simulator trace lifted with
:func:`repro.analysis.obs.events_from_trace`. One lane per rank (the
registry gets its own), the frozen migration phases as colored bars
(source incarnation above the timeline, destination below, so
overlapping transfer/restore windows stay visible; an aborted attempt's
bars dashed), the registry-observed migration windows as shaded bands,
and send/recv events as ticks with diagonal flight lines where a
matching pair exists. Bars and flights come from
:func:`~repro.analysis.spacetime.phase_bars` and
:func:`~repro.analysis.spacetime.obs_flights`, which the ASCII renderer
reads too.

Before layout the stream is passed through
:func:`repro.obs.clock.align_events`, so an artifact collected across
machines with disagreeing clocks renders on the registry's timeline.
Every element class is tagged (``lane``, ``phase-bar``,
``migration-window``, ``flight``) so tests and tooling can assert the
diagram's structure instead of its pixels.
"""

from __future__ import annotations

import re
from typing import Iterable
from xml.sax.saxutils import escape

from repro.analysis.spacetime import (
    _ACTOR_RE,
    lane_of,
    obs_flights,
    phase_bars,
)
from repro.obs.clock import align_events

__all__ = ["render_obs_spacetime_svg", "save_obs_spacetime_svg"]

# layout constants (pixels)
_ROW_H = 38
_MARGIN_L = 90
_MARGIN_R = 20
_MARGIN_T = 46
_MARGIN_B = 30
_TICK = 5
_BAR_H = 10

_C_TIMELINE = "#4a4a4a"
_C_SEND = "#1f77b4"
_C_RECV = "#2ca02c"
_C_FLIGHT = "#9ecae1"
_C_WINDOW = "#d62728"
_C_TEXT = "#222222"
_C_GRID = "#dddddd"

#: Bar color per frozen migration phase (stable across renders).
PHASE_COLORS = {
    "freeze": "#7f7f7f",
    "reject": "#ff7f0e",
    "drain": "#bcbd22",
    "transfer": "#1f77b4",
    "restore": "#2ca02c",
    "commit": "#9467bd",
    "recover": "#d62728",
}


def _incarnation(actor: str) -> int:
    m = _ACTOR_RE.match(actor)
    return int(m.group(2)) if m and m.group(2) else 0


def _lane_order(lanes: Iterable[str]) -> list[str]:
    """Ranks numerically ascending, then everything else, registry last."""
    def key(lane: str):
        m = re.match(r"^r(\d+)$", lane)
        if m:
            return (0, int(m.group(1)), lane)
        return (2 if lane == "registry" else 1, 0, lane)
    return sorted(set(lanes), key=key)


def render_obs_spacetime_svg(events: Iterable[dict],
                             align: bool = True,
                             width: int = 900,
                             max_flights: int = 400,
                             title: str = "obs space-time") -> str:
    """Render an obs event stream as an SVG document string."""
    events = align_events(events) if align else sorted(
        events, key=lambda r: r.get("ts", 0.0))
    drawable = [r for r in events
                if r.get("kind") not in ("gauge", "clock_offset")]
    if not drawable:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="220" '
                'height="40"><text x="8" y="24">(no events)</text></svg>')
    lanes = _lane_order(lane_of(r["actor"]) for r in drawable)
    lo = min(r["ts"] for r in drawable)
    hi = max(r["ts"] for r in drawable)
    if hi <= lo:
        hi = lo + 1e-9
    plot_w = width - _MARGIN_L - _MARGIN_R
    height = _MARGIN_T + _ROW_H * len(lanes) + _MARGIN_B
    rows = {lane: _MARGIN_T + _ROW_H * i + _ROW_H // 2
            for i, lane in enumerate(lanes)}

    def x(t: float) -> float:
        frac = (t - lo) / (hi - lo)
        return _MARGIN_L + max(0.0, min(1.0, frac)) * plot_w

    out: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_L}" y="18" fill="{_C_TEXT}" font-size="13">'
        f'{escape(title)}  [{lo:.3f}s .. {hi:.3f}s]</text>',
    ]

    # time grid
    for i in range(6):
        t = lo + (hi - lo) * i / 5
        gx = x(t)
        out.append(f'<line x1="{gx:.1f}" y1="{_MARGIN_T - 8}" '
                   f'x2="{gx:.1f}" y2="{height - _MARGIN_B}" '
                   f'stroke="{_C_GRID}"/>')
        out.append(f'<text x="{gx:.1f}" y="{height - 10}" fill="{_C_TEXT}" '
                   f'text-anchor="middle">{t - lo:.3f}</text>')

    # registry-observed migration windows, under everything else
    for rec in drawable:
        if rec["kind"] != "migration_window":
            continue
        lane = f"r{rec['rank']}"
        y = rows.get(lane)
        if y is None:
            continue
        t0 = rec["ts"] - rec.get("seconds", 0.0)
        out.append(
            f'<rect class="migration-window" x="{x(t0):.1f}" '
            f'y="{y - _ROW_H // 2 + 2}" '
            f'width="{max(2.0, x(rec["ts"]) - x(t0)):.1f}" '
            f'height="{_ROW_H - 4}" fill="{_C_WINDOW}" '
            f'fill-opacity="0.12">'
            f'<title>rank {rec["rank"]} migration window '
            f'{rec.get("seconds", 0.0):.4f}s'
            f'{" " + rec["trace_id"] if rec.get("trace_id") else ""}'
            f'</title></rect>')

    # message flights, then phase bars on top
    for f in obs_flights(drawable, max_flights=max_flights):
        if f["src"] not in rows or f["dst"] not in rows:
            continue
        out.append(
            f'<line class="flight" x1="{x(f["t_send"]):.1f}" '
            f'y1="{rows[f["src"]]}" x2="{x(f["t_recv"]):.1f}" '
            f'y2="{rows[f["dst"]]}" stroke="{_C_FLIGHT}" '
            f'stroke-width="1">'
            f'<title>{escape(f["src"])} → {escape(f["dst"])}'
            f'{" tag=" + str(f["tag"]) if f["tag"] is not None else ""}'
            f'</title></line>')

    for b in phase_bars(drawable):
        lane = lane_of(b["actor"])
        y = rows.get(lane)
        if y is None:
            continue
        # source incarnation above the timeline, destination below
        by = y - _BAR_H - 2 if _incarnation(b["actor"]) % 2 == 0 else y + 2
        color = PHASE_COLORS.get(b["phase"], _C_TIMELINE)
        dash = ' stroke-dasharray="3,2"' if b["aborted"] else ""
        out.append(
            f'<rect class="phase-bar" x="{x(b["t0"]):.1f}" y="{by}" '
            f'width="{max(2.0, x(b["t1"]) - x(b["t0"])):.1f}" '
            f'height="{_BAR_H}" fill="{color}" fill-opacity="0.8" '
            f'stroke="{color}"{dash}>'
            f'<title>{escape(b["actor"])} {escape(b["phase"])} '
            f'{b["t1"] - b["t0"]:.4f}s'
            f'{" aborted" if b["aborted"] else ""}'
            f'{" " + b["trace_id"] if b["trace_id"] else ""}'
            f'</title></rect>')

    # timelines, labels, sampled send/recv ticks
    for lane in lanes:
        y = rows[lane]
        out.append(f'<line class="lane" x1="{_MARGIN_L}" y1="{y}" '
                   f'x2="{width - _MARGIN_R}" y2="{y}" '
                   f'stroke="{_C_TIMELINE}" stroke-width="1.2"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4}" '
                   f'fill="{_C_TEXT}" text-anchor="end">'
                   f'{escape(lane)}</text>')
    for rec in drawable:
        if rec["kind"] == "send":
            ex, y = x(rec["ts"]), rows[lane_of(rec["actor"])]
            out.append(f'<line x1="{ex:.1f}" y1="{y - _TICK}" '
                       f'x2="{ex:.1f}" y2="{y + _TICK}" '
                       f'stroke="{_C_SEND}" stroke-width="1.5"/>')
        elif rec["kind"] == "recv":
            ex, y = x(rec["ts"]), rows[lane_of(rec["actor"])]
            out.append(f'<circle cx="{ex:.1f}" cy="{y}" r="2.2" '
                       f'fill="{_C_RECV}"/>')

    # legend: the phases actually present, in palette order
    present = {b["phase"] for b in phase_bars(drawable)}
    lx = _MARGIN_L
    for phase, color in PHASE_COLORS.items():
        if phase not in present:
            continue
        out.append(f'<text x="{lx}" y="32" fill="{color}">'
                   f'▮ {phase}</text>')
        lx += 9 * len(phase) + 28
    out.append(f'<text x="{lx}" y="32" fill="{_C_WINDOW}" '
               f'fill-opacity="0.6">▯ migration window</text>')
    out.append("</svg>")
    return "\n".join(out)


def save_obs_spacetime_svg(events: Iterable[dict], path, **kwargs) -> str:
    """Render and write to *path*; returns the path back."""
    svg = render_obs_spacetime_svg(events, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return str(path)
