"""Space-time diagrams from obs records (the reproduction's XPVM).

Both runtimes feed one pipeline: an mp run's merged JSONL artifact, or a
simulator trace lifted with :func:`repro.analysis.obs.events_from_trace`.
This module reads those records into the diagram's drawables —
:func:`phase_bars` (the frozen migration phases) and
:func:`obs_flights` (send/recv pairs) — and renders them as ASCII, one
timeline row per process, like the paper's Figures 10-13: sends,
receives, the migration window on the migrating process (its ``freeze``
and ``reject`` spans) and the initialization window on the new process
(its ``restore`` span). Message flight is listed below the grid (drawing
diagonal arrows in ASCII across many rows hurts more than it helps); the
grid itself shows at a glance which processes keep making progress while
one migrates — the paper's areas A-D. :mod:`repro.analysis.spacetime_svg`
draws the same drawables as SVG.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.util.text import format_seconds, format_size

__all__ = ["lane_of", "phase_bars", "obs_flights", "render_spacetime"]

# cell symbols, later entries override earlier ones
_IDLE = "."
_SEND = "s"
_RECV = "r"
_BOTH = "x"
_MIGR = "M"
_INIT = "I"

#: Band symbol per drawn phase: the source's freeze + reject spans are
#: its migration window, the destination's restore span its
#: initialization window.
_BANDS = {"freeze": _MIGR, "reject": _MIGR, "restore": _INIT}

_ACTOR_RE = re.compile(r"^p(\d+)(?:\.m(\d+))?$")


def lane_of(actor: str) -> str:
    """Timeline lane of an obs actor: every incarnation of a rank shares
    the rank's lane (``p3`` and ``p3.m1`` → ``r3``); other actors (the
    registry, shard daemons) keep their own."""
    m = _ACTOR_RE.match(actor)
    return f"r{m.group(1)}" if m else actor


def phase_bars(events: Iterable[dict]) -> list[dict]:
    """Pair ``span_start``/``span_end`` records into drawable phase bars.

    Pairing is FIFO per (actor, phase) — spans of one phase never nest
    within an actor. An unmatched ``span_end`` (its start predates the
    artifact window) reconstructs its start from ``seconds``; an
    unmatched ``span_start`` (still open at collection) is dropped.
    Returns ``{actor, phase, t0, t1, trace_id, aborted}`` dicts.
    """
    open_spans: dict[tuple[str, str], list[dict]] = {}
    bars: list[dict] = []
    for rec in sorted(events, key=lambda r: r.get("ts", 0.0)):
        kind = rec.get("kind")
        if kind == "span_start":
            open_spans.setdefault(
                (rec["actor"], rec["phase"]), []).append(rec)
        elif kind == "span_end":
            starts = open_spans.get((rec["actor"], rec["phase"]))
            if starts:
                t0 = starts.pop(0)["ts"]
            else:
                t0 = rec["ts"] - rec.get("seconds", 0.0)
            bars.append({
                "actor": rec["actor"],
                "phase": rec["phase"],
                "t0": t0,
                "t1": rec["ts"],
                "trace_id": rec.get("trace_id"),
                "aborted": bool(rec.get("aborted", False)),
            })
    bars.sort(key=lambda b: (b["t0"], b["actor"], b["phase"]))
    return bars


def obs_flights(events: Iterable[dict],
                max_flights: int | None = None) -> list[dict]:
    """Match ``send``/``recv`` records into message flights.

    A flight pairs a ``send`` on one lane with the earliest later
    ``recv`` on the destination lane naming the sender (and the same
    tag, when both carry one). Returns ``{src, dst, t_send, t_recv,
    tag, nbytes, sender, receiver}`` dicts in receive order: ``src`` /
    ``dst`` are lanes, ``sender`` / ``receiver`` the incarnations, and
    ``nbytes`` is ``None`` when the recv record carries no size. A
    lifted sim trace pairs every message; in a sampled mp artifact most
    records have no partner — unmatched ones stay ticks in the diagram.
    """
    sends: dict[tuple, list[dict]] = {}
    flights: list[dict] = []
    for rec in sorted(events, key=lambda r: r.get("ts", 0.0)):
        kind = rec.get("kind")
        if kind == "send":
            key = (lane_of(rec["actor"]), f"r{rec['dest']}",
                   rec.get("tag"))
            sends.setdefault(key, []).append(rec)
        elif kind == "recv":
            key = (f"r{rec['src']}", lane_of(rec["actor"]),
                   rec.get("tag"))
            queue = sends.get(key)
            while queue:
                send = queue.pop(0)
                if send["ts"] <= rec["ts"]:
                    flights.append({
                        "src": key[0], "dst": key[1],
                        "t_send": send["ts"], "t_recv": rec["ts"],
                        "tag": rec.get("tag"),
                        "nbytes": rec.get("nbytes"),
                        "sender": send["actor"], "receiver": rec["actor"],
                    })
                    break
            if max_flights is not None and len(flights) >= max_flights:
                break
    return flights


def render_spacetime(events: Iterable[dict], actors: list[str] | None = None,
                     t0: float | None = None, t1: float | None = None,
                     width: int = 96, max_flights: int = 12) -> str:
    """Render obs records as an ASCII space-time diagram, one row per
    actor (default: every ``p*`` actor, in order of first record)."""
    events = list(events)
    if actors is None:
        actors = [a for a in dict.fromkeys(r["actor"] for r in events)
                  if a.startswith("p")]
    mine = [r for r in events if r["actor"] in actors]
    if not mine:
        return "(no events)"
    lo = min(r["ts"] for r in mine) if t0 is None else t0
    hi = max(r["ts"] for r in mine) if t1 is None else t1
    if hi <= lo:
        hi = lo + 1e-9
    scale = (width - 1) / (hi - lo)

    def col(t: float) -> int:
        return max(0, min(width - 1, int((t - lo) * scale)))

    rows = {a: [_IDLE] * width for a in actors}

    def mark(actor: str, t: float, sym: str) -> None:
        if not (lo <= t <= hi):
            return
        c = col(t)
        cur = rows[actor][c]
        if cur in (_MIGR, _INIT):
            return
        if cur in (_SEND, _RECV) and cur != sym:
            rows[actor][c] = _BOTH
        elif cur == _IDLE:
            rows[actor][c] = sym

    # migration / initialization bands first (sends/recvs overlay
    # nothing); initialization is drawn over migration
    bands = [b for b in phase_bars(events)
             if b["actor"] in rows and b["phase"] in _BANDS]
    for b in sorted(bands, key=lambda b: _BANDS[b["phase"]] == _INIT):
        for c in range(col(b["t0"]), col(b["t1"]) + 1):
            rows[b["actor"]][c] = _BANDS[b["phase"]]
    for r in mine:
        if r["kind"] == "send":
            mark(r["actor"], r["ts"], _SEND)
        elif r["kind"] == "recv":
            mark(r["actor"], r["ts"], _RECV)

    name_w = max(len(a) for a in actors)
    lines = [
        f"space-time diagram  [{format_seconds(lo)} .. {format_seconds(hi)}]"
        f"  ({width} cols, {(hi - lo) / width:.2e} s/col)",
        f"legend: s=send r=recv x=both M=migrating I=initializing {_IDLE}=idle",
        "",
    ]
    for a in actors:
        lines.append(f"{a.rjust(name_w)} |{''.join(rows[a])}|")
    flights = sorted((f for f in obs_flights(events)
                      if lo <= f["t_send"] <= hi or lo <= f["t_recv"] <= hi),
                     key=lambda f: f["t_send"])
    if flights:
        lines.append("")
        lines.append(f"message flights (first {max_flights} of {len(flights)}):")
        for f in flights[:max_flights]:
            size = "-" if f["nbytes"] is None else format_size(f["nbytes"])
            lines.append(
                f"  {f['sender']:>4} -> {f['receiver']:<6} "
                f"tag={str(f['tag']):<4} {size:>9}  "
                f"sent {format_seconds(f['t_send'])}, "
                f"recv {format_seconds(f['t_recv'])}")
    return "\n".join(lines)
