"""Loader and report renderer for observability JSONL artifacts.

An obs artifact is the merged cross-process event stream an
:class:`~repro.runtime.mp.MPCluster` run writes via
``write_obs_jsonl`` (or an equivalent stream lifted from a simulator
:class:`~repro.sim.trace.Trace` with :func:`events_from_trace`). This
module turns that stream into the migration-window report the ``repro
obs`` CLI prints:

* **phase breakdown** — per-actor durations of the frozen migration
  phases (freeze / reject / drain / transfer / restore / commit), with
  the registry-observed end-to-end window alongside so the phase sum
  can be sanity-checked against an external clock;
* **chunk throughput** — bytes, chunk count and MiB/s of the pipelined
  state transfer, from the per-chunk ``state_chunk`` events;
* **drain stragglers** — per-peer arrival order and relative lag of the
  drain-closing markers (``eom`` / ``peer_migrating``), which identify
  the peer that held the drain phase open.

All keys and phase names come from the frozen vocabulary of
:mod:`repro.obs.events`; unknown records are rejected at load time so a
schema drift fails loudly in CI rather than rendering nonsense.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.obs.events import (
    PHASE_ORDER,
    SPAN_KINDS,
    decode_jsonl_line,
    validate_record,
)
from repro.util.text import format_table

__all__ = [
    "load_obs_events",
    "events_from_trace",
    "phase_breakdown",
    "chunk_throughput",
    "drain_stragglers",
    "gauge_values",
    "render_obs_report",
]


def load_obs_events(path: str | Path, strict: bool = True) -> list[dict]:
    """Read and validate a JSONL artifact; events sorted by ``ts``.

    With ``strict`` (the default) a malformed line raises ``ValueError``
    naming the line number and reason — the CI schema gate. Non-strict
    loading skips bad lines, for poking at artifacts from older runs.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = decode_jsonl_line(line)
            except ValueError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: not JSON: {exc}") from exc
                continue
            reason = validate_record(rec)
            if reason is not None:
                if strict:
                    raise ValueError(f"{path}:{lineno}: {reason}")
                continue
            events.append(rec)
    events.sort(key=lambda r: r["ts"])
    return events


#: Sim trace kinds renamed on the lift: the application's messages
#: become the obs ``send`` / ``recv`` records.
_LIFTED_KINDS = {"snow_send": "send", "snow_recv": "recv"}


def events_from_trace(trace) -> list[dict]:
    """Lift a simulator :class:`~repro.sim.trace.Trace` into obs records.

    Only events whose kind is in the obs vocabulary survive (the sim
    trace also carries protocol events like ``conn_req`` that the obs
    report does not key on), plus ``snow_send`` / ``snow_recv`` lifted
    as ``send`` / ``recv``; ``ts`` is the virtual-time stamp.
    """
    from repro.obs.events import EVENT_KINDS

    out = []
    for ev in trace.events:
        kind = _LIFTED_KINDS.get(ev.kind, ev.kind)
        if kind not in EVENT_KINDS:
            continue
        rec = {"ts": ev.time, "actor": ev.actor, "kind": kind}
        rec.update(ev.detail)
        if validate_record(rec) is None:
            out.append(rec)
    out.sort(key=lambda r: r["ts"])
    return out


def phase_breakdown(events: Iterable[dict]) -> dict[str, dict[str, float]]:
    """``{actor: {phase: seconds}}`` from the ``span_end`` records.

    An actor migrating twice accumulates per phase (the report is about
    where migration time goes, not about individual incidents — the raw
    events remain available for that).
    """
    out: dict[str, dict[str, float]] = {}
    for rec in events:
        if rec["kind"] != "span_end":
            continue
        out.setdefault(rec["actor"], {})
        out[rec["actor"]][rec["phase"]] = (
            out[rec["actor"]].get(rec["phase"], 0.0) + rec["seconds"])
    return out


def migration_windows(events: Iterable[dict]) -> list[dict]:
    """The registry-observed end-to-end windows (rank, seconds)."""
    return [r for r in events if r["kind"] == "migration_window"]


def chunk_throughput(events: Iterable[dict]) -> dict[str, dict]:
    """Per-actor pipelined state-transfer summary.

    ``{actor: {chunks, nbytes, seconds, mib_per_s}}`` — ``seconds`` is
    the stamp spread of that actor's ``state_chunk`` events, so a
    single-chunk transfer reports zero and no rate.
    """
    per: dict[str, list[dict]] = {}
    for rec in events:
        if rec["kind"] == "state_chunk":
            per.setdefault(rec["actor"], []).append(rec)
    out: dict[str, dict] = {}
    for actor, chunks in per.items():
        nbytes = sum(c["nbytes"] for c in chunks)
        seconds = max(c["ts"] for c in chunks) - min(c["ts"] for c in chunks)
        out[actor] = {
            "chunks": len(chunks),
            "nbytes": nbytes,
            "seconds": seconds,
            "mib_per_s": (nbytes / (1024 * 1024) / seconds
                          if seconds > 0 else None),
        }
    return out


def drain_stragglers(events: Iterable[dict]) -> dict[str, list[dict]]:
    """Per-actor drain arrival info, slowest peer last.

    ``{actor: [{peer, last, lag_s}]}`` where ``lag_s`` is each peer's
    closing-marker arrival relative to the actor's first — the last
    entry is the straggler that bounded the drain phase.
    """
    per: dict[str, list[dict]] = {}
    for rec in events:
        if rec["kind"] == "drain_peer":
            per.setdefault(rec["actor"], []).append(rec)
    out: dict[str, list[dict]] = {}
    for actor, recs in per.items():
        t0 = min(r["ts"] for r in recs)
        rows = [{"peer": r["peer"], "last": r["last"], "lag_s": r["ts"] - t0}
                for r in recs]
        rows.sort(key=lambda r: r["lag_s"])
        out[actor] = rows
    return out


def gauge_values(events: Iterable[dict]) -> dict[str, dict[str, float]]:
    """``{actor: {gauge name: value}}`` from the ``gauge`` records.

    The collector appends terminal gauge values to the artifact (last
    write per (actor, name) wins), so these are end-of-run levels —
    queue depth, live link count, live shard count."""
    out: dict[str, dict[str, float]] = {}
    for rec in events:
        if rec["kind"] == "gauge":
            out.setdefault(rec["actor"], {})[rec["name"]] = rec["value"]
    return out


def _fmt_s(value: float | None) -> str:
    if value is None:
        return "-"
    return f"{value * 1e3:.3f}ms" if value < 1.0 else f"{value:.3f}s"


def render_obs_report(events: list[dict]) -> str:
    """The migration-window report the ``repro obs`` CLI prints."""
    lines: list[str] = []
    breakdown = phase_breakdown(events)
    windows = migration_windows(events)

    lines.append(f"obs report: {len(events)} events, "
                 f"{len({r['actor'] for r in events})} actors")
    lines.append("")

    if breakdown:
        lines.append("migration phase breakdown:")
        actors = sorted(breakdown)
        rows = []
        for phase in PHASE_ORDER:
            if not any(phase in breakdown[a] for a in actors):
                continue
            rows.append((phase,) + tuple(
                _fmt_s(breakdown[a].get(phase)) for a in actors))
        rows.append(("(sum)",) + tuple(
            _fmt_s(sum(breakdown[a].values())) for a in actors))
        lines.append(format_table(("phase",) + tuple(actors), rows))
        lines.append("")
    else:
        lines.append("no migration spans in this artifact")
        lines.append("")

    if windows:
        lines.append("registry-observed migration windows:")
        lines.append(format_table(
            ("rank", "window"),
            [(w["rank"], _fmt_s(w["seconds"])) for w in windows]))
        lines.append("")

    chunks = chunk_throughput(events)
    if chunks:
        lines.append("state-transfer chunk throughput:")
        rows = []
        for actor in sorted(chunks):
            c = chunks[actor]
            rate = (f"{c['mib_per_s']:.1f} MiB/s"
                    if c["mib_per_s"] is not None else "-")
            rows.append((actor, c["chunks"], f"{c['nbytes'] / 2**20:.2f} MiB",
                         _fmt_s(c["seconds"]), rate))
        lines.append(format_table(
            ("actor", "chunks", "bytes", "spread", "rate"), rows))
        lines.append("")

    gauges = gauge_values(events)
    if gauges:
        names = sorted({n for per in gauges.values() for n in per})
        lines.append("terminal gauges:")
        rows = [(actor,) + tuple(gauges[actor].get(n, "-") for n in names)
                for actor in sorted(gauges)]
        lines.append(format_table(("actor",) + tuple(names), rows))
        lines.append("")

    stragglers = drain_stragglers(events)
    for actor in sorted(stragglers):
        rows = stragglers[actor]
        lines.append(f"drain arrivals for {actor} "
                     f"(straggler: peer {rows[-1]['peer']}):")
        lines.append(format_table(
            ("peer", "last marker", "lag"),
            [(r["peer"], r["last"], _fmt_s(r["lag_s"])) for r in rows]))
        lines.append("")

    sampled = sum(1 for r in events if r["kind"] in ("send", "recv"))
    spans = sum(1 for r in events if r["kind"] in SPAN_KINDS)
    lines.append(f"event mix: {spans} span markers, {sampled} sampled "
                 f"messages, {len(events) - spans - sampled} other")
    return "\n".join(lines)
