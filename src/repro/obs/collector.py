"""Cross-process event collection for the multiprocess runtime.

Worker side, a :class:`WorkerObs` bundles the per-process pieces: a
:class:`~repro.obs.recorder.BufferRecorder` (wall-clock events), a
:class:`~repro.obs.metrics.MetricsRegistry` (hot-path counters), and the
sampling discipline for per-message events. The worker ships batches as
``("obs", rank, actor, events, snapshot_or_None, final)`` frames on its
*existing* registry control connection — no extra socket, and the frames
are plain data for the allowlist unpickler.

Registry side, a :class:`RegistryCollector` merges the per-rank streams:
events accumulate tagged with their actor, metric snapshots fold into
one cluster-wide registry, and :meth:`write_jsonl` emits the
time-ordered artifact that ``repro obs report`` and
:mod:`repro.analysis.obs` consume.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.clock import OffsetEstimator
from repro.obs.events import encode_jsonl_line
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import BufferRecorder, Span

__all__ = ["ObsConfig", "WorkerObs", "RegistryCollector"]


def _incarnation(actor: str) -> int:
    """``p1.m2`` → 2, ``p1`` → 0 — the gauge-merge freshness stamp."""
    _, _, suffix = actor.partition(".m")
    try:
        return int(suffix) if suffix else 0
    except ValueError:
        return 0


@dataclass(frozen=True)
class ObsConfig:
    """What the mp runtime collects. Constructed in the launcher and
    inherited by worker processes (fork).

    ``sample_every`` governs per-*message* events only (``send`` /
    ``recv``): 0 (default) records none — steady-state traffic is then
    visible through counters alone, which is what keeps the enabled-mode
    overhead inside the obs-overhead benchmark's 3%% budget; ``N > 0``
    records every Nth message.

    ``flush_every`` is a *count*: ship a batch once that many events
    buffer up. ``flush_seconds`` is a *period*: when > 0, each worker
    runs a daemon flusher that every ``flush_seconds`` ships whatever is
    buffered plus a live metrics snapshot, so ``repro obs watch`` can
    tail queue depth / outbox length / chunk bytes during a run instead
    of only after teardown. 0 (default) keeps the teardown-only
    behaviour.
    """

    enabled: bool = True
    sample_every: int = 0
    flush_every: int = 512
    flush_seconds: float = 0.0

    @classmethod
    def coerce(cls, value: "ObsConfig | bool | None") -> "ObsConfig | None":
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value if value.enabled else None
        raise TypeError(f"obs must be ObsConfig | bool | None, "
                        f"got {type(value).__name__}")


class WorkerObs:
    """Per-worker observability state (one OS process, one incarnation)."""

    def __init__(self, config: ObsConfig, rank: int, actor: str,
                 send_batch: Callable[[tuple], None]):
        self.config = config
        self.rank = rank
        self.actor = actor
        #: writes one ("obs", ...) frame on the worker's ctl connection
        self._send_batch = send_batch
        self.metrics = MetricsRegistry()
        self.recorder = BufferRecorder(
            actor, flush_every=config.flush_every,
            on_full=lambda _rec: self.flush())
        self.clock = OffsetEstimator()
        self._msg_seq = 0

    # -- recording ---------------------------------------------------------
    def event(self, kind: str, **fields: Any) -> None:
        self.recorder.event(kind, **fields)

    def span(self, phase: str, **fields: Any) -> Span:
        return self.recorder.span(phase, rank=self.rank, **fields)

    def sample_message(self) -> bool:
        """True when this message should emit a per-message event."""
        n = self.config.sample_every
        if n <= 0:
            return False
        self._msg_seq += 1
        return self._msg_seq % n == 0

    # -- shipping ----------------------------------------------------------
    def flush(self, final: bool = False, live: bool = False) -> None:
        """Ship buffered events (and metrics) upstream.

        *final* drains everything, appends the per-peer ``clock_offset``
        events, and attaches the authoritative metrics snapshot; *live*
        (the periodic flusher) attaches a snapshot too, but marked
        non-final so the collector shows it in the live view without
        folding it into the cluster-wide merge. Callers serialize the
        ctl write themselves (the mp runtime holds its ctl write lock).
        """
        if final:
            for kind, fields in self.clock.events():
                self.recorder.event(kind, **fields)
        events = self.recorder.drain()
        snapshot = self.metrics.snapshot() if (final or live) else None
        if not events and snapshot is None:
            return
        try:
            self._send_batch(("obs", self.rank, self.actor, events, snapshot,
                              final))
        except OSError:
            return  # registry gone (teardown); diagnostics are best-effort


class RegistryCollector:
    """Registry-side merge of every worker's streams."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (ts, actor, kind, fields), unsorted until read
        self._events: list[tuple[float, str, str, dict]] = []
        self.metrics = MetricsRegistry()
        #: latest *live* (non-final) snapshot per actor: actor -> (ts, snap)
        self._live: dict[str, tuple[float, list[dict]]] = {}

    def absorb(self, frame: tuple) -> None:
        """Fold one ``("obs", rank, actor, events, snapshot, final)``
        frame.

        Final snapshots merge into the cluster-wide registry stamped
        with the actor's incarnation (deterministic gauge resolution —
        see :meth:`MetricsRegistry.merge_snapshot`); live ones only
        refresh the :meth:`live_view`.
        """
        _, _rank, actor, events, snapshot, final = frame
        with self._lock:
            for ts, kind, fields in events:
                self._events.append((ts, actor, kind, fields))
        if snapshot is not None:
            if final:
                self.metrics.merge_snapshot(snapshot,
                                            stamp=_incarnation(actor))
            else:
                with self._lock:
                    self._live[actor] = (time.time(), snapshot)

    def record(self, actor: str, kind: str, **fields: Any) -> None:
        """Registry-originated event (e.g. the observed migration window)."""
        with self._lock:
            self._events.append((time.time(), actor, kind, fields))

    def events(self) -> list[dict]:
        """Every collected event as a JSONL-shaped dict, time-ordered.

        Terminal gauge values (``mp.queue_depth``, ``mp.live_links``,
        ``dir.live_shards``, ...) are appended as explicit ``gauge``
        records, so the artifact — and the ``repro obs`` report — carry
        them without consulting the metrics side-channel."""
        with self._lock:
            rows = sorted(self._events)
        out = [{"ts": ts, "actor": actor, "kind": kind, **fields}
               for ts, actor, kind, fields in rows]
        ts = out[-1]["ts"] if out else time.time()
        for rec in self.metrics.snapshot():
            if rec["type"] != "gauge":
                continue
            labels = rec.get("labels", {})
            if "actor" in labels:
                actor = str(labels["actor"])
            elif "rank" in labels:
                actor = f"p{labels['rank']}"
            else:
                actor = "registry"
            out.append({"ts": ts, "actor": actor, "kind": "gauge",
                        "name": rec["name"], "value": rec["value"]})
        return out

    def traces(self) -> dict[str, list[dict]]:
        """Events grouped by ``trace_id``, time-ordered within each trace.

        One key per migration (or recovery): the source's
        freeze/reject/drain/transfer spans, the destination's
        restore/commit spans, the per-chunk progress and the registry's
        ``migration_window`` all stitch under the id the runtime stamped
        on the wire.
        """
        out: dict[str, list[dict]] = {}
        for rec in self.events():
            tid = rec.get("trace_id")
            if tid is not None:
                out.setdefault(tid, []).append(rec)
        return out

    def trace_links(self) -> dict[str, list[str]]:
        """Cross-trace causality edges: ``{trace_id: [linked ids...]}``.

        Built from the ``links`` field of collected records (today: a
        recovery's ``recover`` root span linking the migration window it
        interrupted). Only traces that carry at least one link appear;
        linked ids are de-duplicated in first-seen order so stitching
        tools can walk migration → recovery chains deterministically.
        """
        out: dict[str, list[str]] = {}
        for rec in self.events():
            tid = rec.get("trace_id")
            links = rec.get("links")
            if tid is None or not links:
                continue
            seen = out.setdefault(tid, [])
            for link in links:
                if link not in seen:
                    seen.append(link)
        return out

    def live_view(self) -> dict[str, dict[str, Any]]:
        """Latest streamed gauge levels per actor.

        ``{actor: {"ts": <last flush>, "gauges": {name: value}}}`` from
        the periodic (non-final) snapshots — the data ``repro obs
        watch`` tails during a run.
        """
        with self._lock:
            live = dict(self._live)
        view: dict[str, dict[str, Any]] = {}
        for actor in sorted(live):
            ts, snapshot = live[actor]
            gauges = {rec["name"]: rec["value"] for rec in snapshot
                      if rec["type"] == "gauge"}
            view[actor] = {"ts": ts, "gauges": gauges}
        return view

    def write_jsonl(self, path: str) -> int:
        """Write the merged artifact; returns the number of records."""
        records = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(encode_jsonl_line(rec) + "\n")
        return len(records)
