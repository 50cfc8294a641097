"""Run reports: aggregate protocol statistics from an application run.

``run_report`` turns a finished :class:`Application` into a structured
summary (and a printable text block): per-rank communication statistics,
per-pair message matrices, migration breakdowns, and protocol health
(dropped data, stale control, scheduler load). The examples print these;
tests use the structured form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import (
    MigrationBreakdown,
    makespan,
    migration_breakdown,
)
from repro.core.launch import Application
from repro.util.text import format_seconds, format_size, format_table

__all__ = ["RunReport", "run_report"]


@dataclass
class RunReport:
    """Structured summary of one application run."""

    execution: float
    nranks: int
    #: rank -> (messages sent, bytes sent, comm time) over all incarnations
    per_rank: dict[int, tuple[int, int, float]]
    #: (src rank, dst rank) -> message count
    pair_messages: dict[tuple[int, int], int]
    migrations: list[MigrationBreakdown]
    dropped_data: int
    stale_control: int
    scheduler_lookups: int
    conn_reqs: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        return sum(m for m, _, _ in self.per_rank.values())

    @property
    def total_bytes(self) -> int:
        return sum(b for _, b, _ in self.per_rank.values())

    def text(self) -> str:
        lines = [
            f"run report: {self.nranks} ranks, "
            f"execution {format_seconds(self.execution)}, "
            f"{self.total_messages} messages / "
            f"{format_size(self.total_bytes)} total",
            "",
            format_table(
                ("rank", "msgs sent", "bytes", "comm time"),
                [(r, m, format_size(b), format_seconds(t))
                 for r, (m, b, t) in sorted(self.per_rank.items())]),
        ]
        if self.migrations:
            lines.append("")
            lines.append(f"migrations: {len(self.migrations)}")
            for i, b in enumerate(self.migrations):
                lines.append(f"  #{i}: {b}")
        lines.append("")
        lines.append(
            f"protocol health: dropped data={self.dropped_data}, "
            f"stale control={self.stale_control}, "
            f"scheduler lookups={self.scheduler_lookups}, "
            f"connection requests={self.conn_reqs}")
        return "\n".join(lines)


def run_report(app: Application) -> RunReport:
    """Build a :class:`RunReport` from a finished application."""
    vm = app.vm
    trace = vm.trace

    per_rank: dict[int, tuple[int, int, float]] = {}
    conn_reqs = 0
    stale = 0
    for ep in app.all_endpoints:
        m, b, t = per_rank.get(ep.rank, (0, 0, 0.0))
        per_rank[ep.rank] = (m + ep.stats.messages_sent,
                             b + ep.stats.bytes_sent,
                             t + ep.stats.comm_time)
        conn_reqs += ep.stats.conn_reqs_sent
        stale += ep.stats.stale_ignored

    pair: dict[tuple[int, int], int] = {}
    for ev in trace.filter(kind="snow_send"):
        src = ev.actor.lstrip("p").split(".", 1)[0]
        if src.isdigit():
            key = (int(src), ev.detail["dest"])
            pair[key] = pair.get(key, 0) + 1

    # map vmids to process names via spawn events
    vmid_actor = {ev.detail["vmid"]: ev.actor
                  for ev in trace.filter(kind="process_spawned")}
    migrations = []
    for rec in app.migrations:
        if not rec.completed or rec.old_vmid is None:
            continue
        source = vmid_actor.get(str(rec.old_vmid))
        dest = vmid_actor.get(str(rec.new_vmid))
        if source and dest:
            migrations.append(migration_breakdown(trace, source, dest))

    exec_actors = [f"p{r}" for r in per_rank] + \
        [ep.ctx.name for ep in app.all_endpoints]

    return RunReport(
        execution=makespan(trace, exec_actors),
        nranks=app.nranks,
        per_rank=per_rank,
        pair_messages=pair,
        migrations=migrations,
        dropped_data=len(vm.dropped_messages()),
        stale_control=stale,
        scheduler_lookups=(app.scheduler_state.lookups_served
                           if app.scheduler_state else 0),
        conn_reqs=conn_reqs,
    )
