"""Directory-backend load and latency analysis from a run's trace.

The ablation question: where does location-lookup traffic land? With the
paper's centralized backend every consult hits the scheduler — a hot spot
that grows with rank count. The sharded backend spreads the same
consults across directory nodes. :func:`directory_report` extracts all
of it from one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.text import format_table

__all__ = ["DirectoryLoadReport", "directory_report"]

#: trace kinds opening an endpoint-side location consult
_CONSULT_KINDS = frozenset({"scheduler_consult", "directory_consult"})
#: trace kinds closing one (the consult's answer arrived)
_REPLY_KINDS = frozenset({"scheduler_reply", "dir_reply",
                          "dir_fallback_reply"})


@dataclass
class DirectoryLoadReport:
    """Who served the location lookups of one run, and at what cost."""

    backend: str
    nranks: int
    #: lookups the scheduler process answered (the hot-spot number)
    scheduler_lookups: int
    #: endpoint-side consults triggered by rejected connects
    consults: int
    #: distributed consults that fell back to the scheduler
    fallbacks: int
    #: directory-node id -> lookups answered there
    node_lookups: dict[int, int] = field(default_factory=dict)
    #: directory-node id -> location updates applied there
    node_updates: dict[int, int] = field(default_factory=dict)
    #: mean virtual-time consult latency (consult -> answer), seconds
    mean_latency: float = 0.0
    latency_samples: int = 0
    #: aggregated endpoint cache counters
    cache: dict[str, int] = field(default_factory=dict)

    @property
    def max_node_load(self) -> int:
        """Busiest directory node's lookup count (0 when centralized)."""
        return max(self.node_lookups.values(), default=0)

    def summary(self) -> str:
        rows = [(self.backend, self.nranks, self.scheduler_lookups,
                 self.max_node_load, f"{self.mean_latency * 1e6:.0f}")]
        return format_table(
            ("backend", "ranks", "sched lookups", "max node load",
             "latency(us)"), rows)


def _consult_latencies(vm) -> tuple[float, int]:
    """Mean consult → answer virtual latency over the whole trace.

    A consult without a matching answer event (e.g. the run ended inside
    a retry loop) is dropped rather than guessed at.
    """
    open_at: dict[str, float] = {}
    total = 0.0
    n = 0
    for ev in vm.trace.events:
        if ev.kind in _CONSULT_KINDS:
            open_at[ev.actor] = ev.time
        elif ev.kind in _REPLY_KINDS and ev.actor in open_at:
            total += ev.time - open_at.pop(ev.actor)
            n += 1
    return (total / n if n else 0.0), n


def directory_report(vm, app) -> DirectoryLoadReport:
    """Build the load/latency report for one completed Application run."""
    cluster = getattr(app, "directory_cluster", None)
    backend = app.directory_spec.backend
    consults = len([e for e in vm.trace.events if e.kind in _CONSULT_KINDS])
    fallbacks = len(vm.trace.filter(kind="dir_fallback"))
    mean_latency, latency_samples = _consult_latencies(vm)

    node_lookups: dict[int, int] = {}
    node_updates: dict[int, int] = {}
    if cluster is not None:
        for node_id, stats in cluster.node_stats().items():
            node_lookups[node_id] = stats.lookups_served
            node_updates[node_id] = stats.updates_applied

    cache: dict[str, int] = {}
    for ep in app.all_endpoints:
        for key, value in vars(ep.cache.stats).items():
            cache[key] = cache.get(key, 0) + value

    return DirectoryLoadReport(
        backend=backend,
        nranks=app.nranks,
        scheduler_lookups=app.scheduler_state.lookups_served,
        consults=consults,
        fallbacks=fallbacks,
        node_lookups=node_lookups,
        node_updates=node_updates,
        mean_latency=mean_latency,
        latency_samples=latency_samples,
        cache=cache,
    )
