"""Trace analysis: migration timing breakdowns and space-time diagrams."""

from repro.analysis.directory import DirectoryLoadReport, directory_report
from repro.analysis.invariants import (
    InvariantReport,
    InvariantViolation,
    check_invariants,
)
from repro.analysis.metrics import (
    MigrationBreakdown,
    app_progress_events,
    makespan,
    migration_breakdown,
)
from repro.analysis.obs import (
    chunk_throughput,
    drain_stragglers,
    events_from_trace,
    load_obs_events,
    phase_breakdown,
    render_obs_report,
)
from repro.analysis.persist import dumps_trace, load_trace, loads_trace, save_trace
from repro.analysis.report import RunReport, run_report
from repro.analysis.spacetime import (
    lane_of,
    obs_flights,
    phase_bars,
    render_spacetime,
)
from repro.analysis.spacetime_svg import (
    render_obs_spacetime_svg,
    save_obs_spacetime_svg,
)
from repro.analysis.traffic import LinkTraffic, TrafficReport, traffic_report

__all__ = [
    "DirectoryLoadReport",
    "directory_report",
    "InvariantReport",
    "InvariantViolation",
    "check_invariants",
    "LinkTraffic",
    "RunReport",
    "TrafficReport",
    "chunk_throughput",
    "drain_stragglers",
    "dumps_trace",
    "events_from_trace",
    "load_obs_events",
    "load_trace",
    "loads_trace",
    "phase_breakdown",
    "render_obs_report",
    "run_report",
    "save_trace",
    "traffic_report",
    "MigrationBreakdown",
    "app_progress_events",
    "makespan",
    "migration_breakdown",
    "lane_of",
    "obs_flights",
    "phase_bars",
    "render_obs_spacetime_svg",
    "render_spacetime",
    "save_obs_spacetime_svg",
]
