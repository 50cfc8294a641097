"""Automatic load balancing via process migration.

The paper's first listed motivation for process migration is load
balancing and "achieving high performance via utilizing unused network
resources". This module realizes it on top of the reproduction's
scheduler: a :class:`LoadBalancer` watches each rank's progress rate
(application-level progress events in the trace), detects ranks that lag
the pack — a process stuck on a slow or overloaded machine — and issues
migration requests to idle hosts automatically.

Two straggler signals are provided (the paper's contribution is the
migration *mechanism*; any policy can sit on top):

* ``signal="wait_share"`` (default) — the fraction of the window each
  rank spent blocked in communication. In a tightly coupled SPMD code
  every rank *progresses* at the slowest rank's pace, so progress rates
  cannot identify the bottleneck — but the bottleneck rank is the one
  that never waits while everyone else waits for it, so the straggler is
  the rank with the *lowest* wait share.
* ``signal="progress"`` — per-rank progress-event rate (suitable for
  loosely coupled workloads, e.g. task farms).

Common policy rules: the straggler must fall below ``threshold`` × the
median; the destination is the fastest *idle* host (one hosting no
application rank); moves are rate-limited by a cool-down and a total cap.

With ``batch > 1`` one evaluation may relocate several stragglers at
once: every rank below the cutoff is paired with its own idle host
(fastest hosts to the slowest ranks) and the whole batch of
``MigrateRequest``\\ s lands at the scheduler together, where gang
admission (:mod:`repro.core.gang`) opens the windows concurrently — the
MOSIX-style batched-relocation case the gang engine exists for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.launch import Application
from repro.vm.ids import Rank

__all__ = ["LoadBalancer", "BalancerDecision"]


@dataclass(frozen=True)
class BalancerDecision:
    """One automatic migration decision, for inspection/tests."""

    time: float
    rank: Rank
    dest_host: str
    rate: float
    median_rate: float


@dataclass
class LoadBalancer:
    """Progress-rate-based automatic migration policy.

    Parameters
    ----------
    app:
        The running application (must be ``start()``-ed before attaching).
    progress_kind:
        Trace event kind counted as one unit of progress (the MG program
        emits ``app_vcycle_done``; step-function programs can emit their
        own via ``api.log``).
    interval:
        Virtual seconds between policy evaluations.
    threshold:
        Straggler cutoff as a fraction of the median rate.
    cooldown:
        Minimum virtual time between automatic migrations.
    batch:
        Maximum stragglers relocated per evaluation (each to its own
        idle host, as one concurrent gang).
    """

    app: Application
    signal: str = "wait_share"
    progress_kind: str = "app_vcycle_done"
    interval: float = 0.25
    threshold: float = 0.5
    cooldown: float = 1.0
    max_migrations: int = 4
    batch: int = 1
    decisions: list[BalancerDecision] = field(default_factory=list)
    _last_move: float = field(default=-1e9)
    _scan_pos: int = 0
    _window_start: float = 0.0
    _window_counts: dict[Rank, int] = field(default_factory=dict)
    _last_comm: dict[Rank, float] = field(default_factory=dict)

    def attach(self) -> "LoadBalancer":
        """Start periodic policy evaluation on the application's kernel."""
        kernel = self.app.vm.kernel
        kernel.call_later(self.interval, self._tick)
        return self

    # -- policy ----------------------------------------------------------
    def _tick(self) -> None:
        kernel = self.app.vm.kernel
        self._ingest_new_events()
        try:
            self._evaluate()
        finally:
            # keep evaluating as long as the application lives
            if any(t.alive for t in kernel._threads if not t.daemon):
                kernel.call_later(self.interval, self._tick)

    def _ingest_new_events(self) -> None:
        events = self.app.vm.trace.events
        for i in range(self._scan_pos, len(events)):
            ev = events[i]
            if ev.kind == self.progress_kind:
                rank = self._actor_rank(ev.actor)
                if rank is not None:
                    self._window_counts[rank] = \
                        self._window_counts.get(rank, 0) + 1
        self._scan_pos = len(events)

    @staticmethod
    def _actor_rank(actor: str) -> Rank | None:
        # process names are p<rank> or p<rank>.m<k>
        if not actor.startswith("p"):
            return None
        head = actor[1:].split(".", 1)[0]
        return int(head) if head.isdigit() else None

    def _evaluate(self) -> None:
        now = self.app.vm.kernel.now
        window = now - self._window_start
        if window < self.interval * 0.5:
            return
        if self.signal == "progress":
            rates = {r: c / window for r, c in self._window_counts.items()}
            straggler_is_min = True
        elif self.signal == "wait_share":
            rates = self._wait_shares(window)
            straggler_is_min = True
        else:
            raise ValueError(f"unknown balancer signal {self.signal!r}")
        self._window_counts = {}
        self._window_start = now
        if len(rates) < 2:
            return
        ordered = sorted(rates.values())
        median = ordered[len(ordered) // 2]
        if median <= 0:
            return
        if now - self._last_move < self.cooldown:
            return
        if len(self.decisions) >= self.max_migrations:
            return
        cutoff = self.threshold * median
        stragglers = sorted((r for r in rates if rates[r] < cutoff),
                            key=rates.get)  # type: ignore[arg-type]
        if not stragglers:
            return
        room = self.max_migrations - len(self.decisions)
        idle = self._idle_hosts()
        # slowest stragglers get the fastest idle machines; the batch is
        # bounded by the policy knob, the remaining move budget and the
        # number of distinct destinations available
        moves = list(zip(stragglers, idle))[:max(1, self.batch)][:room]
        if not moves:
            return
        self._last_move = now
        for straggler, dest in moves:
            self.decisions.append(BalancerDecision(
                time=now, rank=straggler, dest_host=dest,
                rate=rates[straggler], median_rate=median))
            self.app.vm.trace_record("balancer", "auto_migrate",
                                     rank=straggler, dest=dest,
                                     rate=round(rates[straggler], 3),
                                     median=round(median, 3),
                                     batch=len(moves))
            self.app._request_migration(straggler, dest, src="balancer")

    def _wait_shares(self, window: float) -> dict[Rank, float]:
        """Fraction of the window each rank spent inside blocking
        communication (snow_send/snow_recv). The straggler waits least."""
        shares: dict[Rank, float] = {}
        for rank, ep in self.app.endpoints.items():
            if not ep.ctx.alive:
                continue
            cur = ep.stats.comm_time
            prev = self._last_comm.get(rank)
            self._last_comm[rank] = cur
            if prev is None or cur < prev:
                # first sample, or the endpoint was replaced by a new
                # incarnation after a migration: start a fresh baseline
                continue
            shares[rank] = (cur - prev) / window
        return shares

    def _idle_hosts(self) -> list[str]:
        """Hosts with no application rank (and not the scheduler's),
        fastest machines first."""
        occupied = set()
        for ep in self.app.endpoints.values():
            if ep.ctx.alive:
                occupied.add(ep.ctx.host)
        occupied.add(self.app.scheduler_host)
        candidates = [h for h in self.app.vm.hosts if h not in occupied]
        net = self.app.vm.network
        return sorted(candidates, key=lambda h: net.host(h).cpu_speed,
                      reverse=True)
