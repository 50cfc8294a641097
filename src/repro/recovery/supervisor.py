"""The launcher-side supervisor: detect dead children, restart by policy.

One daemon thread in the launcher process watches three signals:

* **exit codes** — a worker rank's OS process that exited nonzero (and
  is not registered as terminated) is a crash; ``multiprocessing``
  already reaps the child, so ``exitcode`` is the waitpid result;
* **heartbeats** — workers send ``("hb", rank, ts)`` frames on their ctl
  connection; a rank whose heartbeat goes stale past
  ``heartbeat_timeout`` while its process is still alive is *wedged*,
  and the supervisor SIGKILLs it so the exit-code path takes over
  (turning a livelock into the crash-stop case the rest of the
  machinery handles);
* **shard daemons** — a directory shard process that died without being
  :meth:`~repro.runtime.mp_directory.DirectoryDaemonHost.kill`-ed is
  restarted at its old address, replaying its WAL.

Every restart is gated by a per-child
:class:`~repro.recovery.policy.RestartTracker`: exponential backoff,
and escalation to **permanent failure** once the policy's window budget
is spent — the supervisor then stops restarting, records the failure,
and unblocks ``MPCluster.join`` so the launcher can raise instead of
hanging.

The supervisor holds *policy and detection* only; the mechanics of a
rank restart (checkpoint load, init spawn, state ship, directory flip)
are ``MPCluster.recover_rank`` — deliberately, because that path **is**
the migration path.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.recovery.policy import RestartTracker
from repro.recovery.spec import RecoverySpec

__all__ = ["Supervisor"]

log = logging.getLogger("repro.mp.sup")

#: seconds between two scans of exit codes, heartbeats and shards
_POLL_INTERVAL = 0.02


class Supervisor:
    """Monitor one :class:`~repro.runtime.mp.MPCluster`'s children."""

    def __init__(self, cluster: Any, spec: RecoverySpec,
                 metrics: MetricsRegistry | None = None):
        self.cluster = cluster
        self.spec = spec
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_restarts = self.metrics.counter("sup.restarts")
        self._c_backoff = self.metrics.counter("sup.backoff_ms")
        self._c_permfail = self.metrics.counter("sup.permanent_failures")
        self._trackers: dict[tuple, RestartTracker] = {}
        #: processes whose death has been acted on (id() — Process
        #: objects are kept alive by the cluster's member list)
        self._handled: set[int] = set()
        self._hb_killed: set[int] = set()
        #: ("rank", r) / ("shard", n) -> reason, once escalation fired
        self.failed: dict[tuple, str] = {}
        #: restart log for report(): {"kind", "id", "delay", "seconds"}
        self.events: list[dict] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Supervisor":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def report(self) -> dict:
        """Plain-data summary (CLI / tests)."""
        return {
            "restarts": self._c_restarts.value,
            "backoff_ms": self._c_backoff.value,
            "permanent_failures": {"/".join(map(str, k)): v
                                   for k, v in self.failed.items()},
            "events": list(self.events),
        }

    # -- the watch loop ----------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(_POLL_INTERVAL):
            try:
                self._scan_ranks()
                self._scan_heartbeats()
                self._scan_shards()
            except Exception:  # pragma: no cover - keep supervising
                log.exception("supervisor scan failed")

    def _scan_ranks(self) -> None:
        for member in self.cluster.members():
            proc = member.proc
            code = proc.exitcode
            if code is None or code == 0 or id(proc) in self._handled:
                continue
            self._handled.add(id(proc))
            if member.superseded:
                continue  # an older incarnation; its successor is alive
            rank = member.rank
            if self.cluster.rank_status(rank) == "terminated":
                continue  # died during teardown, result already in
            log.warning("rank %d process %s exited with %s; recovering",
                        rank, proc.pid, code)
            self._restart(("rank", rank),
                          lambda r=rank: self.cluster.recover_rank(r))

    def _scan_heartbeats(self) -> None:
        timeout = self.spec.heartbeat_timeout
        if timeout is None:
            return
        now = time.time()
        for rank, last in self.cluster.heartbeats().items():
            if now - last <= timeout or rank in self._hb_killed:
                continue
            if self.cluster.rank_status(rank) != "running":
                continue  # migrating/recovering: heartbeats pause
            member = self.cluster.live_member(rank)
            if member is None or member.proc.exitcode is not None:
                continue  # already dead; the exit-code scan owns it
            log.warning("rank %d heartbeat stale (%.2fs); killing pid %s",
                        rank, now - last, member.proc.pid)
            self._hb_killed.add(rank)
            try:
                os.kill(member.proc.pid, signal.SIGKILL)
            except OSError:
                pass  # raced its own exit; the exit-code scan follows

    def _scan_shards(self) -> None:
        host = getattr(self.cluster.registry, "daemon_host", None)
        if host is None:
            return
        for node_id in host.reap_dead():
            log.warning("directory shard %d died; restarting", node_id)
            self._restart(("shard", node_id),
                          lambda n=node_id: host.restart(n))

    # -- policy-gated restart ----------------------------------------------
    def _restart(self, key: tuple, action) -> None:
        tracker = self._trackers.setdefault(
            key, RestartTracker(self.spec.policy))
        delay = tracker.next_delay(time.time())
        if delay is None:
            reason = (f"{tracker.restarts} restarts within "
                      f"{self.spec.policy.window_s}s")
            log.error("%s %s escalated to permanent failure (%s)",
                      key[0], key[1], reason)
            self.failed[key] = reason
            self._c_permfail.inc()
            self.cluster.note_permanent_failure(key, reason)
            return
        self._c_backoff.inc(int(delay * 1000))
        if delay > 0 and self._stop.wait(delay):
            return
        t0 = time.time()
        try:
            action()
        except Exception as exc:
            log.exception("restart of %s %s failed", key[0], key[1])
            self.failed[key] = f"restart failed: {exc}"
            self._c_permfail.inc()
            self.cluster.note_permanent_failure(key, self.failed[key])
            return
        # a recovered rank's heartbeat may fire again later; re-arm
        self._hb_killed.discard(key[1])
        seconds = time.time() - t0
        self._c_restarts.inc()
        self.events.append({"kind": key[0], "id": key[1],
                            "delay": delay, "seconds": seconds})
        log.info("%s %s restarted in %.3fs (backoff %.3fs)",
                 key[0], key[1], seconds, delay)
