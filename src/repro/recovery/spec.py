"""Recovery configuration: one frozen spec handed to ``MPCluster``.

``MPCluster(recovery=RecoverySpec(...))`` turns on, per run:

* **rank checkpoints** — every worker persists a wrapped
  :class:`~repro.core.checkpointing.CheckpointStore` blob (program state
  + communication-state epoch: per-peer sequence numbers, undelivered
  recvlist, sender outbox) every ``checkpoint_every``-th
  ``poll_migration`` call;
* **exactly-once data framing** — data frames carry per-(src, dest)
  sequence numbers so a replayed/re-executed send deduplicates at the
  receiver (the wire format without recovery is unchanged);
* **supervision** — the launcher-side
  :class:`~repro.recovery.supervisor.Supervisor` watches worker exit
  codes, heartbeat frames (when ``heartbeat_timeout`` is set) and shard
  daemons, restarting per :class:`~repro.recovery.policy.RestartPolicy`;
* **shard WAL** — directory shard daemons durably log accepted updates
  (:mod:`repro.directory.wal`) and replay them on a supervised restart
  instead of depending on the registry re-seed.

Shard supervision and shard WALs are always on in a recovery run; the
supervisor's scan period and the delta store's chain bound are
constants.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.recovery.policy import RestartPolicy

__all__ = ["RecoverySpec"]


@dataclass(frozen=True)
class RecoverySpec:
    """Everything ``MPCluster(recovery=...)`` needs.

    ``dir`` is the durable root (checkpoints under it, shard WALs under
    ``<dir>/dirwal``); ``None`` allocates a temp directory for the run.
    ``heartbeat_timeout=None`` disables liveness-by-heartbeat (exit-code
    supervision alone); set it to catch *wedged* — not dead — ranks.
    Workers then beacon ten times per timeout; without one they send no
    beacons at all. ``delta_checkpoints`` writes only the encoded parts
    that changed since the rank's previous version (plus a manifest;
    ``CheckpointStore`` compacts every 8th write and collects superseded
    chains).
    """

    dir: str | None = None
    checkpoint_every: int = 1
    policy: RestartPolicy = field(default_factory=RestartPolicy)
    heartbeat_timeout: float | None = None
    delta_checkpoints: bool = False

    @classmethod
    def coerce(cls, value: "RecoverySpec | bool | str | None"
               ) -> "RecoverySpec | None":
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, (str, Path)):
            return cls(dir=str(value))
        if isinstance(value, cls):
            return value
        raise TypeError(f"recovery must be RecoverySpec | bool | str | "
                        f"None, got {type(value).__name__}")

    def resolve_dir(self) -> str:
        """The durable root, creating a temp one when unset."""
        if self.dir is not None:
            Path(self.dir).mkdir(parents=True, exist_ok=True)
            return str(self.dir)
        return tempfile.mkdtemp(prefix="repro-recovery-")
