"""Supervision and crash recovery for the multiprocess runtime.

The paper motivates communication state transfer with fault tolerance as
much as mobility — §1's user "can crash a process intentionally and
restart ... on a new machine" — and the machinery is the same: restart
from captured state **is** a migration whose source happens to be a disk
checkpoint instead of a live process. This package supplies the pieces
around that observation:

* :class:`~repro.recovery.policy.RestartPolicy` /
  :class:`~repro.recovery.policy.RestartTracker` — exponential backoff
  with a max-restarts window and permanent-failure escalation;
* :class:`~repro.recovery.spec.RecoverySpec` — the single knob handed to
  ``MPCluster(recovery=...)``: durable root, checkpoint cadence,
  restart policy, heartbeat timeout and delta checkpoints;
* :class:`~repro.recovery.supervisor.Supervisor` — the launcher-side
  monitor: child exit codes (waitpid via ``multiprocessing``), heartbeat
  staleness over the ctl channel, and dead shard daemons all funnel into
  policy-gated restarts.

Worker-rank recovery itself lives in :mod:`repro.runtime.mp`
(``MPCluster.recover_rank``), because it *is* the Fig. 5/7 migration
path: spawn an initialized process, ship ListA + the state blob, flip
the directory record on ``restore_complete``. Shard durability lives in
:mod:`repro.directory.wal` + :mod:`repro.runtime.mp_directory`.
"""

from repro.recovery.policy import RestartPolicy, RestartTracker
from repro.recovery.spec import RecoverySpec
from repro.recovery.supervisor import Supervisor

__all__ = [
    "RecoverySpec",
    "RestartPolicy",
    "RestartTracker",
    "Supervisor",
]
