"""Protocol-level messages (paper Section 3).

Three families:

* **application data** — :class:`DataMessage`, what ``snow_send`` /
  ``snow_recv`` carry; matched by ``(src, tag)`` with wildcards like PVM;
* **in-channel control** — :class:`ChannelHello` (completes connection
  establishment), :class:`PeerMigrating` (the migrating process's last
  message on each channel), :class:`EndOfMessage` (a peer's last message
  when it closes a coordinated channel), and the two state-transfer
  payloads :class:`RecvListTransfer` / :class:`StateChunk`;
* **scheduler RPCs** — connectionless messages between processes and the
  scheduler for lookup and migration coordination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.vm.ids import Rank, VmId

__all__ = [
    "ANY",
    "DataMessage",
    "ChannelHello",
    "PeerMigrating",
    "EndOfMessage",
    "RecvListTransfer",
    "StateChunk",
    "LookupRequest",
    "LookupReply",
    "MigrateRequest",
    "MigrationStart",
    "MigrationAbort",
    "NewProcessReply",
    "RestoreComplete",
    "PLSnapshot",
    "MigrationCommit",
    "SchedulerAck",
    "TerminateNotice",
    "SIG_MIGRATE",
    "SIG_DISCONNECT",
]

#: Wildcard for ``snow_recv`` source / tag matching (PVM's -1).
ANY = None

#: Signal names (the prototype used SIGUSR1 / SIGUSR2).
SIG_MIGRATE = "SIG_MIGRATE"
SIG_DISCONNECT = "SIG_DISCONNECT"


# -- application data --------------------------------------------------------

@dataclass
class DataMessage:
    """An application message as stored in the received-message-list."""

    src: Rank
    tag: int
    body: Any
    nbytes: int
    #: virtual time of the snow_send call (space-time diagram rendering)
    sent_at: float = 0.0

    def matches(self, src: Rank | None, tag: int | None) -> bool:
        """PVM-style matching: ``None`` is a wildcard on either field."""
        return (src is ANY or src == self.src) and (tag is ANY or tag == self.tag)


# -- in-channel control -------------------------------------------------------

@dataclass(frozen=True)
class ChannelHello:
    """First message on a fresh channel: tells the acceptor who connected."""

    src_rank: Rank
    #: protocol-control payloads may legitimately arrive after their target
    #: terminated (e.g. peer_migrating to a peer that just finished); data
    #: payloads may not (that would be message loss).
    protocol_control = True


@dataclass(frozen=True)
class PeerMigrating:
    """The migrating process's last message on an existing channel.

    Its reception implies every earlier message on that channel has been
    received (FIFO), and instructs the receiver to close the connection.
    """

    src_rank: Rank
    protocol_control = True


@dataclass(frozen=True)
class EndOfMessage:
    """The last message on a channel before its sender closes it.

    Sent both by coordinated peers during a migration (Fig. 6) and by a
    terminating process on every still-open channel (the in-band FIN that
    lets a concurrently migrating peer finish its drain instead of waiting
    forever for a dead process).
    """

    src_rank: Rank
    protocol_control = True


@dataclass
class RecvListTransfer:
    """The migrating process's received-message-list, shipped to the new
    process (prepended there — "ListA before ListB")."""

    messages: list[DataMessage]
    nbytes: int


@dataclass
class StateChunk:
    """One slice of the machine-independent execution + memory state
    (paper refs [10, 11]).

    The state transfer is a FIFO sequence of these, starting while the
    channel drain is still in progress; the concatenation of all chunk
    parts is byte-identical to ``encode(state, arch)``. Marked protocol
    control because a drain-timeout abort can legitimately strand chunks
    at a terminating initialized process — the retry re-sends the whole
    stream on a fresh channel, so no state is lost.
    """

    seq: int
    parts: tuple
    nbytes: int
    last: bool
    total_nbytes: int
    src_arch: str
    protocol_control = True


# -- scheduler RPCs --------------------------------------------------------------

@dataclass(frozen=True)
class LookupRequest:
    """connect() consulting the scheduler for a process's location."""

    rank: Rank
    reply_to: VmId
    token: int


@dataclass(frozen=True)
class LookupReply:
    """Scheduler's answer: execution status and current/new vmid.

    ``status`` is one of ``"running"``, ``"migrate"`` (paper Fig. 3 line
    11 — redirect to the initialized process), ``"terminated"``, or —
    from a distributed directory node only — ``"unknown"`` (no record
    held yet; the client backs off and retries, see
    :mod:`repro.directory.client`). ``init_vmid`` names the currently
    designated initialized process for the rank, if any — an initialized
    process waiting out a lossy state transfer polls the scheduler and
    uses it to learn whether it is still wanted (see
    :func:`repro.core.migration._pump_transfer`).
    """

    rank: Rank
    status: str
    vmid: VmId | None
    token: int
    init_vmid: VmId | None = None


@dataclass(frozen=True)
class MigrateRequest:
    """User request to the scheduler: move *rank* to *dest_host*."""

    rank: Rank
    dest_host: str


@dataclass(frozen=True)
class MigrationStart:
    """Migrating process → scheduler: migration operations have started."""

    rank: Rank
    old_vmid: VmId


@dataclass(frozen=True)
class NewProcessReply:
    """Scheduler → migrating process: vmid of the initialized process.

    Also carries the migration's causal ``trace_id`` (minted by the
    scheduler when it created the initialized process), so the source
    stamps its freeze/reject/drain/transfer spans with the same id the
    destination already holds.
    """

    rank: Rank
    new_vmid: VmId
    trace_id: str | None = None


@dataclass(frozen=True)
class RestoreComplete:
    """Initialized process → scheduler: state received and restored."""

    rank: Rank
    new_vmid: VmId


@dataclass
class PLSnapshot:
    """Scheduler → initialized process: current PL table + the old vmid."""

    rank: Rank
    table: dict[Rank, VmId] = field(default_factory=dict)
    old_vmid: VmId | None = None


@dataclass(frozen=True)
class MigrationCommit:
    """Initialized process → scheduler: migration fully committed.

    ``ack=True`` asks the scheduler for a :class:`SchedulerAck` so a
    retrying sender knows the notice landed (hardened mode only — the
    default keeps the paper's fire-and-forget flow byte-identical).
    """

    rank: Rank
    ack: bool = False


@dataclass(frozen=True)
class MigrationAbort:
    """Migrating process → scheduler: this migration attempt is off.

    Sent when the channel drain does not finish within the configured
    drain timeout (e.g. a coordinated peer's traffic is being disrupted).
    The process reverts to normal execution; the scheduler tells the
    initialized process to exit and may re-issue the migration request.
    """

    rank: Rank
    old_vmid: VmId
    reason: str = "drain-timeout"


@dataclass(frozen=True)
class SchedulerAck:
    """Scheduler → process: positive acknowledgement of a notice.

    ``kind`` names the RPC being acknowledged (``"migration_commit"``,
    ``"migration_abort"`` or ``"terminate"``), so a retried sender can
    match the ack to the right request. Idempotent on the scheduler side:
    a duplicate notice simply gets another ack.
    """

    kind: str
    rank: Rank


@dataclass(frozen=True)
class TerminateNotice:
    """Application process → scheduler: this rank has finished.

    ``ack=True`` requests a :class:`SchedulerAck` (hardened mode).
    """

    rank: Rank
    ack: bool = False


@dataclass
class IndirectData:
    """A data message travelling PVM's *indirect* path (daemon-routed).

    No connection establishment, per-message daemon hops instead — the
    communication mode the paper's protocol deliberately does *not* use
    (and that MPVM's forwarding relies on). Provided for the transport
    ablation; carries no migration support.
    """

    message: DataMessage


@dataclass(frozen=True)
class InitAbort:
    """Scheduler → initialized process: the migration will never happen.

    Sent when the migrating process terminated before acting on the
    migration request; the waiting initialized process exits instead of
    blocking forever.
    """

    rank: Rank
    reason: str = "rank-terminated"
