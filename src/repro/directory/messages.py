"""Control messages of the sharded directory.

All of these travel the connectionless ``ctl`` service — the same
UDP-like daemon path as the scheduler RPCs — and are therefore exposed to
the drop/dup/delay adversary. Each is safe under that exposure:

* a duplicated / replayed :class:`DirUpdate` is discarded by the version
  check at the node (and re-acked, so the publisher stops retrying);
* a duplicated :class:`DirLookup` earns a duplicate reply, which the
  endpoint's token matching ignores as stale;
* a lost anything is covered by sender-side retransmission (the endpoint
  retry policy for lookups, the scheduler's publisher tick for updates).

Lookup *replies* reuse :class:`repro.core.messages.LookupReply` so the
endpoint's wait predicates cannot tell a shard's answer from the
scheduler's — which is the point: the lookup contract is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vm.ids import Rank, VmId

__all__ = ["DirLookup", "DirUpdate", "DirUpdateAck", "DirRetransmitTick"]


@dataclass(frozen=True)
class DirLookup:
    """A location query sent to one of the rank's owning nodes."""

    rank: Rank
    reply_to: VmId
    token: int


@dataclass(frozen=True)
class DirUpdate:
    """Scheduler → directory node: install this location record.

    ``node`` names the target node id so the matching ack identifies
    which replica applied it. Applied only if ``version`` is newer than
    the record the node holds (idempotent under duplication). The ack
    goes back to the sender — the scheduler, the single writer.
    """

    rank: Rank
    status: str
    vmid: VmId | None
    init_vmid: VmId | None
    version: int
    node: int


@dataclass(frozen=True)
class DirUpdateAck:
    """Directory node → scheduler: record at/above this version is held."""

    rank: Rank
    version: int
    node: int


@dataclass(frozen=True)
class DirRetransmitTick:
    """Kernel-timer nudge injected into the scheduler's own mailbox.

    The scheduler must never *block* on directory acks (lookups and
    migrations keep flowing), so unacked updates are re-sent when this
    tick surfaces in its event loop rather than in a waiting spin.
    """
