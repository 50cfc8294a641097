"""The distributed directory's decisions, as three pure machines.

Both runtimes run the same consistent-hash shards: the simulator as
daemon processes in virtual time (:mod:`repro.directory.daemons`,
:mod:`repro.directory.client`), the mp runtime as forked OS processes
over TCP (:mod:`repro.runtime.mp_directory`). Every directory decision
lives here, with no sockets, threads, clocks or kernel calls; the
drivers only move messages, sleep and count.

* :class:`ShardNode` — one shard's records: apply-if-newer, and the one
  lookup reply ladder (:func:`reply_for`, which the scheduler's own
  answer uses too);
* :class:`Publisher` — the single writer's retransmit set;
* :class:`LookupLadder` — the client's failover ladder, as a stream of
  :class:`Ask` / :class:`Sleep` / :class:`Fallback` / :class:`Done`
  actions;
* :func:`plan_handoff` — which records a membership change must move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.messages import LookupReply
from repro.directory.base import (
    STATUS_MIGRATING,
    STATUS_TERMINATED,
    STATUS_UNKNOWN,
    LocationRecord,
)
from repro.directory.messages import DirUpdate, DirUpdateAck
from repro.vm.ids import Rank

__all__ = ["Ask", "Done", "Fallback", "LookupLadder", "NodeStats",
           "Publisher", "ShardNode", "Sleep", "plan_handoff", "reply_for",
           "update_for"]


def reply_for(rank: Rank, rec: LocationRecord | None,
              token: int) -> LookupReply:
    """The lookup reply for *rec*, the one vocabulary of every answerer.

    ``migrate`` redirects to the initialized process (paper Fig. 3). A
    missing record answers ``unknown`` — an update may still be in
    flight, or the shard restarted empty — never ``terminated``, which
    the requester treats as authoritative and fatal. Any other status
    (``running``; the mp registry's ``starting``) answers with the
    record's address.
    """
    if rec is None:
        return LookupReply(rank, STATUS_UNKNOWN, None, token)
    if rec.status == STATUS_MIGRATING:
        return LookupReply(rank, "migrate", rec.init_vmid, token,
                           init_vmid=rec.init_vmid)
    vmid = None if rec.status == STATUS_TERMINATED else rec.vmid
    return LookupReply(rank, rec.status, vmid, token,
                       init_vmid=rec.init_vmid)


@dataclass
class NodeStats:
    """Per-node protocol accounting (drives the ablation's hot-spot plot)."""

    lookups_served: int = 0
    unknown_served: int = 0
    updates_applied: int = 0
    updates_ignored: int = 0


class ShardNode:
    """One directory shard: the records it holds and what it answers.

    Which ranks those are is the ring's business, not the node's — it
    holds whatever the publisher sends it.
    """

    def __init__(self, records: dict[Rank, LocationRecord] | None = None):
        self.records: dict[Rank, LocationRecord] = dict(records or {})
        self.stats = NodeStats()

    def apply(self, upd: DirUpdate) -> tuple[DirUpdateAck, bool]:
        """Apply *upd* if it is newer than the record held.

        Always acks with the version now held (>= ``upd.version``), so a
        duplicated or out-of-order update still silences the publisher.
        """
        rec = LocationRecord(rank=upd.rank, status=upd.status,
                             vmid=upd.vmid, init_vmid=upd.init_vmid,
                             version=upd.version)
        applied = rec.newer_than(self.records.get(upd.rank))
        if applied:
            self.records[upd.rank] = rec
            self.stats.updates_applied += 1
        else:
            self.stats.updates_ignored += 1
        held = self.records[upd.rank].version
        return DirUpdateAck(rank=upd.rank, version=held,
                            node=upd.node), applied

    def reply(self, rank: Rank, token: int) -> LookupReply:
        reply = reply_for(rank, self.records.get(rank), token)
        self.stats.lookups_served += 1
        if reply.status == STATUS_UNKNOWN:
            self.stats.unknown_served += 1
        return reply


def update_for(rec: LocationRecord, node: int) -> DirUpdate:
    """The update that installs *rec* at *node*."""
    return DirUpdate(rank=rec.rank, status=rec.status, vmid=rec.vmid,
                     init_vmid=rec.init_vmid, version=rec.version, node=node)


class Publisher:
    """The single writer's ``(rank, node) -> newest unacked update`` set.

    The driver sends what :meth:`publish` and :meth:`reassign` enqueue,
    re-sends :meth:`due` on its retransmit tick, and reports acks. An
    enqueue never replaces a pending update with an older version, so a
    re-seed racing a publish cannot resurrect a stale record.
    """

    def __init__(self):
        self.pending: dict[tuple[Rank, int], DirUpdate] = {}

    def publish(self, record: LocationRecord, owners) -> list[DirUpdate]:
        """Enqueue *record* for each owner where no newer update is
        pending; the updates to send now."""
        sent = []
        for node in owners:
            cur = self.pending.get((record.rank, node))
            if cur is None or cur.version <= record.version:
                sent.append(update_for(record, node))
                self.pending[(record.rank, node)] = sent[-1]
        return sent

    def on_ack(self, ack: DirUpdateAck) -> bool:
        """Retire the pending update the ack covers; True if it did."""
        cur = self.pending.get((ack.rank, ack.node))
        if cur is None or ack.version < cur.version:
            return False
        del self.pending[(ack.rank, ack.node)]
        return True

    def due(self) -> list[DirUpdate]:
        """Every unacked update (the retransmit set)."""
        return list(self.pending.values())

    def reassign(self, moves, records: dict[Rank, LocationRecord]) -> None:
        """Enqueue each moved rank's *current* record to its gaining
        owners (*moves* as from :func:`plan_handoff`)."""
        for rank, _old, gained in moves:
            self.publish(records[rank], gained)

    def forget(self, node: int) -> None:
        """Drop everything pending for a node that left the ring."""
        for key in [k for k in self.pending if k[1] == node]:
            del self.pending[key]


# ---------------------------------------------------------------------------
# the client's failover ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ask:
    """Consult *node*; send back ``(reply, disproved)`` — the reply, or
    ``None`` if the node was unreachable, and the address the caller
    currently holds as disproved (``None`` if none)."""

    node: int
    round: int


@dataclass(frozen=True)
class Sleep:
    """Back off *seconds*; ``echo`` names the node whose reply
    re-affirmed the disproved address (``None`` for a round backoff)."""

    seconds: float
    echo: int | None = None


@dataclass(frozen=True)
class Fallback:
    """The rounds are spent: ask the scheduler (terminal)."""


@dataclass(frozen=True)
class Done:
    """A shard answered (terminal)."""

    status: str
    vmid: Any


class LookupLadder:
    """Replica walk, ``unknown`` backoff, stale-echo pause, fallback.

    Each round walks every owner, starting at ``salt + round`` (clients
    spread over replicas; a dead replica cannot eat the budget).
    ``unknown`` and unreachable answers move the walk on, and a spent
    round backs off ``backoff * 2**round``. A real answer ends the
    ladder — after a pause if it re-affirms the address a conn_nack just
    disproved, or the nack/consult cycle could outrun the publisher.
    """

    def __init__(self, owners, salt: int, rounds: int, backoff: float):
        self.owners = list(owners)
        self.salt = salt
        self.rounds = rounds
        self.backoff = backoff

    def steps(self) -> Iterator:
        """The action stream (a generator; see :class:`Ask` for what to
        send back)."""
        for round_no in range(self.rounds):
            pause = self.backoff * (2 ** round_no)
            k = (self.salt + round_no) % len(self.owners)
            for node in self.owners[k:] + self.owners[:k]:
                reply, disproved = yield Ask(node, round_no)
                if reply is None or reply.status == STATUS_UNKNOWN:
                    continue
                if disproved is not None and reply.vmid == disproved:
                    yield Sleep(pause, echo=node)
                yield Done(reply.status, reply.vmid)
                return
            yield Sleep(pause)
        yield Fallback()

    def run(self, ask: Callable[[Ask], tuple],
            sleep: Callable[[Sleep], None]) -> Done | Fallback:
        """Drive :meth:`steps` with the driver's I/O callbacks (a
        :class:`Sleep` is answered with ``None``)."""
        steps = self.steps()
        action = next(steps)
        while isinstance(action, (Ask, Sleep)):
            answer = ask(action) if isinstance(action, Ask) else sleep(action)
            action = steps.send(answer)
        return action


def plan_handoff(before, after, keys) -> list[tuple[Any, tuple, tuple]]:
    """The record moves a membership change requires:
    ``(key, old_owners, gained_owners)`` for every key whose owner set
    gains a node under *after* — with consistent hashing, only the arcs
    the changed node takes over or gives up (pinned by
    ``tests/property/test_churn_handoff.py``)."""
    moves = []
    for key in keys:
        old = set(before.owners(key))
        gained = tuple(sorted(set(after.owners(key)) - old))
        if gained:
            moves.append((key, tuple(sorted(old)), gained))
    return moves
