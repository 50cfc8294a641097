"""Out-of-process directory daemons for the multiprocess runtime.

The simulator's sharded directory runs its nodes as daemon processes in
*virtual* time; on the mp runtime the same consistent-hash shards are
standalone OS processes, each with its own listening socket, so the
failure model the sim stress suite assumes — a shard that *dies* — is
exercised for real:

* :func:`shard_daemon_main` is the daemon: one forked OS process per
  directory node, serving :class:`~repro.directory.messages.DirLookup` /
  :class:`~repro.directory.messages.DirUpdate` over TCP with the same
  length-prefixed framing (and the same allowlist unpickler) as the rest
  of the mp runtime.
* :class:`DirectoryDaemonHost` lives in the launcher: it spawns the
  daemons, publishes version-stamped location records to the owners
  (retransmitting until acked — the mp analogue of the simulator's
  :class:`~repro.directory.daemons.DirectoryPublisher`), SIGKILLs and
  restarts shards for the crash-stop scenarios, and runs scheduler-driven
  membership churn: :meth:`~DirectoryDaemonHost.join` /
  :meth:`~DirectoryDaemonHost.leave` hand records over to their new
  owners one by one, verified record-by-record, before the ring flips.
* :class:`MPDirectoryClient` is the worker-side failover ladder against
  real sockets: replica walk over connection-refused / half-open / slow
  shards, ``unknown`` backoff, scheduler fallback — the same ladder
  :class:`~repro.directory.client.DirectoryClient` runs under the sim
  fault adversary, now driven by genuine ``ECONNREFUSED`` and socket
  timeouts.

Consistency model is unchanged from the sim daemons: the registry (the
scheduler) is the **single writer**; daemons are version-checked read
replicas that answer ``unknown`` — never ``terminated`` — for a record
they do not hold, so a freshly restarted (empty) shard can only delay a
client, not wreck it. The scheduler fallback keeps the lookup contract
("a committed location is eventually returned") independent of shard
liveness.
"""

from __future__ import annotations

import itertools
import logging
import multiprocessing as mp
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.messages import LookupReply
from repro.directory.hashring import HashRing
from repro.directory.messages import DirLookup, DirUpdate, DirUpdateAck
from repro.directory.spec import DirectorySpec
from repro.directory.wal import DirectoryWAL
from repro.obs.metrics import MetricsRegistry
from repro.runtime.framing import (
    FrameClosed,
    UnsafeFrame,
    allow_frame_global,
    recv_frame,
    send_frame,
)
from repro.util.errors import ProtocolError

__all__ = [
    "DaemonClientConfig",
    "DirectoryDaemonHost",
    "HandoffRecord",
    "MembershipChange",
    "MPDirectoryClient",
    "plan_handoff",
    "shard_daemon_main",
]

log = logging.getLogger("repro.mp.dir")

# The directory control messages (and the shared LookupReply) become part
# of the mp frame vocabulary once daemons are in play. Registered at
# import time so every process that frames them — launcher, daemons,
# workers — admits exactly these and nothing else.
for _module, _name in (
    ("repro.directory.messages", "DirLookup"),
    ("repro.directory.messages", "DirUpdate"),
    ("repro.directory.messages", "DirUpdateAck"),
    ("repro.core.messages", "LookupReply"),
):
    allow_frame_global(_module, _name)

#: Client-side budgets. Loopback connection-refused is immediate, so the
#: dominant failure cost is a half-open / deaf shard eating REPLY_TIMEOUT
#: once per candidate; the whole ladder is bounded by
#: rounds * candidates * (CONNECT + REPLY) + backoff + one scheduler RPC.
CONNECT_TIMEOUT = 0.5
REPLY_TIMEOUT = 1.0
#: Rounds across the shards before the scheduler answers, and the base
#: backoff between "unknown" rounds (mirrors repro.directory.client).
UNKNOWN_ROUNDS = 2
UNKNOWN_BACKOFF = 0.02

#: Publisher retransmit tick (the mp analogue of daemons.PUBLISH_TICK).
PUBLISH_TICK = 0.05
#: Per-update ack wait inside the publisher thread.
ACK_TIMEOUT = 0.5
#: per-record budget for a churn handoff push + read-back to stick
HANDOFF_TIMEOUT = 2.0

_BACKLOG = 16


# ---------------------------------------------------------------------------
# the shard daemon (one OS process per directory node)
# ---------------------------------------------------------------------------

def _daemon_reply(records: dict, rank: int, token: int) -> LookupReply:
    """Build a lookup reply from this daemon's record of *rank*.

    Mirrors the mp registry's reply semantics — ``migrating`` redirects
    to the initialized process's address — with the directory-specific
    rule: a missing record answers ``unknown`` (an update may still be
    in flight, or this shard restarted empty), never ``terminated``.
    """
    rec = records.get(rank)
    if rec is None:
        return LookupReply(rank, "unknown", None, token)
    status, addr, init_addr, _version = rec
    if status == "migrating":
        return LookupReply(rank, "migrating", init_addr, token,
                           init_vmid=init_addr)
    if status == "terminated":
        return LookupReply(rank, "terminated", None, token)
    # "running" (addr set) or "starting" (addr None): the requester
    # retries a None address exactly as with the registry's answer.
    return LookupReply(rank, status, addr, token)


def shard_daemon_main(node_id: int, listeners: dict[int, socket.socket],
                      wal_dir: str | None = None) -> None:
    """Entry point of one directory shard daemon (forked OS process).

    ``listeners`` maps node id → listening socket as inherited over
    fork; every listener except our own is closed immediately, so a
    SIGKILLed sibling's port really dies with it (a held fd would keep
    accepting into a void).

    With *wal_dir* the shard is durable: accepted updates are appended
    (and fsynced) to a :class:`~repro.directory.wal.DirectoryWAL`
    *before* the ack goes out, and a restart replays the log — the shard
    comes back serving its records without the registry re-seed.
    """
    listener = listeners[node_id]
    for other_id, other in listeners.items():
        if other_id != node_id:
            try:
                other.close()
            except OSError:
                pass

    lock = threading.Lock()
    wal = DirectoryWAL(wal_dir) if wal_dir else None
    #: rank -> (status, addr, init_addr, version)
    records: dict[int, tuple] = wal.replay() if wal is not None else {}
    stats = {"lookups": 0, "updates": 0, "updates_ignored": 0,
             "unknown": 0, "replayed": len(records), "compactions": 0}

    def serve(conn: socket.socket) -> None:
        try:
            while True:
                frame = recv_frame(conn)
                if isinstance(frame, DirLookup):
                    with lock:
                        stats["lookups"] += 1
                        reply = _daemon_reply(records, frame.rank,
                                              frame.token)
                        if reply.status == "unknown":
                            stats["unknown"] += 1
                    send_frame(conn, reply)
                elif isinstance(frame, DirUpdate):
                    rec = (frame.status, frame.vmid, frame.init_vmid,
                           frame.version)
                    with lock:
                        cur = records.get(frame.rank)
                        if cur is None or frame.version > cur[3]:
                            records[frame.rank] = rec
                            stats["updates"] += 1
                            if wal is not None:
                                # durability before acknowledgement: the
                                # write side may prune its retransmit
                                # state the moment the ack lands
                                wal.append(frame.rank, rec)
                                if wal.maybe_compact(records):
                                    stats["compactions"] = wal.compactions
                        else:
                            stats["updates_ignored"] += 1
                        held = records[frame.rank][3]
                    send_frame(conn, DirUpdateAck(
                        rank=frame.rank, version=held, node=node_id))
                elif frame[0] == "records":
                    ranks = frame[1]
                    with lock:
                        if ranks is None:
                            out = dict(records)
                        else:
                            out = {r: records[r] for r in ranks
                                   if r in records}
                    send_frame(conn, ("records", out))
                elif frame[0] == "stats":
                    with lock:
                        send_frame(conn, ("stats", node_id, dict(stats)))
                elif frame[0] == "ping":
                    send_frame(conn, ("pong", node_id))
                elif frame[0] == "shutdown":
                    send_frame(conn, ("bye", node_id))
                    # graceful leave: flush the reply, then exit hard —
                    # other serve threads hold no state worth unwinding
                    conn.close()
                    os._exit(0)
                else:
                    raise ValueError(f"bad directory frame {frame!r}")
        except (FrameClosed, OSError, UnsafeFrame,
                TypeError, IndexError, ValueError):
            # a frame that is not this protocol's (wrong type, arity or
            # field) is outside input: same as a closed connection
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            os._exit(0)
        threading.Thread(target=serve, args=(conn,), daemon=True).start()


# ---------------------------------------------------------------------------
# membership-change planning (pure; property-tested against HashRing)
# ---------------------------------------------------------------------------

def plan_handoff(before, after, keys) -> list[tuple[Any, tuple, tuple]]:
    """The record moves a membership change requires.

    Returns ``(key, old_owners, gained_owners)`` for every key whose
    owner set gains at least one node under the *after* topology — i.e.
    exactly the records that must be pushed somewhere new. Consistent
    hashing is what keeps this list small: the moved keys are the arcs
    the joining (or inherited-from-leaving) node takes over, not a
    global reshuffle; ``tests/property/test_churn_handoff.py`` pins that
    bound against :class:`~repro.directory.hashring.HashRing` itself.
    """
    moves = []
    for key in keys:
        old = set(before.owners(key))
        gained = tuple(sorted(set(after.owners(key)) - old))
        if gained:
            moves.append((key, tuple(sorted(old)), gained))
    return moves


@dataclass(frozen=True)
class HandoffRecord:
    """One record pushed to one gaining owner, with its verification."""

    rank: int
    node: int
    version: int
    verified: bool


@dataclass(frozen=True)
class MembershipChange:
    """Outcome of one scheduler-driven join/leave."""

    kind: str                      #: "join" | "leave"
    node_id: int
    epoch: int
    moved: tuple                   #: ranks whose owner set changed
    handoff: tuple                 #: HandoffRecord per (rank, gaining node)

    @property
    def complete(self) -> bool:
        return all(h.verified for h in self.handoff)


# ---------------------------------------------------------------------------
# the launcher-side host: spawn / publish / kill / restart / churn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DaemonClientConfig:
    """Everything a worker needs to consult the shard daemons.

    Plain data (safe over fork and the allowlist wire): topologies are
    rebuilt deterministically from the node ids, so only membership and
    addresses travel. ``epoch`` orders membership views — a client
    updates only to a strictly newer one.
    """

    epoch: int
    node_ids: tuple
    addrs: dict = field(default_factory=dict)
    replication: int = 2


class DirectoryDaemonHost:
    """Spawns, supervises and feeds the shard daemon processes.

    Lives in the launcher process next to the mp registry. The host is
    the write side (the registry calls :meth:`publish` with the registry
    lock held; a background thread pushes version-stamped updates to the
    owners and retransmits until acked) and the control plane (crash-stop
    :meth:`kill` / :meth:`restart`, membership :meth:`join` /
    :meth:`leave` with record-by-record handoff).

    Observability: ``dir.live_shards`` and ``dir.handoff_backlog``
    gauges plus ``dir.publishes`` / ``dir.publish_acks`` /
    ``dir.publish_retransmits`` / ``dir.daemon_restarts`` /
    ``dir.handoff_records`` counters land in *metrics* — the registry
    collector's registry when observability is on, so they surface in
    ``MPCluster.metrics_snapshot()`` next to the worker counters.
    """

    def __init__(self, spec: DirectorySpec,
                 metrics: MetricsRegistry | None = None,
                 wal_dir: str | None = None):
        if not spec.distributed:
            raise ProtocolError(
                "daemon host needs a distributed backend")
        self.spec = spec
        #: durable-shard root: each daemon logs to ``<wal_dir>/shard-<id>``
        #: and a supervised restart replays instead of re-seeding
        self.wal_dir = wal_dir
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ctx = mp.get_context("fork")
        self._lock = threading.RLock()
        self.node_ids: list[int] = list(range(spec.nodes))
        self._next_id = spec.nodes
        self.addrs: dict[int, tuple] = {}
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._dead: set[int] = set()
        self.epoch = 0
        self.topology = HashRing(self.node_ids,
                                 replication=spec.replication)
        #: authoritative mirror (the single writer's view):
        #: rank -> (status, addr, init_addr, version)
        self._records: dict[int, tuple] = {}
        self._versions: dict[int, int] = {}

        self._g_live = self.metrics.gauge("dir.live_shards")
        self._g_backlog = self.metrics.gauge("dir.handoff_backlog")
        self._c_publishes = self.metrics.counter("dir.publishes")
        self._c_acks = self.metrics.counter("dir.publish_acks")
        self._c_retx = self.metrics.counter("dir.publish_retransmits")
        self._c_restarts = self.metrics.counter("dir.daemon_restarts")
        self._c_handoff = self.metrics.counter("dir.handoff_records")
        self._c_replayed = self.metrics.counter("recovery.replayed_records")

        # spawn: bind every listener, then fork
        listeners = {i: self._bind() for i in self.node_ids}
        self.addrs = {i: l.getsockname() for i, l in listeners.items()}
        for i in self.node_ids:
            self._fork(i, listeners)
        for l in listeners.values():
            l.close()
        self._g_live.set(len(self.node_ids))

        # publisher: (rank, node) -> newest unacked update
        self._pending: dict[tuple[int, int], DirUpdate] = {}
        self._cond = threading.Condition()
        self._closed = False
        self._pub_conns: dict[int, socket.socket] = {}
        self._pub_thread = threading.Thread(target=self._publish_loop,
                                            daemon=True)
        self._pub_thread.start()

    # -- process management ------------------------------------------------
    @staticmethod
    def _bind(addr: tuple = ("127.0.0.1", 0)) -> socket.socket:
        return socket.create_server(tuple(addr), backlog=_BACKLOG)

    def _fork(self, node_id: int,
              listeners: dict[int, socket.socket]) -> None:
        shard_wal = (os.path.join(self.wal_dir, f"shard-{node_id}")
                     if self.wal_dir is not None else None)
        p = self._ctx.Process(
            target=shard_daemon_main,
            args=(node_id, listeners, shard_wal),
            daemon=True)
        p.start()
        self._procs[node_id] = p
        log.debug("shard %d up at %s (pid %d)", node_id,
                  self.addrs.get(node_id), p.pid)

    def live_count(self) -> int:
        with self._lock:
            return len(self.node_ids) - len(self._dead)

    def kill(self, node_id: int) -> None:
        """SIGKILL one shard daemon — crash-stop, membership unchanged.

        The ring keeps routing to the dead node; clients fail over on
        connection-refused. :meth:`restart` brings it back (empty) at
        the same address.
        """
        with self._lock:
            p = self._procs.get(node_id)
            if p is None or node_id in self._dead:
                raise ProtocolError(f"shard {node_id} is not running")
            self._dead.add(node_id)
        os.kill(p.pid, signal.SIGKILL)
        p.join(timeout=5.0)
        self._g_live.dec()
        log.debug("shard %d SIGKILLed", node_id)

    def restart(self, node_id: int, reseed: bool | None = None) -> int:
        """Respawn a killed shard at its old address; returns the number
        of records it replayed from its WAL (0 without one).

        Without a WAL the fresh daemon starts *empty* — it answers
        ``unknown`` until the re-seeded records land, which the version
        check makes idempotent against anything the publisher was still
        retrying. With a WAL the daemon replays its own log, so the
        re-seed is skipped (*reseed* defaults to ``wal_dir is None``;
        pass ``True``/``False`` to force either path — the stress suite
        pins that a WAL restart converges with the re-seed disabled).
        """
        if reseed is None:
            reseed = self.wal_dir is None
        with self._lock:
            if node_id not in self._dead:
                raise ProtocolError(f"shard {node_id} is not dead")
            addr = self.addrs[node_id]
            owned = {rank: rec for rank, rec in self._records.items()
                     if node_id in self.topology.owners(rank)}
        deadline = time.time() + 5.0
        while True:
            try:
                listener = self._bind(addr)
                break
            except OSError:
                if time.time() > deadline:
                    raise
                time.sleep(0.02)
        with self._lock:
            self._fork(node_id, {node_id: listener})
            self._dead.discard(node_id)
        listener.close()
        self._c_restarts.inc()
        self._g_live.inc()
        if reseed:
            with self._cond:
                for rank, rec in owned.items():
                    self._pending[(rank, node_id)] = self._make_update(
                        rank, rec, node_id)
                self._cond.notify()
        replayed = self._poll_replayed(node_id)
        if replayed:
            self._c_replayed.inc(replayed)
        return replayed

    def _poll_replayed(self, node_id: int) -> int:
        """Best-effort read of a freshly restarted shard's replay count."""
        with self._lock:
            addr = self.addrs.get(node_id)
        if addr is None or self.wal_dir is None:
            return 0
        deadline = time.time() + 2.0
        while time.time() < deadline:
            try:
                with socket.create_connection(
                        tuple(addr), timeout=CONNECT_TIMEOUT) as conn:
                    conn.settimeout(REPLY_TIMEOUT)
                    send_frame(conn, ("stats",))
                    _kind, _nid, stats = recv_frame(conn)
                return int(stats.get("replayed", 0))
            except (OSError, FrameClosed, UnsafeFrame, ValueError):
                time.sleep(0.02)
        return 0

    def reap_dead(self) -> list[int]:
        """Member shards whose process died *without* :meth:`kill`.

        Marks them dead (so :meth:`restart` applies) and returns the
        newly discovered node ids — the supervisor's shard scan.
        """
        newly: list[int] = []
        with self._lock:
            for node_id, p in self._procs.items():
                if (node_id in self._dead or node_id not in self.node_ids
                        or p.exitcode is None):
                    continue
                self._dead.add(node_id)
                newly.append(node_id)
        for _ in newly:
            self._g_live.dec()
        return newly

    # -- write path (the registry is the single writer) --------------------
    def publish(self, rank: int, status: str, addr: tuple | None,
                init_addr: tuple | None) -> None:
        """Version-stamp and enqueue a record for its owners.

        Never blocks: socket work happens on the publisher thread, which
        retransmits until each owner acks — exactly the simulator
        publisher's contract, against real sockets.
        """
        with self._lock:
            version = self._versions.get(rank, 0) + 1
            self._versions[rank] = version
            rec = (status, tuple(addr) if addr else None,
                   tuple(init_addr) if init_addr else None, version)
            self._records[rank] = rec
            owners = self.topology.owners(rank)
        with self._cond:
            for node in owners:
                self._pending[(rank, node)] = self._make_update(rank, rec,
                                                                node)
                self._c_publishes.inc()
            self._cond.notify()

    @staticmethod
    def _make_update(rank: int, rec: tuple, node: int) -> DirUpdate:
        status, addr, init_addr, version = rec
        return DirUpdate(rank=rank, status=status, vmid=addr,
                         init_vmid=init_addr, version=version,
                         reply_to=None, node=node)

    def _publish_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait(timeout=4 * PUBLISH_TICK)
                if self._closed:
                    return
                items = list(self._pending.items())
            retained = False
            for key, upd in items:
                if self._rpc_update(upd):
                    self._c_acks.inc()
                    with self._cond:
                        cur = self._pending.get(key)
                        if cur is not None and cur.version <= upd.version:
                            del self._pending[key]
                else:
                    self._c_retx.inc()
                    retained = True
            if retained:
                time.sleep(PUBLISH_TICK)

    def _rpc_update(self, upd: DirUpdate,
                    conns: dict | None = None) -> bool:
        """Send one update to its node; True once the ack covers it.

        *conns* is the connection cache to use. The default,
        ``_pub_conns``, belongs to the publisher thread alone — handoff
        pushes run on the churn caller's thread and must pass their own
        cache, or two threads interleave frames on one socket and read
        each other's acks.
        """
        if conns is None:
            conns = self._pub_conns
        node = upd.node
        with self._lock:
            addr = self.addrs.get(node)
        if addr is None:
            return False
        conn = conns.get(node)
        for attempt in range(2):
            try:
                if conn is None:
                    conn = socket.create_connection(
                        tuple(addr), timeout=CONNECT_TIMEOUT)
                    conn.settimeout(ACK_TIMEOUT)
                send_frame(conn, upd)
                ack = recv_frame(conn)
                if isinstance(ack, DirUpdateAck) and ack.rank == upd.rank \
                        and ack.version >= upd.version:
                    conns[node] = conn
                    return True
                return False
            except (OSError, FrameClosed, UnsafeFrame, ValueError):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
                conns.pop(node, None)
                conn = None
                # a cached connection may be stale (daemon restarted):
                # one fresh attempt before reporting failure
        return False

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait until every published update has been acked."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            with self._cond:
                if not self._pending:
                    return True
            time.sleep(0.01)
        return False

    # -- membership churn --------------------------------------------------
    def _push_and_verify(self, moves, records) -> list[HandoffRecord]:
        """Push each moved record to its gaining owners, read each back.

        Record-by-record: the push is a synchronous versioned update, the
        verification an independent ``records`` read from the gaining
        daemon confirming it now holds at least that version. Transient
        slowness (a busy box, a backed-up accept queue) is retried until
        ``HANDOFF_TIMEOUT``; only a daemon that stays unreachable leaves
        ``verified=False``. The handoff-backlog gauge counts down as
        records land.
        """
        handoff: list[HandoffRecord] = []
        # this thread's own sockets — never the publisher thread's cache
        conns: dict[int, socket.socket] = {}
        self._g_backlog.set(len(moves))
        try:
            for rank, _old, gained in moves:
                with self._lock:
                    rec = self._records[rank]  # newest, not the plan snapshot
                for node in gained:
                    deadline = time.time() + HANDOFF_TIMEOUT
                    while True:
                        ok = self._rpc_update(
                            self._make_update(rank, rec, node), conns)
                        verified = (ok and
                                    self._read_version(node, rank) >= rec[3])
                        if verified or time.time() >= deadline:
                            break
                        time.sleep(PUBLISH_TICK)
                    handoff.append(HandoffRecord(rank=rank, node=node,
                                                 version=rec[3],
                                                 verified=verified))
                    self._c_handoff.inc()
                self._g_backlog.dec()
        finally:
            for conn in conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
        return handoff

    def _read_version(self, node: int, rank: int) -> int:
        with self._lock:
            addr = self.addrs.get(node)
        if addr is None:
            return -1
        try:
            with socket.create_connection(tuple(addr),
                                          timeout=CONNECT_TIMEOUT) as conn:
                conn.settimeout(REPLY_TIMEOUT)
                send_frame(conn, ("records", [rank]))
                kind, recs = recv_frame(conn)
            if kind == "records" and rank in recs:
                return recs[rank][3]
        except (OSError, FrameClosed, UnsafeFrame, ValueError):
            pass
        return -1

    def join(self) -> MembershipChange:
        """Add one shard: spawn, hand over its arcs, then flip the ring.

        The new daemon is live (and empty) before any record moves; the
        topology — what lookups and publishes route by — flips only
        after every moved record is pushed. Publishes racing the handoff
        are caught by a final re-enqueue of the moved records under the
        new ring (version checks make the overlap idempotent).
        """
        with self._lock:
            new_id = self._next_id
            self._next_id += 1
            before = self.topology
            after = HashRing(self.node_ids + [new_id],
                             replication=self.spec.replication)
            moves = plan_handoff(before, after, list(self._records))
            listener = self._bind()
            self.addrs[new_id] = listener.getsockname()
            self._fork(new_id, {new_id: listener})
        listener.close()
        self._g_live.inc()
        handoff = self._push_and_verify(moves, self._records)
        with self._lock:
            self.node_ids.append(new_id)
            self.topology = after
            self.epoch += 1
            epoch = self.epoch
        # close the race window: anything published during the handoff
        # went to the *old* owners; re-enqueue the moved records so the
        # gaining owners converge to the newest version
        with self._cond:
            for rank, _old, gained in moves:
                rec = self._records[rank]
                for node in gained:
                    self._pending[(rank, node)] = self._make_update(
                        rank, rec, node)
            self._cond.notify()
        log.debug("shard %d joined (epoch %d, %d records moved)",
                  new_id, epoch, len(moves))
        return MembershipChange("join", new_id, epoch,
                                moved=tuple(r for r, _o, _g in moves),
                                handoff=tuple(handoff))

    def leave(self, node_id: int) -> MembershipChange:
        """Remove one shard: hand its records over, flip, shut it down."""
        with self._lock:
            if node_id not in self.node_ids:
                raise ProtocolError(f"shard {node_id} is not a member")
            if len(self.node_ids) <= 1:
                raise ProtocolError("cannot remove the last shard")
            before = self.topology
            remaining = [i for i in self.node_ids if i != node_id]
            after = HashRing(remaining,
                             replication=self.spec.replication)
            moves = plan_handoff(before, after, list(self._records))
        handoff = self._push_and_verify(moves, self._records)
        with self._lock:
            self.node_ids = remaining
            self.topology = after
            self.epoch += 1
            epoch = self.epoch
            was_dead = node_id in self._dead
            self._dead.discard(node_id)
            p = self._procs.pop(node_id, None)
            addr = self.addrs.pop(node_id, None)
        with self._cond:
            for key in [k for k in self._pending if k[1] == node_id]:
                del self._pending[key]
            # racing publishes may have targeted old owners; re-enqueue
            # the moved records under the new ring
            for rank, _old, gained in moves:
                rec = self._records[rank]
                for node in gained:
                    self._pending[(rank, node)] = self._make_update(
                        rank, rec, node)
            self._cond.notify()
        conn = self._pub_conns.pop(node_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if p is not None and not was_dead:
            try:
                with socket.create_connection(
                        tuple(addr), timeout=CONNECT_TIMEOUT) as c:
                    c.settimeout(REPLY_TIMEOUT)
                    send_frame(c, ("shutdown",))
                    recv_frame(c)
            except (OSError, FrameClosed, UnsafeFrame, ValueError):
                pass
            p.join(timeout=2.0)
            if p.is_alive():
                p.terminate()
            self._g_live.dec()
        log.debug("shard %d left (epoch %d, %d records moved)",
                  node_id, epoch, len(moves))
        return MembershipChange("leave", node_id, epoch,
                                moved=tuple(r for r, _o, _g in moves),
                                handoff=tuple(handoff))

    # -- read-side helpers -------------------------------------------------
    def membership(self) -> dict:
        """The client-facing membership view (plain data, wire-safe)."""
        with self._lock:
            return {"epoch": self.epoch,
                    "node_ids": tuple(self.node_ids),
                    "addrs": {i: tuple(self.addrs[i])
                              for i in self.node_ids},
                    "replication": self.spec.replication}

    def client_config(self) -> DaemonClientConfig:
        return DaemonClientConfig(**self.membership())

    def make_client(self, salt: int = 0,
                    fallback: Callable | None = None,
                    **kwargs: Any) -> "MPDirectoryClient":
        return MPDirectoryClient(self.client_config(), salt=salt,
                                 fallback=fallback, **kwargs)

    def poll_stats(self) -> dict[int, dict | None]:
        """Per-shard protocol counters (``None`` for unreachable shards)."""
        out: dict[int, dict | None] = {}
        with self._lock:
            targets = [(i, self.addrs[i]) for i in self.node_ids]
        for node_id, addr in targets:
            try:
                with socket.create_connection(
                        tuple(addr), timeout=CONNECT_TIMEOUT) as conn:
                    conn.settimeout(REPLY_TIMEOUT)
                    send_frame(conn, ("stats",))
                    _kind, _nid, stats = recv_frame(conn)
                out[node_id] = stats
            except (OSError, FrameClosed, UnsafeFrame, ValueError):
                out[node_id] = None
        return out

    def records_on(self, node_id: int,
                   ranks: list | None = None) -> dict:
        """A shard's raw records (handoff verification, tests)."""
        with self._lock:
            addr = self.addrs[node_id]
        with socket.create_connection(tuple(addr),
                                      timeout=CONNECT_TIMEOUT) as conn:
            conn.settimeout(REPLY_TIMEOUT)
            send_frame(conn, ("records", ranks))
            _kind, recs = recv_frame(conn)
        return recs

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify()
        # the publisher thread owns _pub_conns; wait it out before closing
        self._pub_thread.join(timeout=2.0)
        for conn in list(self._pub_conns.values()):
            try:
                conn.close()
            except OSError:
                pass
        self._pub_conns.clear()
        with self._lock:
            procs = list(self._procs.values())
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=2.0)


# ---------------------------------------------------------------------------
# worker-side client: the failover ladder over real sockets
# ---------------------------------------------------------------------------

class MPDirectoryClient:
    """Consult the shard daemons; fall back to the scheduler.

    The ladder, in order — the same one the sim client runs under the
    fault adversary, driven here by real socket errors:

    1. **replica walk** — the full owner list each round (start rotated
       by ``salt`` + round, so clients spread over replicas and a dead
       one cannot eat the whole budget);
    2. **unknown backoff** — a node that answers ``unknown`` (update in
       flight, or restarted empty) is backed off and the round retried;
    3. **scheduler fallback** — ``fallback(rank)`` answers
       authoritatively once the rounds are spent; afterwards ``refresh``
       (if given) pulls a newer membership view, so a client stranded on
       a stale ring converges back to shard lookups.

    Connection-refused is immediate on loopback; a half-open or deaf
    shard costs at most ``connect_timeout + reply_timeout`` before the
    walk moves on, which bounds the whole lookup.
    """

    def __init__(self, config: DaemonClientConfig, salt: int = 0,
                 rounds: int = UNKNOWN_ROUNDS,
                 backoff: float = UNKNOWN_BACKOFF,
                 connect_timeout: float = CONNECT_TIMEOUT,
                 reply_timeout: float = REPLY_TIMEOUT,
                 fallback: Callable[[int], tuple] | None = None,
                 refresh: Callable[[], DaemonClientConfig | None]
                 | None = None,
                 on_count: Callable[[str, int], None] | None = None):
        self.salt = salt
        self.rounds = rounds
        self.backoff = backoff
        self.connect_timeout = connect_timeout
        self.reply_timeout = reply_timeout
        self.fallback = fallback
        self.refresh = refresh
        self.on_count = on_count
        self.stats = {"dir_lookups": 0, "dir_failovers": 0,
                      "dir_unknown": 0, "dir_fallbacks": 0}
        self._tokens = itertools.count(1)
        self._conns: dict[int, socket.socket] = {}
        self.epoch = -1
        self.update_membership(config)

    def _count(self, key: str, amount: int = 1) -> None:
        self.stats[key] += amount
        if self.on_count is not None:
            self.on_count(key, amount)

    def update_membership(self, config: DaemonClientConfig | None) -> bool:
        """Adopt a strictly newer membership view; True if it applied."""
        if config is None or config.epoch <= self.epoch:
            return False
        self.close()
        self.epoch = config.epoch
        self.addrs = {int(i): tuple(a) for i, a in config.addrs.items()}
        self.topology = HashRing(config.node_ids,
                                 replication=config.replication)
        return True

    def candidates(self, rank: int, round_no: int) -> list[int]:
        owners = self.topology.owners(rank)
        k = (self.salt + round_no) % len(owners)
        return owners[k:] + owners[:k]

    # -- the lookup --------------------------------------------------------
    def lookup(self, rank: int) -> tuple[str, tuple | None]:
        """Resolve *rank*: ``(status, addr)``, scheduler as last resort."""
        for round_no in range(self.rounds):
            unknown = False
            for node in self.candidates(rank, round_no):
                reply = self._ask(node, rank)
                if reply is None:
                    self._count("dir_failovers")
                    continue
                if reply.status != "unknown":
                    addr = (tuple(reply.vmid)
                            if reply.vmid is not None else None)
                    return reply.status, addr
                self._count("dir_unknown")
                unknown = True
            if unknown or round_no < self.rounds - 1:
                time.sleep(self.backoff * (2 ** round_no))
        self._count("dir_fallbacks")
        if self.fallback is None:
            raise ProtocolError(
                f"directory lookup for rank {rank} exhausted its ladder "
                f"and no scheduler fallback is configured")
        status, addr = self.fallback(rank)
        if self.refresh is not None:
            try:
                self.update_membership(self.refresh())
            except (OSError, FrameClosed):
                pass
        return status, (tuple(addr) if addr is not None else None)

    def _ask(self, node: int, rank: int) -> LookupReply | None:
        """One shard consult; ``None`` on any socket-level failure."""
        addr = self.addrs.get(node)
        if addr is None:
            return None
        token = next(self._tokens)
        self._count("dir_lookups")
        conn = self._conns.pop(node, None)
        attempts = 2 if conn is not None else 1
        for _ in range(attempts):
            try:
                if conn is None:
                    conn = socket.create_connection(
                        addr, timeout=self.connect_timeout)
                    conn.settimeout(self.reply_timeout)
                send_frame(conn, DirLookup(rank=rank, reply_to=None,
                                           token=token))
                reply = recv_frame(conn)
                if isinstance(reply, LookupReply) and reply.token == token:
                    self._conns[node] = conn
                    return reply
                raise ValueError(f"bad shard reply {reply!r}")
            except (OSError, FrameClosed, UnsafeFrame, ValueError):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
                conn = None
                # a cached connection may be stale (shard restarted
                # behind it): retry once on a fresh connect
        return None

    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
