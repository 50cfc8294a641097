"""The sharded directory on the multiprocess runtime: drivers over sockets.

Every directory decision is one of the pure machines of
:mod:`repro.directory.shard`, the ones the simulator drives in virtual
time; here the shards are forked OS processes, so the failure the sim
stress suite assumes — a shard that *dies* — happens for real:

* :func:`shard_daemon_main` serves one :class:`ShardNode` over TCP (the
  mp runtime's framing and allowlist unpickler), plus the WAL append;
* :class:`DirectoryDaemonHost`, in the launcher, spawns the daemons,
  drives the :class:`Publisher` from a background thread, kills and
  restarts shards, and runs membership churn (:meth:`join` /
  :meth:`leave` hand records over one by one, verified, before the ring
  flips);
* :class:`MPDirectoryClient` drives the :class:`LookupLadder`, with
  connection-refused / half-open / slow shards as unreachable answers.

The registry (the scheduler) is the single writer and its answer is the
ladder's last rung, so the lookup contract ("a committed location is
eventually returned") does not depend on shard liveness.
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
from repro.directory.base import LocationRecord
from repro.directory.hashring import HashRing
from repro.directory.messages import DirLookup, DirUpdate, DirUpdateAck
from repro.directory.shard import (
    Done,
    LookupLadder,
    Publisher,
    ShardNode,
    plan_handoff,
    update_for,
)
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

#: Client-side budgets: a lookup is bounded by rounds * candidates *
#: (CONNECT + REPLY) + backoff + one scheduler RPC.
CONNECT_TIMEOUT = 0.5
REPLY_TIMEOUT = 1.0
#: Rounds across the shards before the scheduler answers (two over real
#: timeouts), and the base backoff between rounds.
UNKNOWN_ROUNDS = 2
UNKNOWN_BACKOFF = 0.02

#: Publisher retransmit tick (the mp analogue of daemons.PUBLISH_TICK).
PUBLISH_TICK = 0.05
#: Per-update ack wait inside the publisher thread.
ACK_TIMEOUT = 0.5
#: per-record budget for a churn handoff push + read-back to stick
HANDOFF_TIMEOUT = 2.0

_BACKLOG = 16
_SOCKET_ERRORS = (OSError, FrameClosed, UnsafeFrame, ValueError)


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _request(addr: tuple, frame: Any, timeout: float = REPLY_TIMEOUT):
    """One frame out and one back on a fresh connection; ``None`` if the
    shard is unreachable or the exchange fails."""
    try:
        with socket.create_connection(tuple(addr),
                                      timeout=CONNECT_TIMEOUT) as conn:
            conn.settimeout(timeout)
            send_frame(conn, frame)
            return recv_frame(conn)
    except _SOCKET_ERRORS:
        return None


def _exchange(conns: dict, node: int, addr: tuple, frame: Any,
              timeout: float, valid: Callable[[Any], bool]):
    """One request/reply on *node*'s connection cached in *conns*;
    ``None`` on failure or a reply failing *valid*. A cached connection
    may be stale (the shard restarted), so it earns one fresh retry."""
    conn = conns.pop(node, None)
    for _ in range(2 if conn is not None else 1):
        try:
            if conn is None:
                conn = socket.create_connection(tuple(addr),
                                                timeout=CONNECT_TIMEOUT)
                conn.settimeout(timeout)
            send_frame(conn, frame)
            reply = recv_frame(conn)
            if not valid(reply):
                raise ValueError(f"bad shard reply {reply!r}")
            conns[node] = conn
            return reply
        except _SOCKET_ERRORS:
            if conn is not None:
                _close(conn)
            conn = None
    return None


def _row(rec: LocationRecord) -> tuple:
    """A record as the WAL and the ``records`` frame carry it."""
    return (rec.status, rec.vmid, rec.init_vmid, rec.version)


# ---------------------------------------------------------------------------
# the shard daemon (one OS process per directory node)
# ---------------------------------------------------------------------------

def shard_daemon_main(node_id: int, listeners: dict[int, socket.socket],
                      wal_dir: str | None = None) -> None:
    """Entry point of one directory shard daemon (forked OS process).

    ``listeners`` maps node id → listening socket as inherited over
    fork; all but our own are closed at once, so a SIGKILLed sibling's
    port really dies with it. With *wal_dir* accepted updates are
    fsynced to a :class:`~repro.directory.wal.DirectoryWAL` before the
    ack goes out, and a restart replays the log instead of waiting for
    the re-seed.
    """
    listener = listeners[node_id]
    for other_id, other in listeners.items():
        if other_id != node_id:
            _close(other)

    lock = threading.Lock()
    wal = DirectoryWAL(wal_dir) if wal_dir else None
    node = ShardNode({rank: LocationRecord(rank, *row)
                      for rank, row in wal.replay().items()}
                     if wal is not None else None)
    replayed = len(node.records)

    def answer(frame: Any) -> Any:
        if isinstance(frame, DirLookup):
            return node.reply(frame.rank, frame.token)
        if isinstance(frame, DirUpdate):
            ack, applied = node.apply(frame)
            if applied and wal is not None:
                # durability before acknowledgement: the write side may
                # prune its retransmit state the moment the ack lands
                wal.append(frame.rank, _row(node.records[frame.rank]))
                wal.maybe_compact({rank: _row(rec) for rank, rec
                                   in node.records.items()})
            return ack
        if frame[0] == "records":
            ranks = node.records if frame[1] is None else frame[1]
            return ("records", {rank: _row(node.records[rank])
                                for rank in ranks if rank in node.records})
        if frame[0] == "stats":
            s = node.stats
            return ("stats", node_id, {
                "lookups": s.lookups_served, "updates": s.updates_applied,
                "updates_ignored": s.updates_ignored,
                "unknown": s.unknown_served, "replayed": replayed,
                "compactions": wal.compactions if wal is not None else 0})
        if frame[0] == "shutdown":
            return ("bye", node_id)
        raise ValueError(f"bad directory frame {frame!r}")

    def serve(conn: socket.socket) -> None:
        try:
            while True:
                frame = recv_frame(conn)
                with lock:
                    reply = answer(frame)
                send_frame(conn, reply)
                if reply == ("bye", node_id):
                    # graceful leave: the reply is flushed, exit hard —
                    # other serve threads hold no state worth unwinding
                    os._exit(0)
        except _SOCKET_ERRORS + (TypeError, IndexError):
            # a frame that is not this protocol's (wrong type, arity or
            # field) is outside input: same as a closed connection
            pass
        finally:
            _close(conn)

    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            os._exit(0)
        threading.Thread(target=serve, args=(conn,), daemon=True).start()


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

    Plain data (safe over fork and the allowlist wire): rings are
    rebuilt from the node ids. A client adopts only a newer ``epoch``.
    """

    epoch: int
    node_ids: tuple
    addrs: dict = field(default_factory=dict)
    replication: int = 2


class DirectoryDaemonHost:
    """Spawns, supervises and feeds the shard daemon processes.

    Lives in the launcher next to the mp registry, which calls
    :meth:`publish` with its lock held. The ``dir.*`` gauges and
    counters land in *metrics* — the registry collector's when
    observability is on, so they surface in
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
        #: guards membership, the records and the publisher; the
        #: publisher thread and :meth:`flush` wait on ``_cond``
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.node_ids: list[int] = list(range(spec.nodes))
        self._next_id = spec.nodes
        self.addrs: dict[int, tuple] = {}
        self._procs: dict[int, mp.process.BaseProcess] = {}
        self._dead: set[int] = set()
        self.epoch = 0
        self.topology = HashRing(self.node_ids,
                                 replication=spec.replication)
        #: authoritative mirror (the single writer's view)
        self._records: dict[int, LocationRecord] = {}
        self.publisher = Publisher()

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

        self._closed = False
        #: the publisher thread's own connections, one per node
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
        """SIGKILL one shard daemon — crash-stop, membership unchanged:
        the ring keeps routing to it and clients fail over."""
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

        Without a WAL the fresh daemon starts *empty* and is re-seeded
        from the records as they are after the fork (a publish racing
        the restart is kept: the publisher never enqueues an older
        version over it). With one it replays its log and the re-seed is
        skipped; *reseed* forces either path.
        """
        if reseed is None:
            reseed = self.wal_dir is None
        with self._lock:
            if node_id not in self._dead:
                raise ProtocolError(f"shard {node_id} is not dead")
            addr = self.addrs[node_id]
        deadline = time.time() + 5.0
        while True:
            try:
                listener = self._bind(addr)
                break
            except OSError:
                if time.time() > deadline:
                    raise
                # the killed daemon's port frees asynchronously; bounded
                # by the 5 s deadline above
                time.sleep(0.02)
        with self._cond:
            self._fork(node_id, {node_id: listener})
            self._dead.discard(node_id)
            if reseed:
                owned = [(rank, (), (node_id,)) for rank in self._records
                         if node_id in self.topology.owners(rank)]
                self.publisher.reassign(owned, self._records)
                self._cond.notify_all()
        listener.close()
        self._c_restarts.inc()
        self._g_live.inc()
        if self.wal_dir is None:
            return 0
        # the listener was bound before the fork, so this one request
        # queues until the daemon has replayed its log and accepts
        reply = _request(addr, ("stats",), timeout=HANDOFF_TIMEOUT)
        replayed = int(reply[2]["replayed"]) if reply is not None else 0
        self._c_replayed.inc(replayed)
        return replayed

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
        self._g_live.dec(len(newly))
        return newly

    # -- write path (the registry is the single writer) --------------------
    def publish(self, rec: LocationRecord) -> None:
        """Enqueue the registry's versioned record for its owners.

        Never blocks on a socket: the publisher thread sends and
        retransmits until each owner acks.
        """
        with self._cond:
            self._records[rec.rank] = rec
            sent = self.publisher.publish(rec, self.topology.owners(rec.rank))
            self._c_publishes.inc(len(sent))
            self._cond.notify_all()

    def _publish_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: self._closed or self.publisher.pending)
                if self._closed:
                    return
                due = self.publisher.due()
            retained = False
            for upd in due:
                ack = self._send_update(upd, self._pub_conns)
                if ack is None:
                    self._c_retx.inc()
                    retained = True
                    continue
                self._c_acks.inc()
                with self._cond:
                    self.publisher.on_ack(ack)
                    self._cond.notify_all()
            if retained:
                # retransmit tick: an unreachable owner is retried every
                # PUBLISH_TICK until it acks, restarts or leaves the ring
                time.sleep(PUBLISH_TICK)

    def _send_update(self, upd: DirUpdate,
                     conns: dict) -> DirUpdateAck | None:
        """Send one update to its node; the node's ack, or ``None``.
        *conns* is the calling thread's own connection cache: two threads
        on one socket would read each other's acks."""
        with self._lock:
            addr = self.addrs.get(upd.node)
        if addr is None:
            return None
        return _exchange(conns, upd.node, addr, upd, ACK_TIMEOUT,
                         lambda r: isinstance(r, DirUpdateAck)
                         and r.rank == upd.rank)

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait until every published update has been acked."""
        with self._cond:
            return self._cond.wait_for(lambda: not self.publisher.pending,
                                       timeout)

    # -- membership churn --------------------------------------------------
    def _push_and_verify(self, moves) -> list[HandoffRecord]:
        """Push each moved record to its gaining owners and read it back
        (an independent ``records`` request), retrying until
        ``HANDOFF_TIMEOUT``: only a daemon that stays unreachable leaves
        ``verified=False``."""
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
                        verified = (
                            self._send_update(update_for(rec, node), conns)
                            is not None
                            and self._read_version(node, rank) >= rec.version)
                        if verified or time.time() >= deadline:
                            break
                        # a slow gaining daemon is retried every
                        # PUBLISH_TICK, up to HANDOFF_TIMEOUT per record
                        time.sleep(PUBLISH_TICK)
                    handoff.append(HandoffRecord(rank=rank, node=node,
                                                 version=rec.version,
                                                 verified=verified))
                    self._c_handoff.inc()
                self._g_backlog.dec()
        finally:
            for conn in conns.values():
                _close(conn)
        return handoff

    def _read_version(self, node: int, rank: int) -> int:
        try:
            return self.records_on(node, [rank])[rank][3]
        except (KeyError, OSError):
            return -1

    def _change(self, kind: str, node_id: int, node_ids: list[int],
                after: HashRing, moves) -> MembershipChange:
        """Push and verify *moves*, then adopt the new ring and re-enqueue
        the moved records under it: a publish racing the handoff went to
        the *old* owners, and version checks make the overlap idempotent."""
        handoff = self._push_and_verify(moves)
        with self._cond:
            self.node_ids = node_ids
            self.topology = after
            self.epoch += 1
            self.publisher.reassign(moves, self._records)
            self._cond.notify_all()
            epoch = self.epoch
        log.debug("shard %d %s (epoch %d, %d records moved)",
                  node_id, kind, epoch, len(moves))
        return MembershipChange(kind, node_id, epoch,
                                moved=tuple(r for r, _o, _g in moves),
                                handoff=tuple(handoff))

    def join(self) -> MembershipChange:
        """Add one shard: spawn it, hand over its arcs, then flip the
        ring (what lookups and publishes route by)."""
        with self._lock:
            new_id = self._next_id
            self._next_id += 1
            node_ids = self.node_ids + [new_id]
            after = HashRing(node_ids, replication=self.spec.replication)
            moves = plan_handoff(self.topology, after, list(self._records))
            listener = self._bind()
            self.addrs[new_id] = listener.getsockname()
            self._fork(new_id, {new_id: listener})
        listener.close()
        self._g_live.inc()
        return self._change("join", new_id, node_ids, after, moves)

    def leave(self, node_id: int) -> MembershipChange:
        """Remove one shard: hand its records over, flip, shut it down."""
        with self._lock:
            if node_id not in self.node_ids:
                raise ProtocolError(f"shard {node_id} is not a member")
            if len(self.node_ids) <= 1:
                raise ProtocolError("cannot remove the last shard")
            remaining = [i for i in self.node_ids if i != node_id]
            after = HashRing(remaining, replication=self.spec.replication)
            moves = plan_handoff(self.topology, after, list(self._records))
        change = self._change("leave", node_id, remaining, after, moves)
        with self._cond:
            self.publisher.forget(node_id)
            was_dead = node_id in self._dead
            self._dead.discard(node_id)
            p = self._procs.pop(node_id, None)
            addr = self.addrs.pop(node_id, None)
        if p is not None and not was_dead:
            _request(addr, ("shutdown",))
            p.join(timeout=2.0)
            if p.is_alive():
                p.terminate()
            self._g_live.dec()
        return change

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
                    fallback: Callable | None = None) -> "MPDirectoryClient":
        return MPDirectoryClient(self.client_config(), salt=salt,
                                 fallback=fallback)

    def poll_stats(self) -> dict[int, dict | None]:
        """Per-shard protocol counters (``None`` for unreachable shards)."""
        with self._lock:
            targets = {i: self.addrs[i] for i in self.node_ids}
        replies = {i: _request(a, ("stats",)) for i, a in targets.items()}
        return {i: r and r[2] for i, r in replies.items()}

    def records_on(self, node_id: int,
                   ranks: list | None = None) -> dict:
        """A shard's raw records, ``rank -> (status, addr, init_addr,
        version)`` (handoff verification, tests)."""
        with self._lock:
            addr = self.addrs[node_id]
        reply = _request(addr, ("records", ranks))
        if reply is None:
            raise ConnectionError(f"shard {node_id} did not answer")
        return reply[1]

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        # the publisher thread owns _pub_conns; wait it out before closing
        self._pub_thread.join(timeout=2.0)
        for conn in list(self._pub_conns.values()):
            _close(conn)
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

    After a fallback, ``refresh`` (if given) pulls a newer membership
    view, so a client stranded on a stale ring converges back to shard
    lookups. A half-open or deaf shard costs at most ``CONNECT_TIMEOUT +
    REPLY_TIMEOUT`` before the walk moves on.
    """

    def __init__(self, config: DaemonClientConfig, salt: int = 0,
                 fallback: Callable[[int], tuple] | None = None,
                 refresh: Callable[[], DaemonClientConfig | None]
                 | None = None,
                 on_count: Callable[[str, int], None] | None = None):
        self.salt = salt
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

    # -- the lookup --------------------------------------------------------
    def lookup(self, rank: int) -> tuple[str, tuple | None]:
        """Resolve *rank*: ``(status, addr)``, scheduler as last resort."""
        def ask(step) -> tuple:
            reply = self._ask(step.node, rank)
            if reply is None:
                self._count("dir_failovers")
            elif reply.status == "unknown":
                self._count("dir_unknown")
            return reply, None

        # the ladder's round backoff: UNKNOWN_BACKOFF * 2**round, once
        # per round, UNKNOWN_ROUNDS rounds per lookup
        outcome = LookupLadder(self.topology.owners(rank), self.salt,
                               UNKNOWN_ROUNDS, UNKNOWN_BACKOFF).run(
            ask, lambda step: time.sleep(step.seconds))
        if isinstance(outcome, Done):
            status, addr = outcome.status, outcome.vmid
        else:
            self._count("dir_fallbacks")
            if self.fallback is None:
                raise ProtocolError(
                    f"directory lookup for rank {rank} exhausted its "
                    f"ladder and no scheduler fallback is configured")
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
        return _exchange(self._conns, node, addr,
                         DirLookup(rank=rank, reply_to=None, token=token),
                         REPLY_TIMEOUT,
                         lambda r: isinstance(r, LookupReply)
                         and r.token == token)

    def close(self) -> None:
        for conn in self._conns.values():
            _close(conn)
        self._conns.clear()
