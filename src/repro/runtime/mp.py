"""Multiprocess runtime: real process migration between OS processes.

The simulator validates the protocol design; this backend demonstrates it
*for real*: application ranks are separate OS processes communicating
over TCP sockets (FIFO, connection-oriented — the substrate of paper
Section 2.3), and a migration actually moves a running rank into a fresh
OS process:

* the registry (the paper's scheduler) spawns the initialized process,
  which listens and accepts connections from the start (Fig. 7 line 1);
* the migrating process stops accepting, sends ``peer_migrating`` as its
  last message on every connection, drains until each peer's
  ``end_of_message`` arrives (Fig. 5), ships its received-message-list
  and its **machine-independent state blob** (:mod:`repro.codec`) to the
  new process, and exits;
* peers discover the new location on demand: a failed/refused connect
  triggers a registry lookup — no broadcast, no forwarding, and the old
  process is gone (no residual dependency).

The paper's out-of-band disconnection signal is replaced by in-band
``peer_migrating`` frames: an OS process blocked in receive is already
watching all its sockets, so the separate signal (needed in PVM to
interrupt a *computing* process) reduces to the poll-point check.

Worker architecture mirrors the simulator: one reader thread per socket
feeds a single inbox queue; the protocol logic is single-threaded on top.

**Crash recovery** (``MPCluster(recovery=RecoverySpec(...))``) reuses
the migration machinery as its restart path — recovery *is* a migration
whose source is a disk checkpoint. With recovery enabled, each rank
checkpoints a wrapper blob (program state + undelivered recvlist + a
communication-state epoch) at poll points, data frames carry
per-(src, dest) sequence numbers, and the connection handshake exchanges
receive cursors so either side can replay its retained outbox after a
reconnect. A :class:`~repro.recovery.supervisor.Supervisor` detects a
dead rank, spawns a replacement through the ordinary ``_init_main``
accept-from-start path, ships the checkpoint exactly as a migrating
source would ship live state, and the directory record flips on the same
``restore_complete``. Duplicate deliveries from replay + deterministic
re-execution are dropped by the receiver's sequence cursor, so the
stream stays exactly-once. Every such decision, and the wrapper that is
the one state shape a recovery run ships, belongs to the pure
:class:`repro.core.epoch.Epoch` the worker drives. See
``docs/recovery.md``.
"""

from __future__ import annotations

import copy
import logging
import multiprocessing as mp
import os
import queue
import shutil
import signal as _signal
import socket
import threading
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.codec import (
    NATIVE,
    Architecture,
    decode_owned,
    encode,
    encode_parts,
)
from repro.core.adaptive import (
    AdaptiveChunkPolicy,
    ChunkController,
    coerce_chunk_bytes,
)
from repro.core.checkpointing import CheckpointStore
from repro.core.drain import Drain
from repro.core.epoch import Epoch
from repro.core.gang import GangAdmission
from repro.core.streaming import (
    DEFAULT_CHUNK_BYTES,
    ChunkAssembler,
    ChunkSource,
)
from repro.core.windows import MigrationRecord, Step, Windows
from repro.directory.base import LocationRecord
from repro.directory.shard import reply_for
from repro.directory.spec import DirectorySpec
from repro.obs import ObsConfig, RegistryCollector, WorkerObs
from repro.obs.metrics import POW2_BUCKETS
from repro.recovery.spec import RecoverySpec
from repro.recovery.supervisor import Supervisor
from repro.runtime.framing import (
    FrameBatcher,
    FrameClosed,
    FrameReader,
    FrameStats,
    recv_frame,
    send_frame,
)
from repro.runtime.mp_directory import (
    DaemonClientConfig,
    DirectoryDaemonHost,
    MPDirectoryClient,
)
from repro.util.errors import MigrationError, ProtocolError, ReproError

__all__ = ["MPCluster", "MPApi"]

_BACKLOG = 16
_CONNECT_TIMEOUT = 10.0
#: how long either side of a peer connection waits for the other's half
#: of the hello / hello_ack handshake
_HANDSHAKE_TIMEOUT = 2.0

log = logging.getLogger("repro.mp")


def _nodelay(sock: socket.socket) -> None:
    """Registry control connections carry one-way frames (``migrate``,
    ``hb``, ``obs``) behind request/reply pairs; with Nagle on, such a
    frame waits for the delayed ACK of the reply before it (~40 ms)."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _ckpt_dir(rec: RecoverySpec) -> str:
    """Where a run's rank checkpoints live, under its resolved root."""
    return os.path.join(rec.dir, "ckpt")


def _configure_logging() -> None:
    """Honor ``REPRO_MP_LOG=<level>`` (``REPRO_MP_DEBUG=1`` implies
    ``debug``) on the ``repro.mp`` logger.

    Runs in the launcher and again in each worker (fork keeps the
    handler; a spawn-style entry would reconfigure). Without either
    variable the logger stays unconfigured — warnings and above still
    reach stderr through logging's last-resort handler.
    """
    level_name = os.environ.get("REPRO_MP_LOG")
    if not level_name and os.environ.get("REPRO_MP_DEBUG"):
        level_name = "debug"
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        raise ValueError(f"REPRO_MP_LOG={level_name!r} is not a log level")
    log.setLevel(level)
    if not log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(
            "[mp %(process)d %(created).3f] %(levelname)s %(message)s"))
        log.addHandler(handler)
        log.propagate = False


class _SharedBandwidthBudget:
    """Cross-process :class:`~repro.core.adaptive.BandwidthBudget` with no
    lock to die holding: ``multiprocessing`` arrays inherited across
    fork, one cell per rank, written only by the rank's own process
    (through :meth:`view`). A worker SIGKILLed mid-update blocks nobody,
    and ``recover_rank`` releases exactly the dead rank's slot.
    ``active`` is the sum of the slot cells, the RTT floor the least
    per-rank floor. The duck-typed surface matches the in-process
    ledger, so :class:`ChunkController` is the same in both runtimes.
    """

    def __init__(self, ctx, nranks: int) -> None:
        self._slot = ctx.Array("i", nranks, lock=False)
        self._peak = ctx.Array("i", nranks, lock=False)
        self._acquires = ctx.Array("i", nranks, lock=False)
        #: 0.0 encodes "no observation yet" (a real ship latency is > 0)
        self._floor = ctx.Array("d", nranks, lock=False)
        self.rank: int | None = None

    def view(self, rank: int) -> "_SharedBandwidthBudget":
        """The same ledger, written as *rank*."""
        mine = copy.copy(self)
        mine.rank = rank
        return mine

    def acquire(self) -> None:
        # a process ships at most one transfer: its slot is 0 or 1
        self._slot[self.rank] = 1
        self._acquires[self.rank] += 1
        self._peak[self.rank] = max(self._peak[self.rank], self.active)

    def release(self) -> None:
        self._slot[self.rank] = 0

    @property
    def active(self) -> int:
        return sum(self._slot)

    @property
    def share(self) -> int:
        return max(1, self.active)

    def observe_latency(self, latency: float) -> None:
        floor = self._floor[self.rank]
        if latency > 0.0 and (floor == 0.0 or latency < floor):
            self._floor[self.rank] = latency

    @property
    def rtt_floor(self) -> float | None:
        return min((f for f in self._floor if f > 0.0), default=None)

    def stats(self) -> dict:
        """Ledger counters for tests and bench artifacts."""
        return {"active": self.active, "peak_active": max(self._peak),
                "acquires": sum(self._acquires),
                "rtt_floor": self.rtt_floor}


# ---------------------------------------------------------------------------
# registry (the scheduler), runs as a thread in the launcher process
# ---------------------------------------------------------------------------

class _Registry:
    """The scheduler: a driver of the pure
    :class:`~repro.core.windows.Windows` machine, which owns every rank
    record, migration window and admission decision (addresses stand in
    for vmids). Every record it writes is pushed to the shard daemons
    when the directory is sharded."""

    def __init__(self, directory: "DirectorySpec | str | None" = None,
                 obs: ObsConfig | None = None,
                 dir_wal: str | None = None,
                 concurrency: int | None = None) -> None:
        spec = DirectorySpec.coerce(directory)
        self.collector = RegistryCollector() if obs is not None else None
        metrics = self.collector.metrics if self.collector else None
        #: sharded: records are also pushed to out-of-process shard
        #: daemons (repro.runtime.mp_directory); the ("lookup",) ctl
        #: frame answers from the machine's authoritative records
        self.daemon_host = (DirectoryDaemonHost(spec, metrics=metrics,
                                                wal_dir=dir_wal)
                            if spec.distributed else None)
        #: records, windows and admission; guarded by ``_lock``. Window
        #: stamps are always on (two clock reads per migration) so the
        #: obs-on/obs-off A/B measures identical spans
        self.windows = Windows(
            admission=GangAdmission(concurrency=concurrency))
        #: cluster hooks, fired *outside* the registry lock: a rank's
        #: restore committed (retire its older processes) / queued
        #: requests were admitted (launch their windows)
        self.on_restored: Callable[[int], None] = lambda rank: None
        self.on_admitted: Callable[[list], None] = lambda admitted: None
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.addr = self.listener.getsockname()
        self._lock = threading.Lock()
        #: notified (under ``_lock``) on every transition a launcher
        #: thread may be waiting for: an initialized process registered,
        #: a window committed, a rank terminated, an admission slot freed
        self._changed = threading.Condition(self._lock)
        #: rank -> control connection of its initialized process
        self.init_ctl: dict[int, socket.socket] = {}
        self.worker_ctl: dict[int, socket.socket] = {}
        self.results: dict[int, Any] = {}
        self.done = threading.Event()
        self.expected_results = 0
        #: rank -> last heartbeat wall-clock (recovery-enabled runs)
        self.heartbeats: dict[int, float] = {}
        #: ranks/shards the supervisor gave up on; join() raises on these
        self.permanent_failures: dict[tuple, str] = {}
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            _nodelay(conn)
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = None  # what the log names if decoding fails
                frame = recv_frame(conn)
                self._handle(conn, frame)
        except (FrameClosed, OSError):
            return
        except Exception as exc:
            # outside input (an undecodable frame, an unknown kind, a
            # malformed one): drop this connection, so its peer's next
            # RPC fails at once; every other connection is still served
            log.warning("registry: closing a connection on frame %r: %r",
                        frame, exc)
            _shut(conn)
            conn.close()

    def _handle(self, conn: socket.socket, frame: tuple) -> None:
        kind = frame[0]
        if kind == "register":
            _, rank, addr = frame
            with self._lock:
                self.worker_ctl[rank] = conn
                self._publish(self.windows.install(rank, tuple(addr)))
            # the reply carries the registry's clock so the worker can
            # estimate its offset to the reference timeline
            # (midpoint-of-RTT; see repro.obs.clock)
            send_frame(conn, ("registered", time.time()))
        elif kind == "register_init":
            _, rank, addr = frame
            with self._lock:
                self.init_ctl[rank] = conn
                self._publish(self.windows.designate(rank, tuple(addr)))
            send_frame(conn, ("registered", time.time()))
        elif kind == "lookup":
            _, target = frame
            # the shards' reply ladder: one vocabulary for lookups (a
            # rank that has not registered yet is "starting")
            rec = (self.record(target)
                   or LocationRecord(target, "starting", None))
            reply = reply_for(target, rec, 0)
            send_frame(conn, ("location", target, reply.status,
                              reply.vmid))
        elif kind == "migration_start":
            _, rank = frame
            with self._lock:
                step = self.windows.start(rank, time.time())
                self._publish(step.publish)
            if step.window is None:
                raise ProtocolError(
                    f"rank {rank}: migration_start without an open window")
            send_frame(conn, ("new_process", step.window.new_vmid))
        elif kind == "restore_complete":
            _, rank, addr = frame
            addr = tuple(addr)
            now = time.time()
            with self._lock:
                step = self.windows.restored(rank, addr, now)
                self._publish(step.publish)
                admitted = self.windows.close(rank, addr, now).admitted
                self.init_ctl.pop(rank, None)
                self.worker_ctl[rank] = conn
                table = self.windows.directory.pl.snapshot()
            win = step.window
            if win is not None and win.t_start and self.collector is not None:
                tctx = {"trace_id": win.trace_id} if win.trace_id else {}
                self.collector.record("registry", "migration_window",
                                      rank=rank, seconds=win.duration,
                                      **tctx)
            send_frame(conn, ("pl_snapshot", table))
            self.on_restored(rank)
            self.on_admitted(admitted)
        elif kind == "dir_membership":
            # a worker asking for the daemon-shard membership view
            # (after a scheduler fallback, to catch churn)
            host = self.daemon_host
            send_frame(conn, ("dir_membership",
                              host.membership() if host else None))
        elif kind == "obs":
            # one-way event/metric batch from a worker
            if self.collector is not None:
                self.collector.absorb(frame)
        elif kind == "hb":
            # one-way liveness beacon (recovery-enabled workers)
            _, rank, ts = frame
            self.heartbeats[rank] = ts
        elif kind == "result":
            _, rank, value = frame
            with self._lock:
                self.results[rank] = value
                if len(self.results) >= self.expected_results:
                    self.done.set()
        elif kind == "terminated":
            _, rank = frame
            self.on_admitted(self._end(self.windows.terminate, rank).admitted)
        else:
            raise ProtocolError(f"unknown registry frame kind {kind!r}")

    def _publish(self, record: LocationRecord | None) -> None:
        """A record the machine wrote (registry lock held): wake the
        launcher's waiters and mirror it into the shard daemons — a
        non-blocking publish; the host's publisher thread retransmits
        until every owner acks."""
        self._changed.notify_all()
        if record is not None and self.daemon_host is not None:
            self.daemon_host.publish(record)

    def _end(self, transition: Callable[[int], Step], rank: int) -> Step:
        """Run a transition that may end *rank*'s window (``terminate``,
        ``fail``, ``abort``) and cancel the initialized process it
        releases: its control connection is shut down, so it exits
        instead of waiting for a source that will never come."""
        with self._lock:
            step = transition(rank) or Step()
            self._publish(step.publish)
            orphan = (self.init_ctl.pop(rank, None)
                      if step.release is not None else None)
        if orphan is not None:
            _shut(orphan)
        return step

    # -- reads -------------------------------------------------------------
    def record(self, rank: int) -> LocationRecord | None:
        """*rank*'s current record (``None`` before it registered)."""
        with self._lock:
            return self.windows.directory.lookup(rank)

    def wait_for(self, predicate: Callable[[], bool],
                 timeout: float) -> bool:
        """Block until *predicate* (evaluated with the registry lock
        held) is true; False when *timeout* — a liveness bound, never
        what ends a healthy wait — expires first."""
        with self._changed:
            return self._changed.wait_for(predicate, timeout)

    def signal_migrate(self, rank: int, arch_name: str,
                       trace_id: str | None = None) -> None:
        with self._lock:
            conn = self.worker_ctl[rank]
            rec = self.windows.current(rank)
            if rec is not None:
                rec.trace_id = trace_id
        send_frame(conn, ("migrate", arch_name, trace_id))

    def abort(self, rec: MigrationRecord) -> list:
        """End window *rec*, which failed to launch; returns the queued
        requests that frees."""
        def transition(rank: int) -> Step | None:
            if self.windows.current(rank) is not rec:
                return None  # a crash ended it already
            return self.windows.abort(rank)
        return self._end(transition, rec.rank).admitted

    # -- recovery coordination (called from the launcher/supervisor) -------
    def begin_recovery(self, rank: int) -> Step:
        """Mark a crashed rank ``failed``: its old address stays published
        (peers' connects fail against a dead port and retry the lookup)
        until the replacement registers and the record flips. The
        window the crash interrupted ends (``Step.window`` carries its
        trace) and an initialized process still waiting for the dead
        source is cancelled."""
        with self._lock:
            self.worker_ctl.pop(rank, None)
        return self._end(self.windows.fail, rank)

    def set_recovering(self, rank: int) -> None:
        """The replacement registered: publish ``migrating`` so lookups
        redirect to the initialized process — the same record state a
        live migration publishes between ``migration_start`` and
        ``restore_complete``."""
        with self._lock:
            self._publish(self.windows.recovering(rank))

    def fail_permanently(self, key: tuple, reason: str) -> None:
        with self._lock:
            self.permanent_failures[key] = reason
        self.done.set()  # unblock join(); it raises on permanent failures

    def close(self) -> None:
        # closing the ctl sockets releases workers parked for replay
        # (recovery runs outlive their results; see _park_until_teardown)
        with self._lock:
            socks = [self.listener, *self.worker_ctl.values()]
        for sock in socks:
            # wake the thread blocked in accept()/recv() on it: after a
            # bare close() a signal-restarted syscall would act on
            # whichever socket reuses the fd number — a later cluster's
            # listener, whose workers this dead registry would then
            # register
            _shut(sock)
            sock.close()
        if self.daemon_host is not None:
            self.daemon_host.close()


def _shut(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer is gone already


# ---------------------------------------------------------------------------
# worker-side plumbing
# ---------------------------------------------------------------------------

@dataclass
class _StoredMessage:
    src: int
    tag: int
    body: Any


class _PeerLink:
    """One TCP connection to a peer, with its reader thread.

    Steady-state ``data`` frames go through :meth:`stage`: they queue in
    a per-link :class:`FrameBatcher` and
    leave together — when the batcher limit fills, when the owning
    worker is about to block (it cannot be waiting on a peer that is
    itself waiting on unstaged bytes), or when a control frame must go
    out (:meth:`send` flushes first to preserve per-link FIFO order).
    ``stats`` (wire accounting; single writer per direction) makes the
    syscall savings measurable: ``frames_out - flushes`` writes saved.
    """

    def __init__(self, sock: socket.socket, rank: int, inbox: queue.Queue,
                 stats: FrameStats | None = None):
        self.sock = sock
        self.rank = rank
        self.inbox = inbox
        self.open = True
        self.stats = stats
        #: the acceptor's Drain grant token, settled when this link's
        #: ``new_link`` is dispatched (None on dialed/transfer links)
        self.grant: int | None = None
        #: the peer's receive cursor for us, as advertised in its hello
        #: (recovery runs only): everything past it replays on adoption
        self.replay_from: int | None = None
        self._batcher = FrameBatcher(sock, stats=stats)
        self._wlock = threading.Lock()

    def start(self) -> None:
        """Start the reader thread feeding the inbox."""
        threading.Thread(target=self._read_loop, daemon=True).start()

    def _read_loop(self) -> None:
        inbox = self.inbox
        reader = FrameReader(self.sock, stats=self.stats)
        try:
            while True:
                inbox.put(("peer", self.rank, reader.read_frame()))
        except (FrameClosed, OSError):
            # identify *which* link closed: a stale EOF from a replaced
            # connection must not mark its successor closed
            inbox.put(("peer_closed", self.rank, self))

    def send(self, frame: Any) -> None:
        """Write *frame* now (flushing anything staged before it)."""
        with self._wlock:
            self._batcher.flush()
            send_frame(self.sock, frame, stats=self.stats)

    def stage(self, frame: Any) -> None:
        """Queue *frame* for coalesced delivery."""
        with self._wlock:
            self._batcher.add(frame)

    def flush(self) -> None:
        with self._wlock:
            try:
                self._batcher.flush()
            except OSError:
                pass  # peer gone; its reader thread reports the close

    def close(self) -> None:
        self.open = False
        self.flush()
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass


class MPApi:
    """The programming interface inside a multiprocess worker."""

    def __init__(self, worker: "_Worker"):
        self._w = worker

    @property
    def rank(self) -> int:
        return self._w.rank

    @property
    def size(self) -> int:
        return self._w.nranks

    @property
    def incarnation(self) -> int:
        """0 for the original process, +1 per migration (real PIDs differ)."""
        return self._w.incarnation

    @property
    def pid(self) -> int:
        import os
        return os.getpid()

    def send(self, dest: int, body: Any, tag: int = 0) -> None:
        self._w.send(dest, body, tag)

    def recv(self, src: int | None = None, tag: int | None = None
             ) -> _StoredMessage:
        return self._w.recv(src, tag)

    def compute(self, seconds: float) -> None:
        time.sleep(seconds)

    def poll_migration(self, state: dict) -> None:
        self._w.poll_migration(state)


class _Worker:
    """Protocol engine of one rank (one OS process)."""

    def __init__(self, rank: int, nranks: int, registry_addr: tuple,
                 program: Callable, initializing: bool,
                 arch: Architecture, incarnation: int,
                 obs: ObsConfig | None = None,
                 dir_cfg: DaemonClientConfig | None = None,
                 rec: RecoverySpec | None = None,
                 chunk_bytes=DEFAULT_CHUNK_BYTES,
                 trace_id: str | None = None,
                 budget: "_SharedBandwidthBudget | None" = None):
        self.rank = rank
        self.nranks = nranks
        self.program = program
        self.arch = arch
        self.incarnation = incarnation
        #: the causal trace this worker's migration spans belong to: an
        #: initialized process inherits it from the launcher; a source
        #: learns it from the ("migrate", ...) ctl frame
        self.trace_id = trace_id
        #: fixed int or AdaptiveChunkPolicy (one controller per migration)
        self.chunk_bytes = chunk_bytes
        #: host-wide fair-share ledger for concurrent adaptive transfers,
        #: as this rank writes it (None for fixed chunk sizes)
        self.budget = budget.view(rank) if budget is not None else None
        self.inbox: queue.Queue = queue.Queue()
        #: an initialized process's incoming state stream (Fig. 7):
        #: filled by the one transfer connection's reader thread, handed
        #: to _init_main through the inbox when it completes or fails
        self.state_asm = ChunkAssembler() if initializing else None
        self._transfer_claimed = False
        self.links: dict[int, _PeerLink] = {}
        #: every FrameStats handed to a link, including replaced links —
        #: summed into the final metrics snapshot
        self._link_stats: list[FrameStats] = []
        self.recvlist: list[_StoredMessage] = []
        self.pl: dict[int, tuple] = {}
        self.migrate_requested: str | None = None
        #: Fig. 5's drain (repro.core.drain). Grant-or-reject (accept
        #: thread), the freeze (_migrate) and every settle (_dispatch)
        #: take this one lock, so a connection is either counted before
        #: the freeze or refused
        self.drain = Drain()
        self._grant_lock = threading.Lock()
        #: serializes ctl-socket writes: the protocol thread (RPCs, obs
        #: batches, results) and the heartbeat thread share the socket
        self._ctl_wlock = threading.Lock()

        #: recovery runs only: the spec, and the exactly-once state
        #: (repro.core.epoch) this worker drives. A replacement holds its
        #: inbox until the wrapper it was sent is restored; an original
        #: worker's empty epoch is legitimately restored from the start.
        self.rec = rec
        self.epoch: Epoch | None = None
        self._ckpt_store: CheckpointStore | None = None
        self._polls = 0
        if rec is not None:
            self.epoch = Epoch.awaiting_restore() if initializing else Epoch()
            self._ckpt_store = CheckpointStore(_ckpt_dir(rec),
                                               delta=rec.delta_checkpoints)

        self.obs: WorkerObs | None = None
        if obs is not None:
            actor = (f"p{rank}" if incarnation == 0
                     else f"p{rank}.m{incarnation}")
            self.obs = WorkerObs(obs, rank, actor, self._send_obs_batch)
            m = self.obs.metrics
            self._c_sent = m.counter("mp.msgs_sent", rank=rank)
            self._c_recv = m.counter("mp.msgs_recv", rank=rank)
            self._c_connects = m.counter("mp.connects", rank=rank)
            self._c_lookups = m.counter("mp.lookups", rank=rank)
            self._c_retries = m.counter("mp.connect_retries", rank=rank)
            self._h_scan = m.histogram("mp.recvlist_scan",
                                       bounds=POW2_BUCKETS, rank=rank)
            self._g_qdepth = m.gauge("mp.queue_depth", rank=rank)
            self._g_links = m.gauge("mp.live_links", rank=rank)
            self._g_outbox = m.gauge("mp.outbox_len", rank=rank)
            self._g_chunk = m.gauge("mp.chunk_bytes", rank=rank)
            self._g_xfer = m.gauge("mp.transfer_nbytes", rank=rank)
            self._c_ckpts = m.counter("recovery.checkpoints", rank=rank)
            self._c_dups = m.counter("recovery.dups_dropped", rank=rank)
            self._c_replayed = m.counter("recovery.replayed_msgs",
                                         rank=rank)

        # listener for incoming peer connections
        self.listener = socket.create_server(("127.0.0.1", 0),
                                             backlog=_BACKLOG)
        self.addr = self.listener.getsockname()
        threading.Thread(target=self._accept_loop, daemon=True).start()

        # registry control connection
        self.ctl = socket.create_connection(registry_addr,
                                            timeout=_CONNECT_TIMEOUT)
        self.ctl.settimeout(None)
        _nodelay(self.ctl)
        self._ctl_replies: queue.Queue = queue.Queue()
        kind = "register_init" if initializing else "register"
        t_reg = time.time()
        self._ctl_send((kind, rank, self.addr))
        threading.Thread(target=self._ctl_loop, daemon=True).start()
        reg = self._await_ctl("registered")
        if self.obs is not None and len(reg) >= 2:
            # the registry echoed its clock: one midpoint-of-RTT sample
            # of the reference timeline (see repro.obs.clock)
            self.obs.clock.observe("registry", t_reg, reg[1], time.time())
        if rec is not None and rec.heartbeat_timeout is not None:
            threading.Thread(target=self._hb_loop, daemon=True).start()
        if self.obs is not None and obs.flush_seconds > 0:
            threading.Thread(target=self._obs_flush_loop,
                             daemon=True).start()

        # out-of-process directory: lookups consult the shard daemons
        # (replica walk / entry rotation over real sockets) and fall
        # back to the registry's authoritative ("lookup",) answer only
        # once the ladder is spent
        self.dir_client: MPDirectoryClient | None = None
        if dir_cfg is not None:
            on_count = None
            if self.obs is not None:
                counters = {
                    key: self.obs.metrics.counter(f"mp.{key}", rank=rank)
                    for key in ("dir_lookups", "dir_failovers",
                                "dir_unknown", "dir_fallbacks")}
                on_count = lambda key, n: counters[key].inc(n)
            self.dir_client = MPDirectoryClient(
                dir_cfg, salt=rank, fallback=self._scheduler_lookup,
                refresh=self._fetch_membership, on_count=on_count)

    def _ctl_send(self, frame: tuple) -> None:
        """Write one frame on the ctl socket (heartbeat-safe)."""
        with self._ctl_wlock:
            send_frame(self.ctl, frame)

    def _hb_loop(self) -> None:
        """Liveness beacon: one ``("hb", rank, ts)`` ten times per
        ``heartbeat_timeout`` (runs only when one is set: nothing else
        reads beacons).

        One-way (no reply lands in ``_ctl_replies``), so it coexists
        with RPCs; the write lock keeps frames from interleaving.
        """
        while True:
            time.sleep(self.rec.heartbeat_timeout / 10)
            try:
                self._ctl_send(("hb", self.rank, time.time()))
            except OSError:
                return  # registry gone (teardown) or we are migrating out

    def _obs_flush_loop(self) -> None:
        """Live metric streaming (``ObsConfig.flush_seconds > 0``): every
        period, ship whatever events buffered plus a *live* (non-final)
        metrics snapshot. The collector routes live snapshots into its
        ``live_view`` — ``repro obs watch`` tails them during a run.

        Safe alongside the protocol thread: the event buffer hand-off is
        a GIL-atomic list swap, metric reads are racy-but-benign levels,
        and ``_ctl_wlock`` keeps ctl frames from interleaving.
        """
        period = self.obs.config.flush_seconds
        while True:
            time.sleep(period)
            self.obs.flush(live=True)

    # -- observability -----------------------------------------------------
    def _send_obs_batch(self, batch: tuple) -> None:
        # recorded and flushed from the thread running the program; the
        # ctl write lock orders them against heartbeats
        self._ctl_send(batch)

    def _finalize_obs(self) -> None:
        """Fold wire accounting into the metrics and ship everything."""
        if self.obs is None:
            return
        total = FrameStats()
        for s in self._link_stats:
            total.add(s)
        m = self.obs.metrics
        for field, value in total.as_dict().items():
            name = ("mp.link_flushes" if field == "flushes"
                    else f"mp.{field}")
            m.counter(name, rank=self.rank).inc(value)
        self.obs.flush(final=True)

    def _new_stats(self) -> FrameStats | None:
        """Wire accounting for one more connection (obs runs only)."""
        if self.obs is None:
            return None
        stats = FrameStats()
        self._link_stats.append(stats)
        return stats

    def _make_link(self, sock: socket.socket, peer_rank: int) -> _PeerLink:
        """A link whose reader is not running yet: see ``start()``."""
        return _PeerLink(sock, peer_rank, self.inbox,
                         stats=self._new_stats())

    def _flush_links(self) -> None:
        """Push every link's staged frames out before blocking."""
        for link in self.links.values():
            if link.open:
                link.flush()

    # -- socket plumbing ---------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return  # listener closed (migration)
            try:
                # a peer that connects and never speaks must not park
                # this thread
                conn.settimeout(_HANDSHAKE_TIMEOUT)
                hello = recv_frame(conn)
                conn.settimeout(None)
            except (FrameClosed, OSError):
                conn.close()
                continue
            if hello[0] == "hello":
                # the application-level conn_ack of Fig. 3: TCP connect
                # success alone is NOT establishment (a connect can land in
                # the backlog of a migrating process's dying listener)
                peer_rank = hello[1]
                with self._grant_lock:
                    grant = self.drain.grant(peer_rank)
                if grant is None:
                    conn.close()  # reject: requester will consult registry
                    continue
                # recovery runs: the hello carries the peer's receive
                # cursor for us and the ack answers with ours (None
                # otherwise). The cursor read races the protocol thread
                # only toward a *smaller* value — replay past it is
                # dedup'd, never lost. With obs on, the ack also echoes
                # our clock, so the dialer gets a per-peer offset sample
                # (repro.obs.clock).
                ack = ("hello_ack", self.rank,
                       (self.epoch.cursor(peer_rank)
                        if self.epoch is not None else None),
                       time.time() if self.obs is not None else None)
                try:
                    send_frame(conn, ack)
                except OSError:
                    # the dialer never saw the ack, so it sends nothing
                    # on this connection: the grant settles as void
                    self.inbox.put(("grant_void", peer_rank, grant))
                    conn.close()
                    continue
                link = self._make_link(conn, peer_rank)
                link.grant = grant
                link.replay_from = hello[2]
                # announced before its reader starts: no frame of this
                # link reaches the protocol thread ahead of the link, so
                # a settled grant is always a coordinated connection
                self.inbox.put(("new_link", peer_rank, link))
                link.start()
            elif hello[0] == "replay_req":
                # a restored peer asking us to reconnect and replay our
                # retained outbox to it (one-shot; the connection itself
                # carries nothing further). Keeps connection initiation
                # sender-driven: the nudged side dials through the normal
                # _connect handshake, so no dual-initiation link races.
                self.inbox.put(("replay_nudge", hello[1], None))
                conn.close()
            elif (hello[0] == "state_transfer"
                  and self.state_asm is not None
                  and not self._transfer_claimed):
                # the migrating (or recovering) source's transfer
                # connection — one per initialized process
                self._transfer_claimed = True
                threading.Thread(target=self._transfer_read_loop,
                                 args=(conn,), daemon=True).start()
            else:
                conn.close()

    def _transfer_read_loop(self, conn: socket.socket) -> None:
        """Receive the state stream: ``recvlist`` goes to the inbox, each
        ``("chunk", seq, nbytes, last, total_nbytes)`` header is checked
        by the assembler and its raw payload received straight into the
        assembler's buffer. Ends by telling ``_init_main`` how it went —
        a connection that closes before the ``last`` chunk (source
        SIGKILLed mid-transfer) is reported as the truncation it is."""
        # a small read-ahead: all it needs to hold is a chunk header —
        # payload bytes that land in it are copied twice
        reader = FrameReader(conn, bufsize=4096, stats=self._new_stats())
        asm = self.state_asm
        try:
            while not asm.complete:
                frame = reader.read_frame()
                if frame[0] == "chunk" and len(frame) == 5:
                    asm.receive(*frame[1:], fill=reader.read_raw_into)
                elif frame[0] == "recvlist":
                    self.inbox.put(("peer", None, frame))
                else:
                    raise ValueError(f"bad transfer frame {frame!r:.80}")
            done = ("state_complete", None, None)
        except (FrameClosed, OSError) as exc:
            done = ("state_failed", None,
                    asm.truncated(getattr(exc, "received", 0)))
        except Exception as exc:  # thread boundary: _init_main re-raises
            done = ("state_failed", None, exc)
        finally:
            conn.close()
        self.inbox.put(done)

    def _ctl_loop(self) -> None:
        try:
            while True:
                frame = recv_frame(self.ctl)
                if frame[0] == "migrate":
                    self.inbox.put(("ctl", None, frame))
                else:
                    self._ctl_replies.put(frame)
        except (FrameClosed, OSError):
            return
        finally:
            # registry teardown releases a parked (finished) worker; to
            # an initialized process it is the cancellation (_init_main);
            # an RPC waiting for its reply fails at once
            self.inbox.put(("ctl", None, ("closed",)))
            self._ctl_replies.put(("closed",))

    def _await_ctl(self, kind: str) -> tuple:
        frame = self._ctl_replies.get(timeout=_CONNECT_TIMEOUT)
        if frame[0] != kind:
            raise ProtocolError(
                f"rank {self.rank}: expected a {kind!r} frame from the "
                f"registry, got {frame!r}")
        return frame

    def _rpc(self, request: tuple, reply_kind: str) -> tuple:
        self._ctl_send(request)
        return self._await_ctl(reply_kind)

    def _scheduler_lookup(self, dest: int) -> tuple:
        """The directory client's last-resort rung: ask the scheduler."""
        _, _, status, addr = self._rpc(("lookup", dest), "location")
        return status, addr

    def _fetch_membership(self) -> DaemonClientConfig | None:
        """Pull the current shard membership (post-fallback refresh)."""
        frame = self._rpc(("dir_membership",), "dir_membership")
        return (DaemonClientConfig(**frame[1])
                if frame[1] is not None else None)

    def _lookup(self, dest: int) -> tuple:
        """Resolve *dest* — shard daemons first when configured, the
        registry otherwise. Returns ``(status, addr)``."""
        if self.dir_client is not None:
            return self.dir_client.lookup(dest)
        return self._scheduler_lookup(dest)

    # -- connection management ----------------------------------------------
    def _connect(self, dest: int) -> _PeerLink:
        addr = self.pl.get(dest)
        obs = self.obs
        t_start = time.time() if obs is not None else 0.0
        attempts = 0
        # recovery runs wait out supervisor backoff + replacement spawn;
        # without recovery a dead peer is dead and the short budget holds
        rounds = 60 if self.rec is None else 600
        for _ in range(rounds):
            if addr is not None:
                attempts += 1
                sock = None
                try:
                    sock = socket.create_connection(
                        tuple(addr), timeout=_CONNECT_TIMEOUT)
                    t_hello = time.time()
                    send_frame(sock, ("hello", self.rank,
                                      self.epoch.cursor(dest)
                                      if self.epoch is not None else None))
                    # wait for the application-level acknowledgement: a
                    # migrating process never answers (its listener is
                    # closed or the accept loop is gone), so the connect
                    # attempt fails here instead of losing messages into a
                    # half-dead backlog connection
                    sock.settimeout(_HANDSHAKE_TIMEOUT)
                    ack = recv_frame(sock)
                    t_ack = time.time()
                    if ack[0] != "hello_ack":
                        raise OSError(f"bad handshake {ack!r}")
                    sock.settimeout(None)
                    link = self._make_link(sock, dest)
                    link.start()
                    self.links[dest] = link
                    self._replay(dest, link, ack[2])
                    if obs is not None:
                        obs.clock.observe(f"p{dest}", t_hello, ack[3],
                                          t_ack)
                        self._c_connects.inc()
                        self._c_retries.inc(attempts - 1)
                        obs.event("connect", dest=dest, attempts=attempts,
                                  seconds=time.time() - t_start)
                    return link
                except (OSError, FrameClosed):
                    if sock is not None:
                        try:
                            sock.close()
                        except OSError:
                            pass
                    # refused / unacked / stale address: consult the
                    # directory (shard daemons, or the registry)
            status, new_addr = self._lookup(dest)
            log.debug("rank %d: lookup(%d) -> %s %s",
                      self.rank, dest, status, new_addr)
            if obs is not None:
                self._c_lookups.inc()
                obs.event("lookup", dest=dest, status=status)
            if status == "terminated":
                raise RuntimeError(f"rank {dest} has terminated")
            if new_addr is None or tuple(new_addr) == addr:
                time.sleep(0.05)  # still starting/migrating; retry shortly
            if new_addr is not None:
                addr = tuple(new_addr)
                self.pl[dest] = addr
        raise RuntimeError(f"could not connect to rank {dest}")

    # -- recovery: outbox replay -------------------------------------------
    def _replay(self, dest: int, link: _PeerLink, cursor: int | None) -> None:
        """Resend what *dest* is missing past the receive *cursor* it
        advertised (recovery runs; on a link's establishment, either
        direction — ``None`` when recovery is off)."""
        if cursor is None:
            return
        frames = self.epoch.replay(dest, cursor)
        for seq, tag, body, durable in frames:
            link.stage(("data", self.rank, tag, body, seq, durable))
        if frames and self.obs is not None:
            self._c_replayed.inc(len(frames))
            self.obs.event("retry", what="outbox_replay", dest=dest,
                           count=len(frames))

    def _request_replays(self) -> None:
        """Nudge every peer to reconnect and replay toward us.

        Replay is sender-driven (the retained outbox lives with the
        sender, and single-initiator connects avoid link races), so a
        sender that is idle — blocked receiving elsewhere, or finished
        and parked — would never notice our restored incarnation exists.
        The one-shot ``replay_req`` closes that gap; peers holding
        nothing for us ignore it. Best-effort by design: an unreachable
        peer is either dead (its own recovery will nudge us back) or
        actively sending (its organic reconnect replays anyway).
        """
        for peer in range(self.nranks):
            if peer == self.rank:
                continue
            addr = self.pl.get(peer)
            if addr is None:
                try:
                    _status, addr = self._lookup(peer)
                except (RuntimeError, OSError, FrameClosed, ProtocolError):
                    continue
            if addr is None:
                continue
            try:
                with socket.create_connection(
                        tuple(addr), timeout=_CONNECT_TIMEOUT) as conn:
                    send_frame(conn, ("replay_req", self.rank))
            except (OSError, FrameClosed):
                continue

    def _park_until_teardown(self) -> None:
        """Outlive our own result so retained messages stay replayable.

        A finished sender's outbox is the only copy of messages a
        crashed receiver may not have durably received; exiting would
        destroy it. So a recovery-enabled worker keeps its accept loop
        reachable and its inbox draining — adopting links, answering
        replay nudges, flushing staged replays — until the registry
        closes the ctl socket at cluster teardown (``_ctl_loop`` posts
        ``("ctl", None, ("closed",))``).
        """
        while True:
            self._flush_links()
            item = self.inbox.get()
            if item[0] == "ctl" and item[2][0] == "closed":
                return
            try:
                self._dispatch(item)
            except (ReproError, RuntimeError, ValueError):
                log.exception("rank %d: dispatch while parked failed",
                              self.rank)

    # -- inbox dispatch ----------------------------------------------------
    def _dispatch(self, item: tuple) -> None:
        if self.epoch is not None and self.epoch.hold(item):
            return  # a replacement judges nothing before its restore
        kind, peer, payload = item
        if kind == "new_link":
            with self._grant_lock:
                coordinate = self.drain.adopt(payload.grant)
            old = self.links.get(peer)
            self.links[peer] = payload
            if old is not None and old.open:
                old.close()
            if coordinate:
                self._coordinate(peer, payload)
            else:
                self._replay(peer, payload, payload.replay_from)
        elif kind == "grant_void":
            with self._grant_lock:
                self.drain.void(payload)
        elif kind == "replay_nudge":
            # a restored peer cannot be dialed into (replay is
            # sender-driven); it asks us to re-establish instead. Only
            # worth a connect when we retain messages it may be missing.
            link = self.links.get(peer)
            if (self.epoch is not None and self.epoch.retains(peer)
                    and (link is None or not link.open)):
                try:
                    self._connect(peer)
                except (RuntimeError, OSError):
                    log.warning("rank %d: replay reconnect to %d failed",
                                self.rank, peer)
        elif kind == "peer_closed":
            link = self.links.get(peer)
            if link is not None and (payload is None or link is payload):
                link.open = False
                # the peer only shut its *write* side; frames staged on
                # this link may still traverse it — push them out rather
                # than abandon them in the batcher (flush eats OSError)
                link.flush()
                self._last(peer, "closed")
        elif kind == "ctl":
            if payload[0] == "migrate":
                self.migrate_requested = payload[1]
                if len(payload) >= 3 and payload[2] is not None:
                    self.trace_id = payload[2]
        elif kind == "peer":
            fkind = payload[0]
            if fkind == "data":
                # recovery runs append (seq, durable) and drop duplicates
                src, tag, body = payload[1:4]
                if self.epoch is None or self.epoch.deliver(src,
                                                            *payload[4:]):
                    self.recvlist.append(_StoredMessage(src, tag, body))
                elif self.obs is not None:
                    self._c_dups.inc()
            elif fkind == "peer_migrating":
                link = self.links.pop(peer, None)
                if link is not None:
                    if self.drain.peer_migrating(peer):
                        link.send(("eom", self.rank))
                    link.close()
                self._last(peer, "peer_migrating")
            elif fkind == "eom":
                link = self.links.pop(peer, None)
                if link is not None:
                    link.close()
                self._last(peer, "eom")
            elif fkind == "ack":
                # explicit durable-rx ack (see _checkpoint)
                self.epoch.ack(payload[1], payload[2])
            else:
                raise ValueError(f"bad peer frame {payload!r}")
        else:  # pragma: no cover
            raise ValueError(f"bad inbox item {item!r}")

    # -- the API operations ---------------------------------------------------
    def send(self, dest: int, body: Any, tag: int = 0) -> None:
        if self.epoch is None:
            frame = ("data", self.rank, tag, body)
        else:
            frame = ("data", self.rank, tag, body,
                     *self.epoch.send(dest, tag, body))
        for attempt in range(3):
            link = self.links.get(dest)
            if link is None or not link.open:
                link = self._connect(dest)
            try:
                link.stage(frame)
                break
            except OSError:
                # a crashed peer RSTs mid-write. Without recovery that
                # peer is gone for good — surface the error; with it,
                # reconnect (blocking on the replacement) and let the
                # handshake replay cover whatever the dead link ate.
                link.open = False
                if self.epoch is None or attempt == 2:
                    raise
        if self.obs is not None:
            self._c_sent.inc()
            if self.obs.sample_message():
                self.obs.event("send", dest=dest, tag=tag)

    def recv(self, src: int | None, tag: int | None) -> _StoredMessage:
        while True:
            for i, m in enumerate(self.recvlist):
                if (src is None or m.src == src) and \
                        (tag is None or m.tag == tag):
                    if self.obs is not None:
                        self._c_recv.inc()
                        self._h_scan.record(i + 1)
                        if self.obs.sample_message():
                            self.obs.event("recv", src=m.src, tag=m.tag)
                    return self.recvlist.pop(i)
            try:
                item = self.inbox.get_nowait()
            except queue.Empty:
                # about to block on the network: staged outbound frames
                # must leave first, or two ranks could deadlock waiting
                # on each other's batcher
                self._flush_links()
                if self.obs is not None:
                    self._update_gauges()
                item = self.inbox.get()
            self._dispatch(item)

    def poll_migration(self, state: dict) -> None:
        # a poll point is a yield point: let staged traffic out
        self._flush_links()
        # collect any pending control without blocking
        while True:
            try:
                item = self.inbox.get_nowait()
            except queue.Empty:
                break
            self._dispatch(item)
        if self.obs is not None:
            self._update_gauges()
        if self.rec is not None:
            self._polls += 1
            if self._polls % max(1, self.rec.checkpoint_every) == 0:
                self._checkpoint(state)
        if self.migrate_requested is not None:
            self._migrate(state)

    def _update_gauges(self) -> None:
        """Steady-state levels, refreshed at poll/recv points."""
        self._g_qdepth.set(self.inbox.qsize() + len(self.recvlist))
        self._g_links.set(sum(1 for l in self.links.values() if l.open))
        self._g_outbox.set(self.epoch.outbox_len
                           if self.epoch is not None else 0)

    # -- checkpointing (recovery runs) --------------------------------------
    def _checkpoint(self, state: dict) -> None:
        """Persist a restart point: the epoch's wrapper (program state +
        undelivered recvlist + communication state) as one blob, then
        tell senders what is now durably received.

        A poll point is message-consistent *for this rank*: everything
        delivered is in ``state``/``recvlist``, everything sent is in the
        outbox. Recovery restores the rank alone — no global snapshot
        line — and the sequence cursors reconcile the channels, in the
        style of sender-retained message logging.

        The cursor piggyback on data frames only reaches peers we *send
        to*: a pure producer would never hear its consumer's durable
        cursor, and its outbox would grow for the whole run. So the
        acks due go out as explicit ``("ack", rank, cursor)`` frames —
        only for cursors that advanced, so a quiescent channel costs no
        frames.
        """
        wrapper = self.epoch.checkpoint(state, self._list_a())
        if self._ckpt_store.delta:
            self._ckpt_store.save_parts(self.rank, self.epoch.version,
                                        encode_parts(wrapper, self.arch))
        else:
            self._ckpt_store.save_blob(self.rank, self.epoch.version,
                                       encode(wrapper, self.arch))
        if self.obs is not None:
            self._c_ckpts.inc()
        staged = False
        for src, cursor in self.epoch.durable():
            link = self.links.get(src)
            if link is None or not link.open:
                continue
            try:
                link.stage(("ack", self.rank, cursor))
            except OSError:
                link.open = False
                continue
            self.epoch.acked_to(src, cursor)
            staged = True
        if staged:
            self._flush_links()

    def _list_a(self) -> list[tuple]:
        """The received-message-list as ``(src, tag, body)`` tuples."""
        return [(m.src, m.tag, m.body) for m in self.recvlist]

    # -- migration (Fig. 5) -------------------------------------------------
    def _span(self, phase: str, **fields):
        """A migration-phase span, or None with observability off."""
        return (self.obs.span(phase, **fields)
                if self.obs is not None else None)

    def _tctx(self, parent: str | None = None) -> dict:
        """Trace-context fields for an event/span of the current
        migration: ``{}`` until a trace id is known, so pre-trace
        artifacts keep their exact shape."""
        tid = self.trace_id
        if tid is None:
            return {}
        return ({"trace_id": tid} if parent is None
                else {"trace_id": tid, "parent": parent})

    def _coordinate(self, peer: int, link: _PeerLink) -> None:
        """Fig. 5 line 5 on one link: ``peer_migrating`` is our last
        frame; the drain waits for the peer's last message."""
        link.send(("peer_migrating", self.rank))
        link.close()
        self.drain.coordinate(peer)

    def _last(self, peer: int, how: str) -> None:
        """*peer*'s last message arrived (``eom``, ``peer_migrating`` or a
        close); one the drain waited for is a ``drain_peer`` event."""
        if self.drain.last(peer) and self.obs is not None:
            self.obs.event("drain_peer", peer=peer, last=how,
                           rank=self.rank, **self._tctx("drain"))

    def _migrate(self, state: dict) -> None:
        obs = self.obs
        tid = self.trace_id
        freeze = self._span("freeze", **self._tctx())
        with self._grant_lock:
            # the accept loop rejects from here on; every connection it
            # granted before is settled by the drain
            self.drain.freeze()
        log.debug("rank %d: migrate() starting", self.rank)
        # (_rpc's reply wait is a liveness bound, never a safety mechanism)
        _, new_addr = self._rpc(("migration_start", self.rank),
                                "new_process")
        if freeze is not None:
            freeze.close()
        # reject further connections: close the listener. The rejection
        # window stays open until this process exits — its span is
        # closed (and the window measured) just before _Migrated.
        reject = self._span("reject", **self._tctx("freeze"))
        self.listener.close()
        # coordinate every connected peer
        drain = self._span("drain", **self._tctx("reject"))
        for rank, link in list(self.links.items()):
            if link.open:
                self._coordinate(rank, link)
        npeers = len(self.drain.waiting)
        log.debug("rank %d: draining, waiting=%s", self.rank,
                  self.drain.waiting)
        # Fig. 5 line 6: a granted link still on its way in from the
        # accept thread is coordinated when its new_link lands
        while not self.drain.drained:
            try:
                # liveness bound, never a safety mechanism
                item = self.inbox.get(timeout=_CONNECT_TIMEOUT)
            except queue.Empty:
                raise RuntimeError(
                    f"rank {self.rank}: drain stuck for "
                    f"{_CONNECT_TIMEOUT:.0f}s: {self.drain.stuck()}") from None
            self._dispatch(item)
        if drain is not None:
            drain.close(peers=npeers)
        log.debug("rank %d: drain complete; transferring to %s",
                  self.rank, new_addr)
        # transfer the received-message-list and the machine-independent
        # execution/memory state
        transfer = self._span("transfer", **self._tctx("reject"))
        ctrl_stats: dict = {}
        parts = None
        list_a = self._list_a()
        if self.epoch is not None:
            # a recovery run ships the epoch's wrapper (exactly what
            # recover_rank ships), so ListA travels inside it: the new
            # incarnation must keep the cursors, or peers' replays would
            # double-deliver past a reset receive counter
            if self._ckpt_store.delta:
                # the pre-departure encode doubles as the rank's final
                # durable checkpoint: one encode and one hash pass
                state = self.epoch.checkpoint(state, list_a)
                parts = encode_parts(state, self.arch)
                self._ckpt_store.save_parts(self.rank, self.epoch.version,
                                            parts)
            else:
                state = self.epoch.wrapper(state, list_a)
            list_a = []
        # liveness bound, never a safety mechanism
        xfer = socket.create_connection(tuple(new_addr),
                                        timeout=_CONNECT_TIMEOUT)
        nchunks = 0
        # chunked stream: the destination starts absorbing while we
        # are still encoding; small leading frames (handshake,
        # recvlist) coalesce with the first chunk into one sendmsg
        batch = FrameBatcher(xfer)
        # the trace id rides the transfer's two pickled frames: the
        # destination stitches its restore/commit spans under the same
        # trace even when it was spawned without one (recovery tooling,
        # external inits)
        batch.add(("state_transfer", self.rank, tid))
        batch.add(("recvlist", list_a, tid))
        sizer = self.chunk_bytes
        controller = None
        if isinstance(sizer, AdaptiveChunkPolicy):
            controller = ChunkController(sizer, budget=self.budget)
            sizer = controller
        if parts is None:
            source = ChunkSource(state, self.arch, sizer)
        else:
            source = ChunkSource(arch=self.arch, chunk_bytes=sizer,
                                 parts=parts)
        while not source.exhausted:
            c = source.next_chunk()
            # a chunk is a small pickled header announcing its raw
            # payload: the encoder's memoryview parts go to sendmsg as
            # iovecs, never joined or pickled
            t0 = time.perf_counter()
            batch.add_raw(("chunk", c.seq, c.nbytes, c.last,
                           c.total_nbytes), c.parts)
            if controller is not None:
                # adaptive: flush per chunk and feed the wall-clock
                # hand-off time back — a full kernel buffer (slow
                # reader or slow wire) blocks the flush, reads as
                # high latency and shrinks the next chunk
                batch.flush()
                controller.observe(c.nbytes, time.perf_counter() - t0)
                if obs is not None:
                    self._g_chunk.set(controller.size)
            nchunks += 1
            if obs is not None:
                # live per-window progress: with overlapping gangs
                # this is how a paced-but-contended transfer is told
                # apart from a stuck one in the live view
                self._g_xfer.set(source.sent_nbytes)
                obs.event("state_chunk", seq=c.seq, nbytes=c.nbytes,
                          last=c.last, rank=self.rank,
                          **self._tctx("transfer"))
        batch.flush()
        if controller is not None:
            ctrl_stats = controller.stats()
            # give the gang its slot back the moment the last chunk
            # is on the wire — the restore side no longer contends
            controller.close()
        xfer.close()
        if transfer is not None:
            transfer.close(chunks=nchunks, **ctrl_stats)
        if reject is not None:
            reject.close()
        log.debug("rank %d: state shipped; exiting source process",
                  self.rank)
        self._finalize_obs()
        raise _Migrated()


class _Migrated(BaseException):
    """Unwinds the worker after its state has been shipped."""


# ---------------------------------------------------------------------------
# process entry points
# ---------------------------------------------------------------------------

def _worker_main(rank: int, nranks: int, registry_addr: tuple,
                 program: Callable, arch: Architecture,
                 obs: ObsConfig | None = None,
                 state: dict | None = None,
                 dir_cfg: DaemonClientConfig | None = None,
                 rec: RecoverySpec | None = None,
                 chunk_bytes=DEFAULT_CHUNK_BYTES,
                 budget: "_SharedBandwidthBudget | None" = None) -> None:
    _configure_logging()
    w = _Worker(rank, nranks, registry_addr, program, initializing=False,
                arch=arch, incarnation=0, obs=obs, dir_cfg=dir_cfg,
                rec=rec, chunk_bytes=chunk_bytes, budget=budget)
    _run_program(w, dict(state) if state else {})


def _init_main(rank: int, nranks: int, registry_addr: tuple,
               program: Callable, arch: Architecture,
               incarnation: int,
               obs: ObsConfig | None = None,
               dir_cfg: DaemonClientConfig | None = None,
               rec: RecoverySpec | None = None,
               chunk_bytes=DEFAULT_CHUNK_BYTES,
               trace_id: str | None = None,
               budget: "_SharedBandwidthBudget | None" = None) -> None:
    _configure_logging()
    w = _Worker(rank, nranks, registry_addr, program, initializing=True,
                arch=arch, incarnation=incarnation, obs=obs,
                dir_cfg=dir_cfg, rec=rec, chunk_bytes=chunk_bytes,
                trace_id=trace_id, budget=budget)
    # Fig. 7: accept connections from the start; wait for the transfer.
    # The transfer connection's reader (_transfer_read_loop) lays the
    # state out in the assembler's buffer as it arrives — a live
    # source's chunk stream, or the single chunk recover_rank cuts from a
    # checkpoint — and reports completion or failure here; the recvlist
    # frame carries a trailing trace id, adopted when the launcher did
    # not already hand one down. In a recovery run the recvlist frame is
    # empty — ListA rides inside the wrapper — and every other item waits
    # in the epoch's hold until the wrapper is restored.
    # A recovery trace roots at the registry's ``recover`` span; a
    # migration's restore hangs under the source's ``transfer``.
    parent = ("recover" if trace_id and trace_id.startswith("rec-")
              else "transfer")
    restore = w._span("restore", **w._tctx(parent))
    list_a = None
    asm = w.state_asm
    while True:
        try:
            # liveness bound, never a safety mechanism
            item = w.inbox.get(timeout=_CONNECT_TIMEOUT)
        except queue.Empty:
            raise MigrationError(
                f"{asm.truncated()} (init rank {rank}: nothing arrived "
                f"for {_CONNECT_TIMEOUT:.0f}s)") from None
        kind, peer, payload = item
        if kind == "ctl" and payload[0] == "closed":
            # our source died unconnected and recovery took the rank over
            log.info("init rank %d: cancelled by the registry", rank)
            return
        if kind == "state_complete":
            break
        if kind == "state_failed":
            raise payload
        if kind == "peer" and payload[0] == "recvlist":
            list_a = payload[1]
            if w.trace_id is None and isinstance(payload[-1], str):
                w.trace_id = payload[-1]
        else:
            w._dispatch(item)
    if list_a is None:
        raise MigrationError(
            f"init rank {rank}: state arrived without its recvlist")
    # arrays come back as writable views over the receive buffer: all
    # that is left to do after the last byte is the non-array residue
    state_nbytes, nchunks = asm.total_nbytes, asm.nchunks
    state = decode_owned(asm.buffer)
    # from here the restored arrays alone keep the buffer alive
    asm = w.state_asm = None
    held: list = []
    if w.epoch is not None:
        # a recovery run's source — a live rank or a checkpoint on disk —
        # shipped the wrapper: program state, ListA and the epoch
        state, list_a, held = w.epoch.restore(state)
    # ListA precedes anything that arrived on fresh connections (Fig. 7)
    w.recvlist = [_StoredMessage(*t) for t in list_a] + w.recvlist
    for item in held:
        w._dispatch(item)
    if restore is not None:
        restore.close(nbytes=state_nbytes, chunks=nchunks,
                      **(w._tctx(parent) if not restore.fields.get("trace_id")
                         else {}))
    log.debug("init rank %d: state restored (%d bytes)",
              rank, state_nbytes)
    commit = w._span("commit", **w._tctx("restore"))
    frame = w._rpc(("restore_complete", rank, w.addr), "pl_snapshot")
    w.pl = {r: tuple(a) for r, a in frame[1].items()}
    if commit is not None:
        commit.close()
    if w.epoch is not None:
        # ask every peer to reconnect and replay: idle or finished
        # senders hold messages the dead incarnation never durably
        # received and would otherwise never dial the replacement
        w._request_replays()
    _run_program(w, state)


def _run_program(w: _Worker, state: dict) -> None:
    api = MPApi(w)
    try:
        result = w.program(api, state)
    except _Migrated:
        return
    if w.rec is None:
        for link in w.links.values():
            if link.open:
                try:
                    link.send(("eom", w.rank))
                except OSError:
                    pass
                link.close()
    else:
        # recovery runs: links stay open and the process parks below —
        # our outbox must remain replayable for a peer that crashes (or
        # is already restoring) after we finished
        w._flush_links()
    # final event/metric batch must precede the result frame: once every
    # rank has reported, the launcher may tear the registry down
    w._finalize_obs()
    w._ctl_send(("result", w.rank, result))
    w._ctl_send(("terminated", w.rank))
    if w.rec is not None:
        w._park_until_teardown()


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------

@dataclass
class _Member:
    """One spawned child process of the cluster.

    ``superseded`` marks an incarnation a newer process has replaced
    (migration or recovery): the supervisor must not resurrect it when
    its exit code lands."""

    rank: int
    proc: mp.Process
    role: str = "worker"  # "worker" | "init"
    superseded: bool = False


class MPCluster:
    """Launch and steer a multiprocess computation.

    Example::

        cluster = MPCluster(program, nranks=2)
        cluster.start()
        time.sleep(0.2)
        cluster.migrate(1)
        results = cluster.join()

    With ``recovery=RecoverySpec(...)`` (or ``recovery=True``) the run is
    crash-tolerant: ranks checkpoint at poll points, a supervisor thread
    restarts crashed ranks from their newest complete checkpoint through
    the migration path, and directory shard daemons persist a WAL.
    """

    def __init__(self, program: Callable, nranks: int,
                 arch: Architecture = NATIVE,
                 dest_arch: Architecture = NATIVE,
                 directory: "DirectorySpec | str | None" = None,
                 obs: "ObsConfig | bool | None" = None,
                 init_states: "list[dict] | None" = None,
                 recovery: "RecoverySpec | bool | str | None" = None,
                 chunk_bytes=None,
                 migration_concurrency: int | None = None):
        _configure_logging()
        self.program = program
        self.nranks = nranks
        #: optional per-rank initial program state (index = rank)
        self.init_states = init_states
        self.arch = arch
        self.dest_arch = dest_arch
        #: observability: True / ObsConfig enables event collection and
        #: worker metrics, merged at the registry (see repro.obs)
        self.obs = ObsConfig.coerce(obs)
        #: fixed chunk size (int), ``"adaptive"``, or an AdaptiveChunkPolicy
        self.chunk_bytes = coerce_chunk_bytes(chunk_bytes)
        #: crash recovery: supervision + checkpoints + durable directory
        self.recovery = RecoverySpec.coerce(recovery)
        #: what workers get: the spec with ``dir`` resolved to the run's
        #: durable root (checkpoints under ``ckpt/``, shard WALs under
        #: ``dirwal/``)
        self._rec: RecoverySpec | None = None
        self._recovery_tmp = False
        dir_wal: str | None = None
        if self.recovery is not None:
            self._rec = replace(self.recovery,
                                dir=self.recovery.resolve_dir())
            self._recovery_tmp = self.recovery.dir is None
            if DirectorySpec.coerce(directory).distributed:
                dir_wal = os.path.join(self._rec.dir, "dirwal")
        #: gang admission (in the registry's machine): how many
        #: migration windows may overlap (``None`` = unbounded, ``1``
        #: reproduces the pre-gang serialized behavior exactly)
        self.registry = _Registry(directory=directory, obs=self.obs,
                                  dir_wal=dir_wal,
                                  concurrency=migration_concurrency)
        self.registry.expected_results = nranks
        self._incarnation: dict[int, int] = {}
        self._ctx = mp.get_context("fork")
        self._members: list[_Member] = []
        self._mlock = threading.Lock()
        self.supervisor: Supervisor | None = None
        #: fork-shared fair-share ledger for concurrent adaptive
        #: transfers; fixed chunk sizes need no ledger (no AIMD signal
        #: to protect from sibling queue wait)
        self.budget = (_SharedBandwidthBudget(self._ctx, nranks)
                       if isinstance(self.chunk_bytes, AdaptiveChunkPolicy)
                       else None)
        # restore_complete: the destination is now the rank's running
        # incarnation; every older member is retired (the migrated-out
        # source exits 0 on its own; superseding it keeps the
        # supervisor from ever resurrecting it)
        self.registry.on_restored = lambda rank: self._supersede(rank, 1)
        self.registry.on_admitted = self._dispatch

    def _dir_cfg(self) -> DaemonClientConfig | None:
        """Shard-daemon membership to hand a process being spawned."""
        host = self.registry.daemon_host
        return host.client_config() if host is not None else None

    def _track(self, rank: int, proc: mp.Process, role: str) -> None:
        with self._mlock:
            self._members.append(_Member(rank, proc, role))

    def _supersede(self, rank: int, keep: int = 0) -> None:
        """Mark every member of *rank* but the newest *keep* superseded."""
        with self._mlock:
            mine = [m for m in self._members if m.rank == rank]
            for m in mine[:len(mine) - keep]:
                m.superseded = True

    def _spawn_init(self, rank: int, inc: int, trace_id: str) -> None:
        """Spawn *rank*'s initialized process (incarnation *inc*)."""
        p = self._ctx.Process(
            target=_init_main,
            args=(rank, self.nranks, self.registry.addr, self.program,
                  self.dest_arch, inc, self.obs, self._dir_cfg(),
                  self._rec, self.chunk_bytes, trace_id, self.budget),
            daemon=True)
        p.start()
        self._track(rank, p, "init")

    def start(self) -> "MPCluster":
        dir_cfg = self._dir_cfg()
        for rank in range(self.nranks):
            state = self.init_states[rank] if self.init_states else None
            p = self._ctx.Process(
                target=_worker_main,
                args=(rank, self.nranks, self.registry.addr, self.program,
                      self.arch, self.obs, state, dir_cfg,
                      self._rec, self.chunk_bytes, self.budget),
                daemon=True)
            p.start()
            self._track(rank, p, "worker")
        # wait until every rank registered (the timeout is a liveness
        # bound: a healthy start ends on the last ``register``)
        status = self.registry.windows.directory.status
        if not self.registry.wait_for(lambda: len(status) == self.nranks,
                                      _CONNECT_TIMEOUT):
            raise RuntimeError("workers failed to register")
        if self.recovery is not None:
            metrics = (self.registry.collector.metrics
                       if self.registry.collector is not None else None)
            self.supervisor = Supervisor(self, self.recovery,
                                         metrics=metrics).start()
        return self

    def _migratable(self, rank: int) -> bool:
        """*rank* runs and no initialized process waits for it
        (registry lock held): its current incarnation holds the control
        connection the migrate signal goes down."""
        directory = self.registry.windows.directory
        return (directory.status.get(rank) == "running"
                and rank not in directory.init_vmid)

    def migrate(self, rank: int) -> None:
        """Move *rank* into a brand-new OS process.

        Blocks until the request is admitted: any in-flight migration
        of the same rank must commit first (the registry must hold a
        live control connection to the current incarnation before it
        can signal it), and a ``migration_concurrency`` cap must have a
        free window. Use :meth:`migrate_many` to open overlapping
        windows without blocking on admission.
        """
        windows = self.registry.windows
        opened: list[MigrationRecord] = []

        def admitted() -> bool:
            if not (self._migratable(rank)
                    and windows.admission.admissible(rank)):
                return False
            opened.append(windows.request(rank, None)[1])
            return True

        if not self.registry.wait_for(admitted, _CONNECT_TIMEOUT):
            raise RuntimeError(f"rank {rank} is not in a migratable state")
        self._launch(opened[0])

    def migrate_many(self, ranks: "list[int]") -> dict[int, str]:
        """Request a gang of concurrent migrations; rank → verdict.

        Every request enters the registry's admission machine:
        ``admit`` windows are launched concurrently (this call returns
        once each admitted migration has been signalled — its window is
        open and overlapping with its siblings), ``queued`` requests
        dispatch automatically as windows close, ``coalesced`` means an
        earlier queued request for the same rank absorbed this one, and
        ``ignored`` means the rank has terminated.
        Use :meth:`wait_migrations` to wait for the whole gang —
        including queued members — to commit.
        """
        with self.registry._lock:
            answers = {rank: self.registry.windows.request(rank, None)
                       for rank in ranks}
        threads = [threading.Thread(target=self._launch, args=(rec,),
                                    daemon=True)
                   for _, rec in answers.values() if rec is not None]
        for t in threads:
            t.start()
        for t in threads:
            t.join(_CONNECT_TIMEOUT)
        return {rank: verdict for rank, (verdict, _) in answers.items()}

    def wait_migrations(self, timeout: float = 60.0) -> None:
        """Block until every requested migration window has closed.

        Settled means: no in-flight admission windows, an empty queue,
        no initialized process awaiting its transfer, and every rank
        either ``running`` or already ``terminated``.
        """
        windows = self.registry.windows

        def settled() -> bool:
            return (not windows.admission.inflight
                    and not windows.admission.pending
                    and not windows.directory.init_vmid
                    and all(st in ("running", "terminated")
                            for st in windows.directory.status.values()))

        if not self.registry.wait_for(settled, timeout):
            raise TimeoutError("gang migrations did not settle in time")

    def _dispatch(self, admitted: list) -> None:
        """Launch the window of every queued request the registry's
        machine admitted, each on its own thread (a request dropped
        because its rank terminated has no window)."""
        for _rank, rec in admitted:
            if rec is not None:
                threading.Thread(target=self._launch, args=(rec,),
                                 daemon=True).start()

    def _launch(self, rec: MigrationRecord) -> None:
        """Open an admitted window; on launch failure end it so the
        queue keeps draining instead of deadlocking behind a ghost."""
        try:
            self._launch_migration(rec)
        except BaseException:
            self._dispatch(self.registry.abort(rec))
            raise

    def _launch_migration(self, rec: MigrationRecord) -> None:
        """Open the (already admitted) migration window *rec*: spawn the
        initialized process, wait for it to register, signal the source.
        The window stays open until the registry observes
        ``restore_complete``. A rank that is recovering opens its
        window once the replacement has committed."""
        reg = self.registry
        rank = rec.rank
        if not reg.wait_for(lambda: rec.aborted or self._migratable(rank),
                            _CONNECT_TIMEOUT):
            raise RuntimeError(f"rank {rank} is not in a migratable state")
        if rec.aborted:
            return  # a crash of the rank ended the window before it began
        inc = self._incarnation.get(rank, 0) + 1
        self._incarnation[rank] = inc
        # The source is NOT superseded yet: it keeps executing (and
        # stays crash-detectable by the supervisor) until the window
        # commits — it is superseded at restore_complete. A
        # source that dies mid-window is therefore a plain rank crash,
        # recovered from its checkpoint with the interrupted window's
        # trace linked.
        # cluster-unique causal trace id: every span/frame of this
        # migration — source freeze..transfer, destination
        # restore/commit, the registry's window — stitches under it
        trace_id = f"mig-r{rank}.m{inc}-{uuid.uuid4().hex[:8]}"
        self._spawn_init(rank, inc, trace_id)
        # wait for the initialized process to register, then signal
        if not reg.wait_for(lambda: rec.new_vmid is not None,
                            _CONNECT_TIMEOUT):
            raise RuntimeError("initialized process failed to register")
        self.registry.signal_migrate(rank, self.dest_arch.name, trace_id)

    # -- crash recovery ------------------------------------------------------
    def members(self) -> list[_Member]:
        """Snapshot of every spawned child (supervisor scan surface)."""
        with self._mlock:
            return list(self._members)

    def live_member(self, rank: int) -> _Member | None:
        """The member currently *executing* rank's program.

        While a migration window is open two members are live — the
        still-running source and the initialized destination waiting
        for the state transfer. Until ``restore_complete`` promotes
        it, the pending destination is skipped: crash injection
        (:meth:`kill_rank`) and the heartbeat scan both mean the
        incarnation that owns the program state."""
        rec = self.registry.record(rank)
        pending = rec is not None and rec.init_vmid is not None
        with self._mlock:
            live = [m for m in self._members
                    if m.rank == rank and not m.superseded]
        if not live:
            return None
        if pending and len(live) >= 2:
            return live[-2]
        return live[-1]

    def rank_status(self, rank: int) -> str:
        rec = self.registry.record(rank)
        return rec.status if rec is not None else "starting"

    def heartbeats(self) -> dict[int, float]:
        return dict(self.registry.heartbeats)

    def note_permanent_failure(self, key: tuple, reason: str) -> None:
        self.registry.fail_permanently(key, reason)

    def kill_rank(self, rank: int) -> int:
        """SIGKILL the live incarnation of *rank* (crash injection for
        tests and demos); returns the killed pid."""
        member = self.live_member(rank)
        if member is None or member.proc.pid is None:
            raise RuntimeError(f"rank {rank} has no live process")
        pid = member.proc.pid
        os.kill(pid, _signal.SIGKILL)
        return pid

    def checkpoint_store(self) -> CheckpointStore:
        """The run's durable checkpoint store (read-side: tests, CLI)."""
        if self._rec is None:
            raise RuntimeError(
                "recovery is off; construct MPCluster(recovery=True)")
        return CheckpointStore(_ckpt_dir(self._rec))

    def recovery_report(self) -> dict:
        """Supervisor restart/backoff/escalation summary."""
        if self.supervisor is None:
            raise RuntimeError(
                "recovery is off; construct MPCluster(recovery=True)")
        return self.supervisor.report()

    def recover_rank(self, rank: int) -> dict:
        """Restart a crashed *rank* from its newest complete checkpoint.

        This **is** the migration path (Fig. 7) with a disk blob where
        the live source would be: spawn an initialized replacement
        (accepting from the start), publish it as ``migrating`` so peer
        lookups redirect, ship the checkpoint wrapper over an ordinary
        ``state_transfer`` connection with an *empty* ListA (the
        retained receive-list lives inside the wrapper), and let
        ``restore_complete`` flip the record to ``running``. Peers find
        the replacement through the normal failed-connect → lookup
        ladder; the sequence-number replay/dedup protocol makes message
        delivery exactly-once across the crash.

        Normally called by the :class:`Supervisor`; callable directly
        for tests. Returns ``{rank, version, incarnation, seconds,
        nbytes}``.
        """
        if self._rec is None:
            raise RuntimeError(
                "recovery is off; construct MPCluster(recovery=True)")
        t0 = time.time()
        inc = self._incarnation.get(rank, 0) + 1
        # recovery gets its own causal trace, rooted at this span (the
        # "rec-" prefix tells the replacement to hang restore under
        # "recover" instead of a source's "transfer")
        trace_id = f"rec-r{rank}.m{inc}-{uuid.uuid4().hex[:8]}"
        # A crash *inside* a migration window ends that window (so the
        # recovery's restore_complete isn't measured against the dead
        # window's start, and its slot frees) and links its trace on the
        # recover root span — the cross-migration causality edge
        # obs_trace_links() exposes.
        ended = self.registry.begin_recovery(rank)
        interrupted = ended.window.trace_id if ended.window else None
        self._dispatch(ended.admitted)
        if self.budget is not None:
            # the dead source may have died holding its budget slot; the
            # cell is the rank's own, so no live window is touched
            self.budget.view(rank).release()
        collector = self.registry.collector
        if collector is not None:
            extra = {"links": [interrupted]} if interrupted else {}
            collector.record("registry", "span_start",
                             phase="recover", rank=rank,
                             trace_id=trace_id, **extra)
        store = CheckpointStore(_ckpt_dir(self._rec))
        version = store.latest_complete_version(rank)
        if version is None:
            # crashed before its first durable checkpoint: restart from
            # the initial program state with an empty communication
            # epoch. Peers replay their full outboxes (nothing was ever
            # acknowledged durable) and the rank's re-executed sends
            # deduplicate at the receivers.
            init = (self.init_states[rank]
                    if self.init_states else None) or {}
            blob = encode(Epoch().wrapper(dict(init), []), self.dest_arch)
        else:
            blob = store.load_blob(rank, version)
        self._supersede(rank)
        self._incarnation[rank] = inc
        self._spawn_init(rank, inc, trace_id)
        # (both waits below end on a registry event — register_init,
        # restore_complete; their timeouts are liveness bounds)
        reg = self.registry
        directory = reg.windows.directory
        if not reg.wait_for(lambda: rank in directory.init_vmid,
                            _CONNECT_TIMEOUT):
            raise RuntimeError(
                f"replacement for rank {rank} failed to register")
        reg.set_recovering(rank)
        # ship the checkpoint exactly as a migrating source ships live
        # state (same frames, same transfer connection): the on-disk
        # blob is a one-chunk stream
        xfer = socket.create_connection(reg.record(rank).init_vmid,
                                        timeout=_CONNECT_TIMEOUT)
        try:
            batch = FrameBatcher(xfer)
            batch.add(("state_transfer", -1, trace_id))
            batch.add(("recvlist", [], trace_id))
            batch.add_raw(("chunk", 0, len(blob), True, len(blob)), (blob,))
            batch.flush()
        finally:
            xfer.close()
        # wait for restore_complete to flip the record back to running
        if not reg.wait_for(lambda: directory.status.get(rank) == "running"
                            and rank not in directory.init_vmid,
                            _CONNECT_TIMEOUT):
            raise RuntimeError(f"rank {rank} recovery did not commit")
        self.registry.heartbeats[rank] = time.time()
        seconds = time.time() - t0
        if collector is not None:
            collector.record("registry", "span_end", phase="recover",
                             rank=rank, seconds=seconds,
                             trace_id=trace_id)
        log.info("rank %d recovered from checkpoint v%s in %.3fs "
                 "(incarnation %d)", rank, version or 0, seconds, inc)
        return {"rank": rank, "version": version or 0, "incarnation": inc,
                "seconds": seconds, "nbytes": len(blob),
                "trace_id": trace_id, "interrupted": interrupted}

    def _cleanup_recovery_dir(self) -> None:
        if self._recovery_tmp:
            shutil.rmtree(self._rec.dir, ignore_errors=True)
            self._recovery_tmp = False

    def join(self, timeout: float = 60.0) -> dict[int, Any]:
        """Wait for every rank's result; returns rank → program return.

        Raises ``RuntimeError`` when the supervisor escalated a child to
        permanent failure (restart budget exhausted)."""
        if not self.registry.done.wait(timeout):
            raise TimeoutError("cluster did not finish in time")
        with self.registry._lock:
            failures = dict(self.registry.permanent_failures)
        if failures:
            detail = "; ".join(f"{k[0]} {k[1]}: {v}"
                               for k, v in failures.items())
            self.terminate()
            raise RuntimeError(f"permanent failure: {detail}")
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.recovery is not None:
            # parked workers exit when their ctl sockets close — the
            # registry must come down before their processes can join
            self.registry.close()
        for m in self.members():
            m.proc.join(timeout=5.0)
        if self.recovery is None:
            self.registry.close()
        self._cleanup_recovery_dir()
        return dict(self.registry.results)

    def directory_stats(self) -> dict[int, dict | None] | None:
        """Per-shard lookup/update counters, each live daemon polled
        over its own socket (unreachable daemons report ``None``);
        ``None`` with the centralized directory."""
        host = self.registry.daemon_host
        return host.poll_stats() if host is not None else None

    # -- shard-daemon control (directory="sharded") -------------------------
    def _daemon_host(self) -> DirectoryDaemonHost:
        host = self.registry.daemon_host
        if host is None:
            raise RuntimeError(
                "no shard daemons; construct "
                "MPCluster(directory='sharded')")
        return host

    def directory_kill(self, node_id: int) -> None:
        """SIGKILL one shard daemon (crash-stop; membership unchanged)."""
        self._daemon_host().kill(node_id)

    def directory_restart(self, node_id: int) -> None:
        """Respawn a killed shard at its old address and re-seed it."""
        self._daemon_host().restart(node_id)

    def directory_join(self):
        """Add a shard daemon, handing over records before the ring
        flips; returns the :class:`MembershipChange`."""
        return self._daemon_host().join()

    def directory_leave(self, node_id: int):
        """Remove a shard daemon after handing its records over."""
        return self._daemon_host().leave(node_id)

    def directory_live_shards(self) -> int | None:
        host = self.registry.daemon_host
        return host.live_count() if host is not None else None

    def migration_windows(self) -> list[dict]:
        """Registry-observed migration windows (always collected):
        ``{"rank", "t0", "seconds"}`` per migration, in commit order."""
        with self.registry._lock:
            done = [w for w in self.registry.windows.records
                    if w.t_start and w.t_restored]
        done.sort(key=lambda w: w.t_restored)
        return [{"rank": w.rank, "t0": w.t_start, "seconds": w.duration,
                 **({"trace_id": w.trace_id} if w.trace_id else {})}
                for w in done]

    # -- observability read-out --------------------------------------------
    def _collector(self) -> RegistryCollector:
        if self.registry.collector is None:
            raise RuntimeError(
                "observability is off; construct MPCluster(obs=True)")
        return self.registry.collector

    def obs_events(self) -> list[dict]:
        """Merged, time-ordered event stream from every process."""
        return self._collector().events()

    def obs_traces(self) -> dict[str, list[dict]]:
        """Events grouped by migration/recovery ``trace_id``."""
        return self._collector().traces()

    def obs_trace_links(self) -> dict[str, list[str]]:
        """Cross-trace causality edges (``{trace_id: [linked ids]}``):
        a recovery triggered inside a migration window links the
        interrupted migration's trace on its ``recover`` root span."""
        return self._collector().trace_links()

    def budget_stats(self) -> dict | None:
        """Shared bandwidth-ledger counters (``None`` unless the run
        uses adaptive chunking): active/peak slots, total acquires and
        the pooled RTT floor the gang's ``auto`` budgets derive from."""
        return self.budget.stats() if self.budget is not None else None

    def obs_live(self) -> dict[str, dict]:
        """Latest live-streamed gauge levels per actor (requires
        ``ObsConfig(flush_seconds=...)`` — see ``repro obs watch``)."""
        return self._collector().live_view()

    def metrics_snapshot(self) -> list[dict]:
        """Cluster-wide metrics: every worker's final snapshot plus the
        registry's own (directory counters), merged."""
        return self._collector().metrics.snapshot()

    def write_obs_jsonl(self, path: str) -> int:
        """Write the merged JSONL artifact; returns the record count."""
        return self._collector().write_jsonl(path)

    def terminate(self) -> None:
        if self.supervisor is not None:
            self.supervisor.stop()
        for m in self.members():
            if m.proc.is_alive():
                m.proc.terminate()
        self.registry.close()
        self._cleanup_recovery_dir()
