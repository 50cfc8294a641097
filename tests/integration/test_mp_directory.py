"""The directory client's failover ladder against real sockets.

The sim fault adversary exercises the replica-walk /
scheduler-fallback ladder in virtual time; these tests drive the mp
client (:class:`repro.runtime.mp_directory.MPDirectoryClient`) against
*real* failure modes on real TCP sockets:

* **connection refused** — the shard's port is closed (the daemon was
  SIGKILLed and its listener died with it);
* **half-open peer** — the shard accepts and reads but never replies
  (process wedged after ``accept``), costing the client one bounded
  reply timeout;
* **slow accept** — the listener's backlog is saturated, so the connect
  itself times out instead of being refused.

Each pathology is played by a scripted shard with a real listening
socket; healthy replicas are played by real daemon processes or by the
scripted shard in ``serve`` mode speaking the same
``DirLookup``/``LookupReply`` wire messages.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import sys
import threading
import time

import pytest

from repro.core.messages import LookupReply
from repro.directory.base import LocationRecord
from repro.directory.hashring import HashRing
from repro.directory.messages import DirLookup, DirUpdate, DirUpdateAck
from repro.directory.shard import ShardNode
from repro.directory.spec import DirectorySpec
from repro.runtime import mp_directory
from repro.runtime.framing import FrameClosed, recv_frame, send_frame
from repro.runtime.mp_directory import (
    DaemonClientConfig,
    DirectoryDaemonHost,
    MPDirectoryClient,
    shard_daemon_main,
)


class ScriptedShard:
    """A directory shard with a scripted pathology, on a real socket.

    behavior:
        ``serve`` — answer lookups from ``records`` (rank → addr);
        ``deaf``  — accept and read, never write (half-open peer);
        ``slow``  — sleep ``delay`` seconds before serving (slower than
        the client's reply timeout → the walk moves on).
    """

    def __init__(self, behavior: str = "serve", records: dict | None = None,
                 delay: float = 0.0):
        self.behavior = behavior
        self.records = records or {}
        self.delay = delay
        self.hits = 0
        self._listener = socket.create_server(("127.0.0.1", 0), backlog=8)
        self.addr = self._listener.getsockname()
        self._threads: list[threading.Thread] = []
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._serve, args=(conn,),
                                 daemon=True)
            t.start()
            self._threads.append(t)

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                msg = recv_frame(conn)
                self.hits += 1
                if self.behavior == "deaf":
                    continue  # read forever, never reply
                if self.behavior == "slow":
                    time.sleep(self.delay)
                assert isinstance(msg, DirLookup)
                addr = self.records.get(msg.rank)
                if addr is None:
                    reply = LookupReply(msg.rank, "unknown", None,
                                        msg.token)
                else:
                    reply = LookupReply(msg.rank, "running", addr,
                                        msg.token)
                send_frame(conn, reply)
        except (FrameClosed, OSError):
            pass
        finally:
            conn.close()

    def close(self) -> None:
        try:
            # wake the accept thread: left blocked on a closed fd it can
            # accept from whichever later listener reuses the fd number
            # (it once registered the next test's mp worker)
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()


def refused_addr() -> tuple:
    """An address that refuses connections (bound once, then closed)."""
    s = socket.create_server(("127.0.0.1", 0))
    addr = s.getsockname()
    s.close()
    return addr


def saturated_listener() -> tuple:
    """A listener whose backlog is full: connects hang in SYN/accept
    queue instead of being refused — the 'slow accept' pathology."""
    lst = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lst.bind(("127.0.0.1", 0))
    lst.listen(0)
    fillers = []
    # fill the accept queue (listen(0) still allows a connection or two)
    for _ in range(4):
        f = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        f.settimeout(0.2)
        try:
            f.connect(lst.getsockname())
            fillers.append(f)
        except OSError:
            f.close()
            break
    return lst, fillers


def sharded_config(addrs: dict, epoch: int = 0,
                   replication: int = 2) -> DaemonClientConfig:
    return DaemonClientConfig(epoch=epoch,
                              node_ids=tuple(sorted(addrs)), addrs=addrs,
                              replication=replication)


RANK = 7


def owners_of(rank: int, nodes=(0, 1, 2), replication: int = 2) -> list:
    return HashRing(list(nodes), replication=replication).owners(rank)


# -- replica walk over real failures ---------------------------------------

def test_replica_walk_skips_refused_shard():
    """Primary owner's port refuses (daemon SIGKILLed, listener gone):
    the walk lands on the replica within the same round."""
    owners = owners_of(RANK)
    healthy = ScriptedShard(records={RANK: ("10.0.0.1", 5000)})
    addrs = {n: refused_addr() for n in (0, 1, 2)}
    addrs[owners[1]] = healthy.addr
    client = MPDirectoryClient(sharded_config(addrs), salt=0,
                               fallback=lambda r: ("running", ("fb", r)))
    try:
        t0 = time.time()
        status, addr = client.lookup(RANK)
        elapsed = time.time() - t0
        assert (status, addr) == ("running", ("10.0.0.1", 5000))
        # refused is immediate on loopback: no timeout was burned
        assert elapsed < 1.0
        assert client.stats["dir_failovers"] >= 1
        assert client.stats["dir_fallbacks"] == 0
    finally:
        client.close()
        healthy.close()


def test_half_open_peer_costs_one_reply_timeout(monkeypatch):
    """Primary accepts and reads but never replies: the walk moves on
    after the reply timeout, bounded — not hanging forever."""
    monkeypatch.setattr(mp_directory, "REPLY_TIMEOUT", 0.3)
    monkeypatch.setattr(mp_directory, "CONNECT_TIMEOUT", 0.3)
    owners = owners_of(RANK)
    deaf = ScriptedShard(behavior="deaf")
    healthy = ScriptedShard(records={RANK: ("10.0.0.2", 5001)})
    addrs = {n: refused_addr() for n in (0, 1, 2)}
    addrs[owners[0]] = deaf.addr
    addrs[owners[1]] = healthy.addr
    client = MPDirectoryClient(sharded_config(addrs), salt=0,
                               fallback=lambda r: ("running", ("fb", r)))
    try:
        t0 = time.time()
        status, addr = client.lookup(RANK)
        elapsed = time.time() - t0
        assert (status, addr) == ("running", ("10.0.0.2", 5001))
        assert deaf.hits >= 1  # the deaf shard really ate the request
        # one reply timeout + the healthy consult, with slack
        assert elapsed < 2.0
        assert client.stats["dir_failovers"] >= 1
    finally:
        client.close()
        deaf.close()
        healthy.close()


def test_slow_accept_times_out_and_fails_over(monkeypatch):
    """Primary's backlog is saturated (accept queue full): the connect
    itself times out and the walk continues to the replica."""
    monkeypatch.setattr(mp_directory, "REPLY_TIMEOUT", 0.3)
    monkeypatch.setattr(mp_directory, "CONNECT_TIMEOUT", 0.3)
    owners = owners_of(RANK)
    lst, fillers = saturated_listener()
    healthy = ScriptedShard(records={RANK: ("10.0.0.3", 5002)})
    addrs = {n: refused_addr() for n in (0, 1, 2)}
    addrs[owners[0]] = lst.getsockname()
    addrs[owners[1]] = healthy.addr
    client = MPDirectoryClient(sharded_config(addrs), salt=0,
                               fallback=lambda r: ("running", ("fb", r)))
    try:
        t0 = time.time()
        status, addr = client.lookup(RANK)
        elapsed = time.time() - t0
        assert (status, addr) == ("running", ("10.0.0.3", 5002))
        assert elapsed < 2.0
        assert client.stats["dir_failovers"] >= 1
    finally:
        client.close()
        healthy.close()
        for f in fillers:
            f.close()
        lst.close()


def test_every_shard_dead_falls_back_to_scheduler():
    """All owners refuse: the ladder exhausts its rounds and the
    scheduler fallback answers authoritatively."""
    addrs = {n: refused_addr() for n in (0, 1, 2)}
    asked = []

    def fallback(rank):
        asked.append(rank)
        return "running", ("scheduler", rank)

    client = MPDirectoryClient(sharded_config(addrs), salt=0,
                               fallback=fallback)
    try:
        status, addr = client.lookup(RANK)
        assert (status, addr) == ("running", ("scheduler", RANK))
        assert asked == [RANK]
        assert client.stats["dir_fallbacks"] == 1
        # every owner was tried in every round before giving up
        assert client.stats["dir_failovers"] >= len(owners_of(RANK))
    finally:
        client.close()


def test_unknown_answers_back_off_then_fall_back(monkeypatch):
    """Live shards that answer ``unknown`` (restarted empty, update in
    flight) trigger the backoff rounds, then the scheduler."""
    monkeypatch.setattr(mp_directory, "UNKNOWN_ROUNDS", 2)
    monkeypatch.setattr(mp_directory, "UNKNOWN_BACKOFF", 0.01)
    empty = [ScriptedShard(records={}) for _ in range(3)]
    addrs = {n: empty[n].addr for n in (0, 1, 2)}
    client = MPDirectoryClient(sharded_config(addrs), salt=0,
                               fallback=lambda r: ("running", ("fb", r)))
    try:
        status, addr = client.lookup(RANK)
        assert (status, addr) == ("running", ("fb", RANK))
        assert client.stats["dir_unknown"] >= 2  # one per round at least
        assert client.stats["dir_fallbacks"] == 1
    finally:
        client.close()
        for s in empty:
            s.close()


def test_fallback_refresh_adopts_newer_membership():
    """After a scheduler fallback, the client pulls the membership view
    and converges back to shard lookups on the new topology."""
    addrs = {n: refused_addr() for n in (0, 1, 2)}
    healthy = ScriptedShard(records={RANK: ("10.0.0.4", 5003)})
    new_addrs = {n: healthy.addr for n in (0, 1, 2)}

    client = MPDirectoryClient(
        sharded_config(addrs), salt=0,
        fallback=lambda r: ("running", ("fb", r)),
        refresh=lambda: sharded_config(new_addrs, epoch=1))
    try:
        status, addr = client.lookup(RANK)  # dead ring: fallback answers
        assert (status, addr) == ("running", ("fb", RANK))
        assert client.epoch == 1  # refresh applied the newer view
        status, addr = client.lookup(RANK)  # now served by the shards
        assert (status, addr) == ("running", ("10.0.0.4", 5003))
        assert client.stats["dir_fallbacks"] == 1
    finally:
        client.close()
        healthy.close()


def test_stale_membership_is_not_adopted():
    addrs = {n: refused_addr() for n in (0, 1, 2)}
    client = MPDirectoryClient(sharded_config(addrs, epoch=5), salt=0,
                               fallback=lambda r: ("running", None))
    try:
        assert not client.update_membership(sharded_config(addrs, epoch=5))
        assert not client.update_membership(sharded_config(addrs, epoch=2))
        assert client.update_membership(sharded_config(addrs, epoch=6))
        assert client.epoch == 6
    finally:
        client.close()


# -- the ladder against real daemon processes ------------------------------

def test_restarted_daemon_serves_after_reseed():
    """Kill → restart: the fresh (empty) daemon answers ``unknown``
    until the host re-publishes its records, then serves again."""
    spec = DirectorySpec(backend="sharded", nodes=3, replication=1)
    host = DirectoryDaemonHost(spec)
    try:
        for r in range(12):
            host.publish(LocationRecord(r, "running", ("127.0.0.1", 9400 + r),
                                        version=1))
        assert host.flush(5.0)
        victim = host.topology.primary(RANK)
        host.kill(victim)
        host.restart(victim)
        assert host.flush(5.0)
        recs = host.records_on(victim)
        assert RANK in recs  # re-seeded with everything it owns
        client = host.make_client(
            salt=0, fallback=lambda r: ("running", ("fb", r)))
        status, addr = client.lookup(RANK)
        assert (status, addr) == ("running", ("127.0.0.1", 9400 + RANK))
        client.close()
    finally:
        host.close()


def test_restart_reseed_keeps_a_publish_that_races_it(monkeypatch):
    """A publish that lands while ``restart`` rebinds the dead shard's
    port is the record the restarted shard ends up holding: the re-seed
    must not replace it with the older version it would have
    snapshotted before the rebind."""
    # a long retransmit tick holds the racing update back until the
    # restart has forked the daemon and re-seeded it
    monkeypatch.setattr(mp_directory, "PUBLISH_TICK", 1.0)
    spec = DirectorySpec(backend="sharded", nodes=3, replication=1)
    host = DirectoryDaemonHost(spec)
    try:
        host.publish(LocationRecord(RANK, "running", ("127.0.0.1", 9600),
                                    version=1))
        assert host.flush(5.0)
        victim = host.topology.primary(RANK)
        host.kill(victim)
        retransmits = host.metrics.counter("dir.publish_retransmits")
        real_bind = host._bind

        def racing_bind(addr):
            before = retransmits.value
            host.publish(LocationRecord(RANK, "running",
                                        ("127.0.0.1", 9601), version=2))
            # wait for the publisher to fail it on the closed port; it
            # then sleeps out the tick across the rest of the restart
            deadline = time.time() + 5.0
            while retransmits.value == before and time.time() < deadline:
                time.sleep(0.005)
            return real_bind(addr)

        monkeypatch.setattr(host, "_bind", racing_bind)
        host.restart(victim)
        assert host.flush(10.0)
        assert host.records_on(victim, [RANK])[RANK] == (
            "running", ("127.0.0.1", 9601), None, 2)
    finally:
        host.close()


def test_sim_node_and_shard_daemon_answer_alike():
    """One scripted update/lookup sequence, sent to the simulator's
    ``ShardNode`` and to a forked ``shard_daemon_main``: identical acks
    and replies, in the one reply vocabulary."""
    a, b = ("127.0.0.1", 9700), ("127.0.0.1", 9701)

    def upd(rank, status, vmid, init, version):
        return DirUpdate(rank=rank, status=status, vmid=vmid,
                         init_vmid=init, version=version, node=0)

    def ask(rank, token):
        return DirLookup(rank=rank, reply_to=None, token=token)

    script = [
        upd(1, "running", a, None, 1), ask(1, 1), ask(2, 2),
        upd(1, "running", a, b, 2), upd(1, "migrating", a, b, 3),
        ask(1, 3),
        upd(1, "running", a, None, 1),        # stale: ignored, acked v3
        upd(1, "migrating", a, b, 3),         # duplicate
        ask(1, 4),
        upd(1, "running", b, None, 4), ask(1, 5),
        upd(3, "terminated", a, None, 1), ask(3, 6),
        upd(4, "starting", None, None, 1), ask(4, 7),
    ]
    node = ShardNode()
    sim = [node.apply(m)[0] if isinstance(m, DirUpdate)
           else node.reply(m.rank, m.token) for m in script]

    listener = socket.create_server(("127.0.0.1", 0))
    addr = listener.getsockname()
    proc = mp.get_context("fork").Process(
        target=shard_daemon_main, args=(0, {0: listener}), daemon=True)
    proc.start()
    listener.close()
    try:
        with socket.create_connection(addr, timeout=5.0) as conn:
            real = []
            for m in script:
                send_frame(conn, m)
                real.append(recv_frame(conn))
    finally:
        proc.terminate()
        proc.join(timeout=5.0)
    assert real == sim
    assert [r.status for r in real if isinstance(r, LookupReply)] == [
        "running", "unknown", "migrate", "migrate", "running",
        "terminated", "starting"]


# -- the daemon's own input boundary ---------------------------------------

def _daemon_with_stderr_at(listener: socket.socket, err_path: str) -> None:
    """Forked entry point: a shard daemon whose stderr is *err_path*,
    with the interpreter's own thread excepthook (pytest's, inherited
    over fork, would swallow the traceback this test looks for)."""
    os.dup2(os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 2)
    sys.stderr = os.fdopen(2, "w", buffering=1)
    threading.excepthook = threading.__excepthook__
    shard_daemon_main(0, {0: listener})


def test_daemon_drops_non_protocol_frames_and_keeps_serving(tmp_path):
    """Allowlisted frames that are not directory requests — replies, an
    int, an empty or unknown tuple, a request missing its field — are a
    closed connection, not an unhandled exception in the serve thread."""
    hostile = [LookupReply(0, "unknown", None, 1),
               DirUpdateAck(rank=0, version=1, node=0),
               7, (), ("bogus",), ("records",)]
    err_path = str(tmp_path / "daemon.stderr")
    listener = socket.create_server(("127.0.0.1", 0))
    addr = listener.getsockname()
    proc = mp.get_context("fork").Process(
        target=_daemon_with_stderr_at, args=(listener, err_path),
        daemon=True)
    proc.start()
    listener.close()
    try:
        for frame in hostile:
            with socket.create_connection(addr, timeout=2.0) as conn:
                send_frame(conn, frame)
                with pytest.raises(FrameClosed):  # dropped, no answer
                    recv_frame(conn)
        with socket.create_connection(addr, timeout=2.0) as conn:
            send_frame(conn, DirLookup(rank=RANK, reply_to=None, token=9))
            reply = recv_frame(conn)
        assert (reply.status, reply.token) == ("unknown", 9)
        assert proc.is_alive()
    finally:
        proc.terminate()
        proc.join(timeout=5.0)
    with open(err_path) as f:
        assert f.read() == ""
