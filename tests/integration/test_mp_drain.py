"""The mp drain ends on events, never on a timer.

``_Worker._migrate`` used to follow its wait for each coordinated peer's
last message with a "quiescence sweep": block until the inbox had been
silent for 50 ms, as a stand-in for the simulator's exact pending-grant
accounting. That was a floor under every window *and* unsafe — a
connection granted (``hello_ack`` written) just before the freeze whose
``new_link`` took longer than the sweep to reach the protocol thread was
never coordinated, and every message its dialer sent was lost
(Theorem 2). These tests pin the replacement, the
:class:`~repro.core.drain.Drain`, against real processes;
the faults are injected by patching ``_Worker`` before the cluster forks,
so the workers inherit them.
"""

from __future__ import annotations

import multiprocessing
import socket
import statistics
import threading
import time

from repro.runtime import MPCluster, mp as mp_mod

N = 20
HOLD = 0.3

_ctx = multiprocessing.get_context("fork")


def _hold_accepted_links(monkeypatch, held, release, hold):
    """Rank 1's accept thread sets *held* once it has written a
    ``hello_ack``, then — before the link reaches the protocol thread —
    waits for *release* and sleeps *hold* seconds more."""
    make_link = mp_mod._Worker._make_link

    def slow_make_link(self, sock, peer_rank, *args, **kwargs):
        # off the main thread of rank 1's first process, _make_link runs
        # only for accepted peer connections (state transfers are
        # accepted by initialized processes)
        if self.rank == 1 and self.incarnation == 0 and \
                threading.current_thread() is not threading.main_thread():
            held.set()
            release.wait(10.0)
            time.sleep(hold)
        return make_link(self, sock, peer_rank, *args, **kwargs)

    monkeypatch.setattr(mp_mod._Worker, "_make_link", slow_make_link)


def _after_migration_start(monkeypatch, action):
    """Run *action* in the migrating source right after the registry
    answered ``migration_start`` — the window is open and the source has
    stopped granting connections."""
    rpc = mp_mod._Worker._rpc

    def traced_rpc(self, request, reply_kind):
        reply = rpc(self, request, reply_kind)
        if request[0] == "migration_start":
            action()
        return reply

    monkeypatch.setattr(mp_mod._Worker, "_rpc", traced_rpc)


def _late_link_program(api, state):
    if api.rank == 0:
        for i in range(N):
            api.send(1, i, tag=1)
        assert api.recv(src=1).body == "done"
        api.send(1, "end", tag=1)
        return None
    while api.incarnation == 0:  # migrated away from inside this loop
        api.compute(0.001)
        api.poll_migration(state)
    got = [api.recv(src=0).body for _ in range(N)]
    api.send(0, "done")
    # a duplicated message would be delivered ahead of the sentinel
    return {"got": got, "tail": api.recv(src=0).body}


def test_link_granted_before_freeze_is_drained_however_late(monkeypatch):
    acked, frozen = _ctx.Event(), _ctx.Event()
    _hold_accepted_links(monkeypatch, held=acked, release=frozen, hold=HOLD)
    _after_migration_start(monkeypatch, frozen.set)
    cluster = MPCluster(_late_link_program, nranks=2)
    try:
        cluster.start()
        # rank 0 dialed, rank 1 acknowledged; the link is still in the
        # accept thread's hands when rank 1 is told to move
        assert acked.wait(10.0)
        cluster.migrate(1)
        results = cluster.join(timeout=20)
        (window,) = cluster.migration_windows()
    finally:
        cluster.terminate()
    assert results[1] == {"got": list(range(N)), "tail": "end"}
    # the drain waited for the grant it had counted, not for a timer
    assert window["seconds"] >= HOLD


def test_stuck_drain_names_what_it_waits_for(monkeypatch, capfd):
    acked = _ctx.Event()
    _hold_accepted_links(monkeypatch, held=acked, release=_ctx.Event(),
                         hold=0.0)

    def shorten_liveness_bound():  # in the source process only
        mp_mod._CONNECT_TIMEOUT = 0.3

    _after_migration_start(monkeypatch, shorten_liveness_bound)
    cluster = MPCluster(_late_link_program, nranks=2)
    try:
        cluster.start()
        assert acked.wait(10.0)
        source = cluster.live_member(1).proc
        cluster.migrate(1)
        source.join(10.0)
        assert source.exitcode not in (None, 0)
    finally:
        cluster.terminate()
    err = capfd.readouterr().err
    assert "rank 1: drain stuck" in err
    assert "waiting=[]" in err
    assert "granted=1 settled=0" in err
    assert "unsettled toward ranks [0]" in err


def _gated_stream(go):
    def program(api, state):
        if api.rank == 0:
            while not go.is_set():
                api.compute(0.005)
            for i in range(N):
                api.send(1, i)
            return None
        return [api.recv(src=0).body for _ in range(N)]
    return program


def test_silent_dialer_cannot_park_the_accept_thread():
    go = _ctx.Event()
    cluster = MPCluster(_gated_stream(go), nranks=2)
    try:
        cluster.start()
        addr = cluster.registry.record(1).vmid
        # connects ahead of rank 0 and never sends its hello
        with socket.create_connection(addr, timeout=10.0) as silent:
            go.set()
            results = cluster.join(timeout=20)
            # the acceptor gave up on the handshake and closed it
            assert silent.recv(1) == b""
    finally:
        cluster.terminate()
    assert results[1] == list(range(N))


def _pair_until(stop):
    def program(api, state):
        if api.rank == 0:
            i = 0
            while not stop.is_set():
                api.send(1, i)
                assert api.recv(src=1).body == i
                i += 1
            api.send(1, None)
            return i
        while True:
            body = api.recv(src=0).body
            if body is None:
                return None
            api.send(0, body)
            api.poll_migration(state)
    return program


def test_drain_of_a_connected_pair_has_no_timer_floor():
    stop = _ctx.Event()
    cluster = MPCluster(_pair_until(stop), nranks=2, obs=True,
                        init_states=[{}, {"blob": bytes(64 * 1024)}])
    try:
        cluster.start()
        for _ in range(5):
            cluster.migrate(1)
            cluster.wait_migrations(timeout=20)
        stop.set()
        cluster.join(timeout=20)
        drains = [e["seconds"] for e in cluster.obs_events()
                  if e["kind"] == "span_end" and e.get("phase") == "drain"]
    finally:
        stop.set()
        cluster.terminate()
    assert len(drains) == 5
    # the old sweep put a 50 ms floor under every drain on any machine
    assert statistics.median(drains) < 0.040
