"""Property tests for the recovery epoch (repro.core.epoch).

:class:`~repro.core.epoch.Epoch` is the whole exactly-once decision of a
recovery run, and it is pure, so Hypothesis runs it inside a small model
of the mp runtime: three ranks, FIFO connections that may be duplicated,
abandoned or outlive their sender, checkpoints to a model disk, SIGKILLs
and restores from the last checkpoint (or from scratch before the
first), and reconnects that replay from any cursor at or below the one
the receiver holds (a hello's cursor may be stale, never ahead). The
model drives the machine the way ``_Worker`` does: data and ack frames
reaching a rank that has not restored yet, and replays it owes, wait in
the epoch's hold and run in arrival order once ``restore`` hands them
back.

Under every schedule:

1. **Exactly once, in order** — what a rank consumed followed by what
   waits in its receive list is, per source, ``1..rx`` with each
   sequence once, and every body is the one its sequence was sent with.
2. **A gap raises** — no legal schedule produces one, and a frame past
   ``rx + 1`` is refused without changing the cursor.
3. **Retention** — an outbox entry is gone only once the peer's
   checkpoint on disk covers it: toward every peer, the outbox holds
   each sequence between that durable cursor and ``tx``; and on one
   epoch, the piggybacked and acked cursors drop exactly the sequences
   at or below the highest one heard.
4. **Round trip** — restoring a checkpoint's wrapper rebuilds the epoch
   that wrote it.
5. **Nothing before restore** — a rank judges no frame and replays
   nothing until its wrapper is restored (the machine raises otherwise),
   and after a final round of reconnects every receiver holds all that
   its senders still count as sent.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.epoch import Epoch
from repro.util.errors import ProtocolError

RANKS = 3
RANK = st.integers(0, RANKS - 1)

#: one op is (kind, rank, other rank, n, flag); the kinds are weighted
#: toward progress, so a schedule reaches checkpoints, acks and replays
#: between two crashes
KINDS = (["send"] * 4 + ["deliver"] * 6 + ["consume"] * 2
         + ["checkpoint"] * 2 + ["reconnect"] + ["crash"] + ["restore"] * 2)
OPS = st.lists(
    st.tuples(st.sampled_from(KINDS), RANK, RANK, st.integers(0, 15),
              st.booleans()),
    max_size=150,
)


class _Conn:
    """One TCP connection src -> dst: FIFO frames; ``live`` while the
    process that opened it can still write to it."""

    def __init__(self, src: int, dst: int):
        self.src, self.dst = src, dst
        self.frames: list[tuple] = []
        self.live = True


class _Rank:
    def __init__(self, rank: int):
        self.rank = rank
        self.epoch = Epoch()
        self.got: list[tuple] = []       # consumed (src, seq), in order
        self.recvlist: list[tuple] = []  # delivered (src, tag, body)
        self.disk: dict | None = None    # the newest checkpoint wrapper

    @property
    def up(self) -> bool:
        return self.epoch.restored


class _Model:
    def __init__(self):
        self.ranks = [_Rank(r) for r in range(RANKS)]
        self.conns: list[_Conn] = []

    # -- the driver's moves --------------------------------------------

    def link(self, src: int, dst: int) -> _Conn:
        """The newest live connection src -> dst, dialing one (and
        replaying through it) when there is none."""
        for conn in reversed(self.conns):
            if conn.src == src and conn.dst == dst and conn.live:
                return conn
        return self.reconnect(src, dst, lag=0)

    def reconnect(self, src: int, dst: int, lag: int) -> _Conn:
        conn = _Conn(src, dst)
        self.conns.append(conn)
        cursor = max(0, self.ranks[dst].epoch.cursor(src) - lag)
        self.replay(src, conn, cursor)
        return conn

    def replay(self, src: int, conn: _Conn, cursor: int) -> None:
        epoch = self.ranks[src].epoch
        if epoch.hold(("replay", conn, cursor)):
            return  # an accepted link's replay waits for the restore
        for seq, tag, body, durable in epoch.replay(conn.dst, cursor):
            conn.frames.append(("data", src, tag, body, seq, durable))

    def send(self, src: int, dst: int) -> None:
        epoch = self.ranks[src].epoch
        seq = epoch.tx.get(dst, 0) + 1
        # determinism: a re-executed send regenerates the same body
        body = (src, dst, seq)
        frame = ("data", src, seq, body, *epoch.send(dst, seq, body))
        assert frame[4] == seq
        self.link(src, dst).frames.append(frame)

    def arrive(self, dst: int, item: tuple) -> None:
        r = self.ranks[dst]
        if r.epoch.hold(item):
            return
        if item[0] == "replay":
            self.replay(dst, item[1], item[2])
        elif item[0] == "ack":
            r.epoch.ack(item[1], item[2])
        else:
            _, src, tag, body, seq, durable = item
            if r.epoch.deliver(src, seq, durable):
                r.recvlist.append((src, tag, body))

    def deliver(self, index: int, dup: bool) -> None:
        ready = [c for c in self.conns if c.frames]
        if not ready:
            return
        conn = ready[index % len(ready)]
        frame = conn.frames[0] if dup else conn.frames.pop(0)
        self.arrive(conn.dst, frame)

    def checkpoint(self, rank: int) -> None:
        r = self.ranks[rank]
        wrapper = r.epoch.checkpoint({"got": list(r.got)}, r.recvlist)
        r.disk = copy.deepcopy(wrapper)
        check_round_trip(r.epoch, r.disk)
        for src, cursor in r.epoch.durable():
            for conn in reversed(self.conns):
                if conn.src == rank and conn.dst == src and conn.live:
                    conn.frames.append(("ack", rank, cursor))
                    r.epoch.acked_to(src, cursor)
                    break

    def crash(self, rank: int, keep_outgoing: bool) -> None:
        """SIGKILL: every connection into the rank dies with it; what it
        had already written may still arrive."""
        kept = []
        for conn in self.conns:
            if conn.dst == rank or (conn.src == rank and not keep_outgoing):
                continue
            if conn.src == rank:
                conn.live = False
            kept.append(conn)
        self.conns = kept
        r = self.ranks[rank]
        r.epoch = Epoch.awaiting_restore()
        r.got, r.recvlist = [], []

    def restore(self, rank: int) -> None:
        r = self.ranks[rank]
        if r.up:
            return
        wrapper = (copy.deepcopy(r.disk) if r.disk is not None
                   else Epoch().wrapper({"got": []}, []))
        state, recvlist, held = r.epoch.restore(wrapper)
        r.got, r.recvlist = list(state["got"]), list(recvlist)
        for item in held:
            self.arrive(rank, item)

    def consume(self, rank: int) -> None:
        r = self.ranks[rank]
        if r.recvlist:
            src, seq, _body = r.recvlist.pop(0)
            r.got.append((src, seq))

    def apply(self, op: tuple) -> None:
        kind, a, b, n, flag = op
        if kind == "deliver":
            self.deliver(n, dup=flag and n % 4 == 0)
        elif kind == "crash":
            self.crash(a, keep_outgoing=flag)
        elif kind == "restore":
            self.restore(a)
        elif kind == "reconnect":
            if a != b:
                self.reconnect(a, b, lag=n % 4)
        elif not self.ranks[a].up:
            pass  # a rank that is not restored runs no program
        elif kind == "send":
            if a != b:
                self.send(a, b)
        else:
            getattr(self, kind)(a)

    def quiesce(self) -> None:
        for r in range(RANKS):
            self.restore(r)
        for src in range(RANKS):
            for dst in range(RANKS):
                if src != dst:
                    self.reconnect(src, dst, lag=0)
        while any(c.frames for c in self.conns):
            self.deliver(0, False)

    # -- invariants ------------------------------------------------------

    def check(self) -> None:
        for r in self.ranks:
            if not r.up:
                continue
            streams: dict[int, list[int]] = {}
            for src, seq in r.got:
                streams.setdefault(src, []).append(seq)
            for src, seq, body in r.recvlist:
                assert body == (src, r.rank, seq)
                streams.setdefault(src, []).append(seq)
            for src in range(RANKS):
                assert streams.get(src, []) == list(
                    range(1, r.epoch.cursor(src) + 1)), \
                    f"rank {r.rank} from {src}: {streams.get(src)}"
            for dst in range(RANKS):
                peer = self.ranks[dst]
                durable = peer.disk["rx"].get(r.rank, 0) if peer.disk else 0
                kept = [e[0] for e in r.epoch.outbox.get(dst, [])]
                assert kept == sorted(set(kept))
                wanted = range(durable + 1, r.epoch.tx.get(dst, 0) + 1)
                assert set(wanted) <= set(kept), \
                    f"{r.rank}->{dst} dropped {set(wanted) - set(kept)}"


def check_round_trip(epoch: Epoch, wrapper: dict) -> None:
    twin = Epoch.awaiting_restore()
    state, recvlist, held = twin.restore(copy.deepcopy(wrapper))
    assert held == [] and twin.restored
    assert (twin.rx, twin.tx, twin.durable_rx, twin.outbox, twin.version) \
        == (epoch.rx, epoch.tx, epoch.durable_rx, epoch.outbox,
            epoch.version)
    assert twin.wrapper(state, recvlist) == wrapper


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_exactly_once_across_crashes_replays_and_duplicates(ops):
    model = _Model()
    for op in ops:
        model.apply(op)
        model.check()
    model.quiesce()
    model.check()
    for dst in model.ranks:
        for src in model.ranks:
            if src is not dst:
                assert dst.epoch.cursor(src.rank) >= \
                    src.epoch.tx.get(dst.rank, 0), "a message was lost"


@settings(max_examples=200, deadline=None)
@given(OPS, RANK, RANK, st.integers(2, 5))
def test_a_gap_raises_and_changes_nothing(ops, src, dst, ahead):
    model = _Model()
    for op in ops:
        model.apply(op)
    model.restore(dst)
    epoch = model.ranks[dst].epoch
    before = (dict(epoch.rx), copy.deepcopy(epoch.outbox))
    seq = epoch.cursor(src) + ahead
    with pytest.raises(ProtocolError, match="gap"):
        epoch.deliver(src, seq, 0)
    assert (epoch.rx, epoch.outbox) == before


@settings(max_examples=100, deadline=None)
@given(OPS, RANK)
def test_nothing_is_judged_or_replayed_before_restore(ops, rank):
    model = _Model()
    for op in ops:
        model.apply(op)
    model.crash(rank, keep_outgoing=True)
    epoch = model.ranks[rank].epoch
    for call in (lambda: epoch.deliver(0, 1, 0), lambda: epoch.ack(0, 1),
                 lambda: epoch.replay(0, 0), lambda: epoch.send(0, 0, 0)):
        with pytest.raises(ProtocolError):
            call()
    assert epoch.hold(("ack", 0, 1)) and epoch.held == [("ack", 0, 1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(("send", 0)),
                          st.tuples(st.sampled_from(["ack", "piggyback"]),
                                    st.integers(0, 30))),
                max_size=60))
def test_prune_drops_exactly_what_the_cursor_covers(ops):
    """A cursor above every one heard before drops the retained entries
    at or below it, and nothing else; any other cursor drops nothing."""
    epoch, heard, retained = Epoch(), 0, []
    for kind, cursor in ops:
        if kind == "send":
            retained.append(epoch.send(1, 0, "x")[0])
            continue
        if kind == "ack":
            epoch.ack(1, cursor)
        else:
            epoch.deliver(1, epoch.cursor(1) + 1, cursor)
        if cursor > heard:
            heard = cursor
            retained = [s for s in retained if s > cursor]
        assert [e[0] for e in epoch.outbox.get(1, [])] == retained
