"""The recovery epoch: exactly-once delivery across crash and migration.

Crash recovery on the mp runtime is migration from disk
(docs/recovery.md): a replacement restores a checkpoint written at a
poll point, re-executes what came after it, and its peers replay what it
lost. What keeps the message stream exactly-once through that is one
decision, owned here by :class:`Epoch` and driven by the mp ``_Worker``.
Like :class:`repro.core.drain.Drain` it performs no I/O, reads no clock,
encodes nothing and takes no lock, so Hypothesis drives it through
arbitrary crash, replay and duplication schedules
(``tests/property/test_epoch.py``).

Every data frame of a recovery run carries a per-(source, destination)
sequence number and the sender's durable receive cursor toward its
destination. The machine keeps, per peer:

* ``rx`` — the highest contiguous sequence delivered from it;
* ``tx`` — the last sequence assigned toward it;
* ``outbox`` — ``[(seq, tag, body)]`` sent to it and not yet known to be
  durable there: the only copy a crashed peer can be replayed from;
* ``durable_rx`` — ``rx`` as of our last checkpoint (what a replacement
  of us would advertise), piggybacked so the peer can prune;
* ``peer_durable`` / ``acked`` — the durable cursor heard from the peer,
  and the one we last acknowledged to it explicitly.

``deliver`` drops a frame at or below ``rx`` (a replay, or a restarted
sender's re-execution) and raises on a gap; it and the explicit ``ack``
frame prune the outbox through the one ``_prune``. ``replay`` selects
what a reconnecting peer is missing past the cursor it advertised.
``checkpoint`` builds the wrapper a recovery run ships on every path —
checkpoint, live migration, restart from disk — and ``restore`` is its
inverse. A replacement starts :meth:`awaiting_restore`: until its
wrapper is restored it can judge no frame and replay nothing, so the
driver ``hold``\\ s every inbox item and dispatches them, in arrival
order, once ``restore`` hands them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ProtocolError

__all__ = ["CKPT_KEY", "Epoch"]

#: marks a checkpoint wrapper blob
CKPT_KEY = "__repro_ckpt__"


@dataclass
class Epoch:
    """Communication state of one rank in a recovery run."""

    rx: dict = field(default_factory=dict)
    tx: dict = field(default_factory=dict)
    outbox: dict = field(default_factory=dict)
    durable_rx: dict = field(default_factory=dict)
    peer_durable: dict = field(default_factory=dict)
    acked: dict = field(default_factory=dict)
    version: int = 0
    #: False until a replacement has restored its wrapper
    restored: bool = True
    #: inbox items held while not restored, in arrival order
    held: list = field(default_factory=list)

    @classmethod
    def awaiting_restore(cls) -> "Epoch":
        return cls(restored=False)

    # -- queries ---------------------------------------------------------

    def cursor(self, peer) -> int:
        """Our receive cursor for *peer*, as a hello advertises it."""
        return self.rx.get(peer, 0)

    def retains(self, peer) -> bool:
        return bool(self.outbox.get(peer))

    @property
    def outbox_len(self) -> int:
        return sum(len(box) for box in self.outbox.values())

    # -- the hold rule ---------------------------------------------------

    def hold(self, item) -> bool:
        """Hold *item* until ``restore``; False once restored."""
        if self.restored:
            return False
        self.held.append(item)
        return True

    def _require_restored(self, what: str) -> None:
        if not self.restored:
            raise ProtocolError(f"{what} before the epoch was restored")

    # -- sending ---------------------------------------------------------

    def send(self, dest, tag, body) -> tuple[int, int]:
        """Sequence and retain one message toward *dest*; ``(seq,
        durable)`` for its frame. A restored rank re-executes from its
        checkpoint's ``tx``, which is also where its outbox ends, so a
        re-executed send retains the same bytes again, by determinism."""
        self._require_restored("send")
        seq = self.tx.get(dest, 0) + 1
        self.tx[dest] = seq
        self.outbox.setdefault(dest, []).append((seq, tag, body))
        return seq, self.durable_rx.get(dest, 0)

    def replay(self, dest, cursor) -> list[tuple[int, int, object, int]]:
        """What *dest* is missing past *cursor*: ``(seq, tag, body,
        durable)`` per retained message, in order."""
        self._require_restored("replay")
        durable = self.durable_rx.get(dest, 0)
        return [(seq, tag, body, durable)
                for seq, tag, body in self.outbox.get(dest, [])
                if seq > cursor]

    # -- receiving -------------------------------------------------------

    def deliver(self, src, seq, durable) -> bool:
        """Judge one data frame: True if it is new. A duplicate is
        False; a gap raises, since reordering would corrupt the
        program."""
        self._require_restored("deliver")
        self._prune(src, durable)
        rx = self.rx.get(src, 0)
        if seq <= rx:
            return False
        if seq != rx + 1:
            raise ProtocolError(f"data gap from {src}: got seq {seq} "
                                f"after {rx}")
        self.rx[src] = seq
        return True

    def ack(self, src, cursor) -> None:
        """An explicit ``("ack", src, cursor)`` frame."""
        self._require_restored("ack")
        self._prune(src, cursor)

    def _prune(self, peer, cursor) -> None:
        """*peer* checkpointed through *cursor*: what we retain for it
        up to there can never be asked for again."""
        if cursor <= self.peer_durable.get(peer, 0):
            return
        self.peer_durable[peer] = cursor
        box = self.outbox.get(peer)
        if box:
            self.outbox[peer] = [e for e in box if e[0] > cursor]

    # -- checkpoints -----------------------------------------------------

    def wrapper(self, state, recvlist) -> dict:
        """The one state shape a recovery run ships: program state, the
        undelivered receive list and the epoch, at ``version``."""
        return {CKPT_KEY: 1,
                "state": state,
                "recvlist": list(recvlist),
                "rx": dict(self.rx),
                "tx": dict(self.tx),
                "durable_rx": dict(self.durable_rx),
                "outbox": {d: list(box) for d, box in self.outbox.items()},
                "version": self.version}

    def checkpoint(self, state, recvlist) -> dict:
        """The wrapper of the next checkpoint version."""
        self._require_restored("checkpoint")
        self.version += 1
        return self.wrapper(state, recvlist)

    def durable(self) -> list[tuple[int, int]]:
        """The checkpoint just built is on disk: our receive cursors
        become durable. Returns the ``(src, cursor)`` acks now due — the
        cursors that advanced past the last explicit ack."""
        self.durable_rx = dict(self.rx)
        return [(src, c) for src, c in self.durable_rx.items()
                if c > self.acked.get(src, 0)]

    def acked_to(self, src, cursor) -> None:
        self.acked[src] = cursor

    def restore(self, wrapper: dict) -> tuple[object, list, list]:
        """Adopt a shipped wrapper; ``(state, recvlist, held items)``."""
        if not wrapper.get(CKPT_KEY):
            raise ProtocolError("restore from a blob that is no wrapper")
        self.rx = dict(wrapper["rx"])
        self.tx = dict(wrapper["tx"])
        self.durable_rx = dict(wrapper["durable_rx"])
        self.outbox = {d: [tuple(e) for e in box]
                       for d, box in wrapper["outbox"].items()}
        self.version = wrapper["version"]
        self.restored = True
        held, self.held = self.held, []
        return wrapper["state"], list(wrapper["recvlist"]), held
