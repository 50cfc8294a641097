"""Fig. 5's drain as one pure machine that both runtimes drive.

Theorem 2 (no message lost) rests on Fig. 5 lines 4-7: once the
migrating process freezes it grants no new connection, sends
``peer_migrating`` on every link and receives until the last message of
every coordinated or granted peer has arrived. :class:`Drain` owns that
decision; the simulator's ``MigrationEndpoint`` and the mp ``_Worker``
feed it events and carry out its answers (docs/protocol.md tabulates
each transition and its call sites). It performs no I/O, reads no clock,
records no trace and takes no lock, so Hypothesis drives it through
arbitrary interleavings (``tests/property/test_grant_ledger.py``).

Grants are counted because a grant becomes a link only some time after
it is issued — the acceptor answers ``conn_ack`` / ``hello_ack`` first
and learns of the link later — and a drain that looked only at
established links could finish while a granted connection was on its
way in, losing every message sent on it. ``grant`` returns ``None`` once
frozen (the request is rejected). Every grant is settled exactly once:
by ``adopt(token)`` when its mp link reaches the protocol thread, by
``void(token)`` when its acknowledgement could not be written, or by
``retire(peer)``: a sim ``ChannelHello`` carries no token, and the
``req_id``\\ s a requester abandoned never send one, so a hello settles
every open grant toward its peer. While frozen, ``adopt`` and ``retire``
answer "coordinate this link now".

``coordinate(peer)`` notes a ``peer_migrating`` sent; ``last(peer)`` an
``end_of_message``, ``peer_migrating`` or close received, and answers
whether the drain waited for it. ``peer_migrating(peer)`` is Fig. 4
lines 12-14: reply ``end_of_message``, unless we are migrating too —
then the peer's ``peer_migrating`` is its last message. ``thaw()``
aborts a timed-out drain and returns what was left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ProtocolError

__all__ = ["Drain"]


@dataclass
class Drain:
    """Grant ledger and coordinated peers of one migrating process."""

    frozen: bool = False
    granted: int = 0
    adopted: int = 0
    voided: int = 0
    #: token -> peer rank of every grant not yet settled
    open: dict = field(default_factory=dict)
    #: coordinated peers whose last message has not arrived
    waiting: set = field(default_factory=set)

    # -- queries ---------------------------------------------------------

    @property
    def settled(self) -> int:
        return self.adopted + self.voided

    @property
    def drained(self) -> bool:
        """Frozen, no coordinated peer owes its last message and every
        grant issued before the freeze is settled."""
        return self.frozen and not self.open and not self.waiting

    def stuck(self) -> str:
        return (f"waiting={sorted(self.waiting)} (peers whose last message "
                f"never came), grants granted={self.granted} "
                f"settled={self.settled} (unsettled toward ranks "
                f"{sorted(self.open.values())})")

    # -- grants ----------------------------------------------------------

    def grant(self, peer) -> int | None:
        """Count one grant toward *peer*; ``None`` means reject."""
        if self.frozen:
            return None
        self.granted += 1
        self.open[self.granted] = peer
        return self.granted

    def freeze(self) -> None:
        self.frozen = True

    def adopt(self, token: int) -> bool:
        self._settle(token)
        self.adopted += 1
        return self.frozen

    def void(self, token: int) -> None:
        self._settle(token)
        self.voided += 1

    def retire(self, peer) -> bool:
        for token in [t for t, p in self.open.items() if p == peer]:
            self.adopt(token)
        return self.frozen

    def _settle(self, token: int) -> None:
        if token not in self.open:
            raise ProtocolError(
                f"grant {token!r} settled twice or never issued "
                f"(granted={self.granted} settled={self.settled})")
        del self.open[token]

    # -- coordination ----------------------------------------------------

    def coordinate(self, peer) -> None:
        self.waiting.add(peer)

    def last(self, peer) -> bool:
        waited = peer in self.waiting
        self.waiting.discard(peer)
        return waited

    def peer_migrating(self, peer) -> bool:
        return not self.frozen

    def thaw(self) -> dict:
        """Abort: the machine is fresh again. Abandoned grants count as
        voided; a straggler hello of one registers as a plain link."""
        left = {"waiting": sorted(self.waiting),
                "pending_grants": len(self.open)}
        self.voided += len(self.open)
        self.open.clear()
        self.waiting.clear()
        self.frozen = False
        return left
