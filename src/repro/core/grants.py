"""Exact accounting of granted-but-not-yet-coordinated connections.

The paper's drain (Fig. 5 line 6) ends on an *event*: the last
``end_of_message`` of every connection the migrating process granted.
A grant, however, becomes a connection the protocol can coordinate only
some time after it is issued — the acceptor answers ``conn_ack`` /
``hello_ack`` first and learns of the established link later — so a
drain that looks only at established links can finish while a granted
connection is still on its way in, and every message the peer sends on
it is lost (Theorem 2). The simulator closes that gap by counting
(``MigrationEndpoint._pending_grants``; the drain loops ``while waiting
or ep.pending_grant_count() > 0``). :class:`GrantLedger` is the same
rule as a pure state machine the mp runtime drives:

``grant(peer)``
    the acceptor is about to acknowledge a connection request. Returns
    a token, or ``None`` once the ledger is frozen — the request must
    be rejected (Fig. 5 line 4) and the requester consults the
    scheduler.
``freeze()``
    migration starts: no grant is issued from here on. Because
    ``grant`` and ``freeze`` are serialized by the caller, every grant
    is either counted before the freeze or refused after it.
``adopt(token)``
    the granted connection reached the protocol thread as an
    established link (and, during a drain, was coordinated with
    ``peer_migrating``).
``void(token)``
    the grant can never become a link (its acknowledgement could not be
    written).

Every grant is *settled* — adopted or voided — exactly once; settling
an unknown token or settling twice raises. The drain invariant is
``granted == adopted + voided`` before any state is transferred:
:attr:`drained`. The machine performs no I/O, reads no clock and takes
no lock (the mp worker wraps it in one), so Hypothesis can drive it
through arbitrary interleavings
(``tests/property/test_grant_ledger.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ProtocolError

__all__ = ["GrantLedger"]


@dataclass
class GrantLedger:
    """Pure grant/freeze/adopt/void state machine of one acceptor."""

    frozen: bool = False
    granted: int = 0
    adopted: int = 0
    voided: int = 0
    #: token -> peer rank of every grant not yet settled
    open: dict = field(default_factory=dict)

    # -- queries ---------------------------------------------------------

    @property
    def settled(self) -> int:
        return self.adopted + self.voided

    @property
    def drained(self) -> bool:
        """Frozen, and every grant issued before the freeze is settled."""
        return self.frozen and not self.open

    # -- transitions -----------------------------------------------------

    def grant(self, peer) -> int | None:
        """Count one grant toward *peer*; ``None`` means reject."""
        if self.frozen:
            return None
        self.granted += 1
        self.open[self.granted] = peer
        return self.granted

    def freeze(self) -> None:
        """Stop granting; what is still in ``open`` is what a drain
        has left to wait for."""
        self.frozen = True

    def adopt(self, token: int) -> None:
        self._settle(token)
        self.adopted += 1

    def void(self, token: int) -> None:
        self._settle(token)
        self.voided += 1

    def _settle(self, token: int) -> None:
        if token not in self.open:
            raise ProtocolError(
                f"grant {token!r} settled twice or never issued "
                f"(granted={self.granted} settled={self.settled})")
        del self.open[token]
