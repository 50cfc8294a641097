"""Endpoint-side client of the sharded directory.

When an application process's ``connect()`` is rejected, it used to
consult the scheduler directly. With the sharded backend the endpoint
holds a :class:`DirectoryClient` instead and consults the directory
nodes that own the rank; the scheduler is kept as the authoritative
*fallback* — the lookup contract ("a committed location is eventually
returned") must hold even while a published update is still in flight
or a shard is unreachable through the fault adversary.

Failure handling, in order:

1. a shard that exhausts the retry policy is failed over to the next
   replica in the owner list;
2. an ``unknown`` answer (node has no record yet) is backed off and
   retried — it must never be treated as *terminated*;
3. when rounds are spent, the scheduler answers authoritatively.

Replies are ordinary :class:`~repro.core.messages.LookupReply` objects,
so the endpoint's wait predicates, duplicate handling, and staleness
accounting are identical to the centralized path.
"""

from __future__ import annotations

from repro.core.messages import LookupReply, LookupRequest
from repro.directory.messages import DirLookup
from repro.util.errors import RetryExhausted
from repro.vm.ids import Rank, VmId
from repro.vm.messages import ControlEnvelope

__all__ = ["DirectoryClient"]

#: Consult rounds across the directory before falling back to the
#: scheduler, and the base backoff between "unknown" rounds.
UNKNOWN_ROUNDS = 3
UNKNOWN_BACKOFF = 0.02


class DirectoryClient:
    """Ask the rank's owners directly; fall back to the scheduler.

    Every round walks the full replica list, so a drop-storm on one
    owner degrades to another replica's answer instead of a stall. The
    per-client ``salt`` spreads the *starting* replica across clients —
    replicas receive the same published updates, so reads load-balance
    over them instead of hammering the primary.
    """

    def __init__(self, topology, peers: dict[int, VmId], salt: int = 0,
                 rounds: int = UNKNOWN_ROUNDS,
                 backoff: float = UNKNOWN_BACKOFF):
        self.topology = topology
        self.peers = peers
        self.salt = salt
        self.rounds = rounds
        self.backoff = backoff

    def candidates(self, rank: Rank, round_no: int) -> list[int]:
        """Node ids to consult this round, in order."""
        owners = self.topology.owners(rank)
        # Rotate per round too: a persistently unreachable replica
        # should not eat the whole retry budget.
        k = (self.salt + round_no) % len(owners)
        return owners[k:] + owners[:k]

    # -- the lookup --------------------------------------------------------
    def lookup(self, ep, rank: Rank) -> tuple[str, VmId | None]:
        """Resolve *rank* via the directory; scheduler as last resort.

        Same return shape as ``MigrationEndpoint.consult_scheduler`` so
        the endpoint's conn_nack path is backend-oblivious.
        """
        for round_no in range(self.rounds):
            for node_id in self.candidates(rank, round_no):
                try:
                    reply = self._ask_node(ep, node_id, rank)
                except RetryExhausted:
                    self._count(ep, "dir_failovers")
                    ep.vm.trace_record(ep.ctx.name, "dir_failover",
                                       rank=rank, node=node_id)
                    continue
                if reply.status != "unknown":
                    if (reply.vmid is not None and ep.pl.is_stale(rank)
                            and ep.pl.get(rank) == reply.vmid):
                        # The node re-affirmed the very location a
                        # conn_nack just disproved: its record lags the
                        # scheduler's. Pause before handing it back, or
                        # the nack/consult cycle can spin through
                        # connect()'s attempt budget faster than the
                        # publisher's retransmit tick converges the node.
                        self._count(ep, "dir_stale_echoes")
                        ep.vm.trace_record(ep.ctx.name, "dir_stale_echo",
                                           rank=rank, node=node_id)
                        ep.kernel.sleep(self.backoff * (2 ** round_no))
                    return reply.status, reply.vmid
                ep.vm.trace_record(ep.ctx.name, "dir_unknown", rank=rank,
                                   node=node_id, round=round_no)
            # Every consulted node lacked the record (update in flight) or
            # was unreachable: back off, then try again / fall back.
            ep.kernel.sleep(self.backoff * (2 ** round_no))
        return self._scheduler_fallback(ep, rank)

    def _ask_node(self, ep, node_id: int, rank: Rank) -> LookupReply:
        token = next(ep._tokens)
        self._count(ep, "dir_lookups")
        item = ep.request_reply(
            self.peers[node_id],
            DirLookup(rank=rank, reply_to=ep.ctx.vmid, token=token),
            lambda it: isinstance(it, ControlEnvelope)
            and isinstance(it.msg, LookupReply) and it.msg.token == token,
            what="dir_lookup")
        reply: LookupReply = item.msg
        ep.vm.trace_record(ep.ctx.name, "dir_reply", rank=rank,
                           status=reply.status,
                           vmid=str(reply.vmid) if reply.vmid else None)
        return reply

    def _scheduler_fallback(self, ep, rank: Rank) -> tuple[str, VmId | None]:
        self._count(ep, "dir_fallbacks")
        token = next(ep._tokens)
        ep.stats.scheduler_consults += 1
        if getattr(ep, "metrics", None) is not None:
            ep._m_consults.inc()
        ep.vm.trace_record(ep.ctx.name, "dir_fallback", rank=rank,
                           token=token)
        item = ep.request_reply(
            ep.scheduler_vmid,
            LookupRequest(rank=rank, reply_to=ep.ctx.vmid, token=token),
            lambda it: isinstance(it, ControlEnvelope)
            and isinstance(it.msg, LookupReply) and it.msg.token == token,
            what="lookup")
        ep.vm.trace_record(ep.ctx.name, "dir_fallback_reply", rank=rank,
                           status=item.msg.status)
        return item.msg.status, item.msg.vmid

    @staticmethod
    def _count(ep, key: str) -> None:
        ep.stats.extra[key] = ep.stats.extra.get(key, 0) + 1
        metrics = getattr(ep, "metrics", None)
        if metrics is not None:
            metrics.counter(f"client.{key}", actor=ep.ctx.name).inc()
