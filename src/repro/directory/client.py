"""Endpoint-side client of the sharded directory.

When ``connect()`` is rejected, an endpoint on the sharded backend asks
the directory nodes owning the rank, driving
:class:`~repro.directory.shard.LookupLadder` in virtual time; the
scheduler stays the authoritative *fallback*, so the lookup contract ("a
committed location is eventually returned") holds while an update is in
flight or a shard is unreachable through the fault adversary. Replies
are ordinary :class:`~repro.core.messages.LookupReply` objects, so the
endpoint's wait predicates and staleness accounting are those of the
centralized path.
"""

from __future__ import annotations

from repro.core.messages import LookupReply, LookupRequest
from repro.directory.messages import DirLookup
from repro.directory.shard import Ask, Done, LookupLadder, Sleep
from repro.util.errors import RetryExhausted
from repro.vm.ids import Rank, VmId
from repro.vm.messages import ControlEnvelope

__all__ = ["DirectoryClient"]

#: Consult rounds across the directory before falling back to the
#: scheduler (three under the drop adversary), and the base backoff
#: between "unknown" rounds.
UNKNOWN_ROUNDS = 3
UNKNOWN_BACKOFF = 0.02


class DirectoryClient:
    """Ask the rank's owners directly; fall back to the scheduler.

    The per-client ``salt`` spreads the *starting* replica across
    clients, so reads load-balance over the replicas.
    """

    def __init__(self, topology, peers: dict[int, VmId], salt: int = 0):
        self.topology = topology
        self.peers = peers
        self.salt = salt

    # -- the lookup --------------------------------------------------------
    def lookup(self, ep, rank: Rank) -> tuple[str, VmId | None]:
        """Resolve *rank* via the directory; scheduler as last resort.

        Same return shape as ``MigrationEndpoint.consult_scheduler`` so
        the endpoint's conn_nack path is backend-oblivious.
        """
        def ask(step: Ask) -> tuple:
            try:
                reply = self._ask_node(ep, step.node, rank)
            except RetryExhausted:
                self._count(ep, "dir_failovers")
                ep.vm.trace_record(ep.ctx.name, "dir_failover",
                                   rank=rank, node=step.node)
                return None, None
            if reply.status == "unknown":
                ep.vm.trace_record(ep.ctx.name, "dir_unknown", rank=rank,
                                   node=step.node, round=step.round)
            disproved = ep.pl.get(rank) if ep.pl.is_stale(rank) else None
            return reply, disproved

        def sleep(step: Sleep) -> None:
            if step.echo is not None:
                self._count(ep, "dir_stale_echoes")
                ep.vm.trace_record(ep.ctx.name, "dir_stale_echo",
                                   rank=rank, node=step.echo)
            ep.kernel.sleep(step.seconds)

        ladder = LookupLadder(self.topology.owners(rank), self.salt,
                              UNKNOWN_ROUNDS, UNKNOWN_BACKOFF)
        outcome = ladder.run(ask, sleep)
        if isinstance(outcome, Done):
            return outcome.status, outcome.vmid
        return self._scheduler_fallback(ep, rank)

    @staticmethod
    def _request(ep, dest: VmId, msg, what: str) -> LookupReply:
        """Send a lookup and pump until the reply with its token."""
        return ep.request_reply(
            dest, msg, lambda it: isinstance(it, ControlEnvelope)
            and isinstance(it.msg, LookupReply)
            and it.msg.token == msg.token, what=what).msg

    def _ask_node(self, ep, node_id: int, rank: Rank) -> LookupReply:
        token = next(ep._tokens)
        self._count(ep, "dir_lookups")
        reply = self._request(
            ep, self.peers[node_id],
            DirLookup(rank=rank, reply_to=ep.ctx.vmid, token=token),
            "dir_lookup")
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
        reply = self._request(
            ep, ep.scheduler_vmid,
            LookupRequest(rank=rank, reply_to=ep.ctx.vmid, token=token),
            "lookup")
        ep.vm.trace_record(ep.ctx.name, "dir_fallback_reply", rank=rank,
                           status=reply.status)
        return reply.status, reply.vmid

    @staticmethod
    def _count(ep, key: str) -> None:
        ep.stats.extra[key] = ep.stats.extra.get(key, 0) + 1
        metrics = getattr(ep, "metrics", None)
        if metrics is not None:
            metrics.counter(f"client.{key}", actor=ep.ctx.name).inc()
