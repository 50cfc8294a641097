"""Directory daemon processes, their cluster, and the scheduler's publisher.

A *directory node* is a daemon process in the virtual machine holding the
location records of the ranks it owns (its consistent-hash shard).
Nodes are read replicas: the scheduler remains the single writer and
*publishes* every mutation to the owners, version-stamped and
retransmitted until acknowledged. The publication path and the lookup
path both ride the connectionless ``ctl`` service, so both are exposed to
the drop/dup/delay adversary of :mod:`repro.sim.faults` — see
:mod:`repro.directory.messages` for why each message survives it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import LookupReply
from repro.directory.base import (
    STATUS_MIGRATING,
    STATUS_RUNNING,
    CentralizedDirectory,
    LocationRecord,
)
from repro.directory.client import DirectoryClient
from repro.directory.hashring import HashRing
from repro.directory.messages import (
    DirLookup,
    DirRetransmitTick,
    DirUpdate,
    DirUpdateAck,
)
from repro.directory.spec import DirectorySpec
from repro.util.errors import ProtocolError
from repro.vm.ids import Rank, VmId
from repro.vm.messages import ControlEnvelope
from repro.vm.process import ProcessContext

__all__ = ["NodeStats", "DirectoryNode", "directory_node_main",
           "DirectoryPublisher", "DirectoryCluster"]

#: How long the scheduler waits before re-sending unacked updates.
PUBLISH_TICK = 0.05


@dataclass
class NodeStats:
    """Per-node protocol accounting (drives the ablation's hot-spot plot)."""

    lookups_served: int = 0
    unknown_served: int = 0
    updates_applied: int = 0
    updates_ignored: int = 0


class DirectoryNode:
    """State of one directory daemon.

    Holds whatever records the scheduler's publisher sends it; which
    ranks those are is the ring's business, not the node's.
    """

    def __init__(self):
        self.records: dict[Rank, LocationRecord] = {}
        self.stats = NodeStats()

    def reply_for(self, rank: Rank, token: int) -> LookupReply:
        """Build the lookup reply from this node's record of *rank*.

        Mirrors the scheduler's reply construction exactly — including
        "migrate" redirecting to the initialized process — with one
        directory-specific addition: a missing record answers ``unknown``
        (the update may still be in flight), never ``terminated``, because
        the requester treats *terminated* as authoritative and fatal.
        """
        rec = self.records.get(rank)
        if rec is None:
            return LookupReply(rank, "unknown", None, token)
        if rec.status == STATUS_MIGRATING:
            return LookupReply(rank, "migrate", rec.init_vmid, token,
                               init_vmid=rec.init_vmid)
        if rec.status == STATUS_RUNNING:
            return LookupReply(rank, "running", rec.vmid, token,
                               init_vmid=rec.init_vmid)
        return LookupReply(rank, "terminated", None, token,
                           init_vmid=rec.init_vmid)


def directory_node_main(ctx: ProcessContext, node: DirectoryNode) -> None:
    """Event loop of one directory daemon."""
    vm = ctx.vm
    while True:
        item = ctx.next_message()
        if not isinstance(item, ControlEnvelope):
            vm.trace_record(ctx.name, "dir_ignored",
                            item=type(item).__name__)
            continue
        msg = item.msg

        if isinstance(msg, DirLookup):
            reply = node.reply_for(msg.rank, msg.token)
            node.stats.lookups_served += 1
            if reply.status == "unknown":
                node.stats.unknown_served += 1
            vm.trace_record(ctx.name, "dir_lookup_served", rank=msg.rank,
                            status=reply.status)
            ctx.route_control(msg.reply_to, reply)

        elif isinstance(msg, DirUpdate):
            rec = LocationRecord(rank=msg.rank, status=msg.status,
                                 vmid=msg.vmid, init_vmid=msg.init_vmid,
                                 version=msg.version)
            cur = node.records.get(msg.rank)
            if rec.newer_than(cur):
                node.records[msg.rank] = rec
                node.stats.updates_applied += 1
                vm.trace_record(ctx.name, "dir_update_applied",
                                rank=msg.rank, status=msg.status,
                                version=msg.version)
            else:
                # Duplicate or out-of-order update: keep the newer record.
                node.stats.updates_ignored += 1
                vm.trace_record(ctx.name, "dir_update_ignored",
                                rank=msg.rank, version=msg.version)
            # Always ack with the version now held (>= msg.version), so a
            # duplicated update still silences the publisher's retransmit.
            held = node.records[msg.rank].version
            ctx.route_control(msg.reply_to,
                              DirUpdateAck(rank=msg.rank, version=held,
                                           node=msg.node))

        else:
            vm.trace_record(ctx.name, "dir_ignored",
                            item=type(msg).__name__)


class DirectoryPublisher:
    """The scheduler's write-side: push records to owners until acked.

    Lives inside the scheduler process. ``publish`` fires updates and
    never blocks; losses are repaired by ``on_tick`` retransmits, driven
    by :class:`DirRetransmitTick` messages the kernel timer injects into
    the scheduler's own mailbox (the scheduler must keep serving lookups
    and migrations while updates are in flight).
    """

    def __init__(self, topology, peers: dict[int, VmId],
                 tick_interval: float = PUBLISH_TICK):
        self.topology = topology
        self.peers = peers
        self.tick_interval = tick_interval
        #: (rank, node) -> newest update not yet acked by that node
        self.unacked: dict[tuple[Rank, int], DirUpdate] = {}
        self.published = 0
        self.retransmits = 0
        self._tick_pending = False

    def publish(self, ctx: ProcessContext, record: LocationRecord) -> None:
        for node_id in self.topology.owners(record.rank):
            upd = DirUpdate(rank=record.rank, status=record.status,
                            vmid=record.vmid, init_vmid=record.init_vmid,
                            version=record.version, reply_to=ctx.vmid,
                            node=node_id)
            # A newer version supersedes any older unacked one outright.
            self.unacked[(record.rank, node_id)] = upd
            self.published += 1
            ctx.route_control(self.peers[node_id], upd)
        self._ensure_tick(ctx)

    def on_ack(self, ack: DirUpdateAck) -> None:
        pending = self.unacked.get((ack.rank, ack.node))
        if pending is not None and ack.version >= pending.version:
            del self.unacked[(ack.rank, ack.node)]

    def on_tick(self, ctx: ProcessContext) -> None:
        self._tick_pending = False
        if not self.unacked:
            return
        for upd in list(self.unacked.values()):
            self.retransmits += 1
            ctx.route_control(self.peers[upd.node], upd)
        self._ensure_tick(ctx)

    def _ensure_tick(self, ctx: ProcessContext) -> None:
        if self._tick_pending or not self.unacked:
            return
        self._tick_pending = True

        def fire() -> None:
            ctx.mailbox.put(ControlEnvelope(src_vmid=ctx.vmid,
                                            msg=DirRetransmitTick()))

        ctx.kernel.call_later(self.tick_interval, fire)


class DirectoryCluster:
    """The spawned directory daemons of one application run.

    Built by the launcher before the kernel runs: nodes are spawned (as
    daemons — they must not keep the run alive), the topology is fixed for
    the run, and the initial placement is seeded synchronously into the
    owners' stores so there is no startup race between the first lookups
    and the first published updates.
    """

    def __init__(self, vm, spec: DirectorySpec, default_host: str):
        if not spec.distributed:
            raise ProtocolError(
                "centralized backend spawns no directory cluster")
        self.vm = vm
        self.spec = spec
        node_ids = list(range(spec.nodes))
        self.topology = HashRing(node_ids, replication=spec.replication)
        self.peers: dict[int, VmId] = {}
        self.nodes: dict[int, DirectoryNode] = {}
        for i in node_ids:
            node = DirectoryNode()
            nctx = vm.spawn(default_host, directory_node_main, node,
                            name=f"dir{i}", daemon=True)
            self.peers[i] = nctx.vmid
            self.nodes[i] = node

    def seed(self, directory: CentralizedDirectory) -> None:
        """Install the authoritative table's records into their owners."""
        for rank in directory.ranks():
            rec = directory.record(rank)
            for node_id in self.topology.owners(rank):
                self.nodes[node_id].records[rank] = rec

    def make_publisher(self,
                       tick_interval: float = PUBLISH_TICK
                       ) -> DirectoryPublisher:
        return DirectoryPublisher(self.topology, self.peers, tick_interval)

    def make_client(self, rank: Rank) -> DirectoryClient:
        """The lookup client a rank's endpoint consults instead of the
        scheduler."""
        return DirectoryClient(self.topology, self.peers, salt=int(rank))

    def node_stats(self) -> dict[int, NodeStats]:
        return {i: n.stats for i, n in self.nodes.items()}

    def records_for(self, rank: Rank) -> dict[int, LocationRecord | None]:
        """Each owner's current record of *rank* (tests / invariants)."""
        return {i: self.nodes[i].records.get(rank)
                for i in self.topology.owners(rank)}
