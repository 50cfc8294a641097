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

from repro.directory.base import CentralizedDirectory, LocationRecord
from repro.directory.client import DirectoryClient
from repro.directory.hashring import HashRing
from repro.directory.messages import DirLookup, DirRetransmitTick, DirUpdate
from repro.directory.shard import NodeStats, Publisher, ShardNode
from repro.directory.spec import DirectorySpec
from repro.util.errors import ProtocolError
from repro.vm.ids import Rank, VmId
from repro.vm.messages import ControlEnvelope
from repro.vm.process import ProcessContext

__all__ = ["directory_node_main", "DirectoryPublisher", "DirectoryCluster"]

#: How long the scheduler waits before re-sending unacked updates.
PUBLISH_TICK = 0.05


def directory_node_main(ctx: ProcessContext, node: ShardNode) -> None:
    """Event loop of one directory daemon: a driver over :class:`ShardNode`."""
    vm = ctx.vm
    while True:
        item = ctx.next_message()
        if not isinstance(item, ControlEnvelope):
            vm.trace_record(ctx.name, "dir_ignored",
                            item=type(item).__name__)
            continue
        msg = item.msg

        if isinstance(msg, DirLookup):
            reply = node.reply(msg.rank, msg.token)
            vm.trace_record(ctx.name, "dir_lookup_served", rank=msg.rank,
                            status=reply.status)
            ctx.route_control(msg.reply_to, reply)

        elif isinstance(msg, DirUpdate):
            ack, applied = node.apply(msg)
            if applied:
                vm.trace_record(ctx.name, "dir_update_applied",
                                rank=msg.rank, status=msg.status,
                                version=msg.version)
            else:
                vm.trace_record(ctx.name, "dir_update_ignored",
                                rank=msg.rank, version=msg.version)
            ctx.route_control(item.src_vmid, ack)

        else:
            vm.trace_record(ctx.name, "dir_ignored",
                            item=type(msg).__name__)


class DirectoryPublisher:
    """The scheduler's write side: a driver over :class:`Publisher`.

    Lives inside the scheduler process. ``publish`` fires updates and
    never blocks; losses are repaired by ``on_tick`` retransmits, driven
    by :class:`DirRetransmitTick` messages the kernel timer injects into
    the scheduler's own mailbox (the scheduler must keep serving lookups
    and migrations while updates are in flight).
    """

    def __init__(self, topology, peers: dict[int, VmId]):
        self.topology = topology
        self.peers = peers
        self.machine = Publisher()
        self._tick_pending = False

    def publish(self, ctx: ProcessContext, record: LocationRecord) -> None:
        for upd in self.machine.publish(record,
                                        self.topology.owners(record.rank)):
            ctx.route_control(self.peers[upd.node], upd)
        self._ensure_tick(ctx)

    def on_tick(self, ctx: ProcessContext) -> None:
        self._tick_pending = False
        for upd in self.machine.due():
            ctx.route_control(self.peers[upd.node], upd)
        self._ensure_tick(ctx)

    def _ensure_tick(self, ctx: ProcessContext) -> None:
        if self._tick_pending or not self.machine.pending:
            return
        self._tick_pending = True

        def fire() -> None:
            ctx.mailbox.put(ControlEnvelope(src_vmid=ctx.vmid,
                                            msg=DirRetransmitTick()))

        ctx.kernel.call_later(PUBLISH_TICK, fire)


class DirectoryCluster:
    """The spawned directory daemons of one application run.

    Built by the launcher before the kernel runs: the nodes are daemons
    (they must not keep the run alive), the topology is fixed, and
    :meth:`seed` installs the initial placement synchronously, so the
    first lookups cannot race the first published updates.
    """

    def __init__(self, vm, spec: DirectorySpec, default_host: str):
        if not spec.distributed:
            raise ProtocolError(
                "centralized backend spawns no directory cluster")
        node_ids = list(range(spec.nodes))
        self.topology = HashRing(node_ids, replication=spec.replication)
        self.peers: dict[int, VmId] = {}
        self.nodes: dict[int, ShardNode] = {}
        for i in node_ids:
            node = ShardNode()
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

    def make_publisher(self) -> DirectoryPublisher:
        return DirectoryPublisher(self.topology, self.peers)

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
