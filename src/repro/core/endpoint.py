"""The migration-supported data-communication endpoint.

:class:`MigrationEndpoint` implements the paper's data communication
algorithms — ``send`` (Fig. 2), ``connect()`` (Fig. 3) and ``recv``
(Fig. 4) — together with the shared message-dispatch machinery that the
process-migration algorithms (:mod:`repro.core.migration`) build on.

Design notes / deviations from the paper's pseudo-code, all behaviour
preserving:

* **Asynchronous connection grant.** The paper's ``grant_connection_to``
  blocks until the requester completes ``make_connection_with``. Here the
  acceptor replies ``conn_ack`` and continues; the requester creates the
  channel and sends a :class:`ChannelHello` as its first (FIFO-first)
  message, which registers the connection at the acceptor. This removes a
  grant/grant cycle when two processes request each other simultaneously.
* **Simultaneous mutual requests** are tie-broken by rank: the lower-rank
  process defers the incoming request until its own request resolves, so
  exactly one channel is created per pair.
* **Stale control messages** (acks for requests that were satisfied by the
  hello path, scheduler replies that arrive after a retry) are ignored by
  token/req-id matching rather than assumed away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.codec import NATIVE, Architecture
from repro.core.drain import Drain
from repro.core.messages import (
    ANY,
    ChannelHello,
    DataMessage,
    EndOfMessage,
    IndirectData,
    InitAbort,
    LookupReply,
    LookupRequest,
    NewProcessReply,
    PeerMigrating,
    PLSnapshot,
    SchedulerAck,
    SIG_DISCONNECT,
    SIG_MIGRATE,
    StateChunk,
    TerminateNotice,
)
from repro.core.pltable import PLTable
from repro.core.recvlist import ReceivedMessageList
from repro.core.streaming import DEFAULT_CHUNK_BYTES, ChunkAssembler
from repro.directory.cache import LocationCache
from repro.core.sizes import CONTROL_PAYLOAD_BYTES, estimate_nbytes
from repro.sim.kernel import TIMEOUT
from repro.sim.trace import KIND_RETRY, KIND_TIMEOUT
from repro.util.errors import (
    DestinationTerminatedError,
    NoSuchProcessError,
    ProtocolError,
)
from repro.util.retry import RetryPolicy
from repro.util.rng import RngStream
from repro.vm.channel import Channel
from repro.vm.ids import Rank, VmId
from repro.vm.messages import ConnAck, ConnNack, ConnReq, ControlEnvelope, Envelope
from repro.vm.process import ProcessContext

__all__ = ["MigrationEndpoint", "EndpointStats", "NORMAL", "MIGRATING",
           "INITIALIZING"]

# endpoint states
NORMAL = "normal"
MIGRATING = "migrating"
INITIALIZING = "initializing"


@dataclass
class EndpointStats:
    """Per-endpoint protocol accounting (drives Tables 1-2 and ablations)."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: virtual time spent inside snow_send / snow_recv
    comm_time: float = 0.0
    conn_reqs_sent: int = 0
    conn_reqs_granted: int = 0
    conn_reqs_rejected: int = 0
    conn_nacks_received: int = 0
    scheduler_consults: int = 0
    #: data messages captured into the list while draining (migration)
    captured_in_transit: int = 0
    #: control messages this endpoint ignored as stale
    stale_ignored: int = 0
    #: re-sends after an unanswered control request (hardened mode)
    retries: int = 0
    #: per-attempt timeouts observed (hardened mode)
    timeouts: int = 0
    extra: dict[str, float] = field(default_factory=dict)


class MigrationEndpoint:
    """Protocol state and operations for one application process.

    Parameters
    ----------
    ctx:
        The process's VM context.
    rank:
        Application-level rank of this process.
    scheduler_vmid:
        Where scheduler RPCs go.
    pl:
        Initial process-location table (copied).
    arch:
        Architecture of this host, used when encoding migration state.
    migration_enabled:
        When ``False`` the endpoint runs "original-code" mode for the
        Table 1 baseline: identical message flow but without the
        migration-layer bookkeeping costs (signal masking, poll hooks).
    transport:
        ``"direct"`` (default) — connection-oriented channels, the mode
        the paper's protocols are built on. ``"indirect"`` — PVM's
        daemon-routed mode: no connections, per-message routing hops;
        migration is unsupported on this path (the transport ablation).
    retry_policy:
        When set, hardens the connectionless control path against the
        fault model of :mod:`repro.sim.faults`: every ``conn_req`` and
        scheduler RPC is re-sent on a timeout per the policy's bounded
        exponential backoff, and gives up with
        :class:`~repro.util.errors.RetryExhausted`. ``None`` (default)
        reproduces the paper's reliable-network assumption: wait forever.
    drain_timeout:
        Bound on the migration drain (Fig. 5 line 6). When the drain does
        not finish within this many virtual seconds the migration is
        aborted and the process resumes normal execution (the scheduler
        may re-issue the request). ``None`` disables the bound.
    directory_client:
        When set (a :class:`~repro.directory.client.DirectoryClient`),
        location consults after a connection rejection go to the
        configured distributed directory backend instead of the
        scheduler; the scheduler remains the authoritative fallback.
        ``None`` (default) is the paper's centralized configuration.
    chunk_bytes:
        ``state_chunk`` payload size of the pipelined state transfer
        (:mod:`repro.core.streaming`): a fixed int, or
        an :class:`~repro.core.adaptive.AdaptiveChunkPolicy` to size
        chunks AIMD-style from observed per-chunk ship latency.
    bandwidth_budget:
        Optional :class:`~repro.core.adaptive.BandwidthBudget` shared by
        every transfer leaving this endpoint's host; an adaptive
        migration's :class:`~repro.core.adaptive.ChunkController`
        attaches to it so concurrent windows split the uplink fairly.
    """

    def __init__(self, ctx: ProcessContext, rank: Rank,
                 scheduler_vmid: VmId, pl: PLTable,
                 arch: Architecture = NATIVE,
                 migration_enabled: bool = True,
                 initializing: bool = False,
                 transport: str = "direct",
                 retry_policy: RetryPolicy | None = None,
                 drain_timeout: float | None = None,
                 directory_client=None,
                 chunk_bytes=DEFAULT_CHUNK_BYTES,
                 bandwidth_budget=None,
                 trace_id: str | None = None):
        if transport not in ("direct", "indirect"):
            raise ProtocolError(f"unknown transport {transport!r}")
        if transport == "indirect" and migration_enabled:
            raise ProtocolError(
                "indirect (daemon-routed) transport carries no migration "
                "support — launch with migratable=False")
        self.transport = transport
        self.ctx = ctx
        self.vm = ctx.vm
        self.kernel = ctx.kernel
        self.rank = rank
        ctx.rank = rank
        self.scheduler_vmid = scheduler_vmid
        self.pl = pl.copy()
        #: optional repro.obs.MetricsRegistry shared VM-wide; when set,
        #: cache/lookup/consult counters and the recvlist scan histogram
        #: are registered there (labelled by actor) instead of living
        #: only in per-endpoint stats objects
        self.metrics = getattr(ctx.vm, "metrics", None)
        #: cache discipline over the PL copy: negative invalidation on
        #: conn_nack, hit/miss accounting for the directory ablation
        self.cache = LocationCache(self.pl, metrics=self.metrics,
                                   actor=ctx.name)
        self.directory_client = directory_client
        self.arch = arch
        self.migration_enabled = migration_enabled
        self.state = INITIALIZING if initializing else NORMAL
        self.retry_policy = retry_policy
        self.drain_timeout = drain_timeout
        self.chunk_bytes = chunk_bytes
        #: shared per-host fair-share ledger for concurrent transfers
        self.bandwidth_budget = bandwidth_budget
        #: causal trace id of the migration this endpoint participates
        #: in: stamped on span records so source and destination phases
        #: stitch into one trace tree. The destination receives it at
        #: spawn (the scheduler minted it); the source learns it from
        #: the NewProcessReply.
        self.trace_id = trace_id
        #: destination-side reassembly of an in-flight chunked transfer
        self._chunk_assembler: ChunkAssembler | None = None
        #: jitter stream: per-endpoint sub-stream so concurrent retriers
        #: never perturb each other's draws
        self._retry_rng = (RngStream(retry_policy.seed, f"retry/{ctx.name}")
                           if retry_policy is not None else None)

        #: rank -> channel for every established connection (the paper's
        #: ``Connected`` set and ``cc[]`` array in one structure)
        self.connected: dict[Rank, Channel] = {}
        self.recvlist = ReceivedMessageList()
        #: the paper's ``Closed_conn`` coordination counter (Figs. 4, 6)
        self.closed_conn = 0
        self.stats = EndpointStats()
        if self.metrics is not None:
            from repro.obs.metrics import POW2_BUCKETS
            self._m_consults = self.metrics.counter(
                "endpoint.scheduler_consults", actor=ctx.name)
            self._m_sent = self.metrics.counter(
                "endpoint.msgs_sent", actor=ctx.name)
            self._m_recv = self.metrics.counter(
                "endpoint.msgs_recv", actor=ctx.name)
            self.recvlist.scan_hook = self.metrics.histogram(
                "endpoint.recvlist_scan", bounds=POW2_BUCKETS,
                actor=ctx.name).record
            # same gauge names as the mp runtime, so one report renders
            # either backend's artifact
            self._g_qdepth = self.metrics.gauge("mp.queue_depth",
                                                actor=ctx.name)
            self._g_links = self.metrics.gauge("mp.live_links",
                                               actor=ctx.name)

        self.migration_requested = False
        #: Fig. 5's drain (repro.core.drain): what this process granted,
        #: whether it is frozen, and the coordinated peers it waits for
        self.drain = Drain()

        self._req_ids = itertools.count(1)
        self._tokens = itertools.count(1)
        #: (req_id, dest) of the connection request in flight, if any
        self._outstanding: tuple[int, Rank] | None = None
        self._deferred_reqs: list[ControlEnvelope] = []
        #: conn_reqs an initializing endpoint is holding until restore
        #: completes (only with a drain timeout — see _handle_conn_req)
        self._init_deferred: list[ControlEnvelope] = []
        #: every ack ever sent, keyed (requester vmid, req_id): a
        #: retransmitted conn_req is answered with the *same* ack instead
        #: of granting a second channel (idempotent dispatch)
        self._acked_reqs: dict[tuple[VmId, int], ConnAck] = {}

        if migration_enabled:
            ctx.on_signal(SIG_MIGRATE, self._on_migrate_signal)
            ctx.on_signal(SIG_DISCONNECT, self._on_disconnect_signal)

    # ------------------------------------------------------------------
    # public API: the paper's send / recv operations
    # ------------------------------------------------------------------
    def snow_send(self, dest: Rank, body: Any, tag: int = 0,
                  nbytes: int | None = None) -> None:
        """Blocking buffered-mode send (paper Fig. 2).

        Establishes a connection on demand; returns once the payload is
        copied to the underlying protocol's buffers.
        """
        if dest == self.rank:
            raise ProtocolError("cannot send to self")
        t0 = self.kernel.now
        self._enter_comm_event()
        try:
            if nbytes is None:
                nbytes = estimate_nbytes(body)
            msg = DataMessage(src=self.rank, tag=tag, body=body,
                              nbytes=nbytes, sent_at=self.kernel.now)
            if self.transport == "indirect":
                # PVM indirect mode: pack into OS buffers, then route via
                # the daemons — no channel, hop costs per message
                self.ctx.burn(self.vm.costs.send_cost(nbytes))
                self.ctx.route_control(self.pl.lookup(dest),
                                       IndirectData(msg), nbytes=nbytes)
            else:
                if dest not in self.connected:
                    self.connect(dest)
                self.connected[dest].send(self.ctx, msg, nbytes)
            self.stats.messages_sent += 1
            self.stats.bytes_sent += nbytes
            if self.metrics is not None:
                self._m_sent.inc()
            self.vm.trace_record(self.ctx.name, "snow_send", dest=dest,
                                 tag=tag, nbytes=nbytes)
        finally:
            self._leave_comm_event()
            self.stats.comm_time += self.kernel.now - t0

    def snow_recv(self, src: Rank | None = ANY, tag: int | None = ANY
                  ) -> DataMessage:
        """Blocking receive with PVM-style wildcards (paper Fig. 4).

        Searches the received-message-list first; otherwise pulls new
        messages, dispatching control traffic (connection requests,
        ``peer_migrating``) as it goes and buffering unwanted data.
        """
        t0 = self.kernel.now
        self._enter_comm_event()
        try:
            while True:
                self._charge_list_search()
                msg = self.recvlist.find(src, tag)
                if msg is not None:
                    self.stats.messages_received += 1
                    self.stats.bytes_received += msg.nbytes
                    if self.metrics is not None:
                        self._m_recv.inc()
                    self.vm.trace_record(self.ctx.name, "snow_recv",
                                         src=msg.src, tag=msg.tag,
                                         nbytes=msg.nbytes,
                                         sent_at=msg.sent_at)
                    return msg
                item = self.ctx.next_message()
                self.dispatch(item)
        finally:
            self._leave_comm_event()
            self.stats.comm_time += self.kernel.now - t0

    def probe(self, src: Rank | None = ANY, tag: int | None = ANY) -> bool:
        """Non-destructively check the received-message-list for a match."""
        return any(m.matches(src, tag) for m in self.recvlist)

    # ------------------------------------------------------------------
    # connection establishment (paper Fig. 3)
    # ------------------------------------------------------------------
    def connect(self, dest: Rank) -> Channel:
        """Establish (or discover) a channel to *dest*.

        Terminates when connected, or raises
        :class:`DestinationTerminatedError` if the scheduler reports the
        destination gone (Fig. 3 line 13).
        """
        if dest == self.rank:
            raise ProtocolError("cannot connect to self")
        attempts = 0
        while dest not in self.connected:
            attempts += 1
            if attempts > 100:
                raise ProtocolError(
                    f"connect({dest}) did not converge after {attempts - 1} "
                    "attempts")
            req_id = next(self._req_ids)
            self._outstanding = (req_id, dest)
            self.stats.conn_reqs_sent += 1
            self._send_conn_req(req_id, dest)
            try:
                self._await_conn_response(req_id, dest)
            finally:
                self._outstanding = None
        self._flush_deferred()
        return self.connected[dest]

    def _send_conn_req(self, req_id: int, dest: Rank) -> None:
        """(Re-)send one connection request; the target is looked up fresh
        so a resend after a PL update chases the process's new location."""
        target = self.cache.resolve(dest)
        if target is None:
            target = self.pl.lookup(dest)  # raises ProtocolError
        self.vm.trace_record(self.ctx.name, "conn_req_sent", dest=dest,
                             req_id=req_id, target=str(target))
        self.ctx.route_control(
            target, ConnReq(req_id=req_id, src_rank=self.rank,
                            src_vmid=self.ctx.vmid))

    def _await_conn_response(self, req_id: int, dest: Rank) -> None:
        """Wait until our request resolves or a hello connects us.

        With a retry policy the wait is bounded per attempt: an unanswered
        request is re-sent with the *same* req_id (the acceptor dedups),
        and after ``max_attempts`` unanswered sends the operation raises
        :class:`~repro.util.errors.RetryExhausted`.
        """
        policy = self.retry_policy
        delays = policy.delays(self._retry_rng) if policy is not None else None
        deadline = (self.kernel.now + next(delays)
                    if delays is not None else None)
        attempt = 1
        t0 = self.kernel.now
        while self._outstanding is not None and dest not in self.connected:
            timeout = (None if deadline is None
                       else max(0.0, deadline - self.kernel.now))
            item = self.ctx.next_message(timeout=timeout)
            if item is TIMEOUT:
                self.stats.timeouts += 1
                self.vm.trace_record(self.ctx.name, KIND_TIMEOUT,
                                     what="conn_req", dest=dest,
                                     req_id=req_id, attempt=attempt)
                if attempt >= policy.max_attempts:
                    raise policy.exhausted(f"conn_req to rank {dest}",
                                           self.kernel.now - t0)
                attempt += 1
                self.stats.retries += 1
                self.vm.trace_record(self.ctx.name, KIND_RETRY,
                                     what="conn_req", dest=dest,
                                     req_id=req_id, attempt=attempt)
                self._send_conn_req(req_id, dest)
                deadline = self.kernel.now + next(delays)
                continue
            msg = item.msg if isinstance(item, ControlEnvelope) else None
            if isinstance(msg, ConnAck) and msg.req_id == req_id:
                self._outstanding = None
                if dest not in self.connected:
                    self._make_connection(dest, msg.acceptor_vmid)
                return
            if isinstance(msg, ConnNack) and msg.req_id == req_id:
                self._outstanding = None
                self.stats.conn_nacks_received += 1
                self.vm.trace_record(self.ctx.name, "conn_nack_received",
                                     dest=dest, reason=msg.reason)
                # The nack disproved the cached location: mark it stale
                # before consulting (negative invalidation).
                self.cache.invalidate(dest)
                status, vmid = self.consult_scheduler(dest)
                if status == "terminated" or vmid is None:
                    raise DestinationTerminatedError(
                        f"rank {dest} has terminated")
                # Fig. 3 line 12: update the PL table and retry.
                self.cache.refresh(dest, vmid)
                return
            self.dispatch(item)

    def _make_connection(self, dest: Rank, acceptor_vmid: VmId) -> None:
        """The paper's ``make_connection_with``: create the channel."""
        self.ctx.burn(self.vm.costs.connect_setup)
        try:
            chan = self.vm.create_channel(self.ctx.vmid, acceptor_vmid)
        except NoSuchProcessError:
            # Acceptor vanished between ack and establishment: treat like a
            # rejection — consult the scheduler and let connect() retry.
            self.cache.invalidate(dest)
            status, vmid = self.consult_scheduler(dest)
            if status == "terminated" or vmid is None:
                raise DestinationTerminatedError(
                    f"rank {dest} has terminated") from None
            self.cache.refresh(dest, vmid)
            return
        self.connected[dest] = chan
        self.pl.update(dest, acceptor_vmid)
        chan.send(self.ctx, ChannelHello(self.rank), CONTROL_PAYLOAD_BYTES)
        self.vm.trace_record(self.ctx.name, "connected", dest=dest,
                             channel=chan.id, initiator=True)

    def consult_scheduler(self, dest: Rank) -> tuple[str, VmId | None]:
        """Ask the location directory for ``(exe status, vmid)`` of *dest*.

        With a distributed backend configured the consult goes to the
        directory client (which falls back to the scheduler if the
        directory cannot answer); otherwise straight to the scheduler —
        the paper's configuration.
        """
        if self.directory_client is not None:
            self.vm.trace_record(self.ctx.name, "directory_consult",
                                 dest=dest)
            return self.directory_client.lookup(self, dest)
        token = next(self._tokens)
        self.stats.scheduler_consults += 1
        if self.metrics is not None:
            self._m_consults.inc()
        self.vm.trace_record(self.ctx.name, "scheduler_consult", dest=dest,
                             token=token)
        item = self.request_reply(
            self.scheduler_vmid,
            LookupRequest(rank=dest, reply_to=self.ctx.vmid, token=token),
            lambda it: isinstance(it, ControlEnvelope)
            and isinstance(it.msg, LookupReply) and it.msg.token == token,
            what="lookup")
        reply: LookupReply = item.msg
        self.vm.trace_record(self.ctx.name, "scheduler_reply", dest=dest,
                             status=reply.status,
                             vmid=str(reply.vmid) if reply.vmid else None)
        return reply.status, reply.vmid

    def request_reply(self, dest_vmid: VmId, msg: Any,
                      pred: Callable[[Any], bool], what: str) -> Any:
        """Send *msg* to *dest_vmid* and pump until *pred* matches a reply.

        Without a retry policy this waits forever (the paper's reliable
        network). With one, each unanswered attempt re-sends the *same*
        message after a backoff timeout — receivers are idempotent, so a
        duplicate request just earns a duplicate reply — and the operation
        raises :class:`~repro.util.errors.RetryExhausted` after the
        attempt budget is spent.
        """
        policy = self.retry_policy
        self.ctx.route_control(dest_vmid, msg)
        if policy is None:
            return self.pump_until(pred)
        t0 = self.kernel.now
        attempt = 0
        for delay in policy.delays(self._retry_rng):
            attempt += 1
            item = self.pump_until(pred, timeout=delay)
            if item is not TIMEOUT:
                return item
            self.stats.timeouts += 1
            self.vm.trace_record(self.ctx.name, KIND_TIMEOUT, what=what,
                                 attempt=attempt)
            if attempt < policy.max_attempts:
                self.stats.retries += 1
                self.vm.trace_record(self.ctx.name, KIND_RETRY, what=what,
                                     attempt=attempt + 1)
                self.ctx.route_control(dest_vmid, msg)
        raise policy.exhausted(what, self.kernel.now - t0)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def pump_until(self, pred: Callable[[Any], bool],
                   timeout: float | None = None) -> Any:
        """Receive mailbox items, dispatching until *pred* matches one.

        The matching item is returned *without* being dispatched. With a
        *timeout* the wait is bounded by a deadline ``now + timeout``
        covering the whole pump (not each message), and the
        :data:`~repro.sim.kernel.TIMEOUT` sentinel is returned on expiry.
        """
        deadline = None if timeout is None else self.kernel.now + timeout
        while True:
            remaining = None
            if deadline is not None:
                remaining = deadline - self.kernel.now
                if remaining <= 0:
                    return TIMEOUT
            item = self.ctx.next_message(timeout=remaining)
            if item is TIMEOUT:
                return TIMEOUT
            if pred(item):
                return item
            self.dispatch(item)

    def dispatch(self, item: Any) -> None:
        """Process one mailbox item that no specific wait claimed.

        This is the shared behaviour behind the paper's recv loop (Fig. 4
        lines 6-15), connect()'s side work (Fig. 3 lines 6-8), and the
        initialization algorithm's "keep accepting" clause (Fig. 7).
        """
        if isinstance(item, Envelope):
            self._dispatch_envelope(item)
        elif isinstance(item, ControlEnvelope):
            self._dispatch_control(item)
        else:
            raise ProtocolError(f"unknown mailbox item {item!r}")

    def _dispatch_envelope(self, env: Envelope) -> None:
        p = env.payload
        if isinstance(p, DataMessage):
            self.recvlist.append(p)
            if self.state == MIGRATING:
                self.stats.captured_in_transit += 1
                self.vm.trace_record(self.ctx.name, "captured_in_transit",
                                     src=p.src, nbytes=p.nbytes)
        elif isinstance(p, ChannelHello):
            self._register_channel(env, p)
        elif isinstance(p, PeerMigrating):
            self._handle_peer_migrating(env, p)
        elif isinstance(p, EndOfMessage):
            self._handle_end_of_message(env, p)
        elif isinstance(p, StateChunk):
            self._absorb_chunk(p)
        else:
            raise ProtocolError(
                f"unexpected channel payload {type(p).__name__} in state "
                f"{self.state}")

    def _dispatch_control(self, env: ControlEnvelope) -> None:
        msg = env.msg
        if isinstance(msg, ConnReq):
            self._handle_conn_req(env)
        elif isinstance(msg, (ConnAck, ConnNack)):
            # A response to a request that was already satisfied (e.g. via
            # the hello path) — matched responses are consumed in
            # _await_conn_response.
            self.stats.stale_ignored += 1
            self.vm.trace_record(self.ctx.name, "stale_control",
                                 msg=type(msg).__name__, req_id=msg.req_id)
        elif isinstance(msg, IndirectData):
            self.recvlist.append(msg.message)
        elif isinstance(msg, (LookupReply, NewProcessReply, PLSnapshot,
                              SchedulerAck, InitAbort)):
            # Scheduler traffic that no specific wait claimed: a reply to a
            # request that was already answered (duplicate or late after a
            # retry). Receivers are idempotent, so dropping it is safe.
            self.stats.stale_ignored += 1
            self.vm.trace_record(self.ctx.name, "stale_control",
                                 msg=type(msg).__name__)
        else:
            raise ProtocolError(f"unexpected control message {msg!r}")

    # -- connection request handling --------------------------------------
    def _handle_conn_req(self, env: ControlEnvelope) -> None:
        msg: ConnReq = env.msg
        ack = self._acked_reqs.get((env.src_vmid, msg.req_id))
        if ack is not None:
            # Retransmit of a request we already granted (our ack was lost
            # or is still in flight): re-send the *same* ack — no second
            # grant, no stats, no new open grant. Checked before the
            # frozen rejection on purpose: the original grant is still
            # open in the drain, so nacking the retransmit would leave
            # the drain waiting for a hello the requester will never send.
            self.vm.trace_record(self.ctx.name, "conn_req_dup",
                                 src=msg.src_rank, req_id=msg.req_id)
            self.ctx.route_control(env.src_vmid, ack)
            return
        if self.state == INITIALIZING and self.drain_timeout is not None:
            # Abort is possible in this configuration. Granting now would
            # let peers deliver data that is stranded (lost) if the
            # migration is abandoned, so hold the request until restore
            # completes; if this process instead terminates on an abort,
            # the daemon nacks the recorded requests on its behalf.
            if not self._already_deferred(env):
                self._init_deferred.append(env)
                self.vm.trace_record(self.ctx.name, "conn_req_deferred",
                                     src=msg.src_rank, req_id=msg.req_id)
            return
        if self.drain.frozen:
            # Fig. 5 line 4: requests that already reached the migrating
            # process are rejected; the requester will consult the
            # scheduler and redirect to the initialized process.
            self.stats.conn_reqs_rejected += 1
            self.vm.trace_record(self.ctx.name, "conn_req_rejected",
                                 src=msg.src_rank, req_id=msg.req_id)
            self.ctx.route_control(
                env.src_vmid, ConnNack(msg.req_id, reason="migrating"))
            return
        if msg.src_rank in self.connected:
            # We already initiated this connection and our ChannelHello is
            # in flight to the requester; when it arrives their connect()
            # loop observes the established channel and stops waiting.
            # Granting here instead would race the hello into a duplicate
            # channel. (The daemon's request record is cleaned up by the
            # usual termination path.)
            self.vm.trace_record(self.ctx.name, "conn_req_ignored",
                                 src=msg.src_rank, req_id=msg.req_id,
                                 reason="already-connected")
            return
        if (self._outstanding is not None
                and self._outstanding[1] == msg.src_rank
                and self.rank < msg.src_rank):
            # Mutual simultaneous request: the lower rank waits for its own
            # request to be acked; the peer's request is answered after.
            # A retransmitted copy must not be queued twice — the double
            # grant would strand an open grant the drain waits on.
            if not self._already_deferred(env):
                self._deferred_reqs.append(env)
            return
        self._grant(env)

    def _grant(self, env: ControlEnvelope) -> None:
        """The paper's ``grant_connection_to``: accept a request."""
        msg: ConnReq = env.msg
        self.stats.conn_reqs_granted += 1
        self.drain.grant(msg.src_rank)
        ack = ConnAck(msg.req_id, acceptor_rank=self.rank,
                      acceptor_vmid=self.ctx.vmid)
        self._acked_reqs[(env.src_vmid, msg.req_id)] = ack
        self.vm.trace_record(self.ctx.name, "conn_req_granted",
                             src=msg.src_rank, req_id=msg.req_id)
        self.ctx.route_control(env.src_vmid, ack)

    def _already_deferred(self, env: ControlEnvelope) -> bool:
        return any(d.src_vmid == env.src_vmid
                   and d.msg.req_id == env.msg.req_id
                   for d in self._deferred_reqs + self._init_deferred)

    def _flush_deferred(self) -> None:
        while self._deferred_reqs:
            self._handle_conn_req(self._deferred_reqs.pop(0))

    def flush_init_deferred(self) -> None:
        """Grant the conn_reqs held while initializing (restore is done)."""
        while self._init_deferred:
            self._handle_conn_req(self._init_deferred.pop(0))

    def _absorb_chunk(self, chunk: StateChunk) -> None:
        """Fold one ``state_chunk`` into the assembler (destination side).

        Restore cost is charged per chunk *as it arrives* — this is the
        overlap the pipelined transfer buys: by the time the last chunk
        lands, most of the restore work has already been paid for in
        virtual time, concurrently with collection and transfer on the
        source side.
        """
        asm = self._chunk_assembler
        if asm is None:
            asm = self._chunk_assembler = ChunkAssembler()
        costs = self.vm.costs
        seconds = chunk.nbytes * costs.state_restore_per_byte
        if chunk.seq == 0:
            seconds += costs.state_fixed
        asm.add(chunk)
        t0 = self.kernel.now
        self.ctx.burn(seconds)
        asm.restore_seconds += self.kernel.now - t0

    def _register_channel(self, env: Envelope, hello: ChannelHello) -> None:
        chan = self.vm.channels.get(env.channel_id)
        if chan is None:
            raise ProtocolError(f"hello on unknown channel {env.channel_id}")
        if hello.src_rank in self.connected:
            raise ProtocolError(
                f"duplicate channel to rank {hello.src_rank}")
        self.connected[hello.src_rank] = chan
        self.pl.update(hello.src_rank, env.src_vmid)
        self.vm.trace_record(self.ctx.name, "connected",
                             dest=hello.src_rank, channel=chan.id,
                             initiator=False)
        if self.drain.retire(hello.src_rank):
            # A peer completed establishment just as we started migrating:
            # coordinate it like every other connected peer.
            self.coordinate(hello.src_rank, chan)

    # -- migration coordination ---------------------------------------------
    def coordinate(self, rank: Rank, chan: Channel) -> None:
        """Fig. 5 line 5 on one channel: the disconnection signal, then
        ``peer_migrating`` as our last message; the drain waits for the
        peer's last message."""
        self.ctx.send_signal(chan.peer_of(self.ctx.vmid), SIG_DISCONNECT)
        chan.send(self.ctx, PeerMigrating(self.rank), CONTROL_PAYLOAD_BYTES)
        chan.close_end(self.ctx.vmid)
        self.drain.coordinate(rank)
        self.vm.trace_record(self.ctx.name, "peer_coordinated", peer=rank)

    def _handle_peer_migrating(self, env: Envelope, pm: PeerMigrating) -> None:
        """Fig. 4 lines 12-14 (and the drain's simultaneous-migration case)."""
        rank = pm.src_rank
        chan = self.connected.pop(rank, None)
        if chan is None:
            self.vm.trace_record(self.ctx.name, "stale_peer_migrating",
                                 src=rank)
            return
        if not self.drain.peer_migrating(rank):
            # We are migrating too: their peer_migrating is their last
            # message; ours was already sent. Just close and account.
            chan.close_end(self.ctx.vmid)
            self.drain.last(rank)
            self.vm.trace_record(self.ctx.name, "simultaneous_coordination",
                                 peer=rank)
            return
        # Reception implies all earlier messages on the channel have been
        # received (FIFO). Reply with our last message and close.
        chan.send(self.ctx, EndOfMessage(self.rank), CONTROL_PAYLOAD_BYTES)
        chan.close_end(self.ctx.vmid)
        self.closed_conn += 1
        self.vm.trace_record(self.ctx.name, "peer_coordination_done",
                             peer=rank)

    def _handle_end_of_message(self, env: Envelope, eom: EndOfMessage) -> None:
        rank = eom.src_rank
        chan = self.connected.pop(rank, None)
        if chan is not None:
            chan.close_end(self.ctx.vmid)
        if self.drain.frozen:
            # Migration drain: this peer's last message has arrived —
            # whether it was coordinated or terminated on its own.
            self.drain.last(rank)
            self.vm.trace_record(self.ctx.name, "drain_peer_done", peer=rank)
        else:
            # Orderly teardown: the peer terminated and closed the channel
            # (its in-band FIN); everything it sent has been received.
            self.vm.trace_record(self.ctx.name, "peer_closed", peer=rank)

    # ------------------------------------------------------------------
    # signal handlers
    # ------------------------------------------------------------------
    def _on_migrate_signal(self) -> None:
        """SIG_MIGRATE: note the request; acted on at the next poll point."""
        self.migration_requested = True
        self.vm.trace_record(self.ctx.name, "migration_signal_noted")

    def _on_disconnect_signal(self) -> None:
        """The paper's disconnection_handler() (Fig. 6).

        ``closed_conn`` bookkeeping prevents repeating coordination that a
        concurrent recv already performed: each processed ``peer_migrating``
        banks one credit; each disconnection signal consumes one, pumping
        messages only when no credit is banked.
        """
        self.vm.trace_record(self.ctx.name, "disconnection_handler")
        while self.closed_conn == 0:
            item = self.ctx.next_message()
            self.dispatch(item)
        self.closed_conn -= 1

    # ------------------------------------------------------------------
    # cost accounting helpers
    # ------------------------------------------------------------------
    def _enter_comm_event(self) -> None:
        if self.migration_enabled:
            self.ctx.hold_signals()
            self.ctx.burn(self.vm.costs.protocol_layer_per_call)

    def _leave_comm_event(self) -> None:
        if self.migration_enabled:
            self.ctx.release_signals()

    def _charge_list_search(self) -> None:
        c = self.vm.costs
        self.ctx.burn(c.list_fixed + len(self.recvlist) * c.list_scan_per_entry)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def poll_migration(self, state: dict) -> None:
        """The migration macro inserted at poll points (paper Section 5.2).

        If a migration request signal has been intercepted, runs the
        migration algorithm — which never returns (the process terminates
        on this host and resumes from *state* on the destination).
        """
        if self.metrics is not None:
            self._g_qdepth.set(len(self.recvlist))
            self._g_links.set(len(self.connected))
        if not self.migration_enabled:
            return
        self.ctx.check_signals()
        if self.migration_requested:
            from repro.core.migration import run_migration
            run_migration(self, state)

    def shutdown(self) -> None:
        """Orderly completion.

        Sends ``end_of_message`` on every open channel (the in-band FIN a
        migrating or receiving peer relies on to know no more data is
        coming) and tells the scheduler this rank is done.
        """
        for rank, chan in list(self.connected.items()):
            if chan.is_open_for(self.ctx.vmid):
                chan.send(self.ctx, EndOfMessage(self.rank),
                          CONTROL_PAYLOAD_BYTES)
                chan.close_end(self.ctx.vmid)
        self.connected.clear()
        if self.retry_policy is None:
            self.ctx.route_control(self.scheduler_vmid,
                                   TerminateNotice(self.rank))
        else:
            # A lost terminate notice would leave the scheduler advertising
            # a stale location forever, so in hardened mode the notice is
            # retried until acknowledged.
            self.request_reply(
                self.scheduler_vmid, TerminateNotice(self.rank, ack=True),
                lambda it: isinstance(it, ControlEnvelope)
                and isinstance(it.msg, SchedulerAck)
                and it.msg.kind == "terminate" and it.msg.rank == self.rank,
                what="terminate_notice")
        self.vm.trace_record(self.ctx.name, "rank_finished", rank=self.rank)
