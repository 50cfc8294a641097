"""The process-migration algorithms (paper Figs. 5 and 7).

:func:`run_migration` executes on the migrating process (triggered from a
poll point once the migration-request signal has been intercepted) and
:func:`run_initialization` on the initialized process waiting on the
destination host. The two run concurrently and communicate over a direct
state-transfer channel — the prototype shipped execution/memory state over
raw TCP outside PVM, which is why those transfers do not appear as PVM
message lines in the paper's XPVM diagrams; we trace them as dedicated
``state_*`` events instead.

Trace events emitted here (consumed by the analysis layer to regenerate
the paper's Tables 1-2 and Figures 10-13):

``migration_start``, ``coordinate_done``, ``recvlist_sent``,
``collect_done``, ``state_sent``, ``migration_source_done`` on the source;
``init_start``, ``recvlist_received``, ``state_received``,
``restore_done``, ``migration_commit`` on the destination.

In addition, the migration lifecycle is bracketed by ``span_start`` /
``span_end`` events carrying the frozen phase names of
:mod:`repro.obs.events` (``freeze``, ``reject``, ``drain``,
``transfer`` on the source; ``restore``, ``commit`` on the
destination) — the same vocabulary the multiprocess runtime writes
into its JSONL artifacts, so one report renderer serves both.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.codec import decode
from repro.core.endpoint import MIGRATING, NORMAL, MigrationEndpoint
from repro.core.messages import (
    InitAbort,
    LookupReply,
    LookupRequest,
    MigrationAbort,
    MigrationCommit,
    MigrationStart,
    NewProcessReply,
    PLSnapshot,
    RecvListTransfer,
    RestoreComplete,
    SchedulerAck,
    StateChunk,
)
from repro.core.adaptive import AdaptiveChunkPolicy, ChunkController
from repro.core.sizes import MESSAGE_HEADER_BYTES
from repro.core.streaming import ChunkAssembler, ChunkSource
from repro.sim.kernel import TIMEOUT
from repro.sim.trace import KIND_TIMEOUT
from repro.util.errors import MigrationError
from repro.vm.channel import Channel
from repro.vm.messages import ControlEnvelope, Envelope

__all__ = ["run_migration", "run_initialization"]

#: Parent phase of each span in the migration trace tree: freeze is the
#: root; reject brackets the whole source-side window under it; drain
#: and transfer run inside reject; the destination's restore hangs off
#: transfer and commit off restore — same shape the mp runtime stamps.
_SPAN_PARENT = {"reject": "freeze", "drain": "reject", "transfer": "reject",
                "restore": "transfer", "commit": "restore"}


def _tctx(ep: MigrationEndpoint, phase: str) -> dict:
    """Trace-context fields for *phase*'s span records (empty when the
    endpoint has no trace id yet)."""
    if ep.trace_id is None:
        return {}
    fields: dict = {"trace_id": ep.trace_id}
    parent = _SPAN_PARENT.get(phase)
    if parent is not None:
        fields["parent"] = parent
    return fields


def run_migration(ep: MigrationEndpoint, state: dict) -> None:
    """The migrate() algorithm on the migrating process (Fig. 5).

    Normally never returns: the process terminates once state transfer
    completes. The one exception is a bounded drain (``ep.drain_timeout``)
    that expires — the migration is then aborted, the process reverts to
    normal execution and this function *returns*, so the caller resumes
    the program where it left off (the scheduler may retry later).
    """
    ctx = ep.ctx
    vm = ep.vm
    kernel = ep.kernel
    ep.migration_requested = False
    # Migration is one long communication event: the disconnection
    # handler must not run inside it (we coordinate explicitly below).
    ctx.hold_signals()
    t_start = kernel.now
    vm.trace_record(ctx.name, "migration_start", rank=ep.rank,
                    old_vmid=str(ctx.vmid))

    # Lines 2-3: inform the scheduler and obtain the initialized process's
    # vmid (the scheduler created it before signalling us). The reply also
    # carries the scheduler-minted trace id; the freeze span_start is
    # recorded retroactively at t_start so it carries the id too.
    reply_env = _scheduler_rpc(
        ep, MigrationStart(rank=ep.rank, old_vmid=ctx.vmid),
        lambda m: isinstance(m, NewProcessReply) and m.rank == ep.rank)
    new_vmid = reply_env.msg.new_vmid
    if ep.trace_id is None:
        ep.trace_id = getattr(reply_env.msg, "trace_id", None)
    vm.trace.record_at(t_start, ctx.name, "span_start", phase="freeze",
                       rank=ep.rank, **_tctx(ep, "freeze"))
    ep.state = MIGRATING
    ep.drain.freeze()
    vm.trace_record(ctx.name, "span_end", phase="freeze", rank=ep.rank,
                    seconds=kernel.now - t_start, **_tctx(ep, "freeze"))

    # Line 4: the local daemon rejects conn_reqs arriving beyond this
    # point; requests already in our mailbox are rejected as we drain
    # (dispatch nacks them in the MIGRATING state).
    t_reject0 = kernel.now
    vm.trace_record(ctx.name, "span_start", phase="reject", rank=ep.rank,
                    **_tctx(ep, "reject"))
    vm.daemon(ctx.host).reject_future_conn_reqs(ctx.vmid.pid)

    # The transfer channel opens *now* (the initialized process already
    # exists) so state collection can interleave with the drain — whenever
    # the mailbox is idle, the next state_chunk is collected and shipped
    # instead of just waiting on in-transit messages. Collection, network
    # transfer and destination-side restore then overlap in virtual time.
    xfer = vm.create_channel(ctx.vmid, new_vmid)
    controller: ChunkController | None = None
    collect_seconds = 0.0
    sizer = ep.chunk_bytes
    if isinstance(sizer, AdaptiveChunkPolicy):
        # a fresh controller per migration attempt: a retry after an
        # abort starts from the policy's initial size again. The
        # controller holds a slot in the host's shared bandwidth
        # budget for the life of the transfer, so concurrent windows
        # leaving this host split the uplink fairly.
        controller = ChunkController(sizer, budget=ep.bandwidth_budget)
        sizer = controller
    source = ChunkSource(state, ep.arch, sizer)

    def send_next_chunk() -> None:
        nonlocal collect_seconds
        chunk = source.next_chunk()
        costs = vm.costs
        seconds = chunk.nbytes * costs.state_collect_per_byte
        if chunk.seq == 0:
            seconds += costs.state_fixed
        t0 = kernel.now
        ctx.burn(seconds)
        collect_seconds += kernel.now - t0
        arrival = xfer.send(ctx, chunk, chunk.nbytes)
        if controller is not None:
            # ship latency in virtual time, link-queue wait included —
            # a backed-up transfer link reads as high latency and the
            # controller backs the chunk size off toward the floor
            controller.observe(chunk.nbytes, max(0.0, arrival - kernel.now))

    # Line 5: coordinate every connected peer — disconnection signal plus
    # peer_migrating as our last message on each channel.
    t_coord0 = kernel.now
    vm.trace_record(ctx.name, "span_start", phase="drain", rank=ep.rank,
                    **_tctx(ep, "drain"))
    for rank, chan in list(ep.connected.items()):
        ep.coordinate(rank, chan)

    # Line 6: drain — receive everything still in transit into the
    # received-message-list until each coordinated peer's last message
    # (end_of_message, or peer_migrating if it is migrating too) arrives.
    # Grants whose ChannelHello is still in flight are waited out too: the
    # hello retires them and the endpoint coordinates the new channel
    # (repro.core.drain). With a drain timeout, a drain that cannot
    # finish (e.g. a grant abandoned because its ack was lost) aborts the
    # migration instead of waiting forever.
    drain_deadline = (kernel.now + ep.drain_timeout
                      if ep.drain_timeout is not None else None)
    while not ep.drain.drained:
        remaining = (None if drain_deadline is None
                     else drain_deadline - kernel.now)
        if remaining is None or remaining > 0:
            if not source.exhausted and not len(ctx.mailbox):
                # Nothing to drain right now: spend the wait collecting
                # and shipping state instead of idling (the pipelined
                # overlap). Messages arriving during the chunk's burn
                # are picked up on the next iteration.
                send_next_chunk()
                continue
            item = ctx.next_message(timeout=remaining)
            if item is not TIMEOUT:
                ep.dispatch(item)
                continue
        _abort_migration(ep, xfer, controller=controller,
                         span_t0={"reject": t_reject0, "drain": t_coord0})
        return
    # Line 7: every coordinated channel has been closed by the drain.
    if ep.connected:
        raise MigrationError(
            f"connections survived the drain: {sorted(ep.connected)}")
    t_coord = kernel.now - t_coord0
    vm.trace_record(ctx.name, "coordinate_done", seconds=t_coord,
                    captured=ep.stats.captured_in_transit)
    vm.trace_record(ctx.name, "span_end", phase="drain", rank=ep.rank,
                    seconds=t_coord, **_tctx(ep, "drain"))

    # Line 8: forward the received-message-list to the new process over a
    # direct transfer channel.
    t_xfer0 = kernel.now
    vm.trace_record(ctx.name, "span_start", phase="transfer", rank=ep.rank,
                    **_tctx(ep, "transfer"))
    messages = ep.recvlist.take_all()
    list_nbytes = sum(m.nbytes for m in messages) + MESSAGE_HEADER_BYTES
    xfer.send(ctx, RecvListTransfer(messages, list_nbytes), list_nbytes)
    vm.trace_record(ctx.name, "recvlist_sent", count=len(messages),
                    nbytes=list_nbytes)

    # Lines 9-10: collect execution and memory state into the
    # machine-independent representation (refs [10, 11]) and ship whatever
    # the drain did not already cover. collect_done marks the end of
    # collection — most of the transfer is already in flight or delivered
    # by now, which is where the pipeline's latency win comes from.
    while not source.exhausted:
        send_next_chunk()
    extra = {}
    if controller is not None:
        extra = controller.stats()
        controller.close()
    vm.trace_record(ctx.name, "collect_done", nbytes=source.total_nbytes,
                    seconds=collect_seconds, nchunks=source.nchunks, **extra)
    vm.trace_record(ctx.name, "state_sent", nbytes=source.total_nbytes,
                    nchunks=source.nchunks, **extra)

    vm.trace_record(ctx.name, "span_end", phase="transfer", rank=ep.rank,
                    seconds=kernel.now - t_xfer0, **_tctx(ep, "transfer"))

    # Line 11: the migrating process terminates; the initialized process
    # resumes execution.
    vm.trace_record(ctx.name, "span_end", phase="reject", rank=ep.rank,
                    seconds=kernel.now - t_reject0, **_tctx(ep, "reject"))
    vm.trace_record(ctx.name, "migration_source_done",
                    total_seconds=kernel.now - t_start)
    ctx.terminate()


def _abort_migration(ep: MigrationEndpoint, xfer: Channel,
                     span_t0: "dict[str, float] | None" = None,
                     controller: ChunkController | None = None) -> None:
    """Drain timeout expired: revert to normal execution (hardened mode).

    Undoes Fig. 5 lines 4-5: the endpoint returns to NORMAL, the local
    daemon accepts conn_reqs again, and the scheduler is told so it can
    release the waiting initialized process and optionally retry. Channels
    already coordinated are *not* resurrected — peer_migrating was their
    last message, both sides have closed them, and future sends simply
    reconnect; no data was lost because everything in transit was drained
    into the received-message-list, which this process keeps. State chunks
    already shipped are abandoned with the transfer channel
    (dropped as protocol control at the exiting initialized process); a
    retried migration re-encodes and re-sends from scratch on a fresh
    channel to the fresh initialized process.

    ``span_t0`` maps still-open phase spans (``reject``, ``drain``) to
    their start times: each gets an explicit ``span_end`` carrying
    ``aborted=True``, so every ``span_start`` in a trace is balanced even
    on the abort path and span consumers need no timeout heuristics.
    """
    ctx = ep.ctx
    vm = ep.vm
    kernel = ep.kernel
    if controller is not None:
        # give the bandwidth-budget slot back: a dead transfer must not
        # keep diluting the fair shares of still-live windows
        controller.close()
    xfer.close_end(ctx.vmid)
    # close open phase spans innermost-first (drain opened after reject)
    for phase in ("drain", "reject"):
        if span_t0 is not None and phase in span_t0:
            vm.trace_record(ctx.name, "span_end", phase=phase,
                            rank=ep.rank,
                            seconds=kernel.now - span_t0[phase],
                            aborted=True, **_tctx(ep, phase))
    # A retried migration gets a fresh record (and id) from the scheduler.
    ep.trace_id = None
    # Grants whose hello never came belong to abandoned requests (the
    # requester was nacked on a retransmit and redirected); this process
    # stays alive at the same vmid, so a straggler hello still registers.
    left = ep.drain.thaw()
    vm.trace_record(ctx.name, KIND_TIMEOUT, what="migration_drain", **left)
    ep.stats.timeouts += 1
    for rank in left["waiting"]:
        ep.connected.pop(rank, None)
    ep.state = NORMAL
    vm.daemon(ctx.host).allow_conn_reqs(ctx.vmid.pid)
    abort = MigrationAbort(rank=ep.rank, old_vmid=ctx.vmid)
    if ep.retry_policy is None:
        ctx.route_control(ep.scheduler_vmid, abort)
    else:
        ep.request_reply(
            ep.scheduler_vmid, abort,
            lambda it: isinstance(it, ControlEnvelope)
            and isinstance(it.msg, SchedulerAck)
            and it.msg.kind == "migration_abort" and it.msg.rank == ep.rank,
            what="migration_abort")
    vm.trace_record(ctx.name, "migration_abort", rank=ep.rank)
    ctx.release_signals()


def run_initialization(ep: MigrationEndpoint) -> dict:
    """The initialize() algorithm on the destination (Fig. 7).

    Returns the restored application state; the caller then resumes the
    program from it.
    """
    ctx = ep.ctx
    vm = ep.vm
    kernel = ep.kernel
    vm.trace_record(ctx.name, "init_start", rank=ep.rank,
                    vmid=str(ctx.vmid))
    t_init0 = kernel.now
    vm.trace_record(ctx.name, "span_start", phase="restore", rank=ep.rank,
                    **_tctx(ep, "restore"))

    # Line 1 is implicit: the endpoint was constructed in the INITIALIZING
    # state and grants every conn_req from the start; data arriving on
    # fresh channels accumulates in the local received-message-list (ListB).

    # Lines 2-3: receive the migrating process's list (ListA), then insert
    # it *in front of* the local list so it is consumed first.
    env = _pump_transfer(ep, lambda p: isinstance(p, RecvListTransfer),
                         span_t0={"restore": t_init0})
    transfer: RecvListTransfer = env.payload
    ep.recvlist.prepend_all(transfer.messages)
    vm.trace_record(ctx.name, "recvlist_received",
                    count=len(transfer.messages))

    # Line 4: receive the execution and memory state — the tail of a
    # state_chunk stream whose restore cost was charged chunk-by-chunk as
    # it arrived (chunks may have been absorbed since before the recvlist
    # transfer landed).
    asm = _receive_state(ep, span_t0={"restore": t_init0})
    vm.trace_record(ctx.name, "state_received", nbytes=asm.total_nbytes,
                    src_arch=asm.src_arch, nchunks=asm.nchunks)
    t_restore0 = kernel.now
    state = decode(asm.assemble())
    ep._chunk_assembler = None
    if not isinstance(state, dict):
        raise MigrationError(
            f"restored state is {type(state).__name__}, expected dict")

    # Lines 5-6: tell the scheduler restoration completed; receive the
    # current PL table contents and the old vmid.
    reply_env = _scheduler_rpc(
        ep, RestoreComplete(rank=ep.rank, new_vmid=ctx.vmid),
        lambda m: isinstance(m, PLSnapshot) and m.rank == ep.rank)
    snapshot: PLSnapshot = reply_env.msg
    ep.pl.replace_all(snapshot.table)
    vm.trace_record(ctx.name, "restore_done",
                    seconds=asm.restore_seconds + (kernel.now - t_restore0),
                    old_vmid=str(snapshot.old_vmid))
    # The restore span covers the whole receive+decode window (list and
    # state transfer included), matching the mp runtime's restore phase.
    vm.trace_record(ctx.name, "span_end", phase="restore", rank=ep.rank,
                    seconds=kernel.now - t_init0, **_tctx(ep, "restore"))
    t_commit0 = kernel.now
    vm.trace_record(ctx.name, "span_start", phase="commit", rank=ep.rank,
                    **_tctx(ep, "commit"))

    # The PL snapshot proves the scheduler booked restore_complete, so an
    # abort is no longer possible: grants held back while initializing
    # (hardened mode) can be issued now, before the commit round-trip.
    ep.state = NORMAL
    ep.flush_init_deferred()

    # Line 7: commit (acknowledged and retried in hardened mode — a lost
    # commit would leave the migration record open forever).
    if ep.retry_policy is None:
        ctx.route_control(ep.scheduler_vmid, MigrationCommit(rank=ep.rank))
    else:
        ep.request_reply(
            ep.scheduler_vmid, MigrationCommit(rank=ep.rank, ack=True),
            lambda it: isinstance(it, ControlEnvelope)
            and isinstance(it.msg, SchedulerAck)
            and it.msg.kind == "migration_commit" and it.msg.rank == ep.rank,
            what="migration_commit")
    vm.trace_record(ctx.name, "migration_commit", rank=ep.rank)
    vm.trace_record(ctx.name, "span_end", phase="commit", rank=ep.rank,
                    seconds=kernel.now - t_commit0, **_tctx(ep, "commit"))

    # Line 8: restore process state — the caller resumes the program.
    return state


def _receive_state(ep: MigrationEndpoint,
                   span_t0: "dict[str, float] | None" = None
                   ) -> ChunkAssembler:
    """Wait for the complete chunk stream; returns the endpoint's
    completed :class:`~repro.core.streaming.ChunkAssembler`.

    Chunks that arrived while earlier waits were pumping have already
    been absorbed by dispatch, so the stream may be complete before we
    even start.
    """
    asm = ep._chunk_assembler
    if asm is None or not asm.complete:
        env = _pump_transfer(
            ep, lambda p: isinstance(p, StateChunk) and p.last,
            span_t0=span_t0)
        ep.dispatch(env)  # absorb the final chunk; the assembler completes
    return ep._chunk_assembler


def _pump_transfer(ep: MigrationEndpoint,
                   wanted: "Callable[[Any], bool]",
                   span_t0: "dict[str, float] | None" = None) -> Envelope:
    """Wait for the state-transfer envelope whose payload satisfies
    *wanted*, honouring scheduler aborts.

    If the scheduler reports the migrating rank terminated before starting
    its migration (:class:`InitAbort`), the initialized process exits —
    there is nothing to restore. ``span_t0`` carries the caller's open
    phase spans (the ``restore`` span): when the wait ends in an abort,
    each gets an explicit ``span_end`` with ``aborted=True`` before the
    process terminates, keeping every trace span balanced.

    In hardened mode the wait also survives a *lost* abort notice: when
    nothing arrives for a while, the initialized process polls the
    scheduler with a lookup on its own rank and exits if it is no longer
    the designated initialized process (the migration was aborted or the
    rank terminated, and the InitAbort datagram was dropped).
    """
    interval = None
    if ep.retry_policy is not None:
        interval = max(ep.retry_policy.cap, ep.retry_policy.base)
    token_box: list[int | None] = [None]

    def pred(it: Any) -> bool:
        if isinstance(it, Envelope):
            return wanted(it.payload)
        if isinstance(it, ControlEnvelope):
            if isinstance(it.msg, InitAbort):
                return True
            if (token_box[0] is not None and isinstance(it.msg, LookupReply)
                    and it.msg.token == token_box[0]):
                return True
        return False

    def abort_spans() -> None:
        if span_t0 is None:
            return
        for phase, t0 in span_t0.items():
            ep.vm.trace_record(ep.ctx.name, "span_end", phase=phase,
                               rank=ep.rank,
                               seconds=ep.kernel.now - t0, aborted=True,
                               **_tctx(ep, phase))

    while True:
        item = ep.pump_until(pred, timeout=interval)
        if item is TIMEOUT:
            token = next(ep._tokens)
            token_box[0] = token
            ep.vm.trace_record(ep.ctx.name, "init_poll", rank=ep.rank,
                               token=token)
            ep.ctx.route_control(
                ep.scheduler_vmid,
                LookupRequest(rank=ep.rank, reply_to=ep.ctx.vmid,
                              token=token))
            continue
        if isinstance(item, ControlEnvelope):
            if isinstance(item.msg, InitAbort):
                abort_spans()
                ep.vm.trace_record(ep.ctx.name, "init_aborted",
                                   reason=item.msg.reason)
                ep.ctx.terminate()
            reply: LookupReply = item.msg
            token_box[0] = None
            if reply.status == "terminated" \
                    or reply.init_vmid != ep.ctx.vmid:
                # We are no longer the designated initialized process.
                abort_spans()
                ep.vm.trace_record(ep.ctx.name, "init_aborted",
                                   reason="superseded"
                                   if reply.status != "terminated"
                                   else "rank-terminated")
                ep.ctx.terminate()
            continue
        return item


def _scheduler_rpc(ep: MigrationEndpoint, request: Any, match) -> Any:
    """Send *request* to the scheduler; pump until the reply matching
    *match* arrives (re-sending per the endpoint's retry policy, if any).
    Returns the reply's control envelope."""
    return ep.request_reply(
        ep.scheduler_vmid, request,
        lambda it: isinstance(it, ControlEnvelope) and match(it.msg),
        what=type(request).__name__)
