"""Application launcher: wires programs, endpoints, scheduler and hosts.

:class:`Application` is the reproduction's equivalent of starting a SNOW
computation: it spawns the scheduler, places one migration-enabled process
per rank on its host, distributes the initial PL table, and provides the
user-side migration request (:meth:`migrate_at` — the paper's "user sends
a request to the scheduler").
"""

from __future__ import annotations

from typing import Any, Callable

from repro.codec import NATIVE, Architecture
from repro.core.adaptive import BandwidthBudget, coerce_chunk_bytes
from repro.core.gang import GangAdmission
from repro.core.api import Program, SnowAPI
from repro.core.endpoint import MigrationEndpoint
from repro.core.messages import MigrateRequest
from repro.core.migration import run_initialization
from repro.core.pltable import PLTable
from repro.core.scheduler import SchedulerState, scheduler_main
from repro.core.windows import Windows
from repro.directory.base import CentralizedDirectory
from repro.directory.daemons import DirectoryCluster
from repro.directory.spec import DirectorySpec
from repro.util.errors import ProtocolError
from repro.util.retry import RetryPolicy
from repro.vm.ids import Rank, VmId
from repro.vm.messages import ControlEnvelope
from repro.vm.virtual_machine import VirtualMachine

__all__ = ["Application"]


class Application:
    """A distributed computation of ``nranks`` migration-enabled processes.

    Parameters
    ----------
    vm:
        The virtual machine (hosts must already be added).
    program:
        The migration-enabled program, ``program(api, state)``.
    placement:
        Host of each rank: ``placement[r]`` is rank *r*'s initial host.
    scheduler_host:
        Where the scheduler runs.
    architectures:
        Optional host → :class:`Architecture` mapping for heterogeneous
        state encoding; hosts default to :data:`NATIVE`.
    migratable:
        ``False`` runs the "original code" configuration of Table 1: same
        message flow, no migration-layer overheads, migration disabled.
    retry:
        Optional :class:`~repro.util.retry.RetryPolicy` hardening every
        endpoint's control path against the fault model of
        :mod:`repro.sim.faults` (timeouts + bounded exponential backoff).
        ``None`` keeps the paper's reliable-network behaviour.
    drain_timeout:
        Per-migration bound on the channel drain; on expiry the migration
        aborts cleanly and the scheduler may retry it. ``None`` disables.
    migration_retry_limit:
        How many times the scheduler re-issues an aborted migration
        request per rank.
    directory:
        Location-directory backend: ``None`` / ``"centralized"`` (the
        paper's scheduler-resident table), ``"sharded"``, or a full
        :class:`~repro.directory.spec.DirectorySpec`. With the sharded
        backend the launcher spawns the directory daemons, seeds them
        with the initial placement, attaches the scheduler's publisher
        and gives every endpoint a lookup client.
    chunk_bytes:
        ``state_chunk`` payload size of the pipelined state transfer
        (collection, network and restore overlap in virtual time);
        ``None`` uses
        :data:`~repro.core.streaming.DEFAULT_CHUNK_BYTES`, an int fixes
        the size, ``"adaptive"`` (or an :class:`~repro.core.adaptive.
        AdaptiveChunkPolicy`) sizes chunks AIMD-style from observed
        per-chunk ship latency on the transfer link.
    migration_concurrency:
        Cap on simultaneously open migration windows. ``None``
        (default) lets windows for distinct ranks overlap freely —
        same-rank requests always queue behind the open window — while
        ``1`` reproduces the pre-gang fully serialized behavior. See
        :mod:`repro.core.gang` and docs/protocol.md.
    """

    def __init__(self, vm: VirtualMachine, program: Program,
                 placement: list[str], scheduler_host: str,
                 architectures: dict[str, Architecture] | None = None,
                 migratable: bool = True, name: str = "app",
                 checkpoint_store=None, restore_version: int | None = None,
                 transport: str = "direct",
                 retry: "RetryPolicy | None" = None,
                 drain_timeout: float | None = None,
                 migration_retry_limit: int = 2,
                 directory: "DirectorySpec | str | None" = None,
                 chunk_bytes=None,
                 migration_concurrency: int | None = None):
        self.vm = vm
        self.program = program
        #: "direct" (connection-oriented) or "indirect" (daemon-routed)
        self.transport = transport
        if transport == "indirect" and migratable:
            raise ProtocolError(
                "indirect transport does not support migration; pass "
                "migratable=False (this is the point of the ablation)")
        #: optional CheckpointStore for api.checkpoint()
        self.checkpoint_store = checkpoint_store
        #: restart every rank from this checkpoint version instead of {}
        self.restore_version = restore_version
        if restore_version is not None and checkpoint_store is None:
            raise ProtocolError(
                "restore_version requires a checkpoint_store")
        self.retry = retry
        self.drain_timeout = drain_timeout
        self.chunk_bytes = coerce_chunk_bytes(chunk_bytes)
        self.migration_concurrency = migration_concurrency
        #: per-source-host fair-share ledgers for concurrent transfers
        self._bandwidth_budgets: dict[str, BandwidthBudget] = {}
        self.migration_retry_limit = migration_retry_limit
        self.directory_spec = DirectorySpec.coerce(directory)
        #: spawned by start() when the backend is distributed
        self.directory_cluster: DirectoryCluster | None = None
        self.placement = list(placement)
        self.nranks = len(placement)
        self.scheduler_host = scheduler_host
        self.architectures = dict(architectures or {})
        self.migratable = migratable
        self.name = name
        #: current endpoint of each rank (replaced after a migration)
        self.endpoints: dict[Rank, MigrationEndpoint] = {}
        #: every endpoint ever created, including pre-migration incarnations
        self.all_endpoints: list[MigrationEndpoint] = []
        #: per-rank incarnation counter (process names p0, p0.m1, ...)
        self._incarnation: dict[Rank, int] = {}
        self.scheduler_state: SchedulerState | None = None
        self._scheduler_ctx = None
        self._started = False

    # -- setup ------------------------------------------------------------
    def arch_for(self, host: str) -> Architecture:
        return self.architectures.get(host, NATIVE)

    def bandwidth_budget_for(self, host: str) -> BandwidthBudget:
        """The fair-share transfer ledger of one source host.

        Every migration leaving ``host`` draws from the same budget, so
        concurrent transfers split the uplink instead of reading each
        other's queue wait as congestion (see
        :class:`repro.core.adaptive.BandwidthBudget`).
        """
        budget = self._bandwidth_budgets.get(host)
        if budget is None:
            budget = self._bandwidth_budgets[host] = BandwidthBudget(host)
        return budget

    def start(self) -> "Application":
        """Spawn the scheduler and all rank processes (at virtual t=0)."""
        if self._started:
            raise ProtocolError("application already started")
        self._started = True
        vm = self.vm

        master_pl = PLTable()
        self.scheduler_state = SchedulerState(
            pl=master_pl, spawn_initialized=self._spawn_initialized,
            windows=Windows(
                CentralizedDirectory(pl=master_pl),
                GangAdmission(concurrency=self.migration_concurrency),
                retry_limit=self.migration_retry_limit))
        self._scheduler_ctx = vm.spawn(
            self.scheduler_host, scheduler_main, self.scheduler_state,
            name="scheduler", daemon=True)

        # Spawn every rank first so the PL table is complete before any
        # process body runs (all spawns happen before kernel.run()).
        ctxs = []
        for rank, host in enumerate(self.placement):
            ctx = vm.spawn(host, self._rank_main, rank, name=f"p{rank}",
                           rank=rank)
            self.scheduler_state.windows.install(rank, ctx.vmid)
            ctxs.append(ctx)

        if self.directory_spec.distributed:
            # Spawn the directory daemons and seed the initial placement
            # into their stores synchronously — no startup race between
            # the first lookups and the first published updates.
            self.directory_cluster = DirectoryCluster(
                vm, self.directory_spec, self.scheduler_host)
            self.directory_cluster.seed(self.scheduler_state.directory)
            self.scheduler_state.publisher = \
                self.directory_cluster.make_publisher()
        return self

    def _directory_client(self, rank: Rank):
        if self.directory_cluster is None:
            return None
        return self.directory_cluster.make_client(rank)

    def _endpoint(self, ctx, rank: Rank, pl: PLTable,
                  **kwargs: Any) -> MigrationEndpoint:
        """The endpoint of *rank*'s incarnation running in *ctx*."""
        endpoint = MigrationEndpoint(
            ctx, rank, self._scheduler_ctx.vmid, pl,
            arch=self.arch_for(ctx.host),
            retry_policy=self.retry,
            drain_timeout=self.drain_timeout,
            directory_client=self._directory_client(rank),
            chunk_bytes=self.chunk_bytes,
            bandwidth_budget=self.bandwidth_budget_for(ctx.host), **kwargs)
        self.endpoints[rank] = endpoint
        self.all_endpoints.append(endpoint)
        return endpoint

    def _run(self, endpoint: MigrationEndpoint, state: dict) -> None:
        self.program(SnowAPI(endpoint, self.nranks,
                             checkpoint_store=self.checkpoint_store), state)
        endpoint.shutdown()

    def _rank_main(self, ctx, rank: Rank) -> None:
        endpoint = self._endpoint(ctx, rank, self.scheduler_state.pl.copy(),
                                  migration_enabled=self.migratable,
                                  transport=self.transport)
        if self.restore_version is not None:
            from repro.core.checkpointing import restore_state
            t0 = self.vm.kernel.now
            rec_tid = f"sim-rec-r{rank}-v{self.restore_version}"
            self.vm.trace_record(ctx.name, "span_start", phase="recover",
                                 rank=rank, trace_id=rec_tid)
            state = restore_state(self.checkpoint_store, rank,
                                  self.restore_version)
            ctx.burn(self.vm.costs.state_fixed)
            self.vm.trace_record(ctx.name, "checkpoint_restored",
                                 version=self.restore_version)
            self.vm.trace_record(ctx.name, "span_end", phase="recover",
                                 rank=rank, seconds=self.vm.kernel.now - t0,
                                 trace_id=rec_tid)
        else:
            state = {}
        self._run(endpoint, state)

    def _spawn_initialized(self, rank: Rank, dest_host: str) -> VmId:
        """Process initialization on the destination (scheduler callback)."""
        inc = self._incarnation.get(rank, 0) + 1
        self._incarnation[rank] = inc
        # The scheduler opened (and trace-id-stamped) the window before
        # invoking this callback; hand the id to the initialized process
        # so its restore/commit spans stitch into the same trace as the
        # source's phases.
        trace_id = self.scheduler_state.windows.current(rank).trace_id
        ctx = self.vm.spawn(dest_host, self._init_main, rank, trace_id,
                            name=f"p{rank}.m{inc}", rank=rank)
        return ctx.vmid

    def _init_main(self, ctx, rank: Rank,
                   trace_id: str | None = None) -> None:
        endpoint = self._endpoint(ctx, rank, PLTable(),
                                  migration_enabled=True, initializing=True,
                                  trace_id=trace_id)
        self._run(endpoint, run_initialization(endpoint))

    # -- user operations ---------------------------------------------------
    def _request_migration(self, rank: Rank, dest_host: str,
                          src: str = "user") -> None:
        """Deliver one out-of-band migration request to the scheduler
        now (Section 2.2); *src* names the requester."""
        self._scheduler_ctx.mailbox.put(ControlEnvelope(
            src_vmid=VmId(src, 0),
            msg=MigrateRequest(rank=rank, dest_host=dest_host)))

    def migrate_at(self, when: float, rank: Rank, dest_host: str) -> None:
        """Schedule a user migration request at virtual time *when*."""
        self.migrate_many(when, [(rank, dest_host)])

    def migrate_many(self, when: float,
                     moves: "list[tuple[Rank, str]]") -> None:
        """Request a gang of migrations at virtual time *when*.

        All requests land at the scheduler together; admission opens a
        window per distinct rank immediately (up to
        ``migration_concurrency``) and queues the rest, so independent
        relocations overlap instead of paying one full window each.
        """
        if not self.migratable:
            raise ProtocolError(
                "cannot migrate an application launched with migratable=False")
        if not self._started:
            raise ProtocolError("start() the application first")
        moves = list(moves)

        def inject() -> None:
            for rank, dest_host in moves:
                self._request_migration(rank, dest_host)

        self.vm.kernel.call_at(when, inject)

    def migrate_after_event(self, kind: str, rank: Rank, dest_host: str,
                            poll_interval: float = 1e-3,
                            actor: str | None = None,
                            **detail_match) -> None:
        """Request a migration as soon as a matching trace event appears.

        Robust way to hit a specific application phase (e.g. "after two
        V-cycles"): trigger on the phase-boundary trace event; the signal
        is then pending at the next poll point. The trace is scanned
        incrementally, so polling stays cheap.
        """
        if not self._started:
            raise ProtocolError("start() the application first")
        trace = self.vm.trace
        scan_pos = [0]

        def matched() -> bool:
            events = trace.events
            for i in range(scan_pos[0], len(events)):
                ev = events[i]
                if ev.kind == kind \
                        and (actor is None or ev.actor == actor) \
                        and all(ev.detail.get(k) == v
                                for k, v in detail_match.items()):
                    return True
            scan_pos[0] = len(events)
            return False

        def check() -> None:
            if matched():
                self._request_migration(rank, dest_host)
            else:
                self.vm.kernel.call_later(poll_interval, check)

        self.vm.kernel.call_later(0.0, check)

    def run(self, **kwargs: Any) -> "Application":
        """Start (if needed) and drive the computation to completion."""
        if not self._started:
            self.start()
        self.vm.run(**kwargs)
        return self

    # -- results ------------------------------------------------------------
    @property
    def migrations(self):
        return self.scheduler_state.migrations if self.scheduler_state else []

    def total_messages(self) -> int:
        return sum(ep.stats.messages_sent for ep in self.all_endpoints)

    def total_bytes(self) -> int:
        return sum(ep.stats.bytes_sent for ep in self.all_endpoints)
