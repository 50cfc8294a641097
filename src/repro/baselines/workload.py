"""The common ring workload the migration baselines run.

Each of ``nprocs`` workers streams paced, sequence-numbered tokens to its
right neighbour and receives from its left; rank 0 "migrates" mid-run
under the mechanism being measured. The harness wires the ring channels,
spawns a coordinator, runs to completion and verifies that every worker
received its full, ordered stream (a baseline that loses or reorders
messages fails its own test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.baselines.common import RawPeer, ring_neighbours
from repro.vm.messages import ControlEnvelope
from repro.vm.process import ProcessContext
from repro.vm.virtual_machine import VirtualMachine

__all__ = ["RingHarness", "WorkerHooks", "APP_TAG"]

#: tag of application tokens (baseline control uses other tags / payloads)
APP_TAG = 1


@dataclass
class WorkerHooks:
    """Callbacks a baseline installs into the ring workers.

    ``on_iteration(worker)`` runs at each loop top (where baselines check
    their out-of-band control); ``on_inband(worker, msg)`` lets a baseline
    consume in-band non-token payloads (markers etc.); ``on_finish``
    runs after the loop so mechanisms can settle obligations (e.g. flush
    delayed buffers) before the worker exits. All optional.
    """

    on_iteration: Callable[["RingHarness.Worker"], None] | None = None
    on_inband: Callable[["RingHarness.Worker", Any], bool] | None = None
    on_finish: Callable[["RingHarness.Worker"], None] | None = None


class RingHarness:
    """Builds the VM, workers and wiring for one baseline experiment."""

    @dataclass
    class Worker:
        rank: int
        ctx: ProcessContext
        peer: RawPeer
        harness: "RingHarness"
        received: list = field(default_factory=list)
        #: scratch space for baseline mechanisms
        scratch: dict = field(default_factory=dict)

        def recv_token(self):
            """Receive the next application token, routing other in-band
            payloads to the baseline hook."""
            while True:
                m = self.peer.recv()
                if m.tag == APP_TAG:
                    return m
                handled = False
                if self.harness.hooks.on_inband is not None:
                    handled = self.harness.hooks.on_inband(self, m)
                if not handled:
                    raise AssertionError(f"unhandled in-band payload {m!r}")

    def __init__(self, nprocs: int, iterations: int, pace: float = 0.002,
                 token_bytes: int = 2048, extra_hosts: int = 2):
        self.nprocs = nprocs
        self.iterations = iterations
        self.pace = pace
        self.token_bytes = token_bytes
        self.vm = VirtualMachine()
        for i in range(nprocs):
            self.vm.add_host(f"h{i}")
        for i in range(extra_hosts):
            self.vm.add_host(f"x{i}")
        self.hooks = WorkerHooks()
        self.workers: dict[int, RingHarness.Worker] = {}
        self._ctxs: list[ProcessContext] = []

    # -- construction -------------------------------------------------------
    def start(self) -> None:
        for r in range(self.nprocs):
            ctx = self.vm.spawn(f"h{r}", self._worker_main, r, name=f"w{r}")
            self._ctxs.append(ctx)
        self.vm.kernel.call_at(0.0005, self._wire)

    def _wire(self) -> None:
        chans = {}
        for r in range(self.nprocs):
            _, right = ring_neighbours(r, self.nprocs)
            key = frozenset((r, right))
            if key not in chans:
                chans[key] = self.vm.create_channel(
                    self._ctxs[r].vmid, self._ctxs[right].vmid)
        for r in range(self.nprocs):
            left, right = ring_neighbours(r, self.nprocs)
            self.workers[r].peer.wire(right, chans[frozenset((r, right))])
            self.workers[r].peer.wire(left, chans[frozenset((r, left))])

    def _worker_main(self, ctx: ProcessContext, rank: int) -> None:
        peer = RawPeer(ctx, rank)
        worker = RingHarness.Worker(rank=rank, ctx=ctx, peer=peer,
                                    harness=self)
        self.workers[rank] = worker
        ctx.kernel.sleep(0.001)  # wait for wiring
        left, right = ring_neighbours(rank, self.nprocs)
        for i in range(self.iterations):
            if self.hooks.on_iteration is not None:
                self.hooks.on_iteration(worker)
            peer.send(right, ("tok", rank, i), tag=APP_TAG,
                      nbytes=self.token_bytes)
            msg = worker.recv_token()
            worker.received.append(msg.body)
            if self.pace:
                ctx.compute(self.pace)
        # final control check so late mechanisms can finish cleanly
        if self.hooks.on_iteration is not None:
            self.hooks.on_iteration(worker)
        if self.hooks.on_finish is not None:
            self.hooks.on_finish(worker)

    # -- coordinator helpers --------------------------------------------------
    def spawn_coordinator(self, fn: Callable[..., None], *args: Any,
                          host: str = "x1") -> ProcessContext:
        return self.vm.spawn(host, fn, *args, name="coord", daemon=True)

    def control_to_worker(self, src: ProcessContext, rank: int,
                          msg: Any) -> None:
        src.route_control(self._ctxs[rank].vmid, msg)

    # -- verification -------------------------------------------------------
    def run(self, **kwargs: Any) -> None:
        self.vm.run(**kwargs)

    def verify_streams(self) -> None:
        """Every worker got its left neighbour's full stream, in order."""
        for r in range(self.nprocs):
            left, _ = ring_neighbours(r, self.nprocs)
            expected = [("tok", left, i) for i in range(self.iterations)]
            got = self.workers[r].received
            assert got == expected, (
                f"rank {r}: stream corrupted "
                f"(got {len(got)} messages, first diff at "
                f"{next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), '?')})")
