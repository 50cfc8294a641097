"""Per-process virtual machine context.

A :class:`ProcessContext` is what a simulated process sees of the virtual
machine: its identity, its mailbox (every channel message and routed
control message for this process arrives here, tagged with its origin),
compute-time accounting, and the signaling service.

Signal semantics follow the paper's Section 2.3 exactly:

* signals are reliable and arrive in send order (they ride the same
  FIFO-serialized links as everything else);
* a signal interrupts only a *computation* event (:meth:`compute`); during
  communication events the protocol layer holds signals
  (:meth:`hold_signals` / :meth:`release_signals`, the paper's
  ``sighold(SIGUSR2)`` / ``sigrelse(SIGUSR2)``) and pending handlers run
  when the communication event finishes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.kernel import TIMEOUT
from repro.sim.sync import SimQueue
from repro.util.errors import SimulationError, ThreadKilled
from repro.vm.ids import Rank, VmId

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.virtual_machine import VirtualMachine

__all__ = ["ProcessContext", "ProcessExit"]


class ProcessExit(ThreadKilled):
    """Raised by :meth:`ProcessContext.terminate` to unwind the process."""


class ProcessContext:
    """The virtual machine services available to one simulated process."""

    def __init__(self, vm: "VirtualMachine", vmid: VmId, name: str,
                 rank: Rank | None = None):
        self.vm = vm
        self.kernel = vm.kernel
        self.vmid = vmid
        self.name = name
        #: application-level rank; None for system processes (scheduler, ...)
        self.rank = rank
        #: single arrival point for Envelope and ControlEnvelope objects
        self.mailbox = SimQueue(vm.kernel, name=f"mbox({name})")
        self.alive = True
        self.thread = None  # set by VirtualMachine.spawn
        self._host_spec = vm.network.host(vmid.host)
        # -- signaling state ------------------------------------------------
        self._pending_signals: deque[str] = deque()
        self._signal_handlers: dict[str, Callable[[], None]] = {}
        self._sig_mask = 0
        self._computing = False
        self._in_handler = False

    # -- identity ---------------------------------------------------------
    @property
    def host(self) -> str:
        return self.vmid.host

    def __repr__(self) -> str:
        return f"<Process {self.name} vmid={self.vmid} rank={self.rank}>"

    # -- CPU accounting -----------------------------------------------------
    def burn(self, reference_seconds: float) -> None:
        """Charge non-interruptible CPU time (communication software work).

        Unlike :meth:`compute`, signals do *not* interrupt this — it is the
        cost model for work inside communication events.
        """
        if reference_seconds <= 0:
            return
        self.kernel.sleep(self._host_spec.compute_time(reference_seconds))

    def compute(self, reference_seconds: float) -> None:
        """Run an application *computation event* of the given cost.

        The event takes ``reference_seconds / cpu_speed`` of virtual time
        and is interruptible by signals: an arriving signal's handler runs
        immediately (in this process's thread), after which the remaining
        computation continues — total computation time is preserved.
        """
        if reference_seconds < 0:
            raise SimulationError("negative compute time")
        self.check_signals()
        remaining = self._host_spec.compute_time(reference_seconds)
        while remaining > 0:
            start = self.kernel.now
            self._computing = True
            try:
                got = self.kernel._block("compute", timeout=remaining)
            finally:
                self._computing = False
            elapsed = self.kernel.now - start
            if got is TIMEOUT:
                break
            # Woken early: a signal arrived. Handle it, then resume what is
            # left of the computation.
            remaining = max(0.0, remaining - elapsed)
            self.check_signals()

    # -- signaling service -----------------------------------------------------
    def on_signal(self, name: str, handler: Callable[[], None]) -> None:
        """Install *handler* for signal *name* (replacing any previous one)."""
        self._signal_handlers[name] = handler

    def hold_signals(self) -> None:
        """Enter a communication event: defer signal handlers (sighold)."""
        self._sig_mask += 1

    def release_signals(self) -> None:
        """Leave a communication event (sigrelse); run deferred handlers."""
        if self._sig_mask <= 0:
            raise SimulationError("release_signals without hold_signals")
        self._sig_mask -= 1
        if self._sig_mask == 0:
            self.check_signals()

    def check_signals(self) -> None:
        """Run handlers for pending signals if unmasked.

        Handlers run in this process's own thread and may themselves
        perform communication (the disconnection handler receives
        messages). Nested handler invocation is serialized.
        """
        if self._sig_mask > 0 or self._in_handler:
            return
        while self._pending_signals:
            sig = self._pending_signals.popleft()
            handler = self._signal_handlers.get(sig)
            self.vm.trace_record(self.name, "signal_handled", signal=sig,
                                 handled=handler is not None)
            if handler is None:
                continue
            self._in_handler = True
            try:
                handler()
            finally:
                self._in_handler = False

    def _signal_arrived(self, name: str) -> None:
        """Network-arrival callback for a signal (kernel context)."""
        if not self.alive:
            self.vm.trace_record(self.name, "signal_dropped", signal=name)
            return
        self._pending_signals.append(name)
        self.vm.trace_record(self.name, "signal_arrived", signal=name)
        if self._computing and self.thread is not None:
            # interrupt the computation event; compute() runs the handler
            self.kernel._wake(self.thread, "signal")

    def send_signal(self, dst_vmid: VmId, name: str) -> None:
        """Reliably signal another process, wherever it is."""
        vm = self.vm
        vm.trace_record(self.name, "signal_sent", dst=str(dst_vmid), signal=name)
        self.burn(vm.costs.signal_dispatch)

        def deliver() -> None:
            dst = vm.lookup(dst_vmid)
            if dst is None:
                vm.trace_record(str(dst_vmid), "signal_dropped", signal=name)
                return
            dst._signal_arrived(name)

        vm.network.deliver(self.host, dst_vmid.host, vm.costs.control_bytes,
                           deliver, service="sig")

    # -- mailbox ----------------------------------------------------------------
    def next_message(self, timeout: float | None = None) -> Any:
        """Take the next arrived message (Envelope or ControlEnvelope).

        Blocks while the mailbox is empty; returns :data:`TIMEOUT` on
        timeout. Charges the receive-side copy cost for envelopes.
        """
        item = self.mailbox.get(timeout=timeout)
        if item is TIMEOUT:
            return TIMEOUT
        nbytes = getattr(item, "nbytes", self.vm.costs.control_bytes)
        self.burn(self.vm.costs.recv_cost(nbytes))
        return item

    # -- connectionless service -------------------------------------------------
    def route_control(self, dst_vmid: VmId, msg: Any,
                      nbytes: int | None = None) -> None:
        """Send a control message via the daemons (connectionless service)."""
        self.vm.route_control(self.vmid, dst_vmid, msg, nbytes=nbytes)

    # -- lifecycle ---------------------------------------------------------------
    def finalize(self) -> None:
        """Deregister from the VM (idempotent); called on thread exit."""
        if not self.alive:
            return
        self.alive = False
        self.vm._process_finished(self)

    def terminate(self) -> None:
        """Terminate this process from within (paper Fig. 5 line 11)."""
        self.finalize()
        raise ProcessExit()
