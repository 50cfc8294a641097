"""Bandwidth-aware chunk sizing for the pipelined state transfer.

By default migration state ships as ``state_chunk`` frames of a fixed
256 KiB. That one constant cannot suit both ends of the paper's
hardware table: on a fast link large chunks amortize per-frame overhead,
while on a slow or jittery link a large chunk parks the pipeline — the
collect/ship/restore overlap the chunk stream exists for degenerates to
collect-then-ship-then-restore whenever the chunk is a significant
fraction of the state (a 256 KiB state in one 256 KiB chunk is *not
pipelined at all*).

:class:`ChunkController` closes the loop AIMD-style, the congestion
discipline TCP uses: every shipped chunk reports its **ship latency** —
virtual send-to-arrival time in the simulator (which includes link-queue
wait, the true congestion signal), wall-clock socket hand-off time in the
multiprocess runtime (which includes kernel-buffer backpressure). While
latency stays inside the per-chunk budget the next chunk grows (doubling
until the first backoff — slow start — then additively); the first over-
budget chunk multiplies the size down. Floor and ceiling bound the size
in both directions, and everything is a deterministic function of the
observation sequence, so virtual-time runs reproduce exactly.

The controller is transport-agnostic: :class:`~repro.core.streaming.
ChunkSource` accepts it (or any object with ``next_size()``) in place of
the fixed ``chunk_bytes`` integer; both the simulator's migration
(:mod:`repro.core.migration`) and the mp runtime's ``_migrate`` feed
observations back.

Two refinements close the gap between one transfer and a *gang* of
concurrent ones (PR 10):

* ``latency_budget="auto"`` — instead of a fixed per-chunk target, the
  budget floats at ``auto_headroom ×`` the minimum ship latency ever
  observed on the link (its RTT floor). The first observation seeds the
  floor and is therefore always in budget; after that the controller
  tolerates chunks up to ``auto_headroom``× the link's best case, which
  finds the bandwidth/latency knee without hand-tuning per link speed.
* :class:`BandwidthBudget` — a per-source-host ledger shared by every
  concurrent transfer leaving that host. Without it, k controllers on
  one link each read the others' queue wait as congestion and *all*
  collapse to the floor; with it, each controller scales its latency
  budget (and caps its ceiling) by the number of active transfers, so
  the gang splits the link fairly instead of collapsing the AIMD signal.
  The ledger also pools RTT-floor observations, so a transfer that
  starts mid-gang inherits the link's floor instead of mistaking a
  congested first chunk for the link's best case.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

from repro.core.streaming import DEFAULT_CHUNK_BYTES
from repro.util.errors import MigrationError

__all__ = ["AdaptiveChunkPolicy", "BandwidthBudget", "ChunkController",
           "coerce_chunk_bytes"]

#: ``latency_budget="auto"`` tolerates chunks this many times the link's
#: observed RTT floor before backing off.
AUTO_LATENCY_HEADROOM = 8.0


@dataclass(frozen=True)
class AdaptiveChunkPolicy:
    """Tuning knobs for one :class:`ChunkController`.

    ``latency_budget`` is the per-chunk ship-latency target: the largest
    chunk the link can carry inside the budget is the size that keeps
    the pipeline granular enough to overlap collect/ship/restore without
    paying per-frame fixed costs on every few KiB. The defaults suit
    both runtimes: an 8 KiB floor keeps even a 10 Mbit/s simulated link
    pipelined, slow start reaches socket-efficient sizes on a real
    loopback within a handful of chunks.
    """

    floor: int = 8 * 1024
    ceiling: int = 4 * 1024 * 1024
    #: first chunk size; ``None`` starts at the floor (pessimistic start:
    #: a slow link never sees an oversized probe chunk)
    initial: int | None = None
    #: additive increase per in-budget chunk after slow start;
    #: ``None`` uses the floor
    step: int | None = None
    #: multiplicative decrease on an over-budget chunk
    backoff: float = 0.5
    #: per-chunk ship-latency target, seconds — or ``"auto"`` to derive
    #: it from the link's observed RTT floor (``auto_headroom ×`` the
    #: minimum ship latency seen so far)
    latency_budget: float | str = 6e-3
    #: multiplier on the RTT floor when ``latency_budget="auto"``
    auto_headroom: float = AUTO_LATENCY_HEADROOM

    def __post_init__(self) -> None:
        if self.floor <= 0:
            raise MigrationError(f"chunk floor must be positive: {self.floor}")
        if self.ceiling < self.floor:
            raise MigrationError(
                f"chunk ceiling {self.ceiling} below floor {self.floor}")
        if self.initial is not None and \
                not self.floor <= self.initial <= self.ceiling:
            raise MigrationError(
                f"initial chunk size {self.initial} outside "
                f"[{self.floor}, {self.ceiling}]")
        if not 0.0 < self.backoff < 1.0:
            raise MigrationError(
                f"backoff must be in (0, 1): {self.backoff}")
        if isinstance(self.latency_budget, str):
            if self.latency_budget != "auto":
                raise MigrationError(
                    f"latency budget string must be 'auto', "
                    f"got {self.latency_budget!r}")
        elif self.latency_budget <= 0:
            raise MigrationError(
                f"latency budget must be positive: {self.latency_budget}")
        if self.auto_headroom <= 1.0:
            raise MigrationError(
                f"auto headroom must exceed 1: {self.auto_headroom}")


class BandwidthBudget:
    """Fair-share ledger for the concurrent transfers leaving one host.

    Every in-flight transfer ``acquire()``s a slot while it ships chunks
    and ``release()``s it on commit *or* abort. Attached controllers read
    ``share`` — the number of active transfers — to scale their latency
    budget (a chunk queued behind ``k-1`` siblings legitimately takes
    ``k×`` as long; that is contention, not congestion) and to cap their
    chunk ceiling at an equal split of the link. The ledger also pools
    RTT-floor observations across transfers: the link's best-case ship
    latency, the seed for ``latency_budget="auto"``.

    The ledger is plain in-process state — correct for the simulator
    (single-threaded virtual time) and for any one mp worker. The mp
    runtime substitutes a ``multiprocessing``-backed ledger with the same
    interface so forked workers on one host share the counts.
    """

    def __init__(self, host: str = ""):
        self.host = host
        self._active = 0
        self._rtt_floor: float | None = None
        # -- stats (tests, bench reports) --------------------------------
        self.peak_active = 0
        self.acquires = 0

    def acquire(self) -> None:
        self._active += 1
        self.acquires += 1
        self.peak_active = max(self.peak_active, self._active)

    def release(self) -> None:
        self._active = max(0, self._active - 1)

    @property
    def active(self) -> int:
        return self._active

    @property
    def share(self) -> int:
        """Divisor for fair-share scaling — never below one."""
        return max(1, self._active)

    def observe_latency(self, latency: float) -> None:
        """Fold one ship latency into the pooled RTT floor."""
        if latency > 0.0 and (self._rtt_floor is None
                              or latency < self._rtt_floor):
            self._rtt_floor = latency

    @property
    def rtt_floor(self) -> float | None:
        return self._rtt_floor


class ChunkController:
    """AIMD chunk sizing driven by per-chunk ship-latency observations.

    One controller serves one transfer (a fresh one is built per
    migration attempt, so a retry after an abort starts from the policy's
    initial size again). ``next_size()`` may be called any number of
    times between observations — the size only moves on ``observe()``.

    With a :class:`BandwidthBudget` attached the controller holds one of
    the budget's slots from construction until :meth:`close`, scales its
    latency budget by the budget's ``share``, and caps its size at an
    equal split of the ceiling — the fair-share discipline that keeps a
    gang of concurrent transfers from reading each other's queue wait as
    congestion.
    """

    def __init__(self, policy: AdaptiveChunkPolicy | None = None,
                 budget=None):
        self.policy = policy or AdaptiveChunkPolicy()
        p = self.policy
        self._size = p.initial if p.initial is not None else p.floor
        self._step = p.step if p.step is not None else p.floor
        #: doubling until the first backoff (slow start), additive after
        self._slow_start = True
        self._budget = budget
        self._holds_slot = False
        #: controller-local RTT floor (used by ``"auto"`` when no shared
        #: budget is attached)
        self._min_latency: float | None = None
        if budget is not None:
            budget.acquire()
            self._holds_slot = True
        # -- stats (tests, obs span attributes, bench reports) -----------
        self.nobserved = 0
        self.growths = 0
        self.backoffs = 0
        self.min_size = self._size
        self.max_size = self._size
        self.last_latency: float | None = None

    def close(self) -> None:
        """Release the bandwidth-budget slot (idempotent).

        Called when the transfer finishes — commit, abort, or crash of
        the *other* end — so a dead transfer stops diluting the shares of
        live ones.
        """
        if self._holds_slot:
            self._budget.release()
            self._holds_slot = False

    def next_size(self) -> int:
        if self._budget is not None:
            p = self.policy
            cap = max(p.floor, p.ceiling // self._budget.share)
            return min(self._size, cap)
        return self._size

    @property
    def size(self) -> int:
        return self._size

    def latency_budget(self) -> float:
        """The effective per-chunk budget for the *next* observation.

        Fixed policies return their constant scaled by the fair share;
        ``"auto"`` returns ``auto_headroom ×`` the RTT floor (pooled
        across the gang when a budget is attached), or ``+inf`` before
        the first observation seeds the floor.
        """
        p = self.policy
        share = self._budget.share if self._budget is not None else 1
        if p.latency_budget == "auto":
            floor = (self._budget.rtt_floor if self._budget is not None
                     else None)
            if floor is None:
                floor = self._min_latency
            if floor is None:
                return math.inf
            return floor * p.auto_headroom * share
        return p.latency_budget * share

    def observe(self, nbytes: int, latency: float) -> None:
        """Feed back one shipped chunk: its size and its ship latency.

        Latency at or under the budget grows the next chunk (doubling in
        slow start, ``+step`` after); over budget cuts it multiplicatively
        and ends slow start. The result is always clamped to
        ``[floor, ceiling]``. The RTT floor is folded in *before* the
        budget check, so the very first observation seeds ``"auto"`` and
        is always in budget.
        """
        p = self.policy
        self.nobserved += 1
        self.last_latency = latency
        if latency > 0.0 and (self._min_latency is None
                              or latency < self._min_latency):
            self._min_latency = latency
        if self._budget is not None:
            self._budget.observe_latency(latency)
        if latency <= self.latency_budget():
            grown = (self._size * 2 if self._slow_start
                     else self._size + self._step)
            new = min(p.ceiling, grown)
            if new > self._size:
                self.growths += 1
            self._size = new
        else:
            self._slow_start = False
            new = max(p.floor, int(self._size * p.backoff))
            if new < self._size:
                self.backoffs += 1
            self._size = new
        self.min_size = min(self.min_size, self._size)
        self.max_size = max(self.max_size, self._size)

    def stats(self) -> dict:
        """Controller summary for span attributes and bench artifacts."""
        budget = self.latency_budget()
        return {
            "chunk_bytes_last": self._size,
            "chunk_bytes_min": self.min_size,
            "chunk_bytes_max": self.max_size,
            "chunk_growths": self.growths,
            "chunk_backoffs": self.backoffs,
            "latency_budget_s": None if math.isinf(budget) else budget,
            "rtt_floor_s": (self._budget.rtt_floor
                            if self._budget is not None
                            else self._min_latency),
        }


def coerce_chunk_bytes(value) -> "int | AdaptiveChunkPolicy":
    """Normalize a user-facing ``chunk_bytes`` setting.

    ``None`` → the fixed default, an ``int`` → that fixed size,
    ``"adaptive"`` → a default :class:`AdaptiveChunkPolicy`, a policy →
    itself. The result is what :class:`~repro.core.endpoint.
    MigrationEndpoint` / the mp worker store and what the migration code
    turns into a controller per transfer.
    """
    if value is None:
        return DEFAULT_CHUNK_BYTES
    if isinstance(value, AdaptiveChunkPolicy):
        return value
    if isinstance(value, str):
        if value == "adaptive":
            return AdaptiveChunkPolicy()
        raise MigrationError(
            f"chunk_bytes string must be 'adaptive', got {value!r}")
    if isinstance(value, bool) or not isinstance(value, int):
        raise MigrationError(
            f"chunk_bytes must be int | 'adaptive' | AdaptiveChunkPolicy "
            f"| None, got {type(value).__name__}")
    if value <= 0:
        raise MigrationError(f"chunk_bytes must be positive: {value}")
    return value
