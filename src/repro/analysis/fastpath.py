"""Migration-window measurements in virtual time.

The perf counterpart of :mod:`repro.analysis.metrics`: each helper runs
(or reads) a seeded workload whose migrating rank carries an
ndarray-bearing state of a chosen size —

* :func:`measure_migration` — one 2-rank run, returning the latency and
  a digest of the restored payload, across chunk-size policies and link
  speeds (the adaptive-vs-fixed sweep);
* :func:`measure_gang_migration` — *k* ranks migrating at once: window
  geometry, overlap and bandwidth-budget accounting.

All numbers are deterministic. The wall-clock per-layer measurements
(codec, framing) live in ``bench/layers.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["measure_migration", "measure_gang_migration", "numpy_state"]

#: ping-pong rounds of the single-migration workload
_ROUNDS = 24


# ---------------------------------------------------------------------------
# single migration run (virtual time)
# ---------------------------------------------------------------------------

def numpy_state(nbytes: int) -> dict:
    """An ndarray-bearing state dict of roughly *nbytes* of payload.

    Mixed dtypes across six arrays (so every byte-swap width is hit),
    plus ordinary Python containers standing in for the solver metadata
    a real rank would carry alongside its grids.
    """
    per = max(1, nbytes // 6 // 8)  # six arrays of ~8*per bytes each
    nlog = min(1000, max(4, nbytes // 64))
    return {
        "u64": (np.arange(per, dtype=np.uint64) * 2654435761) & 0xFFFF,
        "f64": np.linspace(0.0, 1.0, per),
        "i32": np.arange(per * 2, dtype=np.int32),
        "c128": np.arange(max(1, per // 2), dtype=np.complex128) * (1 - 2j),
        "f32": np.arange(per * 2, dtype=np.float32),
        "u16": np.arange(per * 4, dtype=np.uint16),
        "log": [("step", i, i * 0.5) for i in range(nlog)],
        "params": {"alpha": 0.1, "name": "fastpath-ab", "dims": (8, 8, 8)},
    }


def _digest(state: dict) -> str:
    h = hashlib.sha256()
    for key in ("u64", "f64", "i32", "c128", "f32", "u16"):
        h.update(np.ascontiguousarray(state[key]).tobytes())
    h.update(repr(state["log"]).encode())
    return h.hexdigest()


def _ab_program(nbytes: int, digests: list):
    """2-rank ping-pong whose rank 1 carries *nbytes* of ndarray state.

    Rank 1 records a payload digest every time it (re)starts with a
    restored state — the destination incarnation's entry proves the
    transferred bytes survived the transfer unchanged.
    """

    def program(api, state):
        if api.rank == 1:
            if "u64" not in state:
                state.update(numpy_state(nbytes))
            digests.append(_digest(state))
        i = state.get("i", 0)
        while i < _ROUNDS:
            if api.rank == 0:
                api.send(1, ("ping", i), tag=i)
                assert api.recv(src=1, tag=i).body == ("pong", i)
            else:
                assert api.recv(src=0, tag=i).body == ("ping", i)
                api.send(0, ("pong", i), tag=i)
            i += 1
            state["i"] = i
            api.compute(1e-3)
            api.poll_migration(state)

    return program


def measure_migration(nbytes: int, migrate_at: float = 4e-3,
                      chunk_bytes=None, link=None) -> dict:
    """Run one migration carrying *nbytes* of state; report its cost.

    Returns ``latency`` (virtual migration window), ``makespan`` and the
    restored payload's ``digest``. The same seed state is rebuilt for
    every run, so equal digests mean byte-identical decoded state.

    ``chunk_bytes`` is forwarded to :class:`~repro.core.launch.
    Application` (fixed int, ``"adaptive"``, or a policy); ``link`` is an
    optional :class:`~repro.sim.network.LinkSpec` installed as the
    default for every host pair — the adaptive-vs-fixed sweep runs the
    same workload across link speeds this way.
    """
    from repro import Application, VirtualMachine

    vm = VirtualMachine() if link is None else VirtualMachine(
        default_link=link)
    for h in ("h0", "h1", "h2", "sched"):
        vm.add_host(h)
    digests: list = []
    app = Application(vm, _ab_program(nbytes, digests),
                      placement=["h0", "h1"], scheduler_host="sched",
                      chunk_bytes=chunk_bytes)
    app.start()
    app.migrate_at(migrate_at, 1, "h2")
    app.run()
    assert len(digests) == 2 and digests[0] == digests[1], \
        "payload changed across the migration"
    t_start, t_commit = _migration_windows(vm)[1]
    out = {
        "nbytes": nbytes,
        "latency": t_commit - t_start,
        "makespan": vm.kernel.now,
        "digest": digests[-1],
    }
    if chunk_bytes is not None:
        out["chunk_bytes"] = (chunk_bytes if isinstance(chunk_bytes, int)
                              else "adaptive")
        for ev in vm.trace.events:
            if ev.kind == "state_sent" and "chunk_bytes_last" in ev.detail:
                out["controller"] = {k: v for k, v in ev.detail.items()
                                     if k.startswith("chunk_")}
    vm.shutdown()
    return out


# ---------------------------------------------------------------------------
# gang migration (virtual time, concurrent windows)
# ---------------------------------------------------------------------------

def _gang_program(nbytes: int, digests: dict, rounds: int):
    """k independent ping-pong pairs; every odd rank carries *nbytes*.

    Rank ``2i`` pings rank ``2i+1`` (its carrier). Each carrier records a
    payload digest every time it (re)starts with a restored state, so
    per-rank digest pairs prove every concurrent transfer arrived intact.
    """

    def program(api, state):
        peer = api.rank ^ 1
        carrier = api.rank % 2 == 1
        if carrier:
            if "u64" not in state:
                state.update(numpy_state(nbytes))
            digests.setdefault(api.rank, []).append(_digest(state))
        i = state.get("i", 0)
        while i < rounds:
            if not carrier:
                api.send(peer, ("ping", i), tag=i)
                assert api.recv(src=peer, tag=i).body == ("pong", i)
            else:
                assert api.recv(src=peer, tag=i).body == ("ping", i)
                api.send(peer, ("pong", i), tag=i)
            i += 1
            state["i"] = i
            api.compute(1e-3)
            api.poll_migration(state)

    return program


def _migration_windows(vm) -> dict:
    """rank -> (first ``migration_start``, the first ``migration_commit``
    after it) in virtual seconds, for every rank whose migration
    committed."""
    wins: dict = {}
    for ev in vm.trace.events:
        rank = ev.detail.get("rank")
        if ev.kind == "migration_start" and rank not in wins:
            wins[rank] = [ev.time, None]
        elif ev.kind == "migration_commit" and rank in wins \
                and wins[rank][1] is None:
            wins[rank][1] = ev.time
    return {r: (t0, t1) for r, (t0, t1) in wins.items() if t1 is not None}


def measure_gang_migration(nbytes: int, k: int,
                           concurrency: int | None = None,
                           chunk_bytes=None, rounds: int = 1200,
                           migrate_at: float = 4e-3,
                           shared_link: bool = False) -> dict:
    """Migrate *k* ranks at once; report the gang's window geometry.

    The workload is *k* independent ping-pong pairs; every carrier (odd
    rank) is requested to migrate at the same virtual instant via
    :meth:`~repro.core.launch.Application.migrate_many`. By default each
    carrier starts on its own host and moves to its own destination —
    the windows are mutually independent and overlap up to
    ``concurrency``. With ``shared_link=True`` every carrier starts on
    one host and moves to one destination, so all transfers contend for
    a single simulated link — the arm that exercises the shared
    :class:`~repro.core.adaptive.BandwidthBudget`.

    Returns the per-rank window latencies, the **gang span** (first
    ``migration_start`` to last ``migration_commit``), per-rank digests,
    and whether the windows actually overlapped — the serialized
    (``concurrency=1``) arm must show they did not.
    """
    from repro import Application, VirtualMachine

    vm = VirtualMachine()
    added: set = set()

    def host(name: str) -> str:
        if name not in added:
            vm.add_host(name)
            added.add(name)
        return name

    placement = []
    for i in range(k):
        placement.append(host(f"a{i}"))    # rank 2i: the partner
        placement.append(host("src" if shared_link else f"b{i}"))
    dests = [host("dst" if shared_link else f"d{i}") for i in range(k)]
    host("sched")

    digests: dict = {}
    app = Application(vm, _gang_program(nbytes, digests, rounds),
                      placement=placement, scheduler_host="sched",
                      chunk_bytes=chunk_bytes,
                      migration_concurrency=concurrency)
    app.start()
    app.migrate_many(migrate_at, [(2 * i + 1, dests[i]) for i in range(k)])
    app.run()

    wins = _migration_windows(vm)
    carriers = [2 * i + 1 for i in range(k)]
    missing = [r for r in carriers if r not in wins]
    if missing:
        raise AssertionError(
            f"ranks {missing} never completed their migration — "
            f"raise `rounds` so the workload outlives the queue")
    for rank in carriers:
        pair = digests.get(rank, [])
        assert len(pair) == 2 and pair[0] == pair[1], \
            f"rank {rank} payload changed across the migration"
    spans = sorted(wins.values())
    overlaps = sum(1 for (s0, c0), (s1, c1) in zip(spans, spans[1:])
                   if s1 < c0)
    budgets = {
        host: {"peak_active": b.peak_active, "acquires": b.acquires,
               "rtt_floor": b.rtt_floor}
        for host, b in sorted(app._bandwidth_budgets.items())
        if b.acquires
    }
    out = {
        "nbytes": nbytes,
        "k": k,
        "concurrency": concurrency,
        "shared_link": shared_link,
        "latencies": {r: wins[r][1] - wins[r][0] for r in carriers},
        "gang_span": max(c for _, c in spans) - min(s for s, _ in spans),
        "overlapping_pairs": overlaps,
        "queued": len(vm.trace.filter(kind="migration_queued")),
        "dequeued": len(vm.trace.filter(kind="migration_dequeued")),
        "makespan": vm.kernel.now,
        "digest": digests[carriers[0]][-1],
        "budgets": budgets,
    }
    if chunk_bytes is not None and not isinstance(chunk_bytes, int):
        out["controllers"] = {
            ev.actor: {key: v for key, v in ev.detail.items()
                       if key.startswith("chunk_")}
            for ev in vm.trace.events
            if ev.kind == "state_sent" and "chunk_bytes_last" in ev.detail}
    vm.shutdown()
    return out
