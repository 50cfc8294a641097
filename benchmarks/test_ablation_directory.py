"""ABL-5: centralized vs sharded location directories.

The paper centralizes its location service in the scheduler "for the
sake of simplicity" and observes the lookup contract would survive a
distributed implementation. This ablation measures that choice: a rotating-neighbor workload (each round
every rank contacts a peer it has never spoken to) in which every rank
migrates once. Established channels move *with* a migrating process —
that is the paper's communication state transfer — so only fresh
connections exercise the lookup path, and the rotation guarantees a
steady stream of fresh connections to already-moved ranks. The lookup
load then lands on one process (centralized) or spreads over directory
nodes (sharded).

Persists the cross-backend numbers to ``BENCH_directory.json`` at the
repo root (the ``make bench-directory`` artifact).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro import Application, VirtualMachine, check_invariants
from repro.analysis import directory_report
from repro.directory import DirectorySpec
from repro.util.text import format_table

_BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_directory.json"

_cache: dict[str, dict] = {}

#: rank counts of the scaling sweep (directory nodes scale as ranks // 2)
SCALES = (4, 8, 12)

#: cache-effectiveness sweep: distinct peers per rank, at a fixed scale
LOCALITY_NRANKS = 12
LOCALITY_WINDOWS = (1, 3, 11)

#: migration-density sweep: ranks relocated per concurrent batch (the
#: gang engine's balancer-batch case), at a fixed scale
DENSITY_NRANKS = 12
DENSITIES = (1, 4, 12)
#: density runs last long enough to outlive the density=1 arm's fully
#: serialized batch schedule (12 batches, 30 ms apart)
DENSITY_SWEEPS = 8


def _sweeps(nranks: int) -> int:
    """Enough full sweeps that the run comfortably outlives the staggered
    migrations at every scale."""
    return max(2, math.ceil(12 / (nranks - 1)))


def make_rotating_program(sweeps: int, results: dict,
                          window: int | None = None):
    """Rotating neighbors: round ``r`` pairs rank ``me`` with
    ``me + 1 + (r mod W)`` where ``W`` defaults to ``P - 1``.

    ``W`` is the workload's *locality* knob: each rank contacts ``W``
    distinct peers over the run. At ``W = P - 1`` (the backend-scaling
    sweep) every sweep's round opens brand-new channels — the workload
    that maximizes location lookups. Small ``W`` re-uses the same few
    channels, so almost all rounds ride connections (and cached
    locations) established up front. Round count is the same for every
    ``W``; only the connect/lookup mix changes.
    """

    def program(api, state):
        me, P = api.rank, api.size
        W = window if window is not None else P - 1
        r = state.get("r", 0)
        acc = state.setdefault("acc", 0)
        while r < sweeps * (P - 1):
            to = (me + 1 + r % W) % P
            frm = (me - 1 - r % W) % P
            api.send(to, ("rot", me, r), tag=r, nbytes=256)
            got = api.recv(src=frm, tag=r).body
            assert got == ("rot", frm, r)
            acc += frm
            state["acc"] = acc
            r += 1
            state["r"] = r
            api.compute(0.002)
            api.poll_migration(state)
        results[me] = acc

    return program


def _spec(backend: str, nranks: int) -> "DirectorySpec | None":
    if backend == "centralized":
        return None
    return DirectorySpec(backend=backend, nodes=max(2, nranks // 2),
                         replication=2)


def _overlapping_windows(vm) -> int:
    """Pairs of adjacent (by start) migration windows that overlap."""
    wins: dict = {}
    for ev in vm.trace.events:
        r = ev.detail.get("rank")
        if ev.kind == "migration_start" and r not in wins:
            wins[r] = [ev.time, None]
        elif ev.kind == "migration_commit" and r in wins \
                and wins[r][1] is None:
            wins[r][1] = ev.time
    spans = sorted((t0, t1) for t0, t1 in wins.values() if t1 is not None)
    return sum(1 for a, b in zip(spans, spans[1:]) if b[0] < a[1])


def _run(backend: str, nranks: int, window: int | None = None,
         density: int | None = None) -> dict:
    key = f"{backend}:{nranks}:{window or 'full'}:{density or 'stagger'}"
    if key in _cache:
        return _cache[key]
    from repro.obs import MetricsRegistry
    vm = VirtualMachine(metrics=MetricsRegistry())
    migrators = list(range(nranks))  # every rank relocates once
    for i in range(nranks):
        vm.add_host(f"h{i}")
    for k in range(len(migrators)):
        vm.add_host(f"s{k}")  # migration destinations
    vm.add_host("sched")
    results: dict = {}
    sweeps = DENSITY_SWEEPS if density is not None else _sweeps(nranks)
    prog = make_rotating_program(sweeps, results, window=window)
    app = Application(vm, prog, placement=[f"h{i}" for i in range(nranks)],
                      scheduler_host="sched",
                      directory=_spec(backend, nranks))
    app.start()
    if density is None:
        # Staggered but early, so most first-contact connects happen
        # after their destination has already moved.
        for k, rank in enumerate(migrators):
            app.migrate_at(0.003 + 0.003 * k, rank, f"s{k}")
    else:
        # Batched relocation (the balancer's gang case): `density` ranks
        # per migrate_many call, batches spaced wider than one window so
        # only windows *within* a batch overlap.
        for b, start in enumerate(range(0, len(migrators), density)):
            app.migrate_many(0.003 + 0.03 * b,
                             [(rank, f"s{rank}")
                              for rank in
                              migrators[start:start + density]])
    app.run()
    W = window if window is not None else nranks - 1
    rounds = sweeps * (nranks - 1)
    for me in range(nranks):
        assert results[me] == sum((me - 1 - r % W) % nranks
                                  for r in range(rounds))
    check_invariants(vm, app,
                     expect_migrations=len(migrators)).raise_if_failed()
    report = directory_report(vm, app)
    # The endpoint cache counters live in the metrics registry; the
    # report's per-endpoint aggregation must agree with the registry's
    # cluster-wide sums — one source of truth, computed one way.
    for field, total in report.cache.items():
        assert vm.metrics.sum(f"cache.{field}") == total, field
    out = {
        "backend": backend,
        "nranks": nranks,
        "window": W,
        "nodes": 0 if backend == "centralized" else _spec(backend,
                                                          nranks).nodes,
        "makespan": vm.kernel.now,
        "migrations": len([m for m in app.migrations if m.completed]),
        "consults": report.consults,
        "scheduler_lookups": report.scheduler_lookups,
        "fallbacks": report.fallbacks,
        "max_node_load": report.max_node_load,
        "node_lookups": report.node_lookups,
        "mean_latency_us": report.mean_latency * 1e6,
        "cache": report.cache,
        "density": density,
        "overlapping_windows": _overlapping_windows(vm),
    }
    vm.shutdown()
    _cache[key] = out
    return out


def _persist() -> None:
    full = [_cache[k] for k in sorted(_cache)
            if k.endswith(":full:stagger")]
    loc = sorted((v for k, v in _cache.items()
                  if k.endswith(":stagger")
                  and not k.endswith(":full:stagger")),
                 key=lambda r: r["window"])
    dens = sorted((v for k, v in _cache.items()
                   if v["density"] is not None
                   and v["backend"] == "sharded"),
                  key=lambda r: r["density"])
    _BENCH_PATH.write_text(json.dumps(
        {"ablation": "directory-backends",
         "workload": "rotating-neighbor sweep, every rank migrates",
         "scales": list(SCALES), "results": full,
         "locality": {
             "workload": "same sweep with the peer window W as the "
                         "locality knob: each rank contacts W distinct "
                         "peers over the same number of rounds",
             "nranks": LOCALITY_NRANKS,
             "results": loc,
         },
         "migration_density": {
             "workload": "same sweep with every rank relocated in "
                         "concurrent batches of `density` (gang "
                         "admission opens the windows together, the "
                         "balancer-batch case)",
             "nranks": DENSITY_NRANKS,
             "results": dens,
         }}, indent=2) + "\n")


def _table(rows: list[dict]) -> str:
    return format_table(
        ("backend", "ranks", "sched lookups", "max node load",
         "latency(us)", "makespan(s)"),
        [(r["backend"], r["nranks"], r["scheduler_lookups"],
          r["max_node_load"],
          f"{r['mean_latency_us']:.0f}", f"{r['makespan']:.3f}")
         for r in rows])


def test_abl5_centralized_hot_spot_grows(benchmark):
    """The scheduler's lookup load grows with rank count."""
    runs = benchmark.pedantic(
        lambda: [_run("centralized", n) for n in SCALES],
        rounds=1, iterations=1)
    print("\nABL-5  centralized backend, scaling ranks:")
    print(_table(runs))
    loads = [r["scheduler_lookups"] for r in runs]
    assert loads == sorted(loads), "hot-spot load must grow with scale"
    assert loads[-1] > 2 * loads[0]
    # every consult went to the scheduler: nobody else can answer
    assert all(r["max_node_load"] == 0 for r in runs)


def test_abl5_sharded_spreads_the_load(benchmark):
    runs = benchmark.pedantic(
        lambda: [_run("sharded", n) for n in SCALES],
        rounds=1, iterations=1)
    central = [_run("centralized", n) for n in SCALES]
    print("\nABL-5  sharded backend, scaling ranks (nodes = ranks // 2):")
    print(_table(runs))
    for sharded, centralized in zip(runs, central):
        # the directory fields the consults the scheduler used to serve
        assert sum(sharded["node_lookups"].values()) > 0
        assert sharded["scheduler_lookups"] < \
            centralized["scheduler_lookups"]
    # with nodes scaling alongside ranks, no single shard approaches the
    # centralized hot spot at the top scale
    assert runs[-1]["max_node_load"] < central[-1]["scheduler_lookups"] / 2


def test_abl5_cache_locality(benchmark):
    """LocationCache effectiveness tracks communication locality.

    Fixed scale, the peer window W as the knob. Location lookups happen
    on fresh connects only (established channels migrate *with* their
    process), so a high-locality rank resolves a handful of peers once
    and then rides its channels; a low-locality rank keeps opening
    first-contact channels throughout the migration burst, where cached
    locations go stale and conn_nacks force invalidation + directory
    consults.
    """
    runs = benchmark.pedantic(
        lambda: [_run("sharded", LOCALITY_NRANKS, window=w)
                 for w in LOCALITY_WINDOWS],
        rounds=1, iterations=1)
    print("\nABL-5  LocationCache by workload locality "
          f"(sharded, {LOCALITY_NRANKS} ranks):")
    print(format_table(
        ("peers/rank", "hits", "stale", "misses", "hit rate",
         "invalidations", "directory consults"),
        [(r["window"], r["cache"]["hits"], r["cache"]["stale_hits"],
          r["cache"]["misses"],
          f"{r['cache']['hits'] / max(1, sum(r['cache'][k] for k in ('hits', 'stale_hits', 'misses'))):.1%}",
          r["cache"]["invalidations"], r["consults"]) for r in runs]))
    lookups = [sum(r["cache"][k] for k in ("hits", "stale_hits", "misses"))
               for r in runs]
    # lower locality -> more first-contact connects -> more lookups
    assert lookups == sorted(lookups) and lookups[-1] > 2 * lookups[0]
    # lower locality -> more connects land after a peer moved -> more
    # negative invalidations and directory consults
    invals = [r["cache"]["invalidations"] for r in runs]
    assert invals[-1] > invals[0]
    assert runs[-1]["consults"] > runs[0]["consults"]


def test_abl5_migration_density(benchmark):
    """Concurrent-relocation batches: lookup hot-spot relief.

    Every rank relocates; the knob is how many relocate *per concurrent
    batch* (the gang the balancer's ``batch`` setting issues). Denser
    batches overlap their migration windows, concentrating the lookup
    burst — the sharded directory absorbs it with a per-node load that
    stays far below the centralized hot spot.
    """
    runs = benchmark.pedantic(
        lambda: [_run("sharded", DENSITY_NRANKS, density=d)
                 for d in DENSITIES],
        rounds=1, iterations=1)
    central = _run("centralized", DENSITY_NRANKS, density=DENSITIES[-1])
    print("\nABL-5  migration density (sharded, "
          f"{DENSITY_NRANKS} ranks, all relocate):")
    print(format_table(
        ("density", "overlapping windows", "consults", "max node load",
         "makespan(s)"),
        [(r["density"], r["overlapping_windows"], r["consults"],
          r["max_node_load"], f"{r['makespan']:.3f}") for r in runs]))
    # every batch size completes the full relocation set (digests are
    # asserted inside _run) and denser batches genuinely overlap
    assert all(r["migrations"] == DENSITY_NRANKS for r in runs)
    ows = [r["overlapping_windows"] for r in runs]
    assert ows[0] == 0, "density=1 batches must stay serialized"
    assert ows == sorted(ows) and ows[-1] > ows[0]
    # hot-spot relief: even with all ranks relocating at once, no shard
    # approaches the centralized scheduler's lookup load
    assert runs[-1]["max_node_load"] < central["scheduler_lookups"] / 2


def test_abl5_persist_bench_json(benchmark):
    """Write BENCH_directory.json from the full backend x scale sweep."""
    benchmark.pedantic(
        lambda: ([_run(b, n) for b in ("centralized", "sharded")
                  for n in SCALES]
                 + [_run("sharded", LOCALITY_NRANKS, window=w)
                    for w in LOCALITY_WINDOWS]
                 + [_run("sharded", DENSITY_NRANKS, density=d)
                    for d in DENSITIES]),
        rounds=1, iterations=1)
    _persist()
    data = json.loads(_BENCH_PATH.read_text())
    assert len(data["results"]) == 2 * len(SCALES)
    assert len(data["locality"]["results"]) == len(LOCALITY_WINDOWS)
    assert len(data["migration_density"]["results"]) == len(DENSITIES)
    print(f"\nABL-5  wrote {_BENCH_PATH}")
