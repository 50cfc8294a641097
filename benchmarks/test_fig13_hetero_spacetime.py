"""FIG-13: heterogeneous migration space-time diagram.

The paper's Figure 13 shows the DEC 5000/120 process (MIGRATING) handing
over to an Ultra 5 (INITIALIZE). Because the slow machine lags, its fast
neighbours have already sent messages before the migration starts, so —
unlike the homogeneous run — the coordination *captures* in-transit
messages and forwards them to the initialized process ("the migrating
process collects transmitted messages during the coordination. Afterward,
the migrating algorithm forwards these messages ... inserted to the front
of the initialized process's receive-message-list").
"""

from __future__ import annotations

from repro.analysis import events_from_trace, render_spacetime
from repro.experiments import run_mg_heterogeneous

_cache: dict[str, object] = {}


def _run(n):
    if "r" not in _cache:
        _cache["r"] = run_mg_heterogeneous(n=n)
    return _cache["r"]


def test_fig13_diagram(benchmark, grid_n):
    res = benchmark.pedantic(_run, args=(grid_n,), rounds=1, iterations=1)
    b = res.breakdown
    actors = [f"p{i}" for i in range(res.nranks)] + ["p0.m1"]
    pad = 1.5 * (b.t_commit - b.t_start)
    print()
    print(f"FIG-13  heterogeneous migration space-time (n={grid_n}; "
          "p0 on the DEC 5000/120, migrating to an idle Ultra 5)")
    print(render_spacetime(events_from_trace(res.vm.trace), actors=actors,
                           t0=max(0.0, b.t_start - pad),
                           t1=b.t_commit + pad, width=100))


def test_fig13_messages_captured_and_forwarded(benchmark, grid_n):
    res = benchmark.pedantic(_run, args=(grid_n,), rounds=1, iterations=1)
    trace = res.vm.trace
    b = res.breakdown
    # messages were in transit towards the slow process and got captured
    assert b.captured_messages >= 1, \
        "the slow host's lag must leave messages in transit to capture"
    # ... and forwarded: the initialized process received a non-empty list
    recvlist_evs = trace.filter(kind="recvlist_received", actor="p0.m1")
    assert len(recvlist_evs) == 1
    forwarded = recvlist_evs[0].detail["count"]
    print(f"\nFIG-13: captured={b.captured_messages}, "
          f"forwarded to initialized process={forwarded} "
          "(paper observes two)")
    assert forwarded == b.captured_messages
    # no message was lost anywhere
    assert res.vm.dropped_messages() == []


def test_fig13_outputs_identical(benchmark, grid_n):
    """Section 6.3: outputs with migration match the homogeneous run."""
    import numpy as np

    from repro.apps.mg.serial import make_rhs, residual_norm
    res = benchmark.pedantic(_run, args=(grid_n,), rounds=1, iterations=1)
    # reconstruct the global solution and check it actually solves A u ≈ v
    u = np.concatenate([res.results[r]["u"] for r in range(res.nranks)],
                       axis=0)
    v = make_rhs(grid_n)
    rnorm = residual_norm(u, v)
    assert rnorm == res.results[0]["rnorms"][-1] or \
        abs(rnorm - res.results[0]["rnorms"][-1]) < 1e-12
    assert rnorm < 0.05 * np.sqrt(np.sum(v * v))
