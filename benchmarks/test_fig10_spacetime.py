"""FIG-10/11/12: the homogeneous migration space-time diagram.

The paper's Figures 10-12 show an XPVM space-time diagram of the kernel MG
migration on the Ultra 5 cluster and call out four areas:

* **A** — during coordination the migrating process drains its channels
  and closes every connection (in the homogeneous run the list stays
  nearly empty: peers were not mid-send);
* **B** — non-migrating processes proceed with their own exchanges while
  process 0 migrates;
* **C** — eventually they run out of independent work and wait for
  process 0;
* **D** — the senders that need process 0 (its ring neighbours) consult
  the scheduler, connect to the *initialized* process, and ship their data
  in parallel with state restoration.

This bench regenerates the diagram in ASCII and asserts each area's
machine-checkable content.
"""

from __future__ import annotations

from repro.analysis import events_from_trace, render_spacetime
from repro.experiments import run_mg_homogeneous

_cache: dict[str, object] = {}


def _run(n):
    if "r" not in _cache:
        _cache["r"] = run_mg_homogeneous(mode="migration", n=n)
    return _cache["r"]


def test_fig10_diagram(benchmark, grid_n):
    res = benchmark.pedantic(_run, args=(grid_n,), rounds=1, iterations=1)
    trace = res.vm.trace
    b = res.breakdown
    actors = [f"p{i}" for i in range(res.nranks)] + ["p0.m1"]
    pad = 3 * (b.t_commit - b.t_start)
    print()
    print(f"FIG-10  kernel MG migration space-time (n={grid_n}, "
          "8 processes) — paper Figures 10-12")
    print(render_spacetime(events_from_trace(trace), actors=actors,
                           t0=max(0.0, b.t_start - pad),
                           t1=b.t_commit + pad, width=100))


def test_fig11_area_a_coordination(benchmark, grid_n):
    """Area A: coordination drains and closes every connection."""
    res = benchmark.pedantic(_run, args=(grid_n,), rounds=1, iterations=1)
    trace = res.vm.trace
    # every connected peer was coordinated and the drain finished
    coordinated = trace.filter(kind="peer_coordinated", actor="p0")
    done = trace.filter(kind="drain_peer_done", actor="p0")
    assert len(coordinated) >= 2  # at least the two ring neighbours
    assert len(done) == len(coordinated)
    # in the homogeneous, synchronised run the received-message-list stays
    # (nearly) empty during coordination — paper: "does not receive any
    # messages into the receive-message-list"
    captured = res.breakdown.captured_messages
    print(f"\nFIG-11 area A: peers coordinated={len(coordinated)}, "
          f"messages captured in transit={captured}")
    assert captured <= 2


def test_fig11_area_b_progress(benchmark, grid_n):
    """Area B: other processes keep exchanging during the migration."""
    res = benchmark.pedantic(_run, args=(grid_n,), rounds=1, iterations=1)
    trace = res.vm.trace
    b = res.breakdown
    migrating = {"p0", "p0.m1"}
    sends = [ev for ev in trace.filter(kind="snow_send",
                                       t0=b.t_start, t1=b.t_commit)
             if ev.actor not in migrating]
    print(f"\nFIG-11 area B: {len(sends)} messages sent by non-migrating "
          "processes during the migration window")
    assert len(sends) > 0, \
        "non-migrating processes must make progress during the migration"


def test_fig12_area_d_handoff(benchmark, grid_n):
    """Area D: the neighbours' data for rank 0 survives the migration.

    In the paper's run the neighbours' third-iteration sends happened
    after coordination, so they were rejected, consulted the scheduler and
    connected to the initialized process while restoration ran. Depending
    on exactly when the migration window lands relative to the neighbours'
    sends, the protocol hands their data over by one of two equally
    correct routes:

    * **redirect** — conn_nack → scheduler consult → connection to the
      initialized process (the paper's area D), or
    * **capture** — the planes were already in transit on the existing
      channels, got drained into the received-message-list and forwarded
      (the paper's Figure 13 behaviour).

    Either way no byte is lost and rank 0's new incarnation resumes with
    its neighbours' planes.
    """
    res = benchmark.pedantic(_run, args=(grid_n,), rounds=1, iterations=1)
    trace = res.vm.trace
    nranks = res.nranks
    neighbours = {f"p{1 % nranks}", f"p{(nranks - 1) % nranks}"}

    consults = [ev for ev in trace.filter(kind="scheduler_consult", dest=0)
                if ev.actor in neighbours]
    restore_done = trace.first("restore_done")
    reconnects = [ev for ev in trace.filter(kind="connected", dest=0)
                  if ev.time >= res.breakdown.t_start]
    forwarded = trace.first("recvlist_received", )
    captured = res.breakdown.captured_messages
    print(f"\nFIG-12 area D: consults={len(consults)}, "
          f"reconnects={len(reconnects)}, captured+forwarded={captured}")

    assert consults or captured >= 2, \
        "neighbour data must reach rank 0 by redirect or by capture"
    if consults:
        # redirected connections are established before restoration ends —
        # "allowing the senders to send their data ... in parallel to the
        # execution and memory state restoration"
        assert any(ev.time <= restore_done.time for ev in reconnects)
    if captured:
        assert forwarded is not None and \
            forwarded.detail["count"] == captured
    # in all cases the new incarnation finishes the remaining V-cycles
    finishes = trace.filter(kind="app_vcycle_done", actor="p0.m1")
    assert len(finishes) >= 1
    assert res.vm.dropped_messages() == []
