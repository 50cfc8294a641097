#!/usr/bin/env python3
"""The paper's case study: kernel MG with a live process migration.

Reproduces Section 6.1/6.2: eight MG processes on a simulated Ultra 5
cluster; rank 0 migrates after two V-cycles. Prints Table 1 style timings
and the Figure 10-12 space-time diagram.

Run:  python examples/mg_migration.py            (64^3 grid, quick)
      REPRO_MG_N=128 python examples/mg_migration.py   (paper size)
"""

from __future__ import annotations

import os

from repro.analysis import events_from_trace, render_spacetime
from repro.experiments import run_mg_homogeneous
from repro.util.text import format_table


def main() -> None:
    n = int(os.environ.get("REPRO_MG_N", "64"))
    print(f"kernel MG, {n}^3 grid, 8 processes, migrating rank 0 after two "
          "V-cycles...\n")

    runs = {mode: run_mg_homogeneous(mode=mode, n=n)
            for mode in ("original", "modified", "migration")}

    rows = [
        ("Execution",) + tuple(f"{runs[m].execution:.3f}"
                               for m in ("original", "modified", "migration")),
        ("Communication",) + tuple(f"{runs[m].communication:.3f}"
                                   for m in ("original", "modified",
                                             "migration")),
    ]
    print("Timing results (seconds) of the kernel MG program — cf. Table 1:")
    print(format_table(("Total", "original", "modified", "migration"), rows))

    mig = runs["migration"]
    b = mig.breakdown
    print(f"\nmigration cost breakdown: {b}")
    print(f"data communicated: {mig.total_bytes / 1e6:.1f} MB over "
          f"{mig.total_messages} messages")

    print("\nspace-time diagram around the migration — cf. Figures 10-12:")
    pad = 2.5 * (b.t_commit - b.t_start)
    actors = [f"p{i}" for i in range(8)] + ["p0.m1"]
    print(render_spacetime(events_from_trace(mig.vm.trace), actors=actors,
                           t0=max(0.0, b.t_start - pad),
                           t1=b.t_commit + pad, width=100))
    for r in runs.values():
        r.vm.shutdown()


if __name__ == "__main__":
    main()
