#!/usr/bin/env python3
"""The paper's heterogeneous experiment (Section 6.3, Table 2, Figure 13).

Seven Ultra 5 workstations plus one DEC 5000/120 on 10 Mbit/s Ethernet;
the process on the slow machine migrates to an idle Ultra 5 after two
V-cycles. Because the slow machine lags its fast neighbours, messages are
already in transit when the migration starts — they get captured into the
received-message-list and forwarded to the initialized process.

The state crosses "architectures": collected on the little-endian MIPS
DEC, restored on the big-endian SPARC Ultra, through the machine-
independent memory-graph codec.

Run:  python examples/heterogeneous_migration.py
"""

from __future__ import annotations

import os

from repro.analysis import events_from_trace, render_spacetime
from repro.experiments import run_mg_heterogeneous


def main() -> None:
    n = int(os.environ.get("REPRO_MG_N", "64"))
    print(f"kernel MG, {n}^3 grid; rank 0 on the DEC 5000/120 behind "
          "10 Mbit/s Ethernet\n")
    res = run_mg_heterogeneous(n=n)
    b = res.breakdown

    print("Performance (timing in seconds) — cf. Table 2:")
    print(b.table())
    print(f"\nstate transferred: {b.state_bytes / 1e6:.2f} MB "
          f"(machine-independent encoding)")
    print(f"messages captured in transit and forwarded: "
          f"{b.captured_messages} (the paper observes two)")

    # per-cycle speedup after moving to the fast machine
    before = [e.time for e in res.vm.trace.filter(kind="app_vcycle_done",
                                                  actor="p0")]
    after = [e.time for e in res.vm.trace.filter(kind="app_vcycle_done",
                                                 actor="p0.m1")]
    if len(before) >= 2 and len(after) >= 2:
        print(f"\nV-cycle on the DEC:   {before[1] - before[0]:7.3f} s")
        print(f"V-cycle after moving: {after[-1] - after[-2]:7.3f} s")

    print("\nspace-time diagram — cf. Figure 13:")
    pad = 1.2 * (b.t_commit - b.t_start)
    actors = [f"p{i}" for i in range(8)] + ["p0.m1"]
    print(render_spacetime(events_from_trace(res.vm.trace), actors=actors,
                           t0=max(0.0, b.t_start - pad),
                           t1=b.t_commit + pad, width=100))
    res.vm.shutdown()


if __name__ == "__main__":
    main()
