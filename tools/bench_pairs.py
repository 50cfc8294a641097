#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, with the verdict.

    python3 tools/bench_pairs.py --parent <rev> [--pairs 10]
                                 [--workload homogeneous] [--quick]

The measurement method PRs 13 and 15 used by hand (choosing-metrics §8),
as one command: *rev* is exported (``git archive``) into a temporary
directory, ``bench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`` runs alternately there and in this working tree — the side
that goes first flips every pair, pair *k* runs both sides on seed *k*
(seed 1 is the development seed; every later pair is one the change was
not tuned on) — and each run's final JSON line is read. Per end-to-end
metric it prints both medians, both quartile pairs, the pairs the change
won, and one of

* ``gain`` — the change won at least nine tenths of the pairs (ties
  count for neither side) and the medians differ, in the metric's better
  direction, by more than the parent's own quartile distance;
* ``regression`` — the change's median is worse than the parent's by
  more than the bound ``BENCHMARK.json`` declares;
* ``unresolved: spread exceeds bound`` — neither of the above, and the
  run-to-run spread of either side is wider than the bound, so "no worse
  than the bound" cannot be told from these runs (unless every run of the
  change reads better than every run of the parent);
* ``no difference`` — within the bound, with a spread that can tell.

The temporary directory is removed on exit. ``--quick`` shortens every
run to the benchmark's smoke length (a self-test of this tool, not a
measurement: a scenario that short may skip its metric). Exit status is
non-zero if an operation failed in a full-length run, a run printed no
result, or the two trees do not carry the same benchmark.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: bench/run.py --quick's own run length
QUICK_SECONDS = 2.0


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric; ``parent[k]`` and
    ``change[k]`` are the two sides of pair *k*."""
    sign = 1.0 if better == "lower" else -1.0  # positive delta = worse
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if (won >= 0.9 * len(parent) and worse_by < 0
            and abs(cm - pm) > p3 - p1):
        return won, "gain"
    if worse_by > bound:
        return won, f"regression: worse by {worse_by:.1%} (bound {bound:.0%})"
    every_run_better = (max(change) < min(parent) if better == "lower"
                        else min(change) > max(parent))
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not every_run_better:
        return won, "unresolved: spread exceeds bound"
    return won, "no difference"


def export_tree(rev: str, dest: Path) -> None:
    """The committed files of *rev*, without touching the repository."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(f"bench_pairs: cannot export {rev!r}")


def same_benchmark(a: Path, b: Path) -> bool:
    """Both trees must measure with identical benchmark code."""
    if not filecmp.cmp(a / "BENCHMARK.json", b / "BENCHMARK.json",
                       shallow=False):
        return False
    names = sorted(p.name for p in (a / "bench").glob("*.py"))
    if names != sorted(p.name for p in (b / "bench").glob("*.py")):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a / "bench", b / "bench", names,
                                           shallow=False)
    return not mismatch and not errors


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in *tree*; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"bench_pairs: no result line from {tree} "
                         f"(exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True,
                    help="revision to compare this working tree against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", default="homogeneous",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--quick", action="store_true",
                    help="self-test: smoke-length runs, not a measurement")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    metrics = spec["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics}
              for side in ("parent", "change")}
    ops = {"parent": [0, 0], "change": [0, 0]}  # attempted, failed

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export_tree(args.parent, trees["parent"])
        if not same_benchmark(*trees.values()):
            sys.stderr.write(
                "bench_pairs: bench/ or BENCHMARK.json differ between "
                f"{args.parent} and the working tree — the two sides "
                "would not be measured by the same benchmark\n")
            return 2
        print(f"# parent={args.parent} workload={args.workload} "
              f"pairs={args.pairs} seconds={seconds:g}"
              + ("  (QUICK: not a measurement)" if args.quick else ""))
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                line = run_once(trees[side], args.workload, k, seconds)
                ops[side][0] += line["attempted"]
                ops[side][1] += line["failed"]
                for name, series in values[side].items():
                    # (a scenario too short to yield its metric — a
                    # --quick run — leaves it out; bench/run.py counts a
                    # metric missing from a full run as a failure itself)
                    got = line["metrics"].get(name)
                    series.append(got["value"] if got else None)
            print(f"# pair {k} (seed {k}, {order[0]} first): " + "  ".join(
                f"{name} {values['parent'][name][-1]:.4g}"
                f"->{values['change'][name][-1]:.4g}"
                for name in values["parent"]
                if None not in (values["parent"][name][-1],
                                values["change"][name][-1])), flush=True)

    print(f"{'metric':32s} {'parent med [q1, q3]':>34s} "
          f"{'change med [q1, q3]':>34s}  won  verdict")
    for m in metrics:
        name = m["name"]
        if None in values["parent"][name] + values["change"][name]:
            print(f"{name:32s} not measured in every run")
            continue
        cells = []
        for side in ("parent", "change"):
            q1, med, q3 = quartiles(values[side][name])
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
        won, word = verdict(values["parent"][name], values["change"][name],
                            m["better"], m["bound"])
        print(f"{name:32s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{won:2d}/{args.pairs:<2d} {word}")
    for side, (attempted, failed) in ops.items():
        print(f"# {side}: {failed} failed of {attempted} operations")
    share = {s: f / max(1, a) for s, (a, f) in ops.items()}
    if share["change"] > share["parent"]:
        print("# a larger share of operations failed on the change: "
              "no gain counts")
    if args.quick:
        return 0  # smoke-length scenarios legitimately skip metrics
    return 1 if ops["parent"][1] or ops["change"][1] else 0


if __name__ == "__main__":
    sys.exit(main())
