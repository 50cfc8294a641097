#!/usr/bin/env python3
"""The repo's wall-clock benchmark: one command, every metric by name.

    python3 bench/run.py --workload homogeneous --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --quick        # smoke: tiny counts, names validated
    python3 bench/run.py --aa           # noise floor: the set twice, compared

One run executes every scenario of its set (``mig_large``, ``mig_small``,
``msg_steady``, ``msg_under_mig``, ``crash_recover``; traced runs add
``sim_protocol``, the layer replay and the adaptive arm), each in a
process of its own, checks their outputs, prints the metrics,
writes ``bench/out/result.json`` (and ``bench/out/trace.jsonl`` when
traced), and ends with one JSON line for the driver. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

import numpy

from common import OUT, ROOT, TMP, declared, use_program_sources

#: share of ``--seconds`` each scenario's timed sections get
UNTRACED = {"mig_large": 0.34, "mig_small": 0.12, "msg_steady": 0.10,
            "msg_under_mig": 0.20, "crash_recover": 0.24}
#: the traced set: obs on where there are protocol phases to read, at
#: reduced length, plus the scenarios and arms that only yield per-layer
#: metrics (the last two are count-fixed)
TRACED = {"mig_large": 0.32, "mig_small": 0.08, "msg_steady": 0.12,
          "msg_under_mig": 0.10, "crash_recover": 0.08, "sim_protocol": 0.05,
          "layer_replay": 0.0, "adaptive": 0.0}
#: no scenario may run longer than this; it is killed and counted
SCENARIO_TIMEOUT_S = 150.0
#: per-layer metrics that are counts or virtual time: exact, so two runs
#: of one seed must agree to the last bit
EXACT = ("codec.encoded_nbytes", "codec.nparts", "streaming.nchunks",
         "sim.events", "sim.ctl_msgs", "sim.virtual_window_s",
         "sim.virtual_gang_span_s", "core.virtual_coordinate_s",
         "core.virtual_collect_s", "core.virtual_tx_s",
         "core.virtual_restore_s")


def _scenario_main(cfg: dict) -> None:
    """Child side: run one scenario, print its result as one line."""
    from scenarios import run_scenario

    print(json.dumps(run_scenario(cfg)), flush=True)


def _run_scenario(cfg: dict) -> dict:
    """Parent side: one scenario in a session of its own, so a hang can
    be killed with everything it forked."""
    cfg = {**cfg, "t_spawn": time.time()}
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--scenario",
         json.dumps(cfg)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
        cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=SCENARIO_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"killed after {SCENARIO_TIMEOUT_S:.0f} s"
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if error is None:
        try:
            part = json.loads(out.strip().splitlines()[-1])
            part["wall_s"] = time.time() - cfg["t_spawn"]
            return part
        except (IndexError, ValueError):
            error = "no result line"
    return {"scenario": cfg["scenario"], "metrics": {}, "samples": {},
            "raw": {}, "attempted": 1, "failed": 1, "setup_s": 0.0, "spans": [],
            "wall_s": time.time() - cfg["t_spawn"],
            "notes": [f"FAILED: scenario process: {error}"]}


def _meta(args, trace: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": trace, "quick": args.quick,
            "nproc": 2, "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def run_set(args, trace: bool, reverse: bool = False) -> dict:
    """Every scenario of the (un)traced set once; the merged result."""
    plan = TRACED if trace else UNTRACED
    names = list(reversed(plan)) if reverse else list(plan)
    parts = {}
    for name in names:
        parts[name] = _run_scenario({
            "scenario": name, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds * plan[name], "trace": trace,
            "quick": args.quick})
    metrics: dict[str, float] = {}
    samples: dict[str, int] = {}
    for part in parts.values():
        metrics.update(part["metrics"])
        samples.update(part["samples"])
    notes: list[str] = []
    if trace:
        _account_window(metrics, samples, notes)
    else:
        metrics["setup_s"] = sum(p["setup_s"] for p in parts.values())
        samples["setup_s"] = 1
    private = [k for k in metrics if k.startswith("_")]
    for k in private:
        del metrics[k]
    failed = sum(p["failed"] for p in parts.values())
    problems = _check_names(metrics, trace)
    return {"meta": _meta(args, trace), "metrics": metrics,
            "samples": samples, "scenarios": parts, "problems": problems,
            "notes": notes,
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": failed + len(problems)}


def _account_window(metrics: dict, samples: dict, notes: list) -> None:
    """How much of a ``mig_large`` window the layer replay and the
    coordination phases explain (ROADMAP item 1's "unaccounted" share),
    and whether ``mig_large`` and ``mig_small`` separate as designed."""
    need = ("_replay_s", "mig_large.mp.drain_s", "mig_large.mp.freeze_s",
            "mig_large.mp.commit_s", "_mig_large.window_off_s")
    if not all(k in metrics for k in need + ("_mig_small.window_off_s",)):
        return
    *parts, window = (metrics[k] for k in need)
    metrics["mig_large.mp.window_accounted_ratio"] = sum(parts) / window
    samples["mig_large.mp.window_accounted_ratio"] = 1
    share = {s: metrics[f"{s}.mp.transfer_s"] / metrics[f"_{s}.window_off_s"]
             for s in ("mig_large", "mig_small")}
    phases = ("freeze", "drain", "transfer", "commit", "restore_tail")
    longest = max(phases, key=lambda p: metrics[f"mig_small.mp.{p}_s"])
    notes.append(
        f"transfer share of the window: mig_large {share['mig_large']:.2f}, "
        f"mig_small {share['mig_small']:.3f} "
        f"({share['mig_large'] / share['mig_small']:.0f}x; designed >= 3x); "
        f"longest mig_small phase: {longest} (designed: drain)")


def _check_names(metrics: dict, trace: bool) -> list[str]:
    """A result must carry exactly the metrics ``BENCHMARK.json``
    declares for this kind of run — a renamed or missing one is an
    error, not a silent gap."""
    want = {m["name"] for m in
            declared()["per_layer" if trace else "end_to_end"]}
    problems = [f"metric {n} declared but not measured"
                for n in sorted(want - set(metrics))]
    problems += [f"metric {n} measured but not declared"
                 for n in sorted(set(metrics) - want)]
    return problems


def _units() -> dict[str, dict]:
    spec = declared()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def report(result: dict) -> None:
    """Every metric by name with its unit and sample count."""
    units = _units()
    meta = result["meta"]
    print(f"# workload={meta['workload']} seed={meta['seed']} "
          f"seconds={meta['seconds']} trace={int(meta['trace'])} "
          f"cpus={meta['cpus']} commit={meta['commit'][:12]}")
    ceilings = {k: v for k, v in result["metrics"].items()
                if k.startswith("ceiling.")}
    for name, value in result["metrics"].items():
        unit = units.get(name, {}).get("unit", "?")
        line = f"{name:42s} {value:>16.6g} {unit:10s} n={result['samples'][name]}"
        if name.endswith("_mb_s") and ceilings and name not in ceilings:
            line += "  " + " ".join(
                f"{value / c:6.1%} of {k.split('.')[1][:-5]}"
                for k, c in ceilings.items())
        print(line)
    for name, part in result["scenarios"].items():
        print(f"# {name}: wall {part['wall_s']:.1f} s, "
              f"set-up {part['setup_s']:.1f} s")
        for note in part["notes"]:
            print(f"# {name}: {note}")
    for note in result["notes"]:
        print(f"# {note}")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")
    print(f"# ops attempted={result['attempted']} failed={result['failed']}")


def save(result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    spans = [row for part in result["scenarios"].values()
             for row in part.pop("spans")]
    if result["meta"]["trace"]:
        with open(OUT / "trace.jsonl", "w") as fh:
            for row in spans:
                fh.write(json.dumps(row) + "\n")
    (OUT / "result.json").write_text(json.dumps(result, indent=1))


def final_line(result: dict) -> str:
    units = _units()
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in result["metrics"].items()
                    if name in units}})


def run_aa(args) -> int:
    """Noise floor: the set twice on one seed, the second time in
    reverse scenario order. End-to-end metrics must agree within their
    declared bounds; with ``--trace 1`` the exact metrics must agree to
    the last bit."""
    trace = bool(args.trace)
    a = run_set(args, trace)
    b = run_set(args, trace, reverse=True)
    spec = _units()
    outside = a["failed"] + b["failed"]
    print(f"# A/A workload={args.workload} seed={args.seed} "
          f"trace={int(trace)}")
    for name, va in a["metrics"].items():
        vb = b["metrics"].get(name)
        if vb is None:
            continue
        rel = (vb - va) / va if va else 0.0
        if name in EXACT:
            verdict = "exact" if va == vb else "DIFFERS"
            outside += va != vb
        elif "bound" in spec[name]:
            bound = spec[name]["bound"]
            verdict = "ok" if abs(rel) <= bound else "OUTSIDE"
            outside += abs(rel) > bound
            verdict += f" (bound {bound:.2f})"
        else:
            verdict = ""
        print(f"{name:42s} {va:>14.6g} {vb:>14.6g} {rel:+8.2%} {verdict}")
    for result in (a, b):
        for name, part in result["scenarios"].items():
            for note in part["notes"]:
                if note.startswith("FAILED"):
                    print(f"# {name}: {note}")
        for problem in result["problems"]:
            print(f"# FAILED: {problem}")
    print(f"# A/A: {'PASS' if not outside else 'FAIL'}")
    return 1 if outside else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="homogeneous",
                    choices=[w["name"] for w in declared()["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(declared()["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="smoke: tiny counts, untraced then traced set")
    ap.add_argument("--aa", action="store_true",
                    help="run the set twice and compare against the bounds")
    ap.add_argument("--scenario", help=argparse.SUPPRESS)
    args = ap.parse_args()
    use_program_sources()
    if args.scenario:
        _scenario_main(json.loads(args.scenario))
        return 0
    if args.aa:
        return run_aa(args)
    if args.quick:
        args.seconds = 2.0
    failed = 0
    for trace in ((False, True) if args.quick else (bool(args.trace),)):
        result = run_set(args, trace)
        report(result)
        save(result)
        failed += result["failed"]
        line = final_line(result)
    if TMP.is_dir() and not any(TMP.iterdir()):
        TMP.rmdir()
    print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
