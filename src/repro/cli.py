"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro mg                   # Table 1 (homogeneous MG)
    python -m repro mg --hetero          # Table 2 + Figure 13
    python -m repro mg --spacetime       # Figures 10-12 diagram
    python -m repro compare              # Section 7 baseline comparison
    python -m repro balance              # automatic load balancing demo
    python -m repro theorems             # quick ordering/no-loss check
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.util.text import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Communication State Transfer for the "
                    "Mobility of Concurrent Heterogeneous Computing' "
                    "(Chanchio & Sun, ICPP 2001)")
    sub = p.add_subparsers(dest="command", required=True)

    mg = sub.add_parser("mg", help="kernel MG experiments (Tables 1-2, "
                                   "Figures 10-13)")
    mg.add_argument("--n", type=int, default=64,
                    help="grid edge (paper: 128)")
    mg.add_argument("--hetero", action="store_true",
                    help="heterogeneous testbed (Table 2 / Figure 13)")
    mg.add_argument("--spacetime", action="store_true",
                    help="render the space-time diagram")
    mg.add_argument("--save-trace", metavar="PATH", default=None,
                    help="save the run's event trace as JSON-lines for "
                         "offline analysis")
    mg.add_argument("--svg", metavar="PATH", default=None,
                    help="write the space-time diagram as an SVG file "
                         "(the graphical XPVM view of Figures 10-13)")

    cmp_p = sub.add_parser("compare", help="Section 7 baseline comparison")
    cmp_p.add_argument("--nprocs", type=int, default=8)
    cmp_p.add_argument("--iterations", type=int, default=30)

    bal = sub.add_parser("balance", help="automatic load balancing demo")
    bal.add_argument("--n", type=int, default=32)

    sub.add_parser("theorems", help="quick no-loss/ordering check with a "
                                    "migrating receiver")

    obs = sub.add_parser("obs", help="observability: collect a migration "
                                     "JSONL artifact / render its report")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_run = obs_sub.add_parser(
        "run", help="run a real 2-process migration with event collection "
                    "on and write the merged JSONL artifact")
    obs_run.add_argument("--out", metavar="PATH", default="obs_events.jsonl",
                         help="artifact path (default: %(default)s)")
    obs_run.add_argument("--rounds", type=int, default=40,
                         help="ping-pong rounds around the migration")
    obs_run.add_argument("--payload-kib", type=int, default=256,
                         help="state ballast carried by the migrating rank")
    obs_run.add_argument("--sample-every", type=int, default=0,
                         help="emit every Nth send/recv event "
                              "(0 = per-message events off, the default)")
    obs_run.add_argument("--no-report", action="store_true",
                         help="write the artifact only, skip the report")
    obs_rep = obs_sub.add_parser(
        "report", help="render the migration-window report from an artifact")
    obs_rep.add_argument("artifact", help="JSONL artifact from 'obs run' "
                                          "(or MPCluster.write_obs_jsonl)")
    obs_rep.add_argument("--from-trace", action="store_true",
                         help="artifact is a simulator trace saved with "
                              "'repro mg --save-trace' — lift its obs "
                              "events instead")
    obs_svg = obs_sub.add_parser(
        "svg", help="render the space-time SVG (lanes per rank, phase "
                    "bars, migration windows, message flights) from an "
                    "artifact")
    obs_svg.add_argument("artifact", help="JSONL artifact from 'obs run' "
                                          "(or MPCluster.write_obs_jsonl)")
    obs_svg.add_argument("--out", metavar="PATH",
                         default="obs_spacetime.svg",
                         help="SVG output path (default: %(default)s)")
    obs_svg.add_argument("--from-trace", action="store_true",
                         help="artifact is a simulator trace saved with "
                              "'repro mg --save-trace' — lift its obs "
                              "events instead")
    obs_svg.add_argument("--no-align", action="store_true",
                         help="skip the clock-offset alignment pass")
    obs_svg.add_argument("--width", type=int, default=900,
                         help="diagram width in pixels")
    obs_watch = obs_sub.add_parser(
        "watch", help="run the demo migration with live metric streaming "
                      "on and tail the merged live view during the run")
    obs_watch.add_argument("--rounds", type=int, default=400,
                           help="ping-pong rounds around the migration")
    obs_watch.add_argument("--payload-kib", type=int, default=256,
                           help="state ballast carried by the migrating "
                                "rank")
    obs_watch.add_argument("--interval", type=float, default=0.1,
                           help="worker live-flush period in seconds "
                                "(default: %(default)s)")
    obs_watch.add_argument("--out", metavar="PATH", default=None,
                           help="also write the final JSONL artifact here")

    d = sub.add_parser(
        "directory",
        help="out-of-process directory shard daemons: run a migration "
             "workload against real shard processes, optionally crashing "
             "one mid-run and churning the membership")
    d.add_argument("--nodes", type=int, default=4,
                   help="shard daemon count (default: %(default)s)")
    d.add_argument("--replication", type=int, default=2,
                   help="owners per record (default: %(default)s)")
    d.add_argument("--rounds", type=int, default=40,
                   help="ping-pong rounds around the migration")
    d.add_argument("--kill", type=int, metavar="NODE", default=None,
                   help="SIGKILL this shard daemon right before the "
                        "migration and restart it afterwards (crash-stop "
                        "demo: lookups fail over, nothing is lost)")
    d.add_argument("--churn", action="store_true",
                   help="after the workload, join one shard and remove it "
                        "again, printing the verified record handoff")

    rec = sub.add_parser(
        "recover",
        help="crash-recovery demo: run a supervised relay, SIGKILL a "
             "worker rank (and optionally a directory shard) mid-run, and "
             "print the supervisor's recovery report once the run "
             "completes with every message delivered exactly once")
    rec.add_argument("--count", type=int, default=60,
                     help="messages through the relay (default: %(default)s)")
    rec.add_argument("--checkpoint-every", type=int, default=2,
                     help="checkpoint every Nth poll (default: %(default)s)")
    rec.add_argument("--rank", type=int, default=1,
                     help="which rank to SIGKILL (default: %(default)s, "
                          "the middle of the 3-rank relay)")
    rec.add_argument("--kill-shard", action="store_true",
                     help="also SIGKILL a directory shard daemon; its "
                          "supervised restart replays the shard's WAL")
    rec.add_argument("--dir", metavar="PATH", default=None,
                     help="durable root for checkpoints and shard WALs "
                          "(default: a per-run temp directory)")
    return p


def _cmd_mg(args: argparse.Namespace) -> int:
    from repro.analysis import (
        events_from_trace,
        render_spacetime,
        save_obs_spacetime_svg,
    )
    from repro.experiments import run_mg_heterogeneous, run_mg_homogeneous

    if args.hetero:
        res = run_mg_heterogeneous(n=args.n)
        b = res.breakdown
        print("heterogeneous migration breakdown (cf. Table 2):")
        print(b.table())
        print(f"captured+forwarded in-transit messages: "
              f"{b.captured_messages}")
    else:
        runs = {m: run_mg_homogeneous(mode=m, n=args.n)
                for m in ("original", "modified", "migration")}
        print("kernel MG timing in seconds (cf. Table 1):")
        print(format_table(
            ("Total", "original", "modified", "migration"),
            [("Execution",) + tuple(f"{runs[m].execution:.3f}"
                                    for m in runs),
             ("Communication",) + tuple(f"{runs[m].communication:.3f}"
                                        for m in runs)]))
        res = runs["migration"]
        print(f"migration: {res.breakdown}")
    if args.spacetime or args.svg:
        # both diagrams draw the lifted records of the migration window
        # padded by twice its length on either side
        events = events_from_trace(res.vm.trace)
        b = res.breakdown
        pad = 2.0 * (b.t_commit - b.t_start)
        t0, t1 = max(0.0, b.t_start - pad), b.t_commit + pad
    if args.spacetime:
        actors = [f"p{i}" for i in range(res.nranks)] + ["p0.m1"]
        print()
        print(render_spacetime(events, actors=actors, t0=t0, t1=t1,
                               width=100))
    if args.save_trace:
        from repro.analysis import save_trace
        n = save_trace(res.vm.trace, args.save_trace)
        print(f"saved {n} trace events to {args.save_trace}")
    if args.svg:
        save_obs_spacetime_svg([r for r in events if t0 <= r["ts"] <= t1],
                               args.svg, title="sim space-time")
        print(f"wrote space-time diagram to {args.svg}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.baselines import (
        run_broadcast_migration,
        run_cocheck_migration,
        run_forwarding_migration,
        run_snow_migration,
    )
    kw = dict(nprocs=args.nprocs, iterations=args.iterations)
    metrics = [run_snow_migration(**kw), run_cocheck_migration(**kw),
               run_broadcast_migration(**kw),
               run_forwarding_migration(**kw)]
    print(format_table(
        ("mechanism", "N", "ctl msgs", "coordinated", "blocked(s)",
         "residual", "forwarded"),
        [m.row() for m in metrics]))
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    from repro.apps.mg import make_mg_program, num_levels_dist
    from repro.core import Application, LoadBalancer
    from repro.vm import VirtualMachine

    def run(balanced):
        vm = VirtualMachine()
        vm.add_host("slow", cpu_speed=0.1)
        for i in range(1, 4):
            vm.add_host(f"u{i}")
        vm.add_host("sched")
        vm.add_host("idle-fast")
        prog = make_mg_program(args.n, iterations=8,
                               levels=num_levels_dist(args.n, args.n // 4))
        app = Application(vm, prog,
                          placement=["slow", "u1", "u2", "u3"],
                          scheduler_host="sched")
        app.start()
        bal = LoadBalancer(app, interval=0.4, cooldown=2.0,
                           threshold=0.6).attach() if balanced else None
        app.run()
        t = vm.kernel.now
        vm.shutdown()
        return t, bal

    t0, _ = run(False)
    t1, bal = run(True)
    print(f"unbalanced: {t0:.2f}s   balanced: {t1:.2f}s   "
          f"speedup {t0 / t1:.2f}x")
    for d in bal.decisions:
        print(f"  t={d.time:.2f}s moved rank {d.rank} -> {d.dest_host}")
    return 0


def _cmd_theorems(_: argparse.Namespace) -> int:
    from repro import Application, VirtualMachine

    vm = VirtualMachine()
    for h in ("h0", "h1", "h2", "h3"):
        vm.add_host(h)
    got = []

    def program(api, state):
        count = 40
        if api.rank == 0:
            i = state.get("i", 0)
            while i < count:
                api.send(1, i)
                i += 1
                state["i"] = i
                api.compute(0.002)
                api.poll_migration(state)
        else:
            i = state.get("i", 0)
            while i < count:
                got.append(api.recv(src=0).body)
                i += 1
                state["i"] = i
                api.compute(0.003)
                api.poll_migration(state)

    app = Application(vm, program, placement=["h0", "h1"],
                      scheduler_host="h2")
    app.start()
    app.migrate_at(0.03, rank=1, dest_host="h3")
    app.run()
    ok = got == list(range(40)) and not vm.dropped_messages()
    print(f"receiver migrated mid-stream: "
          f"{len(got)}/40 messages, in order: {got == sorted(got)}, "
          f"dropped: {len(vm.dropped_messages())}")
    print("PASS" if ok else "FAIL")
    vm.shutdown()
    return 0 if ok else 1


def _obs_demo_program(api, state):
    """Ping-pong with state ballast: exercises drain, chunked transfer
    and restore so the artifact has every migration phase in it."""
    rounds = state["rounds"]
    if "ballast" not in state:
        state["ballast"] = b"\xa5" * state.pop("ballast_nbytes")
    i = state.get("i", 0)
    while i < rounds:
        if api.rank == 0:
            api.send(1, ("ping", i), tag=i)
            api.recv(src=1, tag=i)
        else:
            api.recv(src=0, tag=i)
            api.send(0, ("pong", i), tag=i)
        i += 1
        state["i"] = i
        api.compute(0.002)
        api.poll_migration(state)
    return {"rounds": i, "incarnation": api.incarnation}


def _load_obs_artifact(args: argparse.Namespace) -> list[dict]:
    from repro.analysis import load_obs_events

    if getattr(args, "from_trace", False):
        from repro.analysis import events_from_trace, load_trace
        return events_from_trace(load_trace(args.artifact))
    return load_obs_events(args.artifact)


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    import threading
    import time

    from repro.analysis import load_obs_events, render_obs_report
    from repro.obs import ObsConfig
    from repro.runtime import MPCluster

    cluster = MPCluster(
        _obs_demo_program, nranks=2,
        init_states=[{"rounds": args.rounds,
                      "ballast_nbytes": args.payload_kib * 1024}
                     for _ in range(2)],
        obs=ObsConfig(flush_seconds=args.interval))
    done = threading.Event()
    box: dict = {}

    def _join() -> None:
        try:
            box["results"] = cluster.join(timeout=300)
        finally:
            done.set()

    try:
        cluster.start()
        threading.Thread(target=_join, daemon=True).start()
        t0 = time.time()
        migrated = False
        ticks = 0
        while not done.wait(args.interval):
            now = time.time() - t0
            if not migrated and now > 4 * args.interval:
                cluster.migrate(1)
                migrated = True
                print(f"[{now:7.3f}s] migrate(1) signalled")
            view = cluster.obs_live()
            if not view:
                continue
            ticks += 1
            parts = []
            for actor, info in view.items():
                g = info["gauges"]
                parts.append(
                    f"{actor}: q={g.get('mp.queue_depth', 0)} "
                    f"out={g.get('mp.outbox_len', 0)} "
                    f"links={g.get('mp.live_links', 0)} "
                    f"chunkB={g.get('mp.chunk_bytes', 0)}")
            print(f"[{now:7.3f}s] " + "  |  ".join(parts))
        results = box.get("results")
        if args.out:
            count = cluster.write_obs_jsonl(args.out)
            print(f"\nwrote {count} events to {args.out}")
            print()
            print(render_obs_report(load_obs_events(args.out)))
    finally:
        cluster.terminate()
    ok = (results is not None and migrated
          and results[1]["incarnation"] == 1 and ticks > 0)
    print(f"\nlive ticks seen: {ticks}, migration completed: "
          f"{bool(results) and results[1]['incarnation'] == 1}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.analysis import load_obs_events, render_obs_report

    if args.obs_command == "report":
        print(render_obs_report(_load_obs_artifact(args)))
        return 0

    if args.obs_command == "svg":
        from repro.analysis import save_obs_spacetime_svg
        events = _load_obs_artifact(args)
        save_obs_spacetime_svg(events, args.out,
                               align=not args.no_align,
                               width=args.width,
                               title=f"space-time: {args.artifact}")
        print(f"wrote space-time diagram ({len(events)} events) "
              f"to {args.out}")
        return 0

    if args.obs_command == "watch":
        return _cmd_obs_watch(args)

    import time

    from repro.obs import ObsConfig
    from repro.runtime import MPCluster

    cluster = MPCluster(
        _obs_demo_program, nranks=2,
        init_states=[{"rounds": args.rounds,
                      "ballast_nbytes": args.payload_kib * 1024}
                     for _ in range(2)],
        obs=ObsConfig(sample_every=args.sample_every))
    try:
        cluster.start()
        time.sleep(0.2)
        cluster.migrate(1)
        results = cluster.join(timeout=120)
        count = cluster.write_obs_jsonl(args.out)
    finally:
        cluster.terminate()
    assert results[1]["incarnation"] == 1, "migration did not complete"
    print(f"wrote {count} events to {args.out}")
    if not args.no_report:
        print()
        print(render_obs_report(load_obs_events(args.out)))
    return 0


def _cmd_directory(args: argparse.Namespace) -> int:
    import time

    from repro.directory.spec import DirectorySpec
    from repro.runtime import MPCluster
    from repro.util.errors import ProtocolError

    if args.kill is not None and not 0 <= args.kill < args.nodes:
        print(f"--kill {args.kill} is not a shard id (0..{args.nodes - 1})")
        return 2
    try:
        spec = DirectorySpec(backend="sharded", nodes=args.nodes,
                             replication=args.replication)
    except ProtocolError as exc:
        print(exc)
        return 2
    cluster = MPCluster(
        _obs_demo_program, nranks=2,
        init_states=[{"rounds": args.rounds, "ballast_nbytes": 64 * 1024}
                     for _ in range(2)],
        directory=spec, obs=True)
    try:
        cluster.start()
        time.sleep(0.05)
        if args.kill is not None:
            cluster.directory_kill(args.kill)
            print(f"shard {args.kill} SIGKILLed "
                  f"({cluster.directory_live_shards()}/{args.nodes} live)")
        cluster.migrate(1)
        if args.kill is not None:
            time.sleep(0.2)  # let lookups fail over while it is down
            cluster.directory_restart(args.kill)
            print(f"shard {args.kill} restarted and re-seeded "
                  f"({cluster.directory_live_shards()}/{args.nodes} live)")
        if args.churn:
            joined = cluster.directory_join()
            print(f"shard {joined.node_id} joined: {len(joined.moved)} "
                  f"records handed over, verified record-by-record: "
                  f"{joined.complete}")
            left = cluster.directory_leave(joined.node_id)
            print(f"shard {left.node_id} left: {len(left.moved)} records "
                  f"handed back, verified: {left.complete}")
        # poll the live daemons before join() tears the host down
        cluster.registry.daemon_host.flush(timeout=5.0)
        stats = cluster.directory_stats() or {}
        results = cluster.join(timeout=120)
        print()
        print(format_table(
            ("shard", "lookups", "updates", "ignored", "unknown"),
            [(str(i),) + (("dead",) * 4 if s is None else
                          tuple(str(s[k]) for k in
                                ("lookups", "updates",
                                 "updates_ignored", "unknown")))
             for i, s in sorted(stats.items())]))
        snap = {r["name"]: r["value"] for r in cluster.metrics_snapshot()
                if r["name"].startswith("dir.") and not r["labels"]}
        print(f"publishes={snap.get('dir.publishes', 0)} "
              f"acks={snap.get('dir.publish_acks', 0)} "
              f"retransmits={snap.get('dir.publish_retransmits', 0)} "
              f"restarts={snap.get('dir.daemon_restarts', 0)} "
              f"handoff_records={snap.get('dir.handoff_records', 0)}")
    finally:
        cluster.terminate()
    ok = results[1]["incarnation"] == 1
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _recover_relay(api, state):
    """3-rank tagged relay; every rank checkpoints at its poll points."""
    count = state["count"]
    i = state.get("i", 0)
    if api.rank == 0:
        while i < count:
            api.send(1, i, tag=i)
            i += 1
            state["i"] = i
            api.compute(0.002)
            api.poll_migration(state)
        return {"sent": i, "incarnation": api.incarnation}
    if api.rank == 1:
        while i < count:
            api.send(2, api.recv(src=0, tag=i).body, tag=i)
            i += 1
            state["i"] = i
            api.compute(0.002)
            api.poll_migration(state)
        return {"relayed": i, "incarnation": api.incarnation}
    got = state.setdefault("got", [])
    while i < count:
        got.append(api.recv(src=1, tag=i).body)
        i += 1
        state["i"] = i
        api.poll_migration(state)
    return {"got": got, "incarnation": api.incarnation}


def _cmd_recover(args: argparse.Namespace) -> int:
    import os
    import signal
    import time

    from repro.directory.spec import DirectorySpec
    from repro.recovery import RecoverySpec
    from repro.runtime import MPCluster

    if not 0 <= args.rank < 3:
        print(f"--rank {args.rank} is not a relay rank (0..2)")
        return 2
    spec = RecoverySpec(dir=args.dir,
                        checkpoint_every=args.checkpoint_every)
    directory = (DirectorySpec(backend="sharded", nodes=3)
                 if args.kill_shard else None)
    cluster = MPCluster(
        _recover_relay, nranks=3,
        init_states=[{"count": args.count} for _ in range(3)],
        obs=True, directory=directory, recovery=spec)
    try:
        cluster.start()
        store = cluster.checkpoint_store()
        deadline = time.time() + 30
        while time.time() < deadline:
            v = store.latest_complete_version(args.rank)
            if v is not None and v >= 2:
                break
            time.sleep(0.005)
        pid = cluster.kill_rank(args.rank)
        print(f"SIGKILLed rank {args.rank} (pid {pid}) at checkpoint "
              f"version {store.latest_complete_version(args.rank)}")
        if args.kill_shard:
            host = cluster.registry.daemon_host
            shard_pid = host._procs[0].pid
            os.kill(shard_pid, signal.SIGKILL)
            print(f"SIGKILLed directory shard 0 (pid {shard_pid})")
        results = cluster.join(timeout=120)
        rep = cluster.recovery_report()
    finally:
        cluster.terminate()
    ok = (results[2]["got"] == list(range(args.count))
          and results[args.rank]["incarnation"] == 1)
    print(f"delivered exactly once, in order: "
          f"{results[2]['got'] == list(range(args.count))} "
          f"({len(results[2]['got'])}/{args.count} messages)")
    print(f"restarts={rep['restarts']} backoff_ms={rep['backoff_ms']} "
          f"permanent_failures={len(rep['permanent_failures'])}")
    for ev in rep["events"]:
        print(f"  {ev['kind']} {ev['id']}: recovered in "
              f"{ev['seconds'] * 1e3:.1f}ms after {ev['delay'] * 1e3:.0f}ms "
              f"backoff")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return {
        "mg": _cmd_mg,
        "compare": _cmd_compare,
        "balance": _cmd_balance,
        "theorems": _cmd_theorems,
        "obs": _cmd_obs,
        "directory": _cmd_directory,
        "recover": _cmd_recover,
    }[args.command](args)
