"""The benchmark's scenarios. Each runs in a process of its own (so CPU
pinning and leaked threads cannot cross scenarios), drives 2-rank
clusters over loopback TCP from one thread with one operation
outstanding, and returns ``{"metrics", "samples", "raw", "attempted",
"failed", "setup_s", "notes", "spans"}``.

Timed sections follow warm-up and are duration-fixed by the benchmark
(``cfg["seconds"]`` × the scenario's share), never by the code under
test.
"""

from __future__ import annotations

import glob
import logging
import multiprocessing
import os
import resource
import signal
import tempfile
import time
import zlib

import numpy as np

from common import (
    OP_TIMEOUT_S,
    TMP,
    Spans,
    body_pool,
    hi_percentile,
    make_state,
    median,
)
from layers import replay_checkpoints, replay_transfer
from programs import Control, pair_program, stream_program

from repro.analysis.fastpath import measure_gang_migration
from repro.analysis.traffic import traffic_report
from repro.codec import NATIVE, SPARC32
from repro.experiments.mg_runs import run_mg_heterogeneous, run_mg_homogeneous
from repro.obs import ObsConfig
from repro.recovery import RecoverySpec
from repro.recovery.policy import RestartPolicy
from repro.runtime import MPCluster

MIB = 1 << 20
_PHASES = ("freeze", "drain", "transfer", "restore", "commit")


class OpFailed(Exception):
    """An operation did not complete within ``OP_TIMEOUT_S`` (or the
    program refused it); the scenario stops and counts it."""


class Run:
    """What every scenario accumulates."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.name = cfg["scenario"]
        self.quick = cfg["quick"]
        self.trace = cfg["trace"]
        self.seconds = cfg["seconds"]
        self.dest_arch = (SPARC32 if cfg["workload"] == "heterogeneous"
                          else NATIVE)
        self.spans = Spans(self.trace, self.name)
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.raw: dict[str, list] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup_s = 0.0
        self._mark = cfg["t_spawn"]
        self.harnesses: list[Harness] = []

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(
            [self.cfg["seed"], zlib.crc32(self.name.encode())])

    # set-up is every second before a timed section, warm-up included
    def timed_begins(self) -> None:
        self.setup_s += time.time() - self._mark

    def timed_ends(self) -> None:
        self._mark = time.time()

    def put(self, name: str, value: float, n: int) -> None:
        self.metrics[name] = value
        self.samples[name] = n

    def put_median(self, name: str, values: list) -> None:
        """An end-to-end metric: the median over its timed samples, which
        go into ``result.json`` whole."""
        self.put(name, median(values), len(values))
        self.raw[name] = values

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        self.notes.append(f"FAILED: {why}")

    def harness(self, program, init_states: list, **cluster_kw) -> "Harness":
        """A cluster this run owns: ``run_scenario`` tears it down."""
        h = Harness(self, program, init_states, **cluster_kw)
        self.harnesses.append(h)
        return h

    def result(self) -> dict:
        return {"scenario": self.name, "metrics": self.metrics,
                "samples": self.samples, "raw": self.raw,
                "attempted": self.attempted,
                "failed": self.failed, "setup_s": self.setup_s,
                "notes": self.notes, "spans": self.spans.rows}


class Harness:
    """One ``MPCluster`` with its control block, and the closed-loop
    operations the scenarios time on it. Rank 1 is always the mover."""

    def __init__(self, run: Run, program, init_states: list, **cluster_kw):
        self.run = run
        self.spans = run.spans
        self.ctl = Control()
        with self.spans.span("MPCluster()"):
            self.cluster = MPCluster(program(self.ctl), 2,
                                     init_states=init_states,
                                     dest_arch=run.dest_arch, **cluster_kw)
        self.moves = 0  # completed migrations + recoveries of rank 1

    def _await(self, cond, what: str) -> None:
        deadline = time.monotonic() + OP_TIMEOUT_S
        while not cond():
            if time.monotonic() > deadline:
                raise OpFailed(f"{what} within {OP_TIMEOUT_S:.0f} s")
            time.sleep(1e-3)

    def _await_verified(self) -> None:
        with self.spans.span("wait_verified", op=self.moves):
            self._await(lambda: self.ctl.verified.value > self.moves,
                        f"incarnation {self.moves} never checked its payload")

    def start(self) -> "Harness":
        with self.spans.span("start"):
            self.cluster.start()
        self._await_verified()
        return self

    def migrate(self) -> tuple[float, float]:
        """One migration of rank 1: ``(request_to_commit, window)`` —
        the driver's clock from the ``migrate()`` call to the window
        being visible, and the registry's own window."""
        k = len(self.cluster.migration_windows())
        self.run.attempted += 1
        with self.spans.span("migration", op=self.moves):
            t0 = time.perf_counter()
            with self.spans.span("migrate", op=self.moves):
                try:
                    self.cluster.migrate(1)
                except RuntimeError as exc:
                    raise OpFailed(str(exc)) from exc
            with self.spans.span("wait_commit", op=self.moves):
                self._await(
                    lambda: len(self.cluster.migration_windows()) > k,
                    "migration did not commit")
            r2c = time.perf_counter() - t0
        self.moves += 1
        self._await_verified()
        return r2c, self.cluster.migration_windows()[k]["seconds"]

    def crash(self) -> tuple[float, dict]:
        """SIGKILL rank 1 and wait for the supervised replacement:
        ``(outage, supervisor event)``. The outage runs from the kill to
        the registry flipping the rank back to ``running``."""
        before = len(self.cluster.recovery_report()["events"])
        self.run.attempted += 1
        with self.spans.span("recovery", op=self.moves):
            t0 = time.perf_counter()
            with self.spans.span("kill_rank", op=self.moves):
                self.cluster.kill_rank(1)
            with self.spans.span("wait_recovered", op=self.moves):
                self._await(lambda: self.cluster.rank_status(1) != "running",
                            "crash was not detected")
                self._await(lambda: self.cluster.rank_status(1) == "running",
                            "recovery did not commit")
            outage = time.perf_counter() - t0
        self.moves += 1
        self._await_verified()
        self._await(
            lambda: len(self.cluster.recovery_report()["events"]) > before,
            "supervisor never logged the restart")
        return outage, self.cluster.recovery_report()["events"][before]

    def finish(self, within: float = 0.0) -> dict:
        """Let the programs run out (*within* seconds of their own
        schedule, if they have one) and collect their results."""
        self.ctl.stop.value = 1
        with self.spans.span("join"):
            try:
                return self.cluster.join(timeout=within + OP_TIMEOUT_S)
            except (TimeoutError, RuntimeError) as exc:
                for m in self.cluster.members():
                    if m.proc.is_alive():  # stacks of every thread -> stderr
                        os.kill(m.proc.pid, signal.SIGUSR1)
                time.sleep(0.5)
                status = [self.cluster.rank_status(r) for r in (0, 1)]
                raise OpFailed(
                    f"join: {exc} (rank status {status}, rank 1 moved "
                    f"{self.moves}x, checked {self.ctl.delivered.value} "
                    f"messages)") from exc

    def phase_medians(self, skip: int) -> dict[str, tuple[float, int]]:
        """Median seconds per migration phase from the spans the program
        itself emits (obs on), skipping the first *skip* migrations;
        ``restore_tail`` is restore-span end − transfer-span end."""
        traces = [evs for tid, evs in self.cluster.obs_traces().items()
                  if tid.startswith("mig-")]
        traces.sort(key=lambda evs: evs[0]["ts"])
        cols: dict[str, list[float]] = {}
        for evs in traces[skip:]:
            end = {e["phase"]: e for e in evs if e["kind"] == "span_end"
                   and e.get("phase") in _PHASES}
            for phase, e in end.items():
                cols.setdefault(phase, []).append(e["seconds"])
            if "restore" in end and "transfer" in end:
                cols.setdefault("restore_tail", []).append(
                    end["restore"]["ts"] - end["transfer"]["ts"])
        return {k: (median(v), len(v)) for k, v in cols.items()}

    def transfer_fields(self) -> list[dict]:
        """The closing record of every ``transfer`` span (obs on) — the
        adaptive controller's summary rides on it."""
        out = [e for e in self.cluster.obs_events()
               if e["kind"] == "span_end" and e.get("phase") == "transfer"]
        return sorted(out, key=lambda e: e["ts"])


def _hygiene(run: Run) -> None:
    """No child process and no recovery temp dir may outlive a scenario."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    left = multiprocessing.active_children()
    for p in left:
        p.kill()
        p.join()
    if left:
        run.fail(f"{len(left)} child process(es) left behind")
    dirs = glob.glob(os.path.join(tempfile.gettempdir(), "repro-recovery-*"))
    if dirs:
        run.fail(f"recovery temp dir(s) left behind: {dirs}")


def _timed_loop(seconds: float, min_ops: int, op) -> None:
    """Call *op* for *seconds* (and at least *min_ops* times) — the
    benchmark fixes the duration, never the code under test."""
    deadline = time.monotonic() + seconds
    done = 0
    while done < min_ops or time.monotonic() < deadline:
        op()
        done += 1


def _pin_to_one_cpu(run: Run) -> None:
    """Pin this process (and everything it forks from now on) to one CPU:
    the one that spins fastest right now. Which vCPU of this guest is
    being slowed by its host neighbour changes by the minute; a fixed
    choice would be a coin toss per run."""
    cpus = sorted(os.sched_getaffinity(0))[:8]
    spins = dict.fromkeys(cpus, 0)
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            until = time.perf_counter() + 0.03
            while time.perf_counter() < until:
                spins[cpu] += 1
    cpu = max(cpus, key=spins.get)
    os.sched_setaffinity(0, {cpu})
    run.notes.append(f"pinned to cpu {cpu} (spin counts {spins})")


# ---------------------------------------------------------------------------
# mig_large / mig_small / adaptive
# ---------------------------------------------------------------------------

def _mig(run: Run, nbytes: int, warm: int, min_ops: int) -> None:
    """Back-to-back migrations of a *nbytes* rank in one cluster. A
    traced run adds a second, obs-on cluster and alternates blocks of
    five between the two, so drift hits both arms alike."""
    block = 5
    if run.quick:
        nbytes, warm, min_ops, block = min(nbytes, 4 * MIB), 1, 2, 1
    state = make_state(run.rng(), nbytes)
    arms = {"off": None, "on": ObsConfig()} if run.trace else {"off": None}
    hs = {}
    for arm, obs in arms.items():
        hs[arm] = run.harness(pair_program, [{}, state], obs=obs).start()
        for _ in range(warm):
            hs[arm].migrate()
    win: dict[str, list] = {arm: [] for arm in arms}
    r2c: dict[str, list] = {arm: [] for arm in arms}

    def one_block():
        for arm, h in hs.items():
            for _ in range(block):
                request_to_commit, window = h.migrate()
                r2c[arm].append(request_to_commit)
                win[arm].append(window)

    run.timed_begins()
    _timed_loop(run.seconds, -(-min_ops // block), one_block)
    run.timed_ends()
    for h in hs.values():
        res = h.finish()
        run.attempted += res[0]["rounds"]
        if res[1]["incarnation"] != h.moves:
            run.fail("rank 1 finished in the wrong incarnation")
    n = len(win["off"])
    if not run.trace:
        run.put_median(f"{run.name}.window_s", win["off"])
        run.put_median(f"{run.name}.request_to_commit_s", r2c["off"])
        return
    pre = f"{run.name}.mp."
    run.metrics[f"_{run.name}.window_off_s"] = median(win["off"])
    run.put(pre + "window_s", median(win["on"]), len(win["on"]))
    run.put(pre + "spawn_s",
            median([a - b for a, b in zip(r2c["off"], win["off"])]), n)
    hi, pct = hi_percentile(win["off"])
    run.put(pre + "window_hi_s", hi, n)
    run.notes.append(f"{pre}window_hi_s is p{pct} of {n}")
    for phase, (value, count) in hs["on"].phase_medians(warm).items():
        if phase != "restore":  # opens when the destination starts waiting
            run.put(f"{pre}{phase}_s", value, count)
    # every worker has exited and been joined by now
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run.put(pre + "child_peak_rss_mb", rss_kib / 1024, 1)
    if run.name == "mig_large":
        ratio = median(win["on"]) / median(win["off"])
        # the noise floor of that ratio: the untraced arm against itself,
        # even blocks against odd ones
        blocks = [win["off"][i:i + block] for i in range(0, n, block)]
        even = [w for b in blocks[0::2] for w in b]
        odd = [w for b in blocks[1::2] for w in b] or even
        floor = abs(median(even) / median(odd) - 1)
        verdict = ("no difference" if abs(ratio - 1) <= floor
                   else f"{ratio - 1:+.1%}")
        run.put("obs.overhead_ratio", ratio, n)
        run.notes.append(f"obs.overhead_ratio {ratio:.3f}: {verdict} "
                         f"(untraced A/A floor ±{floor:.1%})")


def mig_large(run: Run) -> None:
    # 16 warm-ups: every migration touches ~4x the state in fresh pages,
    # and windows keep shrinking (0.26 s -> 0.20 s) until the guest is
    # recycling pages the host has already backed
    _mig(run, 64 * MIB, warm=16, min_ops=10)


def mig_small(run: Run) -> None:
    _mig(run, 64 << 10, warm=5, min_ops=20)


def adaptive(run: Run) -> None:
    """Traced set only: ten ``mig_large`` migrations with AIMD chunk
    sizing, read from the controller summary on the transfer span."""
    nbytes, count = (4 * MIB, 2) if run.quick else (64 * MIB, 10)
    state = make_state(run.rng(), nbytes)
    h = run.harness(pair_program, [{}, state], obs=ObsConfig(),
                    chunk_bytes="adaptive").start()
    h.migrate()
    run.timed_begins()
    windows = [h.migrate()[1] for _ in range(count)]
    run.timed_ends()
    run.attempted += h.finish()[0]["rounds"]
    fields = h.transfer_fields()[1:]
    run.put("adaptive.window_s", median(windows), count)
    run.put("adaptive.chunk_bytes_last",
            median([f["chunk_bytes_last"] for f in fields]), len(fields))
    run.put("adaptive.backoffs",
            median([f["chunk_backoffs"] for f in fields]), len(fields))


# ---------------------------------------------------------------------------
# the stream scenarios
# ---------------------------------------------------------------------------

def _phase(name: str, seconds, pool: str, ack_every: int, polled: bool,
           warm: float = 0.0, pace: float = 0.0, measure=None,
           ckpt_every: int = 0, ack: str = "inband") -> dict:
    """One row of ``stream_program``'s phase table (documented there)."""
    return {"name": name, "seconds": seconds, "warm": warm, "pool": pool,
            "ack_every": ack_every, "polled": polled, "pace": pace,
            "measure": measure, "ckpt_every": ckpt_every, "ack": ack}


def _stream_finish(run: Run, h: Harness, within: float = 0.0) -> dict:
    """Stop a stream cluster and check what only its end shows: nothing
    lost, and rank 1 ended in the incarnation the driver counted."""
    res = h.finish(within)
    if res[0]["sent"] != res[1]["received"]:
        run.fail("messages sent != messages received")
    if res[1]["incarnation"] != h.moves:
        run.fail("rank 1 finished in the wrong incarnation")
    run.attempted += res[0]["sent"]
    return res


#: the link layer used four ways: body pool, ack_every, polled, and the
#: metric an acknowledged-window time becomes. `stream` acks every 256
#: because FrameBatcher bounds staged bytes, not iovecs: > 512 staged
#: small frames overflow sendmsg
_USES = {
    "stream": ("small", 256, False,
               "msg_steady.stream_msgs_per_s", lambda w: 256 / w),
    "polled": ("small", 256, True,
               "msg_steady.polled_msgs_per_s", lambda w: 256 / w),
    "bulk": ("big", 8, False,
             "msg_steady.bulk_mb_s", lambda w: 8 * MIB / w / 1e6),
    "pingpong": ("small", 1, False,
                 "msg_steady.pingpong_rtt_us", lambda w: w * 1e6),
}


def msg_steady(run: Run) -> None:
    """No migration, in a cluster forked after this process pinned itself
    to one CPU (unpinned, every phase depends on which cores the three
    busy threads land on: a bimodal round trip, stream anywhere in
    60-122 k msg/s). Untraced runs measure `polled` — the paper's
    migration-enabled form, and the one use of the link that a timer
    rather than the CPU bounds; traced runs measure the other three.

    Phases take turns in short slices, eight rounds of them. A slice's
    value is the median over its acknowledged windows; a metric is its
    **best slice**. This guest's vCPUs run at two speeds, ~0.6x for
    seconds at a time, so the CPU-bound slices are bimodal (stream ~75 k
    or ~125 k msg/s): their median lands in either mode, their best is
    the undisturbed machine whenever the run met it at all."""
    _pin_to_one_cpu(run)
    rng = run.rng()
    pools = {"small": body_pool(rng, 64, 16), "big": body_pool(rng, MIB, 4)}
    names = ["stream", "bulk", "pingpong"] if run.trace else ["polled"]
    rounds = 1 if run.quick else 8
    each = run.seconds / len(names) / rounds
    table = [_phase(name, each, *_USES[name][:3],
                    warm=0.02 if r or run.quick else 0.3)
             for r in range(rounds) for name in names]
    lead_in = sum(ph["warm"] for ph in table)
    init = {"pools": pools, "phases": table}
    h = run.harness(stream_program, [init, dict(init)]).start()
    run.timed_begins()
    with run.spans.span("phases"):
        res = _stream_finish(run, h, within=run.seconds + lead_in)
    run.timed_ends()
    run.setup_s += lead_in  # the lead-ins are set-up, not measurement
    for name in names:
        slices = [ph for ph in res[0]["phases"] if ph["name"] == name]
        metric, of_window = _USES[name][3:]
        run.put(metric,
                of_window(min(ph["median_window_s"] for ph in slices)),
                sum(ph["windows"] for ph in slices))
        if name == "pingpong":
            run.notes.append("pingpong tail: best slice p%d = %.1f us" % (
                slices[0]["hi_pct"],
                min(ph["hi_window_s"] for ph in slices) * 1e6))


def msg_under_mig(run: Run) -> None:
    """The polled one-way stream while its receiver (4 MiB) migrates
    again and again, with seeded think time after each commit."""
    rng = run.rng()
    nbytes, warm, min_ops = (MIB, 1, 2) if run.quick else (4 * MIB, 2, 8)
    carrier = make_state(rng, nbytes)
    table = [_phase("under_mig", None, "small", 256, True, measure="gap",
                    ack="shared")]
    shared = {"pools": {"small": body_pool(rng, 64, 16)}, "phases": table}
    h = run.harness(stream_program, [dict(shared), {**carrier, **shared}],
                    obs=ObsConfig() if run.trace else None).start()

    def think():
        time.sleep(0.15 + 0.02 * rng.random())

    think()
    for _ in range(warm):
        h.migrate()
        think()
    windows: list[float] = []

    def op():
        windows.append(h.migrate()[1])
        think()

    run.timed_begins()
    _timed_loop(run.seconds, min_ops, op)
    run.timed_ends()
    _stream_finish(run, h)
    gaps = h.ctl.samples()[warm:]
    if len(gaps) != len(windows):
        run.fail(f"{len(windows)} migrations but {len(gaps)} delivery gaps")
    elif not run.trace:
        run.put_median("msg_under_mig.window_s", windows)
        run.put_median("msg_under_mig.delivery_gap_s", gaps)
    else:
        for phase, (value, count) in h.phase_medians(warm).items():
            if phase in ("freeze", "drain", "transfer", "commit"):
                run.put(f"msg_under_mig.mp.{phase}_s", value, count)


def crash_recover(run: Run) -> None:
    """SIGKILL the 8 MiB receiver of a paced polled stream again and
    again; the supervisor restores it from its newest checkpoint. A
    traced run ends with a crash-free tail (a quarter of its seconds)
    and reports how long rank 1's checkpointing poll points took."""
    rng = run.rng()
    every = 8
    nbytes, warm, min_ops = (MIB, 1, 2) if run.quick else (8 * MIB, 3, 8)
    carrier = make_state(rng, nbytes)
    table = [_phase("crash", None, "small", 64, True, pace=4e-3,
                    measure="ckpt", ckpt_every=every, ack="shared")]
    shared = {"pools": {"small": body_pool(rng, 64, 16)}, "phases": table}
    spec = RecoverySpec(checkpoint_every=every, policy=RestartPolicy(
        base_delay=0.01, factor=1.0, max_restarts=10**6))
    h = run.harness(stream_program, [dict(shared), {**carrier, **shared}],
                    recovery=spec,
                    obs=ObsConfig() if run.trace else None).start()

    def think():
        time.sleep(0.05 + 0.03 * rng.random())

    think()
    for _ in range(warm):
        h.crash()
        think()
    outages: list[float] = []
    events: list[dict] = []

    def op():
        outage, event = h.crash()
        outages.append(outage)
        events.append(event)
        think()

    run.timed_begins()
    skip = len(h.ctl.samples())
    tail = run.seconds / 4 if run.trace else 0.0
    _timed_loop(run.seconds - tail, min_ops, op)
    time.sleep(tail)
    run.timed_ends()
    _stream_finish(run, h)
    report = h.cluster.recovery_report()
    if report["permanent_failures"]:
        run.fail(f"permanent failures: {report['permanent_failures']}")
    if not run.trace:
        run.put_median("crash_recover.outage_s", outages)
        return
    ckpts = h.ctl.samples()[skip:]
    run.put("crash_recover.ckpt_s", median(ckpts), len(ckpts))
    run.put("recovery.recover_s", median([e["seconds"] for e in events]),
            len(events))
    run.put("recovery.detect_s",
            median([o - e["seconds"] - e["delay"]
                    for o, e in zip(outages, events)]), len(events))


# ---------------------------------------------------------------------------
# sim_protocol
# ---------------------------------------------------------------------------

def sim_protocol(run: Run) -> None:
    """Traced set only. The simulator as a program (host seconds of one
    MG run plus one gang migration, pinned to one CPU: the kernel runs
    one thread at a time and its host time triples when those threads
    hop cores; the fastest repeat, for the reason `msg_steady` takes its
    best slice) and the modelled protocol (virtual time — exact, so
    every repeat must agree to the last bit)."""
    _pin_to_one_cpu(run)
    hetero = run.cfg["workload"] == "heterogeneous"
    n, gang_bytes, rounds = (16, 64 << 10, 300) if run.quick \
        else (64, MIB, 400)
    seed = run.cfg["seed"]
    host: list[float] = []
    exact: list[tuple] = []
    last: dict = {}

    def repeat():
        run.attempted += 2
        with run.spans.span("sim.repeat", op=len(exact)):
            t0 = time.perf_counter()
            with run.spans.span("run_mg", op=len(exact)):
                res = (run_mg_heterogeneous(n=n, seed=seed) if hetero else
                       run_mg_homogeneous(mode="migration", n=n, seed=seed))
            t_mg = time.perf_counter() - t0
            with run.spans.span("measure_gang_migration", op=len(exact)):
                # asserts the per-rank digest pairs itself
                gang = measure_gang_migration(gang_bytes, k=4, rounds=rounds)
            host.append(time.perf_counter() - t0)
        if res.vm.dropped_messages():
            run.fail("MG run dropped messages")
        b = res.breakdown
        events = len(res.vm.trace.events)
        frames = traffic_report(res.vm.trace, include_local=True).total_frames
        exact.append((b.wall, gang["gang_span"], b.coordinate, b.collect,
                      b.tx, b.restore, events, frames - res.total_messages))
        last.update(mg_s=t_mg, events=events)
        res.vm.shutdown()

    try:
        repeat()  # warm-up: imports, allocator, thread start-up
        host.clear()
        run.timed_begins()
        _timed_loop(run.seconds, 1 if run.quick else 2, repeat)
        run.timed_ends()
    except AssertionError as exc:
        run.fail(f"simulator check: {exc}")
        return
    if len(set(exact)) != 1:
        run.fail("virtual-time results differ between repeats of one seed")
    run.put("sim.host_s", min(host), len(host))
    names = ("sim.virtual_window_s", "sim.virtual_gang_span_s",
             "core.virtual_coordinate_s", "core.virtual_collect_s",
             "core.virtual_tx_s", "core.virtual_restore_s", "sim.events",
             "sim.ctl_msgs")
    for metric, value in zip(names, exact[0]):
        run.put(metric, value, len(exact))
    run.put("sim.host_us_per_event", last["mg_s"] / last["events"] * 1e6, 1)


# ---------------------------------------------------------------------------
# layer replay (traced set only)
# ---------------------------------------------------------------------------

def layer_replay(run: Run) -> None:
    reps = 1 if run.quick else 5
    big, small = (4 * MIB, MIB) if run.quick else (64 * MIB, 8 * MIB)
    run.timed_begins()
    # the generator mig_large seeds its state from: the same state
    rng = np.random.default_rng([run.cfg["seed"], zlib.crc32(b"mig_large")])
    for part in (replay_transfer(run.spans, rng, big, reps, run.dest_arch),
                 replay_checkpoints(run.spans, run.rng(), small, reps)):
        if not part.pop("_ok"):
            run.fail("layer replay output differs from its input")
        for metric, value in part.items():
            run.put(metric, value, reps)
    run.timed_ends()
    run.attempted += 2


SCENARIOS = {f.__name__: f for f in (
    mig_large, mig_small, msg_steady, msg_under_mig, crash_recover,
    sim_protocol, layer_replay, adaptive)}


def run_scenario(cfg: dict) -> dict:
    # every kill in crash_recover is deliberate; keep stderr for surprises
    logging.getLogger("repro").setLevel(logging.ERROR)
    os.makedirs(TMP, exist_ok=True)
    tempfile.tempdir = str(TMP)
    run = Run(cfg)
    try:
        SCENARIOS[cfg["scenario"]](run)
    except OpFailed as exc:
        run.fail(str(exc))
    finally:
        for h in run.harnesses:
            n = h.ctl.violations
            if n:
                run.fail(f"{n} digest/sequence violation(s)", n)
            h.cluster.terminate()
        _hygiene(run)
    return run.result()
