"""The rank programs the benchmark runs inside ``MPCluster`` workers, and
the fork-shared control block that lets one driver thread steer them.

Every process of a cluster — original ranks, migration destinations,
recovery replacements — is forked from the scenario process, so a
:class:`Control` made before ``MPCluster.start()`` is visible to all of
them. Programs receive their inputs (state arrays, body pools, phase
table) through ``init_states`` only.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import signal
import time

from common import hi_percentile, median, state_digest

_DATA, _ACK = 0, 1
#: the pair's think time: poll points at most ~1 ms apart while an idle
#: cluster costs next to no CPU
_PAIR_THINK_S = 1e-3


class Control:
    """Flags and a sample buffer shared by the driver and the programs.

    Lock-free on purpose: a rank that is SIGKILLed while holding a
    cross-process lock leaves it locked for every later incarnation.
    Every cell has one writer at a time instead — the driver (``stop``),
    the current incarnation of rank 1 (``verified``, ``delivered``, the
    samples), or one rank each (``violations``).
    """

    def __init__(self, max_samples: int = 1 << 14):
        ctx = multiprocessing.get_context("fork")
        #: the driver's "finish up": read by rank 0 at its loop boundary
        self.stop = ctx.Value("i", 0, lock=False)
        #: 1 + the newest incarnation of rank 1 that checked its payload
        self.verified = ctx.Value("i", 0, lock=False)
        #: per rank: digest mismatches, lost/duplicated/reordered messages
        self._violations = ctx.Array("i", 2, lock=False)
        #: messages rank 1 has checked so far: the acknowledgement channel
        #: of phases in which rank 1 moves (see ``stream_program``)
        self.delivered = ctx.Value("q", 0, lock=False)
        self._samples = ctx.Array("d", max_samples, lock=False)
        self._nsamples = ctx.Value("i", 0, lock=False)

    def violation(self, rank: int) -> None:
        self._violations[rank] += 1

    @property
    def violations(self) -> int:
        return sum(self._violations)

    def add_sample(self, value: float) -> None:
        """Rank 1 only."""
        i = self._nsamples.value
        if i < len(self._samples):
            self._samples[i] = value
            self._nsamples.value = i + 1

    def samples(self) -> list[float]:
        return list(self._samples[:self._nsamples.value])

    def check_payload(self, api, state: dict) -> None:
        """Rank 1, at every (re)start of the program: the payload that
        arrived must be the payload that was generated (ranks that carry
        no payload only report in)."""
        if "digest" in state and state_digest(state) != state["digest"]:
            self.violation(api.rank)
        self.verified.value = max(self.verified.value, api.incarnation + 1)


def _answer_where_stuck() -> None:
    """Every rank, first thing: a driver that gives up on a cluster sends
    SIGUSR1 to ask where each of its threads is blocked."""
    faulthandler.register(signal.SIGUSR1, all_threads=True)


def pair_program(ctl: Control):
    """Ping-pong pair; rank 1 carries the state and is the one migrated.

    The pair exchanges a round every millisecond for as long as the
    driver needs it, so there is always a live connection to coordinate
    and a poll point close by. Rounds are numbered: a lost, duplicated or
    reordered ping is a violation.
    """

    def program(api, state):
        _answer_where_stuck()
        if api.rank == 1:
            ctl.check_payload(api, state)
        i = state.get("i", 0)
        while True:
            if api.rank == 0:
                stop = ctl.stop.value
                api.send(1, (i, stop), tag=_DATA)
                if api.recv(src=1, tag=_ACK).body != i:
                    ctl.violation(api.rank)
            else:
                got, stop = api.recv(src=0, tag=_DATA).body
                if got != i:
                    ctl.violation(api.rank)
                api.send(0, i, tag=_ACK)
            i += 1
            state["i"] = i
            if stop:
                return {"rounds": i, "incarnation": api.incarnation}
            api.compute(_PAIR_THINK_S)
            api.poll_migration(state)

    return program


def stream_program(ctl: Control):
    """One-way sequence-numbered stream 0 → 1, run as a table of phases.

    ``state["phases"]`` is a list of dicts::

        name       label for the result
        seconds    timed length, or None: until the driver sets ``stop``
        warm       untimed lead-in seconds
        pool       key of the body pool in ``state["pools"]``
        ack_every  the receiver acknowledges every this many messages;
                   the sender waits for it (1 = strict ping-pong)
        ack        "inband": the acknowledgement is a message 1 → 0.
                   "shared": it is a counter in the control block, and
                   the sender polls while it waits. Phases in which rank
                   1 moves use this: a freshly restored rank that must
                   *send* first dials its peer while the peer dials it,
                   and the runtime's two links then race (README,
                   finding f) — a receiver that never sends cannot
                   trigger that
        polled     ``poll_migration`` after every message, both sides —
                   the paper's migration-enabled form
        pace       sender think time per message (seconds)
        measure    None | "gap" | "ckpt": what rank 1 samples
        ckpt_every the runtime checkpoints on every this-many-th poll
                   point of a process (``measure="ckpt"`` times those)

    Rank 0 returns, per phase, the acknowledged-window timings. Rank 1
    checks every message's sequence number and body, and — when asked —
    samples the delivery gap across each change of incarnation
    (``gap``) or the duration of its checkpointing poll points
    (``ckpt``) into the control block.
    """

    def sender(api, state):
        pools = state["pools"]
        out = []
        seq = 0
        for index, ph in enumerate(state["phases"]):
            pool, ack_every = pools[ph["pool"]], ph["ack_every"]
            polled, pace = ph["polled"], ph["pace"]
            api.send(1, ("phase", index), tag=_DATA)
            windows: list[float] = []
            t_timed = time.perf_counter() + ph["warm"]
            t_end = None if ph["seconds"] is None else t_timed + ph["seconds"]
            while True:
                t0 = time.perf_counter()
                for _ in range(ack_every):
                    api.send(1, (seq, pool[seq % len(pool)]), tag=_DATA)
                    seq += 1
                    if polled:
                        api.poll_migration(state)
                    if pace:
                        api.compute(pace)
                if ph["ack"] == "shared":
                    while ctl.delivered.value < seq:
                        api.poll_migration(state)
                        api.compute(max(pace, 1e-3))
                elif api.recv(src=1, tag=_ACK).body != seq:
                    ctl.violation(api.rank)
                t1 = time.perf_counter()
                if t0 >= t_timed:
                    windows.append(t1 - t0)
                done = ctl.stop.value if t_end is None else t1 >= t_end
                if done:
                    break
            hi, pct = hi_percentile(windows) if windows else (0.0, 0)
            out.append({"name": ph["name"], "windows": len(windows),
                        "median_window_s": median(windows) if windows else 0.0,
                        "hi_window_s": hi, "hi_pct": pct})
        api.send(1, ("end", None), tag=_DATA)
        return {"phases": out, "sent": seq}

    def receiver(api, state):
        ctl.check_payload(api, state)
        pools = state["pools"]
        fresh = state.get("incarnation", 0) != api.incarnation
        state["incarnation"] = api.incarnation
        polls = 0  # poll points of *this* process: the runtime's
        #            checkpoint cadence restarts with every incarnation
        nxt = state.get("next", 0)
        ph = state["phases"][state["phase"]] if "phase" in state else None
        while True:
            body = api.recv(src=0, tag=_DATA).body
            if body[0] == "phase":
                state["phase"] = body[1]
                state["phase_base"] = nxt
                ph = state["phases"][body[1]]
                continue
            if body[0] == "end":
                return {"received": nxt, "incarnation": api.incarnation}
            seq, payload = body
            pool = pools[ph["pool"]]
            if seq != nxt or payload != pool[seq % len(pool)]:
                ctl.violation(api.rank)
            nxt = seq + 1
            state["next"] = nxt
            measure = ph["measure"]
            if measure == "gap":
                now = time.time()
                if fresh and "last_t" in state:
                    ctl.add_sample(now - state["last_t"])
                fresh = False
                state["last_t"] = now
            if (nxt - state["phase_base"]) % ph["ack_every"] == 0:
                if ph["ack"] == "shared":
                    # a restored rank re-delivers what it had not yet
                    # checkpointed; the counter never goes back
                    ctl.delivered.value = max(ctl.delivered.value, nxt)
                else:
                    api.send(0, nxt, tag=_ACK)
            if ph["polled"]:
                polls += 1
                t0 = time.perf_counter()
                api.poll_migration(state)
                if measure == "ckpt" and polls % ph["ckpt_every"] == 0:
                    ctl.add_sample(time.perf_counter() - t0)

    def program(api, state):
        _answer_where_stuck()
        return sender(api, state) if api.rank == 0 else receiver(api, state)

    return program
