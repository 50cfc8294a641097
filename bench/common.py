"""Plumbing shared by the benchmark's modules: where the program lives,
order statistics, seeded inputs and the benchmark's own span recorder.

Nothing here imports :mod:`repro` — the program is only ever touched
through the public calls the scenario and replay modules make.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
#: every temp file of a run (recovery dirs, checkpoint stores) lands here,
#: so the benchmark writes nothing outside its checkout
TMP = OUT / "tmp"

#: an operation that has not completed after this long is counted as
#: failed and its cluster torn down — never waited on
OP_TIMEOUT_S = 30.0


def use_program_sources() -> None:
    """Put the program under test on ``sys.path``; without it there is
    nothing to measure, so exit non-zero before printing any result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no program to measure under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@functools.cache
def declared() -> dict:
    """``BENCHMARK.json`` — the one place metric names, units, directions
    and bounds are declared; results are validated against it."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(xs) -> float:
    return float(statistics.median(xs))


def hi_percentile(xs) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)`` — p80 at 50 samples, p90 at 100. Fewer than
    20 samples support no tail claim; the maximum is returned as p100."""
    ordered = sorted(xs)
    n = len(ordered)
    if n < 20:
        return float(ordered[-1]), 100
    return float(ordered[n - 11]), int(100 * (n - 10) / n)


# ---------------------------------------------------------------------------
# seeded inputs: programs receive only what is generated here
# ---------------------------------------------------------------------------

#: one array per byte-swap width the codec distinguishes (8, 4, 2, 1)
STATE_KEYS = ("f64", "i64", "f32", "i32", "u16", "u8")


def make_state(rng: np.random.Generator, nbytes: int) -> dict:
    """A mixed-dtype ndarray state of *nbytes* payload, plus its digest."""
    per = max(8, nbytes // len(STATE_KEYS))
    state = {
        "f64": rng.random(per // 8),
        "i64": rng.integers(-2**62, 2**62, per // 8, dtype=np.int64),
        "f32": rng.random(per // 4, dtype=np.float32),
        "i32": rng.integers(-2**31, 2**31 - 1, per // 4, dtype=np.int32),
        "u16": rng.integers(0, 2**16, per // 2, dtype=np.uint16),
        "u8": rng.integers(0, 2**8, per, dtype=np.uint8),
    }
    state["digest"] = state_digest(state)
    return state


def state_digest(state: dict) -> int:
    """CRC-32 over the payload arrays in native byte order — what must be
    identical before and after every migration and recovery."""
    crc = 0
    for key in STATE_KEYS:
        arr = np.ascontiguousarray(state[key])
        crc = zlib.crc32(memoryview(arr).cast("B"), crc)
    return crc


def state_nbytes(state: dict) -> int:
    return sum(state[key].nbytes for key in STATE_KEYS)


def body_pool(rng: np.random.Generator, nbytes: int, count: int) -> list:
    """*count* distinct message bodies; message *seq* carries
    ``pool[seq % count]`` so the receiver can check content, not just
    order."""
    return [rng.bytes(nbytes) for _ in range(count)]


# ---------------------------------------------------------------------------
# the benchmark's own spans
# ---------------------------------------------------------------------------

class Spans:
    """Spans around every call the benchmark makes into a layer.

    Kept in memory (a list append per span) and written out by the
    parent when the run ends. Disabled outside traced runs, so
    end-to-end metrics are taken with no tracing of any kind.
    """

    def __init__(self, enabled: bool, scenario: str):
        self.enabled = enabled
        self.scenario = scenario
        self.rows: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: "int | str | None" = None, **attrs):
        """Time a block; yields the dict its attributes (bytes in/out,
        counts) may be added to while it is open."""
        if not self.enabled:
            yield {}
            return
        row = {"id": len(self.rows), "scenario": self.scenario,
               "name": name, "op": op,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.time(), "end": None, **attrs}
        self.rows.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.time()
            self._stack.pop()
