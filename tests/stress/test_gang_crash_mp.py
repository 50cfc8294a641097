"""SIGKILL inside one of two overlapping migration windows.

The gang engine's fault bar, asserted on real OS processes: two
migration windows are open at once and one *source* dies mid-window.
The survivor's window must commit untouched, the victim must come back
through crash recovery, message delivery must stay exactly-once (the
received streams are byte-identical to a fault-free run), and the
recovery trace must carry a causal link to the interrupted migration's
trace id — the cross-migration edge ``obs_trace_links()`` exposes.

``REPRO_GANG_SMOKE=1`` (the ``make gang-smoke`` / CI job) runs a compact
two-rank concurrent-migration pass with a digest check and prints the
summary line the workflow can grep.
"""

from __future__ import annotations

import hashlib
import os
import time

import pytest

from repro.core.adaptive import AdaptiveChunkPolicy
from repro.recovery import RecoverySpec
from repro.runtime import MPCluster

pytestmark = pytest.mark.stress

SMOKE = bool(os.environ.get("REPRO_GANG_SMOKE"))

ROUNDS = 40
NRANKS = 4
#: the victim computes long enough per round that a SIGKILL issued right
#: after its window opens lands before the freeze/transfer finishes
SLOW_RANK = 3


def _ring4(api, state):
    right = (api.rank + 1) % api.size
    left = (api.rank - 1) % api.size
    i = state.get("i", 0)
    got = state.setdefault("got", [])
    while i < ROUNDS:
        api.send(right, (api.rank, i), tag=1)
        got.append(api.recv(src=left, tag=1).body)
        i += 1
        state["i"] = i
        api.compute(0.06 if api.rank == SLOW_RANK else 0.002)
        api.poll_migration(state)
    return {"got": got, "incarnation": api.incarnation}


def _digest(results) -> str:
    """Every rank's received stream, hashed — the cross-run oracle."""
    raw = "|".join(repr(results[r]["got"]) for r in range(NRANKS)).encode()
    return hashlib.sha256(raw).hexdigest()


_BASELINE: dict[str, str] = {}


def _fault_free_digest() -> str:
    """Digest of one crash-free, migration-free run (cached)."""
    if "digest" not in _BASELINE:
        cluster = MPCluster(_ring4, nranks=NRANKS)
        try:
            cluster.start()
            results = cluster.join(timeout=120)
        finally:
            cluster.terminate()
        for r in range(NRANKS):
            left = (r - 1) % NRANKS
            assert results[r]["got"] == [(left, i) for i in range(ROUNDS)]
        _BASELINE["digest"] = _digest(results)
    return _BASELINE["digest"]


def _wait_for_checkpoint(cluster, rank, version, timeout=30.0):
    store = cluster.checkpoint_store()
    deadline = time.time() + timeout
    while time.time() < deadline:
        v = store.latest_complete_version(rank)
        if v is not None and v >= version:
            return v
        time.sleep(0.005)
    raise AssertionError(f"rank {rank} never reached ckpt v{version}")


def _wait_window_open(cluster, rank, timeout=30.0) -> str:
    """Block until *rank*'s source has been signalled — its window is
    open and its causal trace id minted."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        window = cluster.registry.windows.current(rank)
        if window is not None and window.trace_id is not None:
            return window.trace_id
        time.sleep(0.002)
    raise AssertionError(f"rank {rank}: migration window never opened")


def test_sigkill_one_of_two_overlapping_migrations():
    """Kill the slow rank's source while its window overlaps another
    rank's: the survivor commits, the victim recovers from checkpoint,
    the digests match the fault-free run and the recovery trace links
    the interrupted migration."""
    cluster = MPCluster(_ring4, nranks=NRANKS, obs=True,
                        chunk_bytes=AdaptiveChunkPolicy(),
                        recovery=RecoverySpec(checkpoint_every=2))
    try:
        cluster.start()
        _wait_for_checkpoint(cluster, SLOW_RANK, 2)
        verdicts = cluster.migrate_many([1, SLOW_RANK])
        assert verdicts == {1: "admit", SLOW_RANK: "admit"}
        victim_trace = _wait_window_open(cluster, SLOW_RANK)
        cluster.kill_rank(SLOW_RANK)  # the still-executing source
        cluster.wait_migrations(timeout=120)
        results = cluster.join(timeout=120)
        rep = cluster.recovery_report()
        links = cluster.obs_trace_links()
        budget = cluster.budget_stats()
    finally:
        cluster.terminate()
    # exactly-once delivery across the crash: byte-identical streams
    assert _digest(results) == _fault_free_digest()
    # the survivor's overlapping window committed (it changed process)
    assert results[1]["incarnation"] >= 1
    # the victim came back through the supervisor, not a fresh start
    assert rep["restarts"] >= 1 and not rep["permanent_failures"]
    assert any(e["kind"] == "rank" and e["id"] == SLOW_RANK
               for e in rep["events"])
    # cross-migration causality: some recovery trace links the
    # interrupted migration's trace id
    linked = [tid for tid, tids in links.items()
              if tid.startswith("rec-") and victim_trace in tids]
    assert linked, (victim_trace, links)
    # the dead source's budget slot was reclaimed: nothing left open
    assert budget is not None and budget["active"] == 0
    assert budget["acquires"] >= 1


@pytest.mark.skipif(not SMOKE, reason="REPRO_GANG_SMOKE=1 only")
def test_gang_smoke():
    """The CI smoke: two concurrent migrations on a 4-rank ring with
    adaptive chunking and a shared bandwidth budget, digest-checked
    against the fault-free baseline."""
    cluster = MPCluster(_ring4, nranks=NRANKS, obs=True,
                        chunk_bytes=AdaptiveChunkPolicy())
    try:
        cluster.start()
        time.sleep(0.1)
        verdicts = cluster.migrate_many([0, 2])
        cluster.wait_migrations(timeout=120)
        results = cluster.join(timeout=120)
        budget = cluster.budget_stats()
    finally:
        cluster.terminate()
    assert verdicts == {0: "admit", 2: "admit"}
    assert results[0]["incarnation"] == 1
    assert results[2]["incarnation"] == 1
    identical = _digest(results) == _fault_free_digest()
    assert identical
    print(f"gang-smoke: migrated=[0,2] verdicts={verdicts} "
          f"budget={budget} digest_identical={identical}")
