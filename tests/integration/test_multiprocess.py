"""Real-process migration tests: the multiprocess backend.

Each test spawns actual OS processes communicating over TCP; a migration
moves a running rank into a brand-new process, shipping its state through
the machine-independent codec. PIDs prove the move happened.
"""

from __future__ import annotations

import time

import pytest

from repro.codec import MIPS32, SPARC32
from repro.runtime import MPCluster


def _pingpong(api, state):
    rounds = 60
    i = state.get("i", 0)
    pids = state.setdefault("pids", [])
    if api.pid not in pids:
        pids.append(api.pid)
    while i < rounds:
        if api.rank == 0:
            api.send(1, ("ping", i), tag=i)
            msg = api.recv(src=1, tag=i)
            assert msg.body == ("pong", i)
        else:
            msg = api.recv(src=0, tag=i)
            assert msg.body == ("ping", i)
            api.send(0, ("pong", i), tag=i)
        i += 1
        state["i"] = i
        api.compute(0.002)
        api.poll_migration(state)
    return {"rounds": i, "pids": pids, "incarnation": api.incarnation}


def _seq_stream(api, state):
    count = 80
    if api.rank == 0:
        i = state.get("i", 0)
        while i < count:
            api.send(1, i, tag=1)
            i += 1
            state["i"] = i
            api.compute(0.001)
            api.poll_migration(state)
        return {"sent": i}
    got = state.setdefault("got", [])
    while len(got) < count:
        got.append(api.recv(src=0, tag=1).body)
        api.poll_migration(state)
    return {"got": got}


def test_mp_pingpong_no_migration():
    cluster = MPCluster(_pingpong, nranks=2)
    try:
        cluster.start()
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[0]["rounds"] == 60
    assert results[1]["rounds"] == 60
    assert len(results[0]["pids"]) == 1


def test_mp_migration_moves_process():
    cluster = MPCluster(_pingpong, nranks=2)
    try:
        cluster.start()
        time.sleep(0.1)
        cluster.migrate(1)
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[0]["rounds"] == 60
    assert results[1]["rounds"] == 60
    # rank 1 really changed OS process mid-run
    assert len(results[1]["pids"]) == 2
    assert results[1]["pids"][0] != results[1]["pids"][1]
    assert results[1]["incarnation"] == 1


def test_mp_stream_ordering_across_migration():
    cluster = MPCluster(_seq_stream, nranks=2)
    try:
        cluster.start()
        time.sleep(0.05)
        cluster.migrate(1)  # migrate the receiver mid-stream
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[1]["got"] == list(range(80))


def test_mp_sender_migration():
    cluster = MPCluster(_seq_stream, nranks=2)
    try:
        cluster.start()
        time.sleep(0.05)
        cluster.migrate(0)  # migrate the sender mid-stream
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[1]["got"] == list(range(80))


def test_mp_heterogeneous_state_encoding():
    """State crosses the process boundary encoded big-endian (SPARC) and
    is restored on a 'different architecture' (little-endian) — the
    byte-level heterogeneity path, exercised between real processes."""
    cluster = MPCluster(_pingpong, nranks=2, arch=SPARC32, dest_arch=MIPS32)
    try:
        cluster.start()
        time.sleep(0.1)
        cluster.migrate(0)
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[0]["rounds"] == 60
    assert len(results[0]["pids"]) == 2


def test_mp_double_migration_same_rank():
    """A rank migrates twice: three OS processes carry it in sequence."""
    cluster = MPCluster(_pingpong, nranks=2)
    try:
        cluster.start()
        time.sleep(0.04)
        cluster.migrate(1)   # waits out any in-flight move internally
        time.sleep(0.05)
        cluster.migrate(1)
        results = cluster.join(timeout=60)
    finally:
        cluster.terminate()
    assert results[0]["rounds"] == 60
    assert results[1]["rounds"] == 60
    assert len(set(results[1]["pids"])) == 3
    assert results[1]["incarnation"] == 2


def _ring3(api, state):
    rounds = 45
    right = (api.rank + 1) % api.size
    left = (api.rank - 1) % api.size
    i = state.get("i", 0)
    got = state.setdefault("got", [])
    while i < rounds:
        api.send(right, (api.rank, i), tag=1)
        got.append(api.recv(src=left, tag=1).body)
        i += 1
        state["i"] = i
        api.compute(0.002)
        api.poll_migration(state)
    return {"got": got}


def test_mp_three_rank_ring_with_migration():
    cluster = MPCluster(_ring3, nranks=3)
    try:
        cluster.start()
        time.sleep(0.04)
        cluster.migrate(1)
        results = cluster.join(timeout=90)
    finally:
        cluster.terminate()
    for rank in range(3):
        left = (rank - 1) % 3
        assert results[rank]["got"] == [(left, i) for i in range(45)]


def test_mp_concurrent_migrations_of_two_ranks():
    cluster = MPCluster(_ring3, nranks=3)
    try:
        cluster.start()
        time.sleep(0.04)
        cluster.migrate(0)
        cluster.migrate(2)   # different rank: may overlap rank 0's move
        results = cluster.join(timeout=90)
    finally:
        cluster.terminate()
    for rank in range(3):
        left = (rank - 1) % 3
        assert results[rank]["got"] == [(left, i) for i in range(45)]


def _bigstate_stream(api, state):
    """_seq_stream with ~2 MiB of rank-0 state so an adaptive-chunk
    migration runs the controller through multiple growth rounds."""
    if api.rank == 0:
        state.setdefault("blob", bytes(2 * 1024 * 1024))
    return _seq_stream(api, state)


def test_mp_adaptive_chunks_migration(tmp_path):
    """chunk_bytes="adaptive" end-to-end: the AIMD controller sizes the
    state_chunk frames of a real socket migration, its stats land on the
    transfer span, and delivery is unaffected."""
    import json

    cluster = MPCluster(_bigstate_stream, nranks=2, obs=True,
                        chunk_bytes="adaptive")
    try:
        cluster.start()
        time.sleep(0.05)
        cluster.migrate(0)
        results = cluster.join(timeout=60)
        path = tmp_path / "obs.jsonl"
        cluster.write_obs_jsonl(str(path))
    finally:
        cluster.terminate()
    assert results[1]["got"] == list(range(80))
    spans = [json.loads(line) for line in path.read_text().splitlines()
             if '"transfer"' in line]
    done = [s for s in spans if s.get("kind") == "span_end"
            and s.get("phase") == "transfer"]
    assert done, "no transfer span in the obs artifact"
    s = done[0]
    # controller stats rode along on the span
    assert s["chunk_bytes_min"] >= 8 * 1024
    assert s["chunk_bytes_max"] <= 4 * 1024 * 1024
    assert s["chunk_bytes_max"] > s["chunk_bytes_min"]  # it actually adapted
    assert s["chunks"] >= 3
