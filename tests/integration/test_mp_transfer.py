"""The mp state path on real processes: raw chunk frames in, views out.

A migrated rank's arrays are **writable views over the receive buffer**
(``repro.codec.decode_owned``), so the tests here do what a view could
get wrong: mutate the arrays in place after every move and compare the
final digest with a run that never moved. And the destination names a
transfer that stops short — a source SIGKILLed mid-stream — at once,
instead of waiting out a timer with its listener open.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue
import socket
import time

import numpy as np
import pytest

from repro.codec import NATIVE, SPARC32
from repro.core.streaming import ChunkAssembler
from repro.recovery import RecoverySpec
from repro.runtime import MPCluster, mp as mp_runtime
from repro.runtime.framing import FrameBatcher, send_frame
from repro.util.errors import MigrationError

ROUNDS = 300


def _digest(state: dict) -> str:
    h = hashlib.sha256()
    for key in ("grid", "ids", "scale", "ragged"):
        for arr in (state[key] if key == "ragged" else [state[key]]):
            h.update(str((arr.dtype.str, arr.shape)).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((state["i"], state["log"])).encode())
    return h.hexdigest()


def _mutator(api, state):
    """Rank 1 carries arrays and updates them **in place** every round —
    augmented assignment, slice assignment, a 0-d write — so a restored
    view that aliased another array, lost writability or kept a foreign
    byte order would change the final digest."""
    i = state.get("i", 0)
    while i < ROUNDS:
        if api.rank == 0:
            api.send(1, i, tag=1)
            assert api.recv(src=1, tag=2).body == i
        else:
            assert api.recv(src=0, tag=1).body == i
            state["grid"] += 1.0
            state["grid"][::2, 1:3] = i
            state["ids"][i % len(state["ids"])] -= i
            state["scale"][...] = state["scale"] * 1.0001 + 1
            state["ragged"][i % 3] *= -1
            state["log"].append(int(state["ids"].sum()))
            api.send(0, i, tag=2)
        i += 1
        state["i"] = i
        api.compute(0.002)
        api.poll_migration(state)
    if api.rank == 0:
        return None
    views = [a for a in (state["grid"], state["ids"], *state["ragged"])
             if not a.flags.owndata]
    return {"digest": _digest(state), "incarnation": api.incarnation,
            "views": len(views),
            "native": all(a.dtype.isnative and a.flags.writeable
                          for a in (state["grid"], state["ids"],
                                    state["scale"], *state["ragged"]))}


def _initial():
    rng = np.random.default_rng(23)
    return {"grid": rng.normal(size=(64, 64)),
            "ids": np.arange(500, dtype="i4"),
            "scale": np.array(1.0),
            "ragged": [rng.integers(-9, 9, size=n).astype("i2")
                       for n in (7, 0, 33)],
            "log": []}


def _run(moves: int, **kwargs) -> dict:
    cluster = MPCluster(_mutator, nranks=2, init_states=[{}, _initial()],
                        **kwargs)
    try:
        cluster.start()
        for _ in range(moves):
            time.sleep(0.05)
            cluster.migrate(1)
            cluster.wait_migrations(timeout=30)
        return cluster.join(timeout=60)[1]
    finally:
        cluster.terminate()


@pytest.fixture(scope="module")
def never_migrated() -> dict:
    result = _run(0)
    assert result["incarnation"] == 0 and result["views"] == 0
    return result


@pytest.mark.parametrize("chunk_bytes", [4096, "adaptive"])
@pytest.mark.parametrize("dest_arch", [NATIVE, SPARC32], ids=lambda a: a.name)
def test_in_place_mutation_after_two_migrations(never_migrated, dest_arch,
                                                chunk_bytes):
    # with dest_arch=SPARC32 the second move is encoded big-endian by the
    # first destination: one native-order restore, one byte-swapped
    result = _run(2, dest_arch=dest_arch, chunk_bytes=chunk_bytes)
    assert result["incarnation"] == 2
    assert result["digest"] == never_migrated["digest"]
    # the arrays the program ended with alias the receive buffer
    assert result["views"] == 5 and result["native"]


@pytest.mark.parametrize("dest_arch", [NATIVE, SPARC32], ids=lambda a: a.name)
def test_in_place_mutation_with_the_delta_checkpoint_store(never_migrated,
                                                           dest_arch):
    # delta store on: the checkpoint wrapper's part list is what crosses
    result = _run(2, dest_arch=dest_arch, chunk_bytes=4096,
                  recovery=RecoverySpec(checkpoint_every=25,
                                        delta_checkpoints=True))
    assert result["incarnation"] == 2
    assert result["digest"] == never_migrated["digest"]
    assert result["views"] == 5 and result["native"]


# -- a transfer that stops short --------------------------------------------

def _never_runs(api, state):  # pragma: no cover - the restore never ends
    raise AssertionError("program started without its state")


def _spawn_init(registry):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=mp_runtime._init_main,
                       args=(1, 2, registry.addr, _never_runs, NATIVE, 1),
                       daemon=True)
    proc.start()
    init = registry.windows.directory.init_vmid
    assert registry.wait_for(lambda: 1 in init, 10.0)
    return proc, init[1]


def test_truncated_transfer_fails_at_once_and_frees_the_listener(capfd):
    registry = mp_runtime._Registry()
    proc = None
    try:
        proc, addr = _spawn_init(registry)
        # a source that dies mid-transfer: hello, ListA, one chunk header
        # and half of the payload it announced
        with socket.create_connection(addr, timeout=10.0) as src:
            send_frame(src, ("state_transfer", 1, "t-cut"))
            batch = FrameBatcher(src)
            batch.add(("recvlist", [], "t-cut"))
            batch.add_raw(("chunk", 0, 4096, False, 1 << 20), (b"s" * 4096,))
            batch.add_raw(("chunk", 1, 4096, False, 1 << 20), (b"s" * 2048,))
            batch.flush()
        t0 = time.time()
        proc.join(2.0)
        assert not proc.is_alive(), "destination still waiting after 2 s"
        assert time.time() - t0 < 2.0
        assert proc.exitcode not in (0, None)
        # its listener went with it: nothing accepts on the port any more
        with pytest.raises(OSError):
            socket.create_connection(addr, timeout=1.0).close()
        err = capfd.readouterr().err
        assert "MigrationError" in err
        assert ("state stream truncated: got 6144 of 1048576 bytes "
                "in 1 chunks") in err
    finally:
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join()
        registry.close()


def test_stalled_transfer_times_out_as_the_same_error(monkeypatch, capfd):
    # the liveness bound, shortened: it names what had arrived, as a
    # MigrationError rather than a bare queue.Empty
    monkeypatch.setattr(mp_runtime, "_CONNECT_TIMEOUT", 0.3)
    registry = mp_runtime._Registry()
    proc = src = None
    try:
        proc, addr = _spawn_init(registry)
        src = socket.create_connection(addr, timeout=10.0)
        send_frame(src, ("state_transfer", 1, "t-stall"))
        batch = FrameBatcher(src)
        batch.add(("recvlist", [], "t-stall"))
        batch.add_raw(("chunk", 0, 100, False, 1000), (b"s" * 100,))
        batch.flush()
        proc.join(5.0)
        assert not proc.is_alive() and proc.exitcode not in (0, None)
        err = capfd.readouterr().err
        assert "queue.Empty" not in err
        assert "MigrationError: state stream truncated: got 100 of 1000 " \
               "bytes in 1 chunks" in err
    finally:
        if src is not None:
            src.close()
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join()
        registry.close()


# -- the transfer reader against hostile sources -----------------------------

class _InitStub:
    """Just what ``_Worker._transfer_read_loop`` touches."""

    def __init__(self):
        self.inbox: queue.Queue = queue.Queue()
        self.state_asm = ChunkAssembler()

    def _new_stats(self):
        return None


def _read_transfer(feed) -> tuple[_InitStub, list]:
    """Run the real reader over what *feed(sock)* writes; the inbox."""
    a, b = socket.socketpair()
    stub = _InitStub()
    try:
        feed(a)
        a.close()
        mp_runtime._Worker._transfer_read_loop(stub, b)
    finally:
        a.close()
    items = []
    while not stub.inbox.empty():
        items.append(stub.inbox.get_nowait())
    return stub, items


def _frames(*frames):
    def feed(sock):
        batch = FrameBatcher(sock)
        for header, payload in frames:
            batch.add_raw(header, (payload,) if payload else ())
        batch.flush()
    return feed


def test_transfer_reader_delivers_recvlist_then_completion():
    stub, items = _read_transfer(_frames(
        (("recvlist", [(0, 1, "m")], "t-1"), None),
        (("chunk", 0, 3, False, 5), b"abc"),
        (("chunk", 1, 2, True, 5), b"de")))
    assert items == [("peer", None, ("recvlist", [(0, 1, "m")], "t-1")),
                     ("state_complete", None, None)]
    assert stub.state_asm.buffer.tobytes() == b"abcde"


@pytest.mark.parametrize("frames, error, match", [
    # order / total / truncation: the assembler's checks are on the path
    ([(("chunk", 1, 3, False, 5), b"abc")],
     MigrationError, "out of order: got 1, expected 0"),
    ([(("chunk", 0, 3, False, 5), b"abc"), (("chunk", 1, 3, True, 5), b"def")],
     MigrationError, "truncated: got 6 of 5 bytes"),
    ([(("chunk", 0, 3, False, 5), b"abc"), (("chunk", 1, 3, False, 5), b"def")],
     MigrationError, "runs past the announced total"),
    ([(("chunk", 0, -3, False, 5), None)],
     MigrationError, "bad state chunk header: nbytes=-3"),
    ([(("chunk", 0, 3, False, 1 << 62), b"abc")],
     MigrationError, "cannot allocate"),
    # MAX_FRAME bounds an announced payload
    ([(("chunk", 0, (256 << 20) + 1, False, 1 << 30), None)],
     ValueError, "exceeds limit"),
    # only recvlist and chunk frames belong on a transfer connection
    ([(("state_chunk", 0, b"abc", True, 3, "t"), None)],
     ValueError, "bad transfer frame"),
    ([(("chunk", 0, 3), None)], ValueError, "bad transfer frame"),
    # the source went away before the last chunk
    ([(("chunk", 0, 3, False, 5), b"abc")],
     MigrationError, "truncated: got 3 of 5 bytes in 1 chunks"),
    ([], MigrationError, "got 0 of an unannounced number bytes in 0 chunks"),
])
def test_transfer_reader_reports_a_bad_stream(frames, error, match):
    stub, items = _read_transfer(_frames(*frames))
    (kind, _, exc), = items
    assert kind == "state_failed"
    assert isinstance(exc, error)
    assert exc.args and match in str(exc)
    assert not stub.state_asm.complete


def test_transfer_reader_never_unpickles_a_forbidden_global(tmp_path):
    import pickle
    import struct

    from repro.runtime.framing import UnsafeFrame

    canary = tmp_path / "owned"

    class Evil:
        def __reduce__(self):
            import os
            return (os.system, (f"touch {canary}",))

    payload = pickle.dumps(Evil())
    stub, items = _read_transfer(
        lambda sock: sock.sendall(struct.pack(">I", len(payload)) + payload))
    (kind, _, exc), = items
    assert kind == "state_failed" and isinstance(exc, UnsafeFrame)
    assert not canary.exists()
