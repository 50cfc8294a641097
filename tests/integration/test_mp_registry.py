"""The registry survives outside input on its control port.

A frame it cannot decode, or whose kind it does not know, closes that
one connection — its peer's next RPC fails at once instead of waiting
out ``_CONNECT_TIMEOUT`` — and every other connection is still served.
"""

from __future__ import annotations

import logging
import socket
import time

import pytest

from repro.runtime import mp as mp_mod
from repro.runtime.framing import _HDR, recv_frame, send_frame


@pytest.fixture
def registry():
    reg = mp_mod._Registry()
    try:
        yield reg
    finally:
        reg.close()


def _closed_within(sock: socket.socket, seconds: float) -> bool:
    sock.settimeout(seconds)
    t0 = time.time()
    return sock.recv(1) == b"" and time.time() - t0 < seconds


@pytest.mark.parametrize("wire", [
    _HDR.pack(9) + b"\x80garbage!",          # not a pickle
    None,                                     # a frame of no known kind
])
def test_bad_frame_closes_its_connection_and_the_rest_are_served(
        registry, wire, caplog):
    caplog.set_level(logging.WARNING, logger="repro.mp")
    with socket.create_connection(registry.addr, timeout=5.0) as bad:
        if wire is None:
            send_frame(bad, ("bogus", 7))
        else:
            bad.sendall(wire)
        assert _closed_within(bad, 2.0), "the registry kept it open"
    if wire is None:
        assert "('bogus', 7)" in caplog.text
    with socket.create_connection(registry.addr, timeout=5.0) as good:
        send_frame(good, ("lookup", 3))
        assert recv_frame(good) == ("location", 3, "starting", None)
