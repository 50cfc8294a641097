"""The worker's control-channel reply check, on a stub worker.

``_Worker._await_ctl`` is what every registry RPC returns through. A
reply of the wrong kind is a protocol error that must survive
``python -O``, and it names both frames.
"""

from __future__ import annotations

import queue
import types

import pytest

from repro.runtime import mp as mp_mod
from repro.util.errors import ProtocolError


def _stub(*frames):
    replies = queue.Queue()
    for frame in frames:
        replies.put(frame)
    return types.SimpleNamespace(rank=3, _ctl_replies=replies)


def test_matching_reply_is_returned():
    frame = ("location", 1, "running", ("127.0.0.1", 9000))
    assert mp_mod._Worker._await_ctl(_stub(frame), "location") == frame


def test_wrong_reply_names_expected_and_received_frames():
    stub = _stub(("pl_snapshot", {0: ("127.0.0.1", 9000)}))
    with pytest.raises(ProtocolError) as err:
        mp_mod._Worker._await_ctl(stub, "location")
    msg = str(err.value)
    assert "rank 3" in msg and "'location'" in msg
    assert "('pl_snapshot', {0: ('127.0.0.1', 9000)})" in msg


def test_closed_control_connection_fails_the_waiting_rpc():
    # what _ctl_loop leaves behind when the registry drops the connection
    with pytest.raises(ProtocolError, match=r"got \('closed',\)"):
        mp_mod._Worker._await_ctl(_stub(("closed",)), "new_process")
