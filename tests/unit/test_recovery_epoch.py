"""Units for the recovery epoch (repro.core.epoch).

The wrapper is what every recovery run ships and what checkpoints hold
on disk, so its key set, key order and values are pinned here together
with the digest of its encoding: a checkpoint written by an older build
stays restorable. The Hypothesis suite in
``tests/property/test_epoch.py`` drives the machine through crash and
replay schedules; these cases name single transitions.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.codec import SPARC32, decode, encode
from repro.core.epoch import CKPT_KEY, Epoch
from repro.util.errors import ProtocolError


def _fixed() -> Epoch:
    return Epoch(rx={0: 5, 2: 1}, tx={2: 7}, durable_rx={0: 4},
                 outbox={2: [(6, 6, "six"), (7, 7, [1.5, None])]},
                 version=3)


def test_wrapper_keys_values_and_bytes_are_pinned():
    wrapper = _fixed().wrapper({"i": 7, "got": [1, 2]}, [(0, 6, "m")])
    assert list(wrapper) == [CKPT_KEY, "state", "recvlist", "rx", "tx",
                             "durable_rx", "outbox", "version"]
    assert CKPT_KEY == "__repro_ckpt__"
    assert wrapper == {
        "__repro_ckpt__": 1, "state": {"i": 7, "got": [1, 2]},
        "recvlist": [(0, 6, "m")], "rx": {0: 5, 2: 1}, "tx": {2: 7},
        "durable_rx": {0: 4},
        "outbox": {2: [(6, 6, "six"), (7, 7, [1.5, None])]}, "version": 3}
    # the bytes a checkpoint of this epoch has always had on disk
    digest = hashlib.blake2b(encode(wrapper, SPARC32),
                             digest_size=16).hexdigest()
    assert digest == "ee9e66ee44c5907be61eda969a6a9784"


def test_version_zero_restart_is_the_empty_wrapper():
    assert Epoch().wrapper({"n": 1}, []) == {
        "__repro_ckpt__": 1, "state": {"n": 1}, "recvlist": [], "rx": {},
        "tx": {}, "durable_rx": {}, "outbox": {}, "version": 0}


def test_wrapper_round_trips_through_the_codec():
    src = _fixed()
    wrapper = src.checkpoint({"i": 7}, [(0, 6, "m")])
    dst = Epoch.awaiting_restore()
    state, recvlist, held = dst.restore(decode(encode(wrapper, SPARC32)))
    assert (state, recvlist, held) == ({"i": 7}, [(0, 6, "m")], [])
    assert (dst.rx, dst.tx, dst.durable_rx, dst.outbox, dst.version) == \
        (src.rx, src.tx, src.durable_rx, src.outbox, 4)
    assert dst.wrapper({"i": 7}, [(0, 6, "m")]) == wrapper


def test_deliver_drops_duplicates_and_raises_on_a_gap():
    e = Epoch()
    assert e.deliver(1, 1, 0) and e.deliver(1, 2, 0)
    assert not e.deliver(1, 2, 0) and not e.deliver(1, 1, 0)
    with pytest.raises(ProtocolError, match="gap from 1: got seq 4 after 2"):
        e.deliver(1, 4, 0)
    assert e.cursor(1) == 2


def test_piggyback_and_ack_prune_through_one_rule():
    e = Epoch()
    for _ in range(4):
        e.send(1, 0, "x")
    assert [s for s, *_ in e.outbox[1]] == [1, 2, 3, 4]
    e.deliver(1, 1, 2)  # the peer's data frame piggybacks durable=2
    assert [s for s, *_ in e.outbox[1]] == [3, 4]
    e.ack(1, 1)  # a stale cursor prunes nothing
    assert [s for s, *_ in e.outbox[1]] == [3, 4]
    e.ack(1, 4)
    assert e.outbox[1] == [] and not e.retains(1) and e.outbox_len == 0


def test_replay_starts_past_the_cursor_and_carries_our_durable():
    e = Epoch(durable_rx={1: 9})
    for body in "abc":
        e.send(1, 5, body)
    assert e.replay(1, 1) == [(2, 5, "b", 9), (3, 5, "c", 9)]
    assert e.replay(1, 3) == []


def test_durable_lists_only_cursors_that_advanced():
    e = Epoch(rx={0: 3, 2: 5}, acked={0: 3})
    assert e.durable() == [(2, 5)]
    assert e.durable_rx == {0: 3, 2: 5}
    e.acked_to(2, 5)
    assert e.durable() == []


def test_nothing_is_judged_or_replayed_before_restore():
    e = Epoch.awaiting_restore()
    for call in (lambda: e.deliver(1, 1, 0), lambda: e.ack(1, 1),
                 lambda: e.replay(1, 0), lambda: e.send(1, 0, "x"),
                 lambda: e.checkpoint({}, [])):
        with pytest.raises(ProtocolError, match="before the epoch"):
            call()
    assert e.hold("a") and e.hold("b")
    _, _, held = e.restore(Epoch().wrapper({}, []))
    assert held == ["a", "b"] and e.held == []
    assert not e.hold("c")


def test_restore_refuses_a_bare_state_dict():
    with pytest.raises(ProtocolError, match="no wrapper"):
        Epoch.awaiting_restore().restore({"i": 1})
