"""Unit tests for the drain machine (repro.core.drain)."""

from __future__ import annotations

import pytest

from repro.core.drain import Drain
from repro.util.errors import ProtocolError


def test_grant_counts_and_tokens_are_distinct():
    led = Drain()
    a, b = led.grant(peer=3), led.grant(peer=3)
    assert a is not None and b is not None and a != b
    assert led.granted == 2 and led.settled == 0
    assert sorted(led.open.values()) == [3, 3]


def test_no_grant_after_freeze():
    led = Drain()
    led.grant(1)
    led.freeze()
    assert led.grant(2) is None
    assert led.granted == 1 and list(led.open.values()) == [1]


def test_drained_needs_freeze_and_every_grant_settled():
    led = Drain()
    t = led.grant(1)
    assert not led.drained  # not frozen: more grants may still come
    led.freeze()
    assert not led.drained  # frozen, one grant unsettled
    led.adopt(t)
    assert led.drained
    assert led.granted == led.adopted + led.voided == 1


def test_freeze_with_nothing_granted_is_drained_at_once():
    led = Drain()
    led.freeze()
    assert led.drained


@pytest.mark.parametrize("settle", ["adopt", "void"])
def test_adopt_and_void_both_settle(settle):
    led = Drain()
    t = led.grant(7)
    led.freeze()
    getattr(led, settle)(t)
    assert led.drained and led.settled == 1
    assert (led.adopted, led.voided) == ((1, 0) if settle == "adopt"
                                         else (0, 1))


@pytest.mark.parametrize("first", ["adopt", "void"])
@pytest.mark.parametrize("second", ["adopt", "void"])
def test_settling_twice_raises(first, second):
    led = Drain()
    t = led.grant(7)
    getattr(led, first)(t)
    with pytest.raises(ProtocolError, match="settled twice"):
        getattr(led, second)(t)
    assert led.settled == 1  # the failed settle changed nothing


def test_settling_an_unissued_token_raises():
    led = Drain()
    with pytest.raises(ProtocolError):
        led.adopt(1)
    with pytest.raises(ProtocolError):
        led.void(None)


def test_grants_settle_in_any_order():
    led = Drain()
    tokens = [led.grant(p) for p in (1, 2, 3)]
    led.freeze()
    for t in reversed(tokens):
        assert not led.drained
        led.adopt(t)
    assert led.drained


def test_adopt_and_retire_coordinate_only_once_frozen():
    d = Drain()
    early, late = d.grant(1), d.grant(2)
    assert d.adopt(early) is False and d.retire(3) is False
    d.freeze()
    assert d.adopt(late) is True
    # a hello no open grant accounts for is still coordinated
    assert d.retire(3) is True


def test_retire_settles_every_grant_toward_its_peer_and_no_other():
    d = Drain()
    d.grant(1)
    d.grant(1)  # a retransmit the requester abandoned
    other = d.grant(2)
    d.freeze()
    d.retire(1)
    assert d.open == {other: 2} and d.adopted == 2
    assert not d.drained
    d.retire(2)
    assert d.drained and d.settled == d.granted == 3


def test_drained_waits_for_every_coordinated_peers_last_message():
    d = Drain()
    d.freeze()
    d.coordinate(1)
    d.coordinate(2)
    assert not d.drained
    assert d.last(1) is True
    assert d.last(1) is False  # already in
    assert d.last(5) is False  # never coordinated
    assert not d.drained
    assert d.last(2) is True
    assert d.drained


def test_peer_migrating_replies_unless_we_migrate_too():
    d = Drain()
    assert d.peer_migrating(1) is True
    d.freeze()
    assert d.peer_migrating(1) is False


def test_thaw_reports_what_was_left_and_forgets_it():
    d = Drain()
    d.grant(3)
    d.freeze()
    d.coordinate(2)
    d.coordinate(1)
    assert d.thaw() == {"waiting": [1, 2], "pending_grants": 1}
    assert (d.frozen, d.drained, d.open, d.waiting) == (False, False, {},
                                                         set())
    assert d.granted == d.settled == 1
    assert d.retire(3) is False  # the abandoned grant's straggler hello
    assert d.grant(3) is not None


def test_stuck_names_what_the_drain_still_waits_for():
    d = Drain()
    d.grant(0)
    d.freeze()
    d.coordinate(4)
    assert d.stuck() == (
        "waiting=[4] (peers whose last message never came), grants "
        "granted=1 settled=0 (unsettled toward ranks [0])")
