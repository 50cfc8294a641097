"""Unit tests for the grant ledger (repro.core.grants)."""

from __future__ import annotations

import pytest

from repro.core.grants import GrantLedger
from repro.util.errors import ProtocolError


def test_grant_counts_and_tokens_are_distinct():
    led = GrantLedger()
    a, b = led.grant(peer=3), led.grant(peer=3)
    assert a is not None and b is not None and a != b
    assert led.granted == 2 and led.settled == 0
    assert sorted(led.open.values()) == [3, 3]


def test_no_grant_after_freeze():
    led = GrantLedger()
    led.grant(1)
    led.freeze()
    assert led.grant(2) is None
    assert led.granted == 1 and list(led.open.values()) == [1]


def test_drained_needs_freeze_and_every_grant_settled():
    led = GrantLedger()
    t = led.grant(1)
    assert not led.drained  # not frozen: more grants may still come
    led.freeze()
    assert not led.drained  # frozen, one grant unsettled
    led.adopt(t)
    assert led.drained
    assert led.granted == led.adopted + led.voided == 1


def test_freeze_with_nothing_granted_is_drained_at_once():
    led = GrantLedger()
    led.freeze()
    assert led.drained


@pytest.mark.parametrize("settle", ["adopt", "void"])
def test_adopt_and_void_both_settle(settle):
    led = GrantLedger()
    t = led.grant(7)
    led.freeze()
    getattr(led, settle)(t)
    assert led.drained and led.settled == 1
    assert (led.adopted, led.voided) == ((1, 0) if settle == "adopt"
                                         else (0, 1))


@pytest.mark.parametrize("first", ["adopt", "void"])
@pytest.mark.parametrize("second", ["adopt", "void"])
def test_settling_twice_raises(first, second):
    led = GrantLedger()
    t = led.grant(7)
    getattr(led, first)(t)
    with pytest.raises(ProtocolError, match="settled twice"):
        getattr(led, second)(t)
    assert led.settled == 1  # the failed settle changed nothing


def test_settling_an_unissued_token_raises():
    led = GrantLedger()
    with pytest.raises(ProtocolError):
        led.adopt(1)
    with pytest.raises(ProtocolError):
        led.void(None)


def test_grants_settle_in_any_order():
    led = GrantLedger()
    tokens = [led.grant(p) for p in (1, 2, 3)]
    led.freeze()
    for t in reversed(tokens):
        assert not led.drained
        led.adopt(t)
    assert led.drained
