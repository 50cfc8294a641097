"""Unit tests for protocol message types and matching."""

from __future__ import annotations

from repro.core.messages import (
    ANY,
    ChannelHello,
    DataMessage,
    EndOfMessage,
    PeerMigrating,
    RecvListTransfer,
)


def test_data_message_matching():
    m = DataMessage(src=2, tag=7, body=None, nbytes=0)
    assert m.matches(2, 7)
    assert m.matches(ANY, 7)
    assert m.matches(2, ANY)
    assert m.matches(ANY, ANY)
    assert not m.matches(1, 7)
    assert not m.matches(2, 8)


def test_tag_zero_is_not_wildcard():
    m = DataMessage(src=0, tag=0, body=None, nbytes=0)
    assert m.matches(0, 0)
    m2 = DataMessage(src=0, tag=5, body=None, nbytes=0)
    assert not m2.matches(0, 0)


def test_control_payloads_marked():
    assert ChannelHello(0).protocol_control
    assert PeerMigrating(0).protocol_control
    assert EndOfMessage(0).protocol_control
    # the received-message-list transfer is NOT droppable control
    assert not getattr(RecvListTransfer([], 0), "protocol_control", False)


def test_sent_at_defaults_to_zero():
    m = DataMessage(src=0, tag=0, body=None, nbytes=0)
    assert m.sent_at == 0.0
