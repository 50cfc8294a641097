"""Property tests for the grant ledger (repro.core.grants).

:class:`~repro.core.grants.GrantLedger` is what lets the mp drain end on
an event instead of a timer, and it is pure so Hypothesis can interleave
the accept thread's ``grant``, the protocol thread's ``adopt``/``void``
and the one ``freeze`` arbitrarily (the worker serializes them with one
lock, so every real schedule is one of these sequences):

1. **No grant after freeze** — a request arriving after the freeze is
   refused and never counted.
2. **Drained iff every pre-freeze grant settled** — ``drained`` is true
   exactly when the ledger is frozen and ``granted == adopted + voided``.
3. **Void and adopt are interchangeable** — which of the two settles a
   grant never changes ``drained`` or ``settled``.
4. **Exactly once** — settling an unknown or already-settled token
   raises and changes nothing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.grants import GrantLedger
from repro.util.errors import ProtocolError

#: an operation stream: grant(peer) / freeze / settle the i-th issued
#: token by adopt or void (an index past the issued tokens, or one
#: already used, is an idempotence violation the ledger must refuse)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("grant"), st.integers(0, 3)),
        st.tuples(st.just("freeze")),
        st.tuples(st.sampled_from(["adopt", "void"]), st.integers(0, 12)),
    ),
    max_size=60,
)


def _drive(ops, settle_as=None) -> GrantLedger:
    """Apply *ops*, checking the stepwise invariants after each one.
    ``settle_as`` forces every settle to one kind (property 3)."""
    led = GrantLedger()
    tokens: list[int] = []
    settled: set[int] = set()
    for op in ops:
        if op[0] == "grant":
            was_frozen = led.frozen
            token = led.grant(op[1])
            if was_frozen:
                assert token is None, "no grant after freeze"
            else:
                assert token is not None and token not in tokens
                tokens.append(token)
        elif op[0] == "freeze":
            led.freeze()
        else:
            kind = settle_as or op[0]
            index = op[1]
            if index < len(tokens) and tokens[index] not in settled:
                getattr(led, kind)(tokens[index])
                settled.add(tokens[index])
            else:
                before = (led.granted, led.adopted, led.voided,
                          dict(led.open))
                bad = tokens[index] if index < len(tokens) else -1 - index
                with pytest.raises(ProtocolError):
                    getattr(led, kind)(bad)
                assert before == (led.granted, led.adopted, led.voided,
                                  led.open)
        # stepwise invariants
        assert led.granted == len(tokens)
        assert led.settled == led.adopted + led.voided == len(settled)
        assert set(led.open) == set(tokens) - settled
        assert led.drained == (led.frozen and led.settled == led.granted)
    return led


@given(ops=OPS)
def test_ledger_invariants_hold_under_any_interleaving(ops):
    _drive(ops)


@given(ops=OPS)
def test_void_and_adopt_are_interchangeable(ops):
    mixed, adopted, voided = (_drive(ops), _drive(ops, "adopt"),
                              _drive(ops, "void"))
    for led in (adopted, voided):
        assert (led.frozen, led.granted, led.settled, led.drained,
                led.open) == (mixed.frozen, mixed.granted, mixed.settled,
                              mixed.drained, mixed.open)
    assert adopted.voided == 0 and voided.adopted == 0


@given(ops=OPS)
def test_every_grant_settled_after_freeze_means_drained(ops):
    led = _drive(ops)
    led.freeze()
    for token in list(led.open):
        assert not led.drained
        led.void(token)
    assert led.drained and led.granted == led.settled
