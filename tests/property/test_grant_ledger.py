"""Property tests for the drain machine (repro.core.drain).

:class:`~repro.core.drain.Drain` is what lets both runtimes' drains end
on events instead of timers. It is pure, so Hypothesis can interleave
the accept thread's ``grant``, the protocol thread's settles and the one
``freeze`` arbitrarily (the mp worker serializes them with one lock, so
every real schedule is one of these sequences):

1. **No grant after freeze** — a request arriving after the freeze is
   refused and never counted.
2. **Drained iff every pre-freeze grant settled** — with no peer
   coordinated, ``drained`` is true exactly when the machine is frozen
   and ``granted == adopted + voided``.
3. **Void and adopt are interchangeable** — which of the two settles a
   grant never changes ``drained`` or ``settled``.
4. **Exactly once** — settling an unknown or already-settled token
   raises and changes nothing.

Over the whole event stream of a migrating process (coordination,
hellos, last messages, aborts):

5. **Drained owes nothing** — every coordinated peer has delivered its
   last message and every pre-freeze grant is settled.
6. **A frozen drain coordinates late links** — after ``freeze``,
   ``adopt`` and ``retire`` always ask for coordination, never before.
7. **A hello retires exactly its peer's grants** — ``retire(p)`` settles
   every open grant toward *p* and nothing else.
8. **Fig. 4 lines 12-14** — ``peer_migrating`` replies
   ``end_of_message`` iff the machine is not frozen.
9. **Thaw forgets** — after ``thaw()`` the machine answers like a fresh
   one with the same history, and a straggler ``retire`` is a no-op.
"""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.drain import Drain
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


def _drive(ops, settle_as=None) -> Drain:
    """Apply *ops*, checking the stepwise invariants after each one.
    ``settle_as`` forces every settle to one kind (property 3)."""
    led = Drain()
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


PEERS = st.integers(0, 3)
#: every event a migrating process feeds its drain; a settle names the
#: i-th token issued and is skipped when that token is not open
EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("grant"), PEERS),
        st.tuples(st.sampled_from(["freeze", "thaw"])),
        st.tuples(st.sampled_from(["adopt", "void"]), st.integers(0, 12)),
        st.tuples(st.sampled_from(["retire", "coordinate", "last",
                                   "peer_migrating"]), PEERS),
    ),
    max_size=60,
)


def _step(d: Drain, op, tokens: list):
    """Apply one event; the answer, with a token given as its issue
    index so machines with different counters compare equal."""
    kind, *args = op
    if kind == "grant":
        token = d.grant(*args)
        if token is None:
            return None
        tokens.append(token)
        return len(tokens) - 1
    if kind in ("adopt", "void"):
        if args[0] >= len(tokens) or tokens[args[0]] not in d.open:
            return "skipped"
        return getattr(d, kind)(tokens[args[0]])
    return getattr(d, kind)(*args)


def _view(d: Drain) -> tuple:
    """What a driver can observe, tokens aside."""
    return d.frozen, d.drained, sorted(d.open.values()), sorted(d.waiting)


@given(ops=EVENTS)
def test_drain_rules_hold_over_any_event_stream(ops):
    d, tokens, owed = Drain(), [], set()
    for op in ops:
        kind = op[0]
        frozen, before = d.frozen, dict(d.open)
        answer = _step(d, op, tokens)
        if kind in ("adopt", "retire") and answer != "skipped":
            assert answer is frozen                                    # 6
        if kind == "retire":
            assert d.open == {t: p for t, p in before.items()
                              if p != op[1]}                           # 7
        if kind == "peer_migrating":
            assert answer is (not frozen)                              # 8
        if kind == "coordinate":
            owed.add(op[1])
        elif kind == "last":
            assert answer is (op[1] in owed)
            owed.discard(op[1])
        elif kind == "thaw":
            owed.clear()
        assert d.granted == d.settled + len(d.open)
        assert d.drained == (d.frozen and not owed and not d.open)     # 5


@given(history=EVENTS, ops=EVENTS, peer=PEERS)
def test_thawed_drain_answers_like_a_fresh_one(history, ops, peer):
    old, fresh, issued = Drain(), Drain(), []
    for op in history:
        _step(old, op, issued)
    old.thaw()
    # the history is kept, and nothing of it is still open
    assert old.granted == len(issued) == old.settled
    counters = (old.granted, old.adopted, old.voided)
    assert old.retire(peer) is False  # a straggler hello
    assert (old.granted, old.adopted, old.voided) == counters
    mine, theirs = [], []
    for op in ops:
        assert _view(old) == _view(fresh)
        assert _step(old, op, mine) == _step(fresh, op, theirs)
    assert _view(old) == _view(fresh)
