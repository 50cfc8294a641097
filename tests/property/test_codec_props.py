"""Property-based tests for the machine-independent codec."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.codec import (
    MIPS32,
    NATIVE,
    SPARC32,
    X86_64,
    decode,
    decode_owned,
    encode,
)
from repro.util.errors import CodecError
from tests.helpers.reference_codec import reference_decode, reference_encode

ARCHES = st.sampled_from([SPARC32, MIPS32, X86_64])

# Recursive strategy over encodable values. Dict keys must be hashable
# (and set members canonicalizable), so keys stay scalar.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.tuples(children, children),
    ),
    max_leaves=15,
)


@settings(max_examples=150, deadline=None)
@given(value=_values, arch=ARCHES)
def test_roundtrip_structures(value, arch):
    assert decode(encode(value, arch)) == value


@settings(max_examples=100, deadline=None)
@given(value=st.floats(), arch=ARCHES)
def test_roundtrip_floats_including_nan(value, arch):
    out = decode(encode(value, arch))
    if math.isnan(value):
        assert math.isnan(out)
    else:
        assert out == value


@st.composite
def _arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(
        ["f8", "f4", "i8", "i4", "i2", "u1", "c16", "b1"])))
    shape = draw(hnp.array_shapes(max_dims=3, max_side=6))
    return draw(hnp.arrays(
        dtype=dtype, shape=shape,
        elements=hnp.from_dtype(dtype, allow_nan=False,
                                allow_infinity=False)))


@settings(max_examples=60, deadline=None)
@given(arr=_arrays(), arch=ARCHES)
def test_roundtrip_ndarrays(arr, arch):
    out = decode(encode(arr, arch))
    assert out.shape == arr.shape
    np.testing.assert_array_equal(out, arr)


@settings(max_examples=60, deadline=None)
@given(value=_values)
def test_cross_architecture_equivalence(value):
    """Encodings differ per architecture but decode identically."""
    decoded = [decode(encode(value, a)) for a in (SPARC32, MIPS32, X86_64)]
    assert decoded[0] == decoded[1] == decoded[2] == value


@settings(max_examples=60, deadline=None)
@given(value=_values, arch=ARCHES)
def test_encoding_deterministic(value, arch):
    assert encode(value, arch) == encode(value, arch)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 6), arch=ARCHES)
def test_shared_substructure_count_preserved(n, arch):
    shared = list(range(5))
    value = [shared] * n
    out = decode(encode(value, arch))
    assert len(out) == n
    assert all(item is out[0] for item in out[1:])


# -- differential: production codec vs the scalar oracle -------------------

# Long homogeneous runs are what the production encoder vectorizes
# (>= 32 plain floats / ints in a row, bigints beyond 64 bits falling back
# per item); the recursive strategy above rarely grows one, so draw them
# on purpose next to the generic values and arrays.
_runs = st.one_of(
    st.lists(st.floats(allow_nan=False), min_size=32, max_size=80),
    st.lists(st.integers(-(2 ** 70), 2 ** 70), min_size=32, max_size=80),
    st.lists(st.one_of(st.integers(-(2 ** 64), 2 ** 64),
                       st.floats(allow_nan=False), st.booleans()),
             min_size=32, max_size=120),
).flatmap(lambda xs: st.sampled_from([xs, tuple(xs)]))

_states = st.one_of(
    _values, _runs, _arrays(),
    st.dictionaries(st.text(max_size=6), st.one_of(_values, _runs, _arrays()),
                    max_size=4),
)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same(v, b[k]) for k, v in a.items()))
    return type(a) is type(b) and a == b


@settings(max_examples=150, deadline=None)
@given(state=_states, arch=ARCHES)
def test_production_codec_matches_reference_oracle(state, arch):
    """Same bytes out of both encoders; every (encoder, decoder) pairing
    restores the state."""
    wire = encode(state, arch)
    assert wire == reference_encode(state, arch)
    assert _same(decode(wire), state)
    assert _same(reference_decode(wire), state)


# -- differential: the consuming decode vs the pure one --------------------

OWNED_ARCHES = st.sampled_from([NATIVE, SPARC32, MIPS32])


@st.composite
def _arrays_any_shape(draw):
    """Like ``_arrays`` but down to 0-d and empty shapes."""
    dtype = np.dtype(draw(st.sampled_from(
        ["f8", "f4", "i8", "i4", "i2", "u1", "c16", "c8", "b1"])))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=5))
    return draw(hnp.arrays(
        dtype=dtype, shape=shape,
        elements=hnp.from_dtype(dtype, allow_nan=False,
                                allow_infinity=False)))


_leaves = st.one_of(_values, _runs, _arrays(), _arrays_any_shape(),
                    st.binary(max_size=40),
                    st.binary(max_size=40).map(bytearray))
#: nested / ragged containers with arrays and byte nodes at any depth
_owned_states = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.tuples(children, children)),
    max_leaves=10)


def _buffers(wire: bytes):
    """The two writable buffer kinds a caller may hand over."""
    return bytearray(wire), np.frombuffer(wire, dtype=np.uint8).copy()


def _arrays_in(value) -> list:
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _arrays_in(item)]
    return []


def _same_owned(a, b) -> bool:
    if isinstance(a, bytearray):
        return isinstance(b, bytearray) and a == b
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same_owned(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_same_owned(v, b[k]) for k, v in a.items()))
    return _same(a, b)


@settings(max_examples=150, deadline=None)
@given(state=_owned_states, arch=OWNED_ARCHES)
def test_decode_owned_equals_decode(state, arch):
    wire = encode(state, arch)
    want = decode(wire)
    for buf in _buffers(wire):
        got = decode_owned(buf)
        assert _same_owned(got, want)
        for arr in _arrays_in(got):
            # native dtype, writable, and a view over the buffer handed in
            assert arr.dtype.isnative and arr.flags.writeable
            assert not arr.flags.owndata
            assert arr.size == 0 or np.shares_memory(arr, buf)


@settings(max_examples=80, deadline=None)
@given(arrays=st.lists(_arrays_any_shape(), min_size=2, max_size=5),
       arch=OWNED_ARCHES, data=st.data())
def test_writing_one_restored_array_changes_no_other(arrays, arch, data):
    state = {"arrays": arrays, "tail": [1.5, "x", b"raw"]}
    got = decode_owned(bytearray(encode(state, arch)))
    victims = [i for i, a in enumerate(got["arrays"]) if a.size]
    if not victims:
        return
    hit = data.draw(st.sampled_from(victims))
    before = [a.copy() for a in got["arrays"]]
    target = got["arrays"][hit]
    target[...] = 1  # slice assignment through the view
    if target.dtype.kind != "b":
        target += 1  # and an in-place ufunc
    for i, (arr, was) in enumerate(zip(got["arrays"], before)):
        if i != hit:
            np.testing.assert_array_equal(arr, was)
    assert np.all(target == (1 if target.dtype.kind == "b" else 2))
    assert got["tail"] == [1.5, "x", b"raw"]


@settings(max_examples=80, deadline=None)
@given(state=_owned_states, arch=OWNED_ARCHES)
def test_pure_decode_leaves_its_input_alone_and_owns_its_arrays(state, arch):
    wire = encode(state, arch)
    for buf in (wire, *_buffers(wire)):
        out = decode(buf)
        assert bytes(buf) == wire
        for arr in _arrays_in(out):
            assert arr.flags.owndata and arr.flags.writeable
            assert not np.shares_memory(arr, np.frombuffer(buf, np.uint8))


def test_decode_owned_refuses_a_read_only_buffer():
    with pytest.raises(CodecError, match="writable"):
        decode_owned(encode({"a": np.arange(3)}))
