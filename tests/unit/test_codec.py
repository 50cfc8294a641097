"""Unit tests for the machine-independent memory-graph codec."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec import (
    MIPS32,
    NATIVE,
    SPARC32,
    X86_64,
    Architecture,
    decode,
    encode,
    encoded_size,
    peek_arch,
)
from repro.util.errors import CodecError
from tests.helpers.reference_codec import reference_encode

ARCHES = [SPARC32, MIPS32, X86_64]


@pytest.mark.parametrize("arch", ARCHES, ids=lambda a: a.name)
@pytest.mark.parametrize("value", [
    None, True, False, 0, 1, -1, 2**70, -(2**70), 3.14159, -0.0,
    float("inf"), 1 + 2j, "", "héllo wörld", b"", b"\x00\xff raw",
    (), (1, 2, 3), ("a", (1.5, None)), frozenset({1, 2, 3}),
])
def test_leaf_roundtrip(arch, value):
    assert decode(encode(value, arch)) == value


@pytest.mark.parametrize("arch", ARCHES, ids=lambda a: a.name)
def test_nan_roundtrip(arch):
    out = decode(encode(float("nan"), arch))
    assert np.isnan(out)


@pytest.mark.parametrize("arch", ARCHES, ids=lambda a: a.name)
def test_container_roundtrip(arch):
    value = {
        "ints": [1, 2, 3],
        "nested": {"a": {1, 2}, "b": bytearray(b"xyz")},
        ("tuple", "key"): [None, True, 2.5],
    }
    out = decode(encode(value, arch))
    assert out == value
    assert isinstance(out["nested"]["b"], bytearray)


def test_shared_reference_preserved():
    shared = [1, 2, 3]
    value = {"a": shared, "b": shared}
    out = decode(encode(value))
    assert out["a"] is out["b"]
    out["a"].append(4)
    assert out["b"] == [1, 2, 3, 4]


def test_cycle_preserved():
    lst: list = [1, 2]
    lst.append(lst)
    out = decode(encode(lst))
    assert out[0] == 1 and out[1] == 2
    assert out[2] is out


def test_mutual_cycle():
    a: dict = {}
    b: dict = {"a": a}
    a["b"] = b
    out = decode(encode(a))
    assert out["b"]["a"] is out


def test_distinct_equal_lists_stay_distinct():
    value = [[1, 2], [1, 2]]
    out = decode(encode(value))
    assert out[0] == out[1]
    assert out[0] is not out[1]


@pytest.mark.parametrize("arch", ARCHES, ids=lambda a: a.name)
@pytest.mark.parametrize("dtype", ["f8", "f4", "i4", "i8", "u2", "c16", "b1"])
def test_ndarray_roundtrip(arch, dtype):
    rng = np.random.default_rng(42)
    arr = (rng.random((3, 4, 5)) * 100).astype(dtype)
    out = decode(encode(arr, arch))
    assert out.shape == arr.shape
    assert out.dtype == arr.dtype.newbyteorder("=")
    np.testing.assert_array_equal(out, arr)


def test_ndarray_zero_dim():
    arr = np.array(7.5)
    out = decode(encode(arr))
    assert out.shape == () and float(out) == 7.5


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0, 4)])
def test_ndarray_empty_shapes(shape):
    # an empty n-d buffer cannot be cast to bytes by memoryview; the
    # encoder flattens first
    arr = np.empty(shape, dtype="i2")
    out = decode(encode(arr, SPARC32))
    assert out.shape == shape and out.dtype == np.dtype("i2")
    assert encode(arr, SPARC32) == reference_encode(arr, SPARC32)


def test_ndarray_noncontiguous():
    arr = np.arange(100, dtype="f8").reshape(10, 10)[::2, ::3]
    out = decode(encode(arr))
    np.testing.assert_array_equal(out, arr)


def test_numpy_scalar_roundtrip():
    for v in (np.float64(2.5), np.int32(-7), np.bool_(True)):
        out = decode(encode(v, SPARC32))
        assert out == v


def test_cross_architecture_bytes_differ_but_value_same():
    arr = np.arange(16, dtype="i4")
    big = encode(arr, SPARC32)
    little = encode(arr, MIPS32)
    assert big != little  # genuinely different byte-level representation
    np.testing.assert_array_equal(decode(big), decode(little))


def test_peek_arch():
    blob = encode([1, 2], SPARC32)
    arch = peek_arch(blob)
    assert arch.name == "sparc32" and arch.endian == "big"


def test_bad_magic_rejected():
    with pytest.raises(CodecError):
        decode(b"NOTSNOW!xxxx")


def test_unsupported_type_rejected():
    class Custom:
        pass

    with pytest.raises(CodecError):
        encode(Custom())


def test_unsupported_dtype_rejected():
    arr = np.array(["a", "b"], dtype="U1")
    with pytest.raises(CodecError):
        encode(arr)


def test_encoded_size_positive_and_tracks_payload():
    small = encoded_size(np.zeros(10))
    large = encoded_size(np.zeros(10_000))
    assert 80 < small < 300
    assert large > 80_000


def test_deterministic_encoding():
    value = {"s": {3, 1, 2}, "f": frozenset({"b", "a"})}
    assert encode(value) == encode(value)


def test_bad_architecture_params_rejected():
    with pytest.raises(CodecError):
        Architecture("x", "middle", 32)
    with pytest.raises(CodecError):
        Architecture("x", "big", 16)


def test_realistic_migration_state():
    """A state dict like the MG application's: arrays + scalars + config."""
    state = {
        "iter": 2,
        "grid": np.random.default_rng(1).random((16, 16, 16)),
        "residual_history": [0.5, 0.25, 0.12],
        "config": {"levels": 4, "nu1": 2, "nu2": 1},
        "rank": 0,
    }
    for arch in ARCHES:
        out = decode(encode(state, arch))
        assert out["iter"] == 2
        np.testing.assert_array_equal(out["grid"], state["grid"])
        assert out["config"] == state["config"]
