"""Column-wise number text: float_text against repr, uint_text against str."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bmixlhv import reporting
from bmixlhv.reporting import float_text, text_rows, uint_text


def _texts(matrix) -> list[str]:
    """Each row of a text matrix with its NUL bytes dropped."""
    return [row[row != 0].tobytes().decode("ascii") for row in matrix]


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert _texts(float_text(values)) == [repr(v) for v in values.tolist()]


def _around(x: float) -> list[float]:
    return [float(np.nextafter(x, -np.inf)), x, float(np.nextafter(x, np.inf))]


EDGE_VALUES = [
    0.0, -0.0, 5e-324,
    2.2250738585072009e-308,  # the largest subnormal
    2.2250738585072014e-308,  # the smallest normal
    0.5, 1.0, 1.5, 3.0, 2.0**52, *_around(2.0**53),
    # repr turns scientific below 1e-4
    *_around(1e-5), *_around(1e-4),
    9999999999999998.0, 1e16, 1e22, 36.74, float(np.nextafter(2.0 * math.pi, 0.0)),
    # the kernel's top exponent, below 2**50, and the first one above it
    *_around(2.0**49), *_around(2.0**50),
    0.1, 5e-5, 0.00012345678901234567, 123456789012345.67, 1e-300, 1.2345678901234567e-300,
    -1.5, math.inf, -math.inf, math.nan, 1.7976931348623157e308,
    # digits that end on the lower bound, which lies outside the interval
    6.617444900424222e-24, 5.075883674631299e-116, 7.120236347223045e-307,
    # 14 to 51 trailing zero mantissa bits, either side of Ryu's trailing-zero case
    *((1.0 + 2.0**(zeros - 52)) * 2.0**scale for zeros in range(14, 52) for scale in (-40, 0, 40)),
]


def test_float_text_is_repr_on_the_edges():
    _assert_repr(EDGE_VALUES)


@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_float_text_is_repr_of_finite_nonnegative_doubles(values):
    _assert_repr(values)


def test_float_text_is_repr_of_random_bit_patterns():
    bits = np.random.default_rng(20261019).integers(0, 2**64, 10**5, dtype=np.uint64)
    _assert_repr(bits.view(np.float64))


def test_event_values_stay_in_the_kernel():
    # repr is the slow path: decay times and phases, in lifetimes or at a
    # physical tau, almost never leave the kernel
    rng = np.random.default_rng(5)
    t = -np.log1p(-rng.random(10**4))
    for values in (t, 1.5e-12 * t, 2.0 * math.pi * rng.random(10**4)):
        digits, exponent, length, exact = reporting._shortest(values.view(np.uint64))
        assert exact.mean() > 0.999
        shortest = [f"{d}e{e}" for d, e in zip(digits[exact].tolist(), exponent[exact].tolist())]
        assert list(map(float, shortest)) == values[exact].tolist()
        assert [len(str(d)) for d in digits[exact].tolist()] == length[exact].tolist()
        _assert_repr(values)


def test_uint_text_is_str():
    values = np.array([0, 1, 9, 10, 99, 100, 12345, 2**53 + 1, 2**64 - 1], dtype=np.uint64)
    values = np.concatenate([values, np.random.default_rng(3).integers(0, 2**64, 1000,
                                                                       dtype=np.uint64)])
    assert _texts(uint_text(values)) == [str(v) for v in values.tolist()]
    assert uint_text(np.arange(5, dtype=np.uint64)).shape == (5, 1)


def test_text_rows_join_fields_and_drop_padding():
    fields = [uint_text(np.array([7, 123], dtype=np.uint64)), float_text([0.5, 1e-7])]
    assert text_rows(fields) == b"7,0.5\n123,1e-07\n"


def _dispatched_above_baseline() -> list[str]:
    """The SIMD features numpy dispatches to on this CPU beyond its baseline."""
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    return [feature for feature in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(feature) and feature not in umath.__cpu_baseline__]


def test_kernel_is_repr_on_numpys_baseline_simd_path():
    # numpy picks its integer and byte loops by CPU feature: rerun this file
    # with every feature above the baseline switched off, where this test
    # finds none and skips.  numpy may still report a feature whose parent is
    # off (AVX512_ICL with X86_V4 off), so the child keeps what this process
    # had switched off too: each level switches off more, and the reruns end
    features = _dispatched_above_baseline()
    if not features:
        pytest.skip("numpy dispatches no SIMD feature above its baseline on this CPU")
    inherited = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    assert set(features) - set(inherited), f"numpy keeps {features} on although switched off"
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(dict.fromkeys(inherited + features))}
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
                           env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stdout + child.stderr
    assert " 1 skipped" in child.stdout, child.stdout
