import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dvns1d import floatrepr


def _text(values) -> list:
    text, lengths = floatrepr.cells(values)
    return [row[:n].tobytes().decode() for row, n in zip(text, lengths.tolist())]


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = _text(values)
    want = [repr(v) if math.isfinite(v) else "undefined" for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(values)} differ, first (value, got, want): {bad[:5]}"


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    around = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([around, -around])


def test_powers_of_two_and_ten_with_neighbours():
    _assert_repr(_with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    _assert_repr(_with_neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_switch_between_fixed_and_exponent_form():
    # repr switches to the exponent form below 1e-4 and from 1e16 on
    edges = _with_neighbours([1e-5, 1e-4, 1e15, 1e16, 1e17, 9999999999999998.0])
    _assert_repr(np.concatenate([edges, np.linspace(1e-5, 1e-4, 20001), np.linspace(1e15, 1e17, 20001)]))
    assert _text([1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0]) == [
        "0.0001", "9.999999999999999e-05", "1e+16", "9999999999999998.0"]


def test_subnormals_with_small_mantissas():
    bits = np.arange(1, 2**16, dtype=np.uint64)
    _assert_repr(np.concatenate([bits, bits | np.uint64(2**63)]).view(np.float64))


def test_integers_near_2_53_and_thousandths():
    _assert_repr(np.concatenate([2.0**53 + np.arange(-2000.0, 2000.0), -(2.0**53) - np.arange(2000.0)]))
    _assert_repr(np.arange(-100000, 100001) / 1000)


def test_zeros_infinities_and_nans():
    bits = [0, 2**63, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
            0xFFF8000000000000, 0x7FF0000000000001, 0xFFF0000000000001, 0x7FFFFFFFFFFFFFFF,
            0xFFFFFFFFFFFFFFFF, 0x7FF4000000000123, 0xFFFC000000000456]
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _text(values) == ["0.0", "-0.0"] + ["undefined"] * 10
    _assert_repr(values)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_bit_patterns(seed):
    bits = np.random.default_rng(seed).integers(0, 2**64, size=200_000, dtype=np.uint64)
    _assert_repr(bits.view(np.float64))


def test_one_digit_shorter_candidate_tried_from_two_digits():
    # 2**-1070 = 7.9e-323 has a one-digit neighbour, 8e-323, inside its
    # rounding interval; keeping two digits would print 7.9e-323
    assert _text([2.0**-1070, 1e-322, 5e-324, 1e-323]) == ["8e-323", "1e-322", "5e-324", "1e-323"]


def test_layout_and_shapes():
    assert _text([]) == []
    assert _text(np.array([[1.5, -2.0], [1e300, 0.1]])) == ["1.5", "-2.0", "1e+300", "0.1"]
    assert _text([-1.2345678901234567e-308, 123456789012345.67]) == [
        "-1.2345678901234567e-308", "123456789012345.67"]
    text, _ = floatrepr.cells([1.0])
    assert text.shape == (1, floatrepr.WIDTH) and text[0, 3:].tobytes() == bytes(floatrepr.WIDTH - 3)


def test_shift_of_the_interval_fits_the_product_halves():
    # _mulhi takes its second factor below 2**60: (4c + 2) << h with c < 2**53
    h = floatrepr._tables().kh[:, 1]
    assert 2 <= h.min() and h.max() <= 5


def test_import_builds_no_table():
    src = str(Path(floatrepr.__file__).resolve().parents[1])
    code = "import dvns1d.harness, dvns1d.floatrepr as f; print(f._tables.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"
