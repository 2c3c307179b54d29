"""The whole-array float writer cli._float_text against Python's "%.17g".

Every cell must come out byte for byte as "%.17g" % value writes it, over
random bit patterns, the edges of the float range, powers of ten and their
neighbours, and the exact decimal ties that the array arithmetic leaves to
the per-value fallback. The tables of 10**k it multiplies by are checked
exact with Fraction.
"""

import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointfam import cli


def _reference(block: np.ndarray, cell_sep: str = ",", row_sep: str = "\n") -> str:
    return "".join(cell_sep.join("%.17g" % v for v in row) + row_sep for row in block.tolist())


def _assert_matches(values, cols: int = 1) -> None:
    block = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    got = cli._float_text(block, ",", "\n")
    want = _reference(block)
    if got != want:  # name the first cell that differs, not a 100 kB diff
        for value, g, w in zip(block.ravel().tolist(), got.replace("\n", ",").split(","), want.replace("\n", ",").split(",")):
            assert g == w, f"{value!r} (bits {np.float64(value).view(np.uint64):#018x})"
    assert got == want


def _with_neighbours(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    both = np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])
    both = both[np.isfinite(both)]
    return np.concatenate([both, -both])


_POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])

EDGES = np.concatenate([
    [0.0, -0.0, 5e-324, np.nextafter(sys.float_info.min, 0.0), sys.float_info.min, sys.float_info.max],
    _with_neighbours(_POWERS),
    _with_neighbours([1e16, 1e17, 1e-270, 1e270, 1e-4, 1e-5, 0.1, 2.0**53, 2.0**54, 2.0**56, 2.0**57]),
])

# Cells the array path leaves to "%": exact decimal ties at the 17th digit and
# magnitudes outside [1e-270, 1e270].
FALLBACK = np.array([
    1125899906842624.25, 1125899906842624.75, 1234567890123456.75, 1000000000000000.25,
    5e-324, 1e-300, 2.5e-271, 0.5e-270, 1.5e271, 1e300, sys.float_info.max,
])


def test_edges_match_percent_format():
    _assert_matches(EDGES)


def test_fallback_values_match_percent_format():
    _assert_matches(np.concatenate([FALLBACK, -FALLBACK]))


def test_ties_round_half_to_even():
    text = cli._float_text(np.array([[1125899906842624.25, 1125899906842624.75]]), ",", "\n")
    assert text == "1125899906842624.2,1125899906842624.8\n"


def test_random_bit_patterns_match_percent_format():
    bits = np.random.default_rng(17).integers(0, 2**64 - 1, size=200_000, dtype=np.uint64, endpoint=True)
    values = bits.view(np.float64)
    _assert_matches(values[np.isfinite(values)][:9 * 22_000], cols=9)


def test_decimal_magnitudes_match_percent_format():
    # every notation: fixed with e in -4..16 and scientific with 2- and 3-digit exponents
    rng = np.random.default_rng(5)
    mantissas = rng.uniform(1.0, 10.0, size=(601, 4))
    values = np.concatenate([mantissas, mantissas.round(3)], axis=1) * 10.0 ** np.arange(-300, 301)[:, None]
    values[:, ::3] *= -1.0
    _assert_matches(values, cols=8)


_FINITE = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))).filter(np.isfinite)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(values=st.lists(_FINITE, min_size=1, max_size=40))
def test_finite_bit_patterns_match_percent_format(values):
    _assert_matches(values)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_hypothesis_floats_match_percent_format(values):
    _assert_matches(values)


@pytest.mark.parametrize("cell_sep, row_sep", [(",", "\n"), (",", ";"), ("\n", "\n"), ("\t", "|")])
def test_separators_follow_each_cell_and_row(cell_sep, row_sep):
    block = np.array([[1.5, -0.0, 3e-7], [1e300, 2.0, -0.25]])
    assert cli._float_text(block, cell_sep, row_sep) == _reference(block, cell_sep, row_sep)


def test_powers_of_ten_tables_are_exact():
    hi, lo, high, low = cli._POW10
    for k, h, l, hh, hl in zip(range(cli._K_MIN, cli._K_MAX + 1), hi.tolist(), lo.tolist(), high.tolist(), low.tolist()):
        exact = Fraction(10) ** k
        assert h == float(exact), k  # float(Fraction) rounds to nearest, ties to even
        assert l == float(exact - Fraction(h)), k
        assert hh + hl == h, k
        for half in (hh, hl):  # Veltkamp's halves have at most 26 significant bits
            numerator = abs(half.as_integer_ratio()[0])
            assert numerator.bit_length() - (numerator & -numerator).bit_length() < 26, k
