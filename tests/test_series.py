"""Level-transform series layer: rational expansion and the partial-sum
inverse pair, on plain coefficient arrays.

The long-division oracle below re-derives coefficients with the textbook
power-series division recurrence, sharing no code with the module.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosswatch.errors import DomainError, SeriesOrderError
from crosswatch.series import (
    d_inverse,
    d_inverse_double_geometric,
    series_from_rational,
)


def _division_oracle(numer, roots, order):
    denom = np.array([1.0 + 0.0j])
    for F in roots:
        denom = np.convolve(denom, np.array([1.0, -complex(F)]))
    return _division_oracle_denom(numer, denom, order)


def _division_oracle_denom(numer, denom, order):
    """c_k = (n_k - sum_j d_j c_{k-j}) / d_0 against the full denominator."""
    n = np.zeros(order + 1, dtype=complex)
    src = np.asarray(numer, dtype=complex)
    n[: min(src.size, order + 1)] = src[: order + 1]
    c = np.zeros(order + 1, dtype=complex)
    for k in range(order + 1):
        acc = n[k]
        for j in range(1, min(k, denom.size - 1) + 1):
            acc -= denom[j] * c[k - j]
        c[k] = acc / denom[0]
    return c


class TestSeriesFromRational:
    def test_single_root_is_geometric(self):
        for F in (0.5, -0.25, 0.3 + 0.2j):
            coeffs = series_from_rational([1.0], np.poly([F]), 3)
            expected = np.array([1, F, F**2, F**3], dtype=complex)
            assert np.allclose(coeffs, expected, rtol=0, atol=1e-15)

    def test_linear_numerator(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            b, c = rng.uniform(-1, 1, size=2)
            coeffs = series_from_rational([1.0, -b], np.poly([c]), 2)
            expected = np.array([1.0, c - b, c * (c - b)], dtype=complex)
            assert np.allclose(coeffs, expected, rtol=0, atol=1e-14)

    def test_no_roots_is_the_numerator(self):
        coeffs = series_from_rational([1.0], [1.0], 2)
        assert isinstance(coeffs, np.ndarray) and coeffs.dtype == complex
        assert np.array_equal(coeffs, np.array([1, 0, 0], dtype=complex))

    def test_numerator_longer_than_order(self):
        coeffs = series_from_rational([1.0, 2.0, 3.0, 4.0], [1.0], 1)
        assert np.array_equal(coeffs, np.array([1, 2], dtype=complex))

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            series_from_rational([1.0], [1.0, -0.5], -1)

    def test_denominator_without_constant_term_rejected(self):
        for denom in ([0.0, 1.0], [], [0.0]):
            with pytest.raises(DomainError):
                series_from_rational([1.0], denom, 3)

    def test_sparse_long_denominator_against_long_division(self):
        # the recurrence runs over the nonzero lags only
        rng = np.random.default_rng(13)
        for _ in range(50):
            denom = np.zeros(int(rng.integers(3, 9)), dtype=complex)
            denom[0] = 1.0
            lags = rng.choice(np.arange(1, denom.size), size=2, replace=False)
            denom[lags] = 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            numer = rng.standard_normal(3)
            order = int(rng.integers(0, 20))
            got = series_from_rational(numer, denom, order)
            want = _division_oracle_denom(numer, denom, order)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_against_long_division(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            deg = int(rng.integers(1, 4))
            numer = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
            n_roots = int(rng.integers(0, 4))
            roots = rng.uniform(-0.9, 0.9, n_roots) + 1j * rng.uniform(-0.9, 0.9, n_roots)
            order = int(rng.integers(0, 12))
            got = series_from_rational(numer, np.poly(roots), order)
            want = _division_oracle(numer, roots, order)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


class TestDInverse:
    def test_geometric_partial_sum(self):
        F = 0.65
        m = 4
        coeffs = series_from_rational([1.0], np.poly([F]), m - 1)
        want = sum(F**j for j in range(m))
        assert abs(d_inverse(coeffs, m - 1) - want) < 1e-14

    def test_monomial(self):
        coeffs = np.zeros(6)
        coeffs[3] = 1.0
        assert d_inverse(coeffs, 2) == 0
        assert d_inverse(coeffs, 3) == 1
        assert d_inverse(coeffs, 5) == 1

    def test_negative_threshold_is_zero(self):
        assert d_inverse(np.array([1.0, 2.0]), -1) == 0

    def test_insufficient_order(self):
        with pytest.raises(SeriesOrderError):
            d_inverse(np.array([1.0, 2.0]), 2)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            al, be = rng.standard_normal(2)
            k = int(rng.integers(0, 8))
            lhs = d_inverse(al * a + be * b, k)
            rhs = al * d_inverse(a, k) + be * d_inverse(b, k)
            assert abs(lhs - rhs) < 1e-12

    @given(
        st.lists(
            st.integers(min_value=-1_000_000, max_value=1_000_000),
            min_size=1,
            max_size=31,
        )
    )
    def test_integer_round_trip(self, f):
        # transform of the sequence is (1-s) sum_p s^p f(p); its truncation
        # to order K has coefficients f(0), f(1)-f(0), ...
        diffs = [f[0]] + [f[p] - f[p - 1] for p in range(1, len(f))]
        for k in range(len(f)):
            got = d_inverse(diffs, k)
            assert got.real == f[k] and got.imag == 0


class TestDoubleGeometric:
    def test_zero_rates(self):
        assert d_inverse_double_geometric(0.0, 0.0, 4) == 1

    def test_hand_value(self):
        assert abs(d_inverse_double_geometric(0.5, 0.25, 2) - 2.1875) < 1e-15

    def test_negative_threshold(self):
        assert d_inverse_double_geometric(0.7, 0.3, -2) == 0

    def test_array_f_matches_scalar_calls(self):
        F = np.array([[0.3, 0.5 + 0.2j], [-0.4, 0.9]])
        for k in (-1, 0, 3, 40):
            got = d_inverse_double_geometric(F, 0.7, k)
            assert got.shape == F.shape
            assert np.array_equal(got, np.vectorize(lambda f: d_inverse_double_geometric(f, 0.7, k))(F))

    def test_matches_series_extraction(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            F = rng.uniform(-0.95, 0.95) + 1j * rng.uniform(-0.5, 0.5)
            G = rng.uniform(-0.95, 0.95) + 1j * rng.uniform(-0.5, 0.5)
            k = int(rng.integers(0, 21))
            closed = d_inverse_double_geometric(F, G, k)
            series = d_inverse(series_from_rational([1.0], np.poly([F, G]), k), k)
            scale = max(abs(series), 1.0)
            assert abs(closed - series) / scale < 1e-13
