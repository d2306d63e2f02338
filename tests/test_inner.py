"""Unit tests for inner constructors and their isometry certificate."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from hardylab.errors import DimensionMismatchError, DomainError, NotInnerError
from hardylab.funcs import make_fn
from hardylab.inner import (
    BlaschkeSpec,
    blaschke_scalar,
    diag_inner,
    _tail_bound,
    monomial_inner,
)
from hardylab.multipliers import MatSymbol, multiply, scalar_symbol
from hardylab.subspaces import _isometry_defect, beurling_space


def _eval_blaschke(spec, z):
    """Closed-form value of the (untruncated) Blaschke product at z."""
    val = spec.rotation
    for a in spec.zeros:
        val *= z if a == 0 else (abs(a) / a) * (a - z) / (1 - np.conj(a) * z)
    return complex(val)


class TestBlaschkeScalar:
    def test_zero_at_origin_is_z(self):
        b = blaschke_scalar(BlaschkeSpec([0]), 4)
        assert np.allclose(b.mats[:, 0, 0], [0, 1, 0, 0, 0])
        assert b.tail_bound == 0.0

    def test_half_zero_coefficients(self):
        # hand expansion of (1/2 - z) sum (z/2)^k
        b = blaschke_scalar(BlaschkeSpec([0.5]), 2)
        assert np.allclose(b.mats[:, 0, 0], [0.5, -0.75, -0.375])

    def test_empty_product(self):
        b = blaschke_scalar(BlaschkeSpec([]), 3)
        assert np.allclose(b.mats[:, 0, 0], [1, 0, 0, 0])

    def test_zero_outside_disc(self):
        with pytest.raises(DomainError):
            BlaschkeSpec([1.0])

    def test_rotation_must_be_unimodular(self):
        with pytest.raises(DomainError):
            BlaschkeSpec([], rotation=2.0)

    def test_positive_at_origin(self):
        b = blaschke_scalar(BlaschkeSpec([0.5 * 1j]), 4)
        assert b.mats[0, 0, 0].real == pytest.approx(0.5)
        assert abs(b.mats[0, 0, 0].imag) < 1e-15

    def test_coefficient_decay(self):
        spec = BlaschkeSpec([0.5, 0.3j])
        b = blaschke_scalar(spec, 40)
        mags = np.abs(b.mats[:, 0, 0])
        rho = 0.5
        assert all(mags[k] <= 4.0 * rho ** k for k in range(5, 41))

    def test_truncation_below_shift_degree_carries_tail(self):
        b = blaschke_scalar(BlaschkeSpec([0, 0]), 1)
        assert b.tail_bound >= 1.0
        assert np.allclose(b.mats[:, 0, 0], [0, 0])

    def test_tail_bound_is_certified(self):
        # the declared bound dominates the actual l1 tail
        spec = BlaschkeSpec([0.5, -0.4, 0.25j])
        long = blaschke_scalar(spec, 220).mats[:, 0, 0]
        for d in (8, 16, 32):
            actual = float(np.sum(np.abs(long[d + 1:])))
            assert blaschke_scalar(spec, d).tail_bound >= actual

    def test_matches_closed_form_on_circle(self):
        spec = BlaschkeSpec([0.5], rotation=1j)
        b = blaschke_scalar(spec, 48)
        for t in np.linspace(0, 2 * np.pi, 17):
            w = np.exp(1j * t)
            series = np.polyval(b.mats[::-1, 0, 0], w)
            assert abs(series - _eval_blaschke(spec, w)) <= b.tail_bound + 1e-12


class TestTailBound:
    """The dominating series prod(M_i) sum_{n > deg} C(n+k-1, k-1) rho^n."""

    def test_single_zero_is_geometric(self):
        # M = max(1/2, 3/2) = 3/2 and sum_{n >= 4} 2^-n = 1/8
        assert _tail_bound((0.5,), 3) == 0.1875
        # a zero at the origin shifts the window by one degree
        assert _tail_bound((0.5, 0), 4) == 0.1875

    def test_three_zeros_match_exact_sum(self):
        # rho = 1/2, scale = 3/2 * 3/2 * 15/4; the remainder after 400 terms
        # of the exact sum is below 2^-300
        scale = Fraction(3, 2) * Fraction(3, 2) * Fraction(15, 4)
        exact = scale * sum(comb(n + 2, 2) * Fraction(1, 2) ** n for n in range(6, 406))
        assert _tail_bound((0.5, 0.5, -0.25), 5) == pytest.approx(float(exact), rel=1e-14)

    def test_zero_near_the_circle_is_not_cut_short(self):
        # |a| = 0.99999: the series needs about 10^6 terms; summing only
        # 2 * 10^5 of them returned 86456
        rho = Fraction(0.99999)
        exact = rho * rho ** 11 / (1 - rho)
        got = _tail_bound((0.99999,), 10)
        assert got >= exact
        assert got == pytest.approx(float(exact), rel=1e-14)


class TestMonomialInner:
    def test_constant(self):
        t = monomial_inner(0, 0)
        assert np.allclose(t.mats[:, 0, 0], [1])

    def test_padded(self):
        t = monomial_inner(2, 4)
        assert np.allclose(t.mats[:, 0, 0], [0, 0, 1, 0, 0])
        assert t.tail_bound == 0.0

    def test_power_above_degree(self):
        with pytest.raises(DimensionMismatchError):
            monomial_inner(5, 4)

    def test_exact_isometry(self):
        t = monomial_inner(3, 3)
        f = make_fn(1, [[1], [2], [3]])
        assert np.linalg.norm(multiply(t, f.coeffs[..., None])) == pytest.approx(f.norm())

    def test_application_is_iterated_shift(self):
        f = make_fn(1, [[1], [2j], [3]])
        out = multiply(monomial_inner(3, 4), f.coeffs[..., None])[:, :, 0]
        assert out.shape == (7, 1)
        assert np.array_equal(out[:3], np.zeros((3, 1)))
        assert np.array_equal(out[3:6], f.coeffs)
        assert out[6] == 0


class TestDiagInner:
    def test_shift_diagonal(self):
        t = diag_inner([monomial_inner(1, 1)] * 2, 1)
        assert np.allclose(t.mats[1], np.eye(2))
        assert np.allclose(t.mats[0], 0)

    def test_mixed_entries(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 4)
        t = diag_inner([monomial_inner(2, 4), b], 4)
        assert np.allclose(t.mats[:, 0, 0], [0, 0, 1, 0, 0])
        assert np.allclose(t.mats[:, 1, 1], b.mats[:, 0, 0])
        assert t.tail_bound == pytest.approx(b.tail_bound)

    def test_identity_entry(self):
        t = diag_inner([monomial_inner(0, 0)], 0)
        assert np.allclose(t.mats[0], [[1]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            diag_inner([], 2)

    def test_non_inner_entry_rejected(self):
        with pytest.raises(NotInnerError):
            diag_inner([scalar_symbol([0.5])], 2)


class TestCheckInner:
    """The isometry defect delta = sum_l ||(Theta* Theta - I)^(l)||_2."""

    def test_shift_diagonal(self):
        t = diag_inner([monomial_inner(1, 1)] * 2, 1)
        assert _isometry_defect(t) <= 1e-12

    def test_monomial_diag(self):
        t = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
        assert _isometry_defect(t) <= 1e-12

    def test_truncated_blaschke_within_tail(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 32)
        assert _isometry_defect(b) <= 3.0 * b.tail_bound + 1e-10


class TestAsInner:
    def test_rejects_non_inner(self):
        # claimed inner, but delta = 1: the range construction refuses it
        t = MatSymbol(1, 1, scalar_symbol([0.5, 0.5]).mats, claimed_inner=True)
        assert _isometry_defect(t) == pytest.approx(1.0)
        with pytest.raises(NotInnerError):
            beurling_space(t, 4)
