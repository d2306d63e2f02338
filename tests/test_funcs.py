"""Unit tests for the coefficient-function layer.

The shift and the backward shift are T_z and its adjoint: the multiplier
kernel with the scalar symbol z, the m components of F as its columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.errors import DimensionMismatchError, TruncationOverflowError
from hardylab.funcs import (
    CoeffFn,
    basis_vector,
    flatten,
    make_fn,
    monomial_fn,
    unflatten,
    zero_fn,
)
from hardylab.multipliers import multiply, multiply_adjoint, scalar_symbol

_Z = scalar_symbol([0, 1])


def _shift(f):
    """S F = z F."""
    return CoeffFn(f.dim_m, multiply(_Z, f.coeffs[:, None, :])[:, 0, :])


def _backshift(f):
    """S* F = (F - F(0)) / z, on F's degree window."""
    return CoeffFn(f.dim_m, multiply_adjoint(_Z, f.coeffs[:, None, :])[:, 0, :])


def _inner(f, g):
    """<F, G> as the package computes it: on the flattened coefficients.

    Linear in F, conjugate-linear in G; both are embedded at a common degree.
    """
    deg = max(f.deg, g.deg)
    return complex(np.vdot(flatten(g, deg), flatten(f, deg)))


@st.composite
def coeff_fns(draw, max_m=3, max_deg=6):
    m = draw(st.integers(1, max_m))
    deg = draw(st.integers(0, max_deg))
    vals = draw(
        st.lists(
            st.lists(
                st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                min_size=m, max_size=m,
            ),
            min_size=deg + 1, max_size=deg + 1,
        )
    )
    return make_fn(m, vals)


class TestMakeFn:
    def test_constant_one(self):
        f = make_fn(1, [[1]])
        assert f.deg == 0
        assert f.norm() == pytest.approx(1.0)

    def test_shifted_basis_vector(self):
        f = make_fn(2, [[0, 0], [1, 0]])
        assert f.deg == 1
        assert f.norm() == pytest.approx(1.0)

    def test_parseval(self):
        f = make_fn(1, [[1], [1], [1]])
        assert f.norm() ** 2 == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_fn(2, [[1, 0], [1]])

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatchError):
            make_fn(1, [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_fn(1, [[float("nan")]])

    def test_immutable(self):
        f = make_fn(1, [[1]])
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 2.0


class TestInnerProduct:
    def test_constants(self):
        one = make_fn(1, [[1]])
        assert _inner(one, one) == pytest.approx(1.0)

    def test_orthogonal_components(self):
        f = make_fn(2, [[0, 0], [1, 0]])
        g = make_fn(2, [[0, 0], [0, 1]])
        assert _inner(f, g) == pytest.approx(0.0)

    def test_zero_padding(self):
        f = make_fn(1, [[1], [2]])
        g = make_fn(1, [[0], [1]])
        assert _inner(f, g) == pytest.approx(2.0)
        assert _inner(f, make_fn(1, [[1]])) == pytest.approx(1.0)

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            make_fn(1, [[1]]) + make_fn(2, [[1, 0]])

    @given(coeff_fns(max_m=2), st.complex_numbers(max_magnitude=5, allow_nan=False,
                                                  allow_infinity=False))
    @settings(max_examples=50, deadline=None)
    def test_conjugate_linear_second_slot(self, f, c):
        assert _inner(f, c * f) == pytest.approx(np.conj(c) * _inner(f, f))


class TestShift:
    def test_constant(self):
        assert np.allclose(_shift(make_fn(1, [[1]])).coeffs.ravel(), [0, 1])

    def test_monomial(self):
        f = _shift(monomial_fn(2, 0, 2))
        assert np.allclose(f.coeffs, monomial_fn(2, 0, 3).coeffs)

    @given(coeff_fns(), coeff_fns())
    @settings(max_examples=60, deadline=None)
    def test_isometry_and_inner_products(self, f, g):
        if f.dim_m != g.dim_m:
            return
        assert _shift(f).norm() == pytest.approx(f.norm())
        assert _inner(_shift(f), _shift(g)) == pytest.approx(_inner(f, g), abs=1e-9)


class TestBackshift:
    def test_constant_to_zero(self):
        out = _backshift(make_fn(1, [[3]]))
        assert out.deg == 0 and out.norm() == 0

    def test_monomial(self):
        out = _backshift(monomial_fn(2, 0, 2))
        assert np.allclose(out.padded(1), monomial_fn(2, 0, 1).coeffs)

    def test_linear(self):
        out = _backshift(make_fn(1, [[1], [3]]))
        assert np.allclose(out.padded(0).ravel(), [3])

    @given(coeff_fns())
    @settings(max_examples=60, deadline=None)
    def test_norm_identity(self, f):
        lost = float(np.linalg.norm(f.coeffs[0]))
        assert _backshift(f).norm() ** 2 == pytest.approx(
            f.norm() ** 2 - lost ** 2, abs=1e-8
        )

    @given(coeff_fns())
    @settings(max_examples=60, deadline=None)
    def test_backshift_of_shift_is_identity(self, f):
        back = _backshift(_shift(f))
        assert np.allclose(back.padded(f.deg), f.coeffs)

    @given(coeff_fns())
    @settings(max_examples=60, deadline=None)
    def test_shift_of_backshift_drops_origin_value(self, f):
        out = _shift(_backshift(f))
        expected = f.coeffs.copy()
        expected[0] = 0
        assert np.allclose(out.padded(max(f.deg, 1)),
                           CoeffFn(f.dim_m, expected).padded(max(f.deg, 1)))


class TestEval:
    def test_at_origin(self):
        assert make_fn(1, [[1], [1]]).value_at_zero() == pytest.approx(1.0)

    def test_monomial_at_origin(self):
        assert np.allclose(monomial_fn(2, 0, 1).value_at_zero(), [0, 0])

    def test_circle_grid_parseval(self):
        # coefficient norm equals the circle quadrature on 4(N+1) points
        rng = np.random.default_rng(7)
        for _ in range(5):
            deg = int(rng.integers(1, 9))
            f = CoeffFn(2, rng.standard_normal((deg + 1, 2))
                        + 1j * rng.standard_normal((deg + 1, 2)))
            grid = 4 * (deg + 1)
            w = np.exp(2j * np.pi * np.arange(grid) / grid)
            # Horner on every component at once: values F(w) of shape (grid, m)
            vals = np.zeros((grid, 2), dtype=complex)
            for row in f.coeffs[::-1]:
                vals = vals * w[:, None] + row
            samples = np.linalg.norm(vals, axis=1) ** 2
            quad = float(np.mean(samples))
            assert abs(quad - f.norm() ** 2) <= 1e-10 * f.norm() ** 2


class TestFlatten:
    def test_layout(self):
        assert np.allclose(flatten(make_fn(1, [[0], [1]]), 2), [0, 1, 0])

    def test_component_layout(self):
        assert np.allclose(flatten(basis_vector(2, 1), 1), [0, 1, 0, 0])

    def test_overflow(self):
        with pytest.raises(TruncationOverflowError):
            flatten(monomial_fn(1, 0, 3), 2)

    def test_zero_tail_dropped_losslessly(self):
        f = make_fn(1, [[1], [0], [0]])
        assert np.allclose(flatten(f, 0), [1])

    @given(coeff_fns())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, f):
        g = unflatten(flatten(f, f.deg + 2), f.dim_m)
        assert np.allclose(g.padded(f.deg), f.coeffs)
        assert f.norm() ** 2 == pytest.approx(
            float(np.linalg.norm(flatten(f, f.deg))) ** 2, abs=1e-8
        )


class TestZeroAndArithmetic:
    def test_zero_canonical(self):
        z = zero_fn(3)
        assert z.deg == 0 and z.norm() == 0

    def test_trim(self):
        assert make_fn(1, [[1], [0], [0]]).trimmed_deg() == 0
        assert make_fn(1, [[1], [2], [0]]).trimmed_deg() == 1
        assert zero_fn(2).trimmed_deg() == 0

    def test_linear_combination(self):
        f = make_fn(1, [[1]]) + 2 * make_fn(1, [[0], [1]])
        assert np.allclose(f.coeffs.ravel(), [1, 2])
        g = f - make_fn(1, [[1]])
        assert np.allclose(g.coeffs.ravel(), [0, 2])
