"""Unit tests for multiplier application, adjoints, and Toeplitz realizations."""

import numpy as np
import pytest

from hardylab.errors import DimensionMismatchError
from hardylab.funcs import (
    CoeffFn,
    basis_vector,
    flatten,
    inner_product,
    make_fn,
    monomial_fn,
)
from hardylab.inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from hardylab.multipliers import (
    MatSymbol,
    adjoint_apply,
    apply_multiplier,
    column_symbol,
    compose,
    identity_symbol,
    scalar_symbol,
    symbol_column,
    toeplitz_matrix,
)


def _rng_fn(rng, m, deg):
    return CoeffFn(m, rng.standard_normal((deg + 1, m))
                   + 1j * rng.standard_normal((deg + 1, m)))


def _rng_symbol(rng, m_out, m_in, deg):
    return MatSymbol(m_out, m_in,
                     rng.standard_normal((deg + 1, m_out, m_in))
                     + 1j * rng.standard_normal((deg + 1, m_out, m_in)))


def _geometric_blaschke_half(deg):
    # independent expansion of (1/2 - z) * sum (z/2)^k
    geo = np.array([0.5 ** k for k in range(deg + 1)], dtype=complex)
    out = 0.5 * geo
    out[1:] -= geo[:-1]
    return out


class TestApply:
    def test_shift_symbol(self):
        zi = diag_inner([monomial_inner(1, 1)] * 2, 1)
        out = apply_multiplier(zi, basis_vector(2, 0))
        assert np.allclose(out.coeffs, monomial_fn(2, 0, 1).coeffs)

    def test_diag_monomials(self):
        t = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
        f = make_fn(2, [[1, 1]])
        out = apply_multiplier(t, f)
        expected = monomial_fn(2, 0, 2) + monomial_fn(2, 1, 3)
        assert np.allclose(out.padded(3), expected.padded(3))

    def test_blaschke_against_geometric_expansion(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 32)
        out = apply_multiplier(b, make_fn(1, [[1]]), out_deg=32)
        assert np.allclose(out.coeffs.ravel(), _geometric_blaschke_half(32))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_multiplier(identity_symbol(2), make_fn(1, [[1]]))

    def test_norm_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            t = _rng_symbol(rng, 2, 2, 3)
            f = _rng_fn(rng, 2, 4)
            bound = sum(np.linalg.norm(blk, 2) for blk in t.mats) * f.norm()
            assert apply_multiplier(t, f).norm() <= bound + 1e-9

    def test_inner_isometry_up_to_tail(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 24)
        eps = b.tail_bound
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = _rng_fn(rng, 1, 6)
            out = apply_multiplier(b, f)
            assert abs(out.norm() - f.norm()) <= np.sqrt(2 * eps + eps ** 2) * f.norm() + 1e-12


class TestAdjoint:
    def test_kills_constants(self):
        z = scalar_symbol([0, 1])
        assert adjoint_apply(z, make_fn(1, [[1]])).is_zero()

    def test_lowers_monomial(self):
        z = scalar_symbol([0, 1])
        out = adjoint_apply(z, make_fn(1, [[0], [1]]))
        assert np.allclose(out.coeffs.ravel(), [1, 0])

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = _rng_symbol(rng, 3, 2, 2)
            f = _rng_fn(rng, 2, 3)
            g = _rng_fn(rng, 3, 6)
            lhs = inner_product(apply_multiplier(t, f), g)
            rhs = inner_product(f, adjoint_apply(t, g))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_dense_conjugate_transpose(self):
        rng = np.random.default_rng(13)
        n = 5
        t = _rng_symbol(rng, 2, 3, 2)
        mat = toeplitz_matrix(t, n)
        g = _rng_fn(rng, 2, n)
        via_matrix = np.conj(mat.T) @ flatten(g, n)
        direct = flatten(adjoint_apply(t, g), n)
        assert np.allclose(via_matrix, direct)


class TestToeplitz:
    def test_scalar_shift(self):
        mat = toeplitz_matrix(scalar_symbol([0, 1]), 2)
        assert np.allclose(mat, np.diag([1, 1], -1))

    def test_identity(self):
        assert np.allclose(toeplitz_matrix(identity_symbol(2), 1), np.eye(4))

    def test_rank_of_mixed_diag(self):
        t = diag_inner([monomial_inner(2, 2), monomial_inner(1, 2)], 2)
        mat = toeplitz_matrix(t, 3)
        assert np.linalg.matrix_rank(mat) == 5

    def test_action_matches_apply(self):
        rng = np.random.default_rng(17)
        t = _rng_symbol(rng, 2, 2, 2)
        f = _rng_fn(rng, 2, 3)
        n = 5
        assert np.allclose(
            toeplitz_matrix(t, n) @ flatten(f, n),
            flatten(apply_multiplier(t, f), n),
        )


def _shift_commutator_norm(mat, m_out, m_in, sym_deg):
    """Operator norm of S.mat - mat.S on inputs of degree <= N - sym_deg - 1.

    S is the compressed shift on the flattened window; restricting the
    inputs keeps both compositions free of truncation.
    """
    s_out = np.eye(mat.shape[0], k=-m_out)
    s_in = np.eye(mat.shape[1], k=-m_in)
    keep = mat.shape[1] - (sym_deg + 1) * m_in
    return np.linalg.norm((s_out @ mat - mat @ s_in)[:, :keep], 2)


class TestCommutation:
    def test_any_symbol_commutes(self):
        rng = np.random.default_rng(19)
        t = _rng_symbol(rng, 2, 2, 2)
        assert _shift_commutator_norm(toeplitz_matrix(t, 8), 2, 2, t.deg) <= 1e-12

    def test_diag_monomials_commute(self):
        t = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
        assert _shift_commutator_norm(toeplitz_matrix(t, 8), 2, 2, t.deg) <= 1e-12

    def test_perturbed_block_fails(self):
        t = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
        mat = toeplitz_matrix(t, 8)
        mat[4, 2] += 0.5  # break the Toeplitz block structure
        assert _shift_commutator_norm(mat, 2, 2, t.deg) > 0.1


class TestCompose:
    def test_monomial_product(self):
        z = scalar_symbol([0, 1], claimed_inner=True)
        z2 = compose(z, z)
        assert np.allclose(z2.mats[:, 0, 0], [0, 0, 1])
        assert z2.claimed_inner

    def test_tail_accumulates(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 16)
        prod = compose(b, b)
        assert prod.tail_bound >= 2 * b.tail_bound - 1e-15

    def test_truncated_product_tail(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 16)
        full = compose(b, b)
        cut = compose(b, b, out_deg=16)
        dropped = sum(abs(full.mats[k, 0, 0]) for k in range(17, 33))
        assert cut.tail_bound >= full.tail_bound + dropped - 1e-12


class TestColumns:
    def test_symbol_column_roundtrip(self):
        t = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
        col = symbol_column(t, 1)
        assert np.allclose(col.coeffs, monomial_fn(2, 1, 2).padded(2))
        back = column_symbol(col)
        assert back.m_out == 2 and back.m_in == 1
