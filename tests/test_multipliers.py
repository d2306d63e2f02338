"""Unit tests for the multiplier kernel, symbol products and their oracles.

The references below are the implementations the kernel replaced: the
dense block Toeplitz matrix, the per-function Cauchy and correlation
loops, and the block-product loop of ``compose``.
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
)
from hardylab.inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from hardylab.multipliers import (
    MatSymbol,
    compose,
    multiply,
    multiply_adjoint,
    scalar_symbol,
)
from hardylab.nearly import orthocomplement_membership, synthesize_M
from hardylab.subspaces import model_space, project


def _norm(f):
    """The H^2 norm of a function: the 2-norm of its coefficients."""
    return float(np.linalg.norm(f.coeffs))


def _project_fn(s, f):
    """P_S F of one function, on S's window."""
    return CoeffFn(f.dim_m, project(s, f.coeffs[:, :, None])[:, :, 0])


def _stacked(gs):
    """The coefficients of G_1 ... G_b as one (d + 1, m, b) array, each
    zero-padded to the largest degree d: the layout the membership test takes."""
    deg = max(g.deg for g in gs)
    return np.stack([g.padded(deg) for g in gs], axis=2)


def _rng_fn(rng, m, deg):
    return CoeffFn(m, rng.standard_normal((deg + 1, m))
                   + 1j * rng.standard_normal((deg + 1, m)))


def _column(f):
    """An m-vector function as an m x 1 symbol."""
    return MatSymbol(f.dim_m, 1, f.coeffs.reshape(-1, f.dim_m, 1))


def _rng_symbol(rng, m_out, m_in, deg, real=False):
    mats = (rng.standard_normal((deg + 1, m_out, m_in))
            + 1j * rng.standard_normal((deg + 1, m_out, m_in)))
    return MatSymbol(m_out, m_in, mats.real if real else mats)


def _rng_coeffs(rng, deg, m, b, real=False):
    x = (rng.standard_normal((deg + 1, m, b))
         + 1j * rng.standard_normal((deg + 1, m, b)))
    return x.real if real else x


def _geometric_blaschke_half(deg):
    # independent expansion of (1/2 - z) * sum (z/2)^k
    geo = np.array([0.5 ** k for k in range(deg + 1)], dtype=complex)
    out = 0.5 * geo
    out[1:] -= geo[:-1]
    return out


def _dense_toeplitz(t, ambient_deg):
    """Block lower-triangular Toeplitz realization on the flattened window.

    Block (i, j) is Theta_{i-j} for i >= j; products above the window are
    cut off.
    """
    n = ambient_deg + 1
    out = np.zeros((t.m_out * n, t.m_in * n), dtype=complex)
    for d in range(min(t.deg, ambient_deg) + 1):
        blk = t.mats[d]
        for j in range(n - d):
            i = j + d
            out[i * t.m_out : (i + 1) * t.m_out, j * t.m_in : (j + 1) * t.m_in] = blk
    return out


def _adjoint_reference(t, coeffs):
    """Analytic part of Theta* G for one (deg+1, m_out) coefficient array."""
    deg = coeffs.shape[0] - 1
    out = np.zeros((deg + 1, t.m_in), dtype=complex)
    for j in range(min(t.deg, deg) + 1):
        out[: deg + 1 - j] += coeffs[j:] @ np.conj(t.mats[j])
    return out


def _compose_reference(a, b):
    """The block Cauchy product of two symbols, one product per block of a."""
    out = np.zeros((a.deg + b.deg + 1, a.m_out, b.m_in),
                   dtype=np.result_type(a.mats, b.mats))
    for j in range(a.deg + 1):
        out[j : j + b.deg + 1] += a.mats[j] @ b.mats
    return out


def _apply(t, f, out_deg=None):
    """The kernel on one function: T_Theta F as a CoeffFn."""
    return CoeffFn(t.m_out, multiply(t, f.coeffs[..., None], out_deg)[:, :, 0])


def _realized(t, n):
    """The kernel on the identity columns of the window, cut to the window."""
    cols = np.eye(t.m_in * (n + 1)).reshape(n + 1, t.m_in, -1)
    return multiply(t, cols)[: n + 1].reshape(t.m_out * (n + 1), -1)


class TestApply:
    def test_shift_symbol(self):
        zi = diag_inner([monomial_inner(1, 1)] * 2, 1)
        out = _apply(zi, basis_vector(2, 0))
        assert np.allclose(out.coeffs, monomial_fn(2, 0, 1).coeffs)

    def test_diag_monomials(self):
        t = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
        f = make_fn(2, [[1, 1]])
        out = _apply(t, f)
        expected = monomial_fn(2, 0, 2) + monomial_fn(2, 1, 3)
        assert np.allclose(out.padded(3), expected.padded(3))

    def test_blaschke_against_geometric_expansion(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 32)
        out = _apply(b, make_fn(1, [[1]]), out_deg=32)
        assert np.allclose(out.coeffs.ravel(), _geometric_blaschke_half(32))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(MatSymbol(2, 2, np.eye(2).reshape(1, 2, 2)),
                     make_fn(1, [[1]]).coeffs[..., None])

    def test_norm_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            t = _rng_symbol(rng, 2, 2, 3)
            f = _rng_fn(rng, 2, 4)
            bound = sum(np.linalg.norm(blk, 2) for blk in t.mats) * _norm(f)
            assert _norm(_apply(t, f)) <= bound + 1e-9

    def test_inner_isometry_up_to_tail(self):
        b = blaschke_scalar(BlaschkeSpec([0.5]), 24)
        eps = b.tail_bound
        rng = np.random.default_rng(5)
        for _ in range(5):
            f = _rng_fn(rng, 1, 6)
            out = _apply(b, f)
            assert abs(_norm(out) - _norm(f)) <= np.sqrt(2 * eps + eps ** 2) * _norm(f) + 1e-12


class TestAdjoint:
    def test_kills_constants(self):
        z = scalar_symbol([0, 1])
        assert not multiply_adjoint(z, np.ones((1, 1, 1))).any()

    def test_lowers_monomial(self):
        z = scalar_symbol([0, 1])
        out = multiply_adjoint(z, make_fn(1, [[0], [1]]).coeffs[..., None])
        assert np.array_equal(out.ravel(), [1, 0])

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            t = _rng_symbol(rng, 3, 2, 2)
            f = _rng_fn(rng, 2, 3)
            g = _rng_fn(rng, 3, 6)
            lhs = np.vdot(g.padded(6), _apply(t, f).padded(6))
            rhs = np.vdot(multiply_adjoint(t, g.coeffs[..., None])[:, :, 0], f.padded(6))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_matches_dense_conjugate_transpose(self):
        rng = np.random.default_rng(13)
        n = 5
        t = _rng_symbol(rng, 2, 3, 2)
        mat = _dense_toeplitz(t, n)
        g = _rng_fn(rng, 2, n)
        via_matrix = np.conj(mat.T) @ flatten(g, n)
        direct = multiply_adjoint(t, g.coeffs[..., None]).reshape(-1)
        assert np.allclose(via_matrix, direct)


class TestToeplitz:
    """The kernel on the window's identity columns is the block Toeplitz matrix."""

    def test_scalar_shift(self):
        mat = _realized(scalar_symbol([0, 1]), 2)
        assert np.array_equal(mat, np.diag([1, 1], -1))

    def test_identity(self):
        eye = MatSymbol(2, 2, np.eye(2).reshape(1, 2, 2))
        assert np.array_equal(_realized(eye, 1), np.eye(4))

    def test_rank_of_mixed_diag(self):
        t = diag_inner([monomial_inner(2, 2), monomial_inner(1, 2)], 2)
        mat = _realized(t, 3)
        assert np.array_equal(mat, _dense_toeplitz(t, 3))
        assert np.linalg.matrix_rank(mat) == 5

    def test_action_matches_apply(self):
        rng = np.random.default_rng(17)
        t = _rng_symbol(rng, 2, 2, 2)
        f = _rng_fn(rng, 2, 3)
        n = 5
        assert np.allclose(
            _dense_toeplitz(t, n) @ flatten(f, n),
            multiply(t, f.coeffs[..., None], n).reshape(-1),
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
        assert _shift_commutator_norm(_realized(t, 8), 2, 2, t.deg) <= 1e-12

    def test_diag_monomials_commute(self):
        t = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
        assert _shift_commutator_norm(_realized(t, 8), 2, 2, t.deg) <= 1e-12

    def test_perturbed_block_fails(self):
        t = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
        mat = _realized(t, 8)
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

    @pytest.mark.parametrize("seed, real", [pytest.param(seed, real, id=f"{seed}-real" if real else str(seed))
                                            for seed in range(4) for real in (False, True)])
    def test_matches_block_product_loop_exactly(self, seed, real):
        rng = np.random.default_rng(seed)
        a = _rng_symbol(rng, 2, 3, int(rng.integers(0, 5)), real)
        b = _rng_symbol(rng, 3, 2, int(rng.integers(0, 5)), real)
        ab = compose(a, b)
        assert ab.mats.dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(ab.mats, _compose_reference(a, b))

    def test_blaschke_product_matches_block_product_loop_exactly(self):
        b = blaschke_scalar(BlaschkeSpec([0.5, -0.3j]), 16)
        d = diag_inner([b, monomial_inner(2, 16)], 16)
        assert np.array_equal(compose(d, d).mats, _compose_reference(d, d))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(scalar_symbol([1]), _column(basis_vector(2, 0)))


class TestSymbolField:
    """A symbol's field is decided once, when it is built (the kernel's
    field is checked against the dense oracle below)."""

    @pytest.mark.parametrize("imag, field", [(0.0, np.float64), (1e-300, np.complex128)])
    def test_stored_in_the_field_of_its_coefficients(self, imag, field):
        mats = np.zeros((2, 2, 2), dtype=complex)
        mats[1] = [[1, 2], [3, 4]]
        mats[0, 1, 0] = imag * 1j
        t = MatSymbol(2, 2, mats)
        assert t.mats.dtype == field and not t.mats.flags.writeable
        assert np.array_equal(t.mats, mats)


# the kernel against the dense block Toeplitz oracle: m_out != m_in, symbol
# degree above and below the input degree, one and several columns
KERNEL_GRID = [(m_out, m_in, sym_deg, in_deg, b)
               for m_out, m_in in ((2, 3), (3, 1))
               for sym_deg, in_deg in ((4, 1), (1, 4))
               for b in (1, 5)]
# each grid case in every pairing of the fields of symbol and input, as
# (real symbol, real input, id suffix); the complex pair keeps the grid's ids
FIELDS = [(False, False, ""), (True, True, "-real"),
          (True, False, "-real_symbol"), (False, True, "-real_input")]
KERNEL_CASES = [pytest.param(*case, real_t, real_x, id="-".join(map(str, case)) + tag)
                for case in KERNEL_GRID for real_t, real_x, tag in FIELDS]


class TestKernelOracle:
    @pytest.mark.parametrize("m_out, m_in, sym_deg, in_deg, b, real_t, real_x", KERNEL_CASES)
    def test_multiply_matches_dense_toeplitz(self, m_out, m_in, sym_deg, in_deg, b,
                                             real_t, real_x):
        rng = np.random.default_rng(m_out + 10 * sym_deg + 100 * b)
        t = _rng_symbol(rng, m_out, m_in, sym_deg, real_t)
        x = _rng_coeffs(rng, in_deg, m_in, b, real_x)
        n = sym_deg + in_deg
        dense = _dense_toeplitz(t, n)[:, : m_in * (in_deg + 1)] @ x.reshape(-1, b)
        got = multiply(t, x)
        assert got.shape == (n + 1, m_out, b)
        assert got.dtype == (np.float64 if real_t and real_x else np.complex128)
        assert np.allclose(got.reshape(-1, b), dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m_out, m_in, sym_deg, in_deg, b, real_t, real_y", KERNEL_CASES)
    def test_adjoint_is_dense_conjugate_transpose(self, m_out, m_in, sym_deg, in_deg, b,
                                                  real_t, real_y):
        rng = np.random.default_rng(m_in + 10 * in_deg + 100 * b)
        t = _rng_symbol(rng, m_out, m_in, sym_deg, real_t)
        y = _rng_coeffs(rng, in_deg, m_out, b, real_y)
        dense = np.conj(_dense_toeplitz(t, in_deg).T) @ y.reshape(-1, b)
        got = multiply_adjoint(t, y)
        assert got.shape == (in_deg + 1, m_in, b)
        assert got.dtype == (np.float64 if real_t and real_y else np.complex128)
        assert np.allclose(got.reshape(-1, b), dense, rtol=0, atol=1e-12)
        for c in range(b):
            assert np.allclose(got[:, :, c], _adjoint_reference(t, y[:, :, c]),
                               rtol=0, atol=1e-12)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 5), st.integers(0, 5),
           st.integers(0, 3), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity(self, m_out, m_in, sym_deg, in_deg, extra, b, seed):
        # <T X, Y> = <X, T* Y> with Y reaching past the product degree
        rng = np.random.default_rng(seed)
        t = _rng_symbol(rng, m_out, m_in, sym_deg)
        x = _rng_coeffs(rng, in_deg, m_in, b)
        y = _rng_coeffs(rng, sym_deg + in_deg + extra, m_out, b)
        tx = multiply(t, x, sym_deg + in_deg + extra)
        ty = multiply_adjoint(t, y)
        for c in range(b):
            lhs = np.vdot(y[:, :, c], tx[:, :, c])
            rhs = np.vdot(ty[: in_deg + 1, :, c], x[:, :, c])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_overflow_refused(self):
        z = scalar_symbol([0, 1])
        x = make_fn(1, [[0], [0], [1]]).coeffs[..., None]
        with pytest.raises(TruncationOverflowError):
            multiply(z, x, 2)
        with pytest.raises(DimensionMismatchError):
            multiply(z, x, -1)

    def test_exact_zero_padding_and_lossless_cut(self):
        rng = np.random.default_rng(29)
        t = _rng_symbol(rng, 2, 2, 2)
        x = _rng_coeffs(rng, 3, 2, 4)
        full = multiply(t, x)
        padded = multiply(t, x, 9)
        assert padded.shape == (10, 2, 4)
        assert np.array_equal(padded[:6], full)
        assert not padded[6:].any()
        # trailing exact zeros of the input may be cut away again
        x0 = np.concatenate([x, np.zeros((2, 2, 4))])
        assert np.array_equal(multiply(t, x0, 5), full)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(scalar_symbol([1]), np.ones((2, 2, 1)))
        with pytest.raises(DimensionMismatchError):
            multiply_adjoint(scalar_symbol([1]), np.ones((2, 1)))


def _membership_reference(g, f0_cols, e_fns, k):
    """Residual of the tuple (T*_{F0} G, T*_{E_j} S* G), one part at a time."""
    parts = [_adjoint_reference(_column(f), g.coeffs) for f in f0_cols]
    sg = g.coeffs[1:] if g.deg else np.zeros((1, g.dim_m))
    parts += [_adjoint_reference(_column(e), sg) for e in e_fns]
    deg = max(len(p) for p in parts) - 1
    padded = [np.vstack([p, np.zeros((deg + 1 - len(p), p.shape[1]))]) for p in parts]
    tup = CoeffFn(sum(p.shape[1] for p in parts), np.hstack(padded))
    k = k.padded(max(tup.trimmed_deg(), k.ambient_deg))
    return _norm(_project_fn(k, tup))


class TestMembershipOracle:
    @pytest.mark.parametrize("with_f0", [True, False])
    def test_residual_matches_per_part_formula(self, with_f0):
        rng = np.random.default_rng(31)
        f0_col = make_fn(3, [[2 ** -0.5, 0, 0], [0, 2 ** -0.5, 0]])
        e_fns = [basis_vector(3, 2)]
        degs = (3, 2) if with_f0 else (2,)
        k = model_space(diag_inner([monomial_inner(d, 3) for d in degs], 3), 6)
        f0 = [f0_col] if with_f0 else []
        space = synthesize_M(k, f0, e_fns, 8)
        for i in range(12):
            g = _rng_fn(rng, 3, 8 - i % 3)
            if i % 2 == 0:
                g = g - _project_fn(space, g)
            ((_, got),) = orthocomplement_membership(_stacked([g]), f0, e_fns, k)
            want = _membership_reference(g, f0, e_fns, k)
            assert abs(got - want) <= 1e-14


class TestMembershipBatch:
    """One call checks a whole batch: each function's pair is the one its
    one-element call and the per-part oracle give, in the batch's order."""

    @staticmethod
    def _setup(with_f0):
        # K has window degree 6, M ambient degree 8, as in section4
        f0 = [make_fn(3, [[2 ** -0.5, 0, 0], [0, 2 ** -0.5, 0]])] if with_f0 else []
        e_fns = [basis_vector(3, 2)]
        degs = (3, 2) if with_f0 else (2,)
        k = model_space(diag_inner([monomial_inner(d, 3) for d in degs], 3), 6)
        return f0, e_fns, k, synthesize_M(k, f0, e_fns, 8)

    @staticmethod
    def _mixed_batch(rng, space):
        """(function, is member) pairs of degrees 0 to 11: below K's window
        of 6 and above M's window of 8, members and non-members alternating."""
        batch = []
        for i, deg in enumerate((2, 11, 0, 6, 9, 4, 8, 11, 1, 7)):
            g = CoeffFn(3, rng.standard_normal((deg + 1, 3))
                        + 1j * rng.standard_normal((deg + 1, 3)))
            if i % 2 == 0:
                g = g - _project_fn(space.padded(max(deg, space.ambient_deg)), g)
            batch.append((g, i % 2 == 0))
        return batch

    @pytest.mark.parametrize("with_f0", [True, False])
    def test_each_pair_is_its_one_element_call(self, with_f0):
        f0, e_fns, k, space = self._setup(with_f0)
        batch = self._mixed_batch(np.random.default_rng(41), space)
        gs = [g for g, _ in batch]
        results = orthocomplement_membership(_stacked(gs), f0, e_fns, k)
        assert len(results) == len(batch)
        for (g, is_member), (member, residual) in zip(batch, results):
            ((one_member, one_residual),) = orthocomplement_membership(_stacked([g]), f0,
                                                                       e_fns, k)
            assert type(member) is bool and type(residual) is float
            assert member == one_member == is_member
            assert abs(residual - one_residual) <= 1e-14
            assert abs(residual - _membership_reference(g, f0, e_fns, k)) <= 1e-14
        # the order is kept
        backwards = orthocomplement_membership(_stacked(gs[::-1]), f0, e_fns, k)
        for (member, residual), (back_member, back_residual) in zip(results,
                                                                    backwards[::-1]):
            assert member == back_member
            assert abs(residual - back_residual) <= 1e-14

    def test_empty_batch(self):
        f0, e_fns, k, _ = self._setup(True)
        assert orthocomplement_membership(np.zeros((1, 3, 0)), f0, e_fns, k) == ()
        assert orthocomplement_membership(np.zeros((9, 3, 0)), f0, e_fns, k) == ()

    @pytest.mark.parametrize("shape", [(3, 2, 5), (3, 4, 5), (3, 15), (15,)],
                             ids=["over_C2", "over_C4", "two_axes", "one_axis"])
    def test_wrong_dimension_is_refused(self, shape):
        f0, e_fns, k, _ = self._setup(True)
        with pytest.raises(DimensionMismatchError,
                           match="adjoint expects coefficients of shape \\(deg\\+1, 3, b\\)"):
            orthocomplement_membership(np.ones(shape), f0, e_fns, k)
