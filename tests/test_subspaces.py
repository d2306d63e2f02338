"""Unit tests for the subspace lattice and defect certificates."""

import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotInnerError,
    PreconditionError,
    TruncationOverflowError,
)
from hardylab.funcs import (
    CoeffFn,
    basis_vector,
    flatten,
    make_fn,
    monomial_fn,
)
from hardylab.inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from hardylab.multipliers import MatSymbol, compose, multiply, scalar_symbol
from hardylab.nearly import certify_nearly
from hardylab.subspaces import (
    _PANEL_MIN,
    DEFAULT_TOL,
    Subspace,
    _isometry_defect,
    _q_columns,
    _range_qr,
    _residual,
    _shift_rows,
    _slice,
    _split_combos,
    beurling_space,
    complement,
    defect_of,
    degree_slice,
    from_spanning,
    model_space,
    project,
    subspace_distance,
    vanishing_slice,
    wandering,
)

ONE = make_fn(1, [[1]])
Z = make_fn(1, [[0], [1]])


def _norm(f):
    """The H^2 norm of a function: the 2-norm of its coefficients."""
    return float(np.linalg.norm(f.coeffs))


def _projector(s):
    """The n x n orthogonal projection Q Q* onto a subspace."""
    return s.matrix @ np.conj(s.matrix.T)


def _image(t, space, ambient_deg, **kw):
    """from_spanning of T_Theta applied to every basis vector of space."""
    images = [CoeffFn(t.m_out, multiply(t, b.coeffs[..., None])[:, :, 0])
              for b in space.basis]
    return from_spanning(images, ambient_deg, **kw)


def _random_fns(rng, count, m, deg):
    return [
        CoeffFn(m, rng.standard_normal((deg + 1, m))
                + 1j * rng.standard_normal((deg + 1, m)))
        for _ in range(count)
    ]


_THETA = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
_MIXED = from_spanning(_random_fns(np.random.default_rng(5), 4, 2, 6), 6)

# every constructor whose Q comes straight out of an SVD or QR and is not re-checked
TRUSTED = {
    "from_spanning": lambda: _MIXED,
    "beurling_space": lambda: beurling_space(_THETA, 12),
    "complement": lambda: complement(_MIXED),
    "model_space": lambda: model_space(_THETA, 12),
    "vanishing_slice": lambda: vanishing_slice(_MIXED),
    "wandering": lambda: wandering(_MIXED),
    "padded": lambda: _MIXED.padded(9),
}


@pytest.mark.parametrize("name", sorted(TRUSTED))
def test_trusted_matrix_is_orthonormal_and_basis_is_its_view(name):
    s = TRUSTED[name]()
    assert s.dim > 0
    q = s.matrix
    assert q.shape == (s.dim_m * (s.ambient_deg + 1), s.dim)
    assert not q.flags.writeable
    for i, b in enumerate(s.basis):
        assert np.array_equal(flatten(b, s.ambient_deg), q[:, i])
    dev = np.max(np.abs(np.conj(q.T) @ q - np.eye(s.dim)))
    assert dev <= s.tol


class TestFromSpanning:
    def test_dependent_set(self):
        s = from_spanning([ONE, Z, ONE + Z], 3)
        assert s.dim == 2

    def test_empty(self):
        assert from_spanning([], 3, dim_m=2).dim == 0

    def test_full_rank_from_many_vectors(self):
        rng = np.random.default_rng(0)
        fns = _random_fns(rng, 50, 1, 19)
        s = from_spanning(fns, 19)
        stacked = np.column_stack([flatten(f, 19) for f in fns])
        assert s.dim == np.linalg.matrix_rank(stacked) == 20

    def test_orthonormal_invariant_enforced(self):
        with pytest.raises(InvariantViolationError):
            Subspace(1, 3, (ONE, ONE))
        with pytest.raises(InvariantViolationError):
            Subspace(1, 3, (2 * ONE,))

    def test_caller_basis_is_padded_to_the_window(self):
        s = Subspace(1, 3, (ONE, Z))
        assert [b.deg for b in s.basis] == [3, 3]
        assert np.array_equal(s.matrix, np.eye(4)[:, :2])


class TestBeurling:
    def test_scalar_shift_range(self):
        s = beurling_space(monomial_inner(1, 1), 3)
        target = from_spanning([monomial_fn(1, 0, k) for k in (1, 2, 3)], 3)
        assert subspace_distance(s, target) <= 1e-12

    def test_mixed_diag_columns(self):
        t = diag_inner([monomial_inner(2, 2), monomial_inner(1, 2)], 2)
        s = beurling_space(t, 4)
        target = from_spanning(
            [monomial_fn(2, 0, k) for k in (2, 3, 4)]
            + [monomial_fn(2, 1, k) for k in (1, 2, 3, 4)],
            4,
        )
        assert subspace_distance(s, target) <= 1e-12

    def test_refuses_non_inner(self):
        with pytest.raises(NotInnerError):
            beurling_space(scalar_symbol([0.5, 0.5]), 4)

    def test_blaschke_dimension_and_projector_oracle(self):
        # oracle: compress the closed-form projection theta (conj(theta) f)_+
        # computed by circle sampling, then compare inside the faithful band
        spec = BlaschkeSpec([0.5])
        d, n, grid = 24, 32, 512
        s = beurling_space(blaschke_scalar(spec, d), n)
        assert s.dim == n - d + 1
        w = np.exp(2j * np.pi * np.arange(grid) / grid)
        tv = (0.5 - w) / (1 - 0.5 * w)  # the closed form of the zero at 1/2
        oracle = np.zeros((n + 1, n + 1), dtype=complex)
        for j in range(n + 1):
            g = np.conj(tv) * w ** j
            coeffs = np.fft.fft(g) / grid
            anal = np.zeros(grid, dtype=complex)
            anal[: grid // 2] = coeffs[: grid // 2]
            h = np.fft.ifft(anal) * grid
            oracle[:, j] = (np.fft.fft(tv * h) / grid)[: n + 1]
        cut = s.band + 1
        diff = (_projector(s) - oracle)[:cut, :cut]
        assert np.linalg.norm(diff, 2) <= 1e-6


def _dense_range_and_model(t, n, headroom=0, tol=DEFAULT_TOL):
    """Reference construction: SVD of the kept Toeplitz columns, rank cut at
    tol * s_0, then the complement from a full SVD of the range basis."""
    degs = [int(np.flatnonzero(np.any(t.mats[:, :, i] != 0, axis=1)).max(initial=0))
            for i in range(t.m_in)]
    keep = [j * t.m_in + i for j in range(n + 1) for i in range(t.m_in)
            if j + degs[i] <= n - headroom]
    # T_Theta on the window: the kernel on its identity columns, cut to it
    eye = np.eye(t.m_in * (n + 1)).reshape(n + 1, t.m_in, -1)
    cols = multiply(t, eye)[: n + 1].reshape(t.m_out * (n + 1), -1)[:, keep]
    if not keep:
        return cols, np.eye(cols.shape[0])
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rng = u[:, : int(np.sum(s > tol * s[0]))]
    full, _, _ = np.linalg.svd(rng, full_matrices=True)
    return rng, full[:, rng.shape[1]:]


def _projector_gap(a, b):
    assert a.shape == b.shape
    if a.shape[1] == 0:
        return 0.0
    return float(np.linalg.norm(a @ np.conj(a.T) - b @ np.conj(b.T), 2))


def _random_unitary(rng, m):
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated(t, u, v):
    """U Theta V* for constant unitaries U, V: inner, and not diagonal."""
    mats = np.einsum("ab,dbc,ce->dae", u, t.mats, np.conj(v.T))
    return MatSymbol(t.m_out, t.m_in, mats, t.tail_bound, True)


def _column_isometry():
    mats = np.zeros((3, 2, 1), dtype=complex)
    mats[1, 0, 0] = mats[2, 1, 0] = 2 ** -0.5
    return MatSymbol(2, 1, mats, 0.0, claimed_inner=True)


def _blaschke_block_and_z2():
    """A conjugated 2 x 2 Blaschke block on outputs and inputs 0 and 2, and
    z^2 on output and input 1: block-diagonal, but not diagonal."""
    gen = np.random.default_rng(11)
    block = _conjugated(
        diag_inner([blaschke_scalar(BlaschkeSpec([a]), 10) for a in (0.5, -0.3 + 0.2j)], 10),
        _random_unitary(gen, 2), _random_unitary(gen, 2))
    mats = np.zeros((11, 3, 3), dtype=complex)
    mats[:, 0::2, 0::2] = block.mats
    mats[2, 1, 1] = 1.0
    return MatSymbol(3, 3, mats, block.tail_bound, claimed_inner=True)


def _column_isometry_with_a_zero_row():
    """(1 / sqrt 2) [[z, -1], [0, 0], [z^11, z^10]]: inner, not square, and no
    column touches output 1."""
    mats = np.zeros((12, 3, 2), dtype=complex)
    mats[0, 0, 1] = -1.0
    mats[1, 0, 0] = mats[10, 2, 1] = mats[11, 2, 0] = 1.0
    return MatSymbol(3, 2, mats * 2 ** -0.5, 0.0, claimed_inner=True)


_BLASCHKE_DIAG = diag_inner(
    [monomial_inner(2, 12), blaschke_scalar(BlaschkeSpec([0.5, -1 / 3]), 12)], 12)
ORACLE_SYMBOLS = {
    "monomial_diag4": diag_inner([monomial_inner(k, 3) for k in (1, 2, 3, 3)], 3),
    "monomial_diag2": diag_inner([monomial_inner(2, 4), monomial_inner(4, 4)], 4),
    "blaschke_diag": _BLASCHKE_DIAG,
    "blaschke_scalar": blaschke_scalar(BlaschkeSpec([0.5, 0.3j]), 10),
    "conjugated": _conjugated(
        diag_inner([blaschke_scalar(BlaschkeSpec([a]), 8) for a in (0.5, -0.3 + 0.2j, 0.4j)], 8),
        _random_unitary(np.random.default_rng(7), 3),
        _random_unitary(np.random.default_rng(8), 3)),
    "column_isometry": _column_isometry(),
    "blaschke_block_and_z2": _blaschke_block_and_z2(),
    "zero_row_isometry": _column_isometry_with_a_zero_row(),
}


class TestDenseOracle:
    """The banded QR spans what the dense SVD construction spans."""

    @pytest.mark.parametrize("headroom", [0, 1])
    @pytest.mark.parametrize("n", [12, 20, 45])
    @pytest.mark.parametrize("name", sorted(ORACLE_SYMBOLS))
    def test_grid(self, name, n, headroom):
        t = ORACLE_SYMBOLS[name]
        rng, model = _dense_range_and_model(t, n, headroom)
        b = beurling_space(t, n, headroom)
        k = model_space(t, n, headroom)
        assert _projector_gap(b.matrix, rng) <= 1e-12
        assert _projector_gap(k.matrix, model) <= 1e-12
        assert b.band == k.band

    def test_empty_keep(self):
        # z^3 at N = 3 with one degree of headroom keeps no column
        t = monomial_inner(3, 3)
        rng, model = _dense_range_and_model(t, 3, 1)
        assert rng.shape[1] == 0
        assert beurling_space(t, 3, 1).dim == 0
        k = model_space(t, 3, 1)
        assert _projector_gap(k.matrix, model) <= 1e-12
        assert k.dim == 4
        # z^0 keeps every column: the range is the ambient, its complement empty
        b = beurling_space(monomial_inner(0, 0), 3)
        assert b.dim == 4 and b._memo["complement"].dim == 0
        assert model_space(monomial_inner(0, 0), 3).dim == 0

    @given(st.integers(2, 3), st.integers(0, 2 ** 32 - 1), st.integers(10, 40))
    @settings(max_examples=25, deadline=None)
    def test_random_unitaries_times_blaschke_diagonals(self, m, seed, n):
        gen = np.random.default_rng(seed)
        zeros = [tuple(complex(r * np.exp(2j * np.pi * gen.random())) for r in
                       gen.uniform(0.0, 0.6, size=gen.integers(1, 3)))
                 for _ in range(m)]
        d = 8
        diag = diag_inner([blaschke_scalar(BlaschkeSpec(z), d) for z in zeros], d)
        t = _conjugated(diag, _random_unitary(gen, m), _random_unitary(gen, m))
        rng, model = _dense_range_and_model(t, n)
        assert _projector_gap(beurling_space(t, n).matrix, rng) <= 1e-12
        assert _projector_gap(model_space(t, n).matrix, model) <= 1e-12

    def test_large_order_stays_orthonormal(self):
        t = ORACLE_SYMBOLS["monomial_diag4"]
        b = beurling_space(t, 256)
        k = model_space(t, 256)
        assert k.dim == 9 and b.dim + k.dim == 4 * 257
        for s in (b, k):
            q = s.matrix
            assert np.max(np.abs(np.conj(q.T) @ q - np.eye(s.dim))) <= s.tol


def _loop_diagonal(t):
    """Whether Theta is square with every off-diagonal coefficient zero, by
    plain loops: the symbols ``_range_qr`` may factor one entry at a time."""
    return t.m_out == t.m_in and all(
        t.mats[d, r, i] == 0
        for d in range(t.mats.shape[0]) for r in range(t.m_out) for i in range(t.m_in) if r != i)


def _dense_panels(mats, col_degs, ambient_deg, headroom, width):
    """The panel loop on one dense kept-column matrix C."""
    m = mats.shape[1]
    jj, ii = np.nonzero(np.arange(ambient_deg + 1)[:, None] + col_degs
                        <= ambient_deg - headroom)
    k = jj.size
    d = np.arange(mats.shape[0])[:, None, None]
    cols = np.zeros(((ambient_deg + mats.shape[0]) * m, k), dtype=mats.dtype)
    cols[(jj + d) * m + np.arange(m)[:, None], np.arange(k)] = mats[:, :, ii]
    cols = cols[: (ambient_deg + 1) * m]
    starts = jj * m
    reach = np.maximum.accumulate((jj + col_degs[ii] + 1) * m)
    panels = []
    for c0 in range(0, k, width):
        c1 = min(c0 + width, k)
        r1 = int(reach[c1 - 1])
        q, _ = np.linalg.qr(cols[c0:r1, c0:c1], mode="complete")
        c2 = int(np.searchsorted(starts, r1))
        if c2 > c1:
            cols[c0:r1, c1:c2] = np.conj(q.T) @ cols[c0:r1, c1:c2]
        panels.append((c0, r1, q))
    return panels, k


def _loop_units(t):
    """Per output, whether Theta is diagonal with one stored nonzero
    coefficient c there, Re(c) Re(c) + Im(c) Im(c) exactly 1, by plain
    loops: the entries ``_range_qr`` writes in closed form."""
    if not _loop_diagonal(t):
        return [False] * t.m_out
    units = []
    for i in range(t.m_out):
        nonzero = [complex(c) for c in t.mats[:, i, i] if c != 0]
        units.append(len(nonzero) == 1
                     and nonzero[0].real * nonzero[0].real + nonzero[0].imag * nonzero[0].imag == 1)
    return units


def _dense_range_qr(t, ambient_deg, headroom, dtype=None, closed_form=True):
    """The panel loop of ``_range_qr`` on the dense kept-column matrices.

    This is the construction the windowed loop replaced, kept as its
    bitwise oracle: per entry of a diagonal Theta (``_loop_diagonal``; the
    whole symbol when it is not diagonal) the dense kept-column matrix C
    is built whole, degree-major, and factored in the same panels, each on
    C[c0:r1, c0:c1], with its Q* applied in place to the later columns it
    reaches.  A unit entry (``_loop_units``) gets the closed-form part
    (rows, range(d, d + k_i), k_i).  With closed_form=False no entry is a
    unit entry: the QR of every entry before the closed form, the oracle
    its columns are compared with.  By default C is in the symbol's own
    field, as in ``_range_qr``; with dtype=complex a real symbol is
    factored in complex arithmetic.  Returns (parts, n, k) in the form of
    ``_range_qr``.
    """
    m, n = t.m_out, t.m_out * (ambient_deg + 1)
    col_degs = t.column_degrees()
    mats = t.mats[: int(col_degs.max()) + 1]
    if dtype is not None:
        mats = mats.astype(dtype)
    units = _loop_units(t) if closed_form else [False] * m
    if not _loop_diagonal(t):
        panels, k = _dense_panels(mats, col_degs, ambient_deg, headroom,
                                  max(_PANEL_MIN, m * mats.shape[0]))
        return [(slice(0, n, 1), panels, k)], n, k
    parts = []
    for i in range(m):
        d = int(col_degs[i])
        if units[i]:
            k_i = max(0, ambient_deg - headroom - d + 1)
            parts.append((slice(i, n, m), range(d, d + k_i), k_i))
            continue
        panels, k_i = _dense_panels(mats[: d + 1][:, [i]][:, :, [i]], col_degs[[i]],
                                    ambient_deg, headroom, max(_PANEL_MIN, len(mats)))
        parts.append((slice(i, n, m), panels, k_i))
    return parts, n, sum(k_i for *_, k_i in parts)


def _assert_same_parts(parts, oracle):
    assert len(parts) == len(oracle)
    for (rows, panels, k), (o_rows, o_panels, o_k) in zip(parts, oracle):
        assert k == o_k and rows == o_rows
        if isinstance(o_panels, range):
            assert isinstance(panels, range) and panels == o_panels
            continue
        assert len(panels) == len(o_panels)
        for (c0, r1, q), (o_c0, o_r1, o_q) in zip(panels, o_panels):
            assert (c0, r1) == (o_c0, o_r1) and np.array_equal(q, o_q)


def _assert_closed_form(t, n, headroom, rng, model, old_gap=1e-15):
    """Each unit entry's columns of the range and model-space Q are, bit for
    bit, the unit vectors at its rows (degree j at row j m + i): degrees
    deg_i ... n - headroom for the range and the rest for the model space,
    ascending, every part's columns after the previous part's.  On its
    rows they span, within old_gap, what the QR of the entry alone spans,
    the construction before the closed form.  Both Q are in the symbol's
    field."""
    m, field = t.m_out, t.mats.dtype
    assert rng.matrix.dtype == model.matrix.dtype == field
    eye = np.eye(m * (n + 1))
    at_r = at_c = 0
    for i, unit in enumerate(_loop_units(t)):
        d = int(t.column_degrees()[i])
        r_degs = list(range(d, n - headroom + 1))
        c_degs = [j for j in range(n + 1) if j not in r_degs]
        if unit:
            entry = MatSymbol(1, 1, t.mats[:, i : i + 1, i : i + 1], claimed_inner=True)
            old, size, _ = _dense_range_qr(entry, n, headroom, closed_form=False)
            for s, at, degs, complement in ((rng, at_r, r_degs, False),
                                            (model, at_c, c_degs, True)):
                cols = s.matrix[:, at : at + len(degs)]
                assert np.array_equal(cols, eye[:, [j * m + i for j in degs]])
                old_q = _q_columns(old, size, field, complement=complement)
                assert subspace_distance(Subspace._of(1, n, cols[i::m], s.tol),
                                         Subspace._of(1, n, old_q, s.tol)) <= old_gap
        at_r += len(r_degs)
        at_c += len(c_degs)
    assert (at_r, at_c) == (rng.dim, model.dim)


def _random_orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def _window_symbol(kind, m, gen):
    """A seeded inner m x m symbol: monomial or Blaschke diagonal, or a
    non-diagonal product of a conjugated Blaschke diagonal with a monomial
    one.  The real_ kinds have real zeros and real orthogonal factors, so
    every coefficient is exactly real and not a unit vector."""
    def monomials():
        d = int(gen.integers(1, 6))
        return diag_inner([monomial_inner(int(p), d) for p in gen.integers(0, d + 1, m)], d)

    def blaschkes():
        d = int(gen.integers(3, 13))
        zeros = [[complex(r * np.exp(2j * np.pi * gen.random()))
                  for r in gen.uniform(0.0, 0.5, size=gen.integers(1, 3))]
                 for _ in range(m)]
        return diag_inner([blaschke_scalar(BlaschkeSpec(z), d) for z in zeros], d)

    def real_blaschkes():
        # from degree 5 on, two zeros at 1/2 keep delta below 1 (0.84)
        d = int(gen.integers(5, 13))
        zeros = [gen.uniform(-0.5, 0.5, size=gen.integers(1, 3)) for _ in range(m)]
        return diag_inner([blaschke_scalar(BlaschkeSpec(z), d) for z in zeros], d)

    if kind == "monomial":
        return monomials()
    if kind == "blaschke":
        return blaschkes()
    if kind == "real_blaschke":
        return real_blaschkes()
    if kind == "real_composed":
        mixed = _conjugated(real_blaschkes(), _random_orthogonal(gen, m),
                            _random_orthogonal(gen, m))
        return compose(mixed, monomials())
    mixed = _conjugated(blaschkes(), _random_unitary(gen, m), _random_unitary(gen, m))
    return compose(mixed, monomials())


def _column_above_panel():
    """The m = 3 symbol of ``test_a_column_can_start_above_its_panel``: a
    32-column panel is not a multiple of m, so each panel's fill pattern
    shifts."""
    gen = np.random.default_rng(3)
    diag = diag_inner([blaschke_scalar(BlaschkeSpec([a]), 2) for a in (0.5, 0.3j, -0.4)], 2)
    return _conjugated(diag, _random_unitary(gen, 3), _random_unitary(gen, 3))


class TestWindowedRangeQR:
    """The windowed panel loop reproduces the dense one bit for bit."""

    @pytest.mark.parametrize("headroom", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["monomial", "blaschke", "composed",
                                      "real_blaschke", "real_composed"])
    def test_bitwise_equal_to_the_dense_loop(self, kind, m, headroom):
        gen = np.random.default_rng([m, headroom, len(kind)])
        for _ in range(3):
            t = _window_symbol(kind, m, gen)
            assert t.mats.imag.any() == (kind in ("blaschke", "composed"))
            n = t.deg + headroom + int(gen.integers(0, 201))
            parts, size, k, band = _range_qr(t, n, headroom, DEFAULT_TOL)
            oracle, _, k_o = _dense_range_qr(t, n, headroom)
            assert k == k_o
            if m == 1 or kind.endswith("composed"):
                # one entry, or not diagonal: factored whole, in the ambient row order
                assert len(parts) == 1 and parts[0][0] == slice(0, size, 1)
            # a monomial diagonal is all unit entries, and the others have none
            assert all(isinstance(panels, range) for _, panels, _ in parts) == (kind == "monomial")
            _assert_same_parts(parts, oracle)
            rng, model = beurling_space(t, n, headroom), model_space(t, n, headroom)
            assert np.array_equal(rng.matrix, _q_columns(oracle, size, t.mats.dtype))
            assert np.array_equal(model.matrix,
                                  _q_columns(oracle, size, t.mats.dtype, complement=True))
            _assert_closed_form(t, n, headroom, rng, model)

    def test_a_column_can_start_above_its_panel(self):
        # m = 3 and 32-column panels: column 32 is z^10 Theta e_2, which
        # starts at row 30, and a full Theta_0 puts nonzeros in rows 30 and
        # 31, above its panel's first row; they must be dropped, not wrapped
        gen = np.random.default_rng(3)
        diag = diag_inner([blaschke_scalar(BlaschkeSpec([a]), 2) for a in (0.5, 0.3j, -0.4)], 2)
        t = _conjugated(diag, _random_unitary(gen, 3), _random_unitary(gen, 3))
        assert np.all(t.mats[0, :2, 2] != 0)
        [(_, panels, _)], n, k, _ = _range_qr(t, 40, 0, DEFAULT_TOL)
        assert panels[1][0] == 32
        oracle, _, _ = _dense_range_qr(t, 40, 0)
        _assert_same_parts([(slice(0, n, 1), panels, k)], oracle)
        assert np.array_equal(model_space(t, 40).matrix,
                              _q_columns(oracle, n, t.mats.dtype, complement=True))

    def test_memory_grows_with_the_band_not_the_order(self):
        # the dense C of the four-Blaschke diagonal at N = 2048 alone would
        # take about 0.5 GB; at N = 8192 the returned Q alone takes 3 MB,
        # and storing one 48 x 48 q per panel would take 19 MB more
        t = REAL_SYMBOLS["blaschke_diag4"]
        for n, mb in ((2048, 16), (8192, 6)):
            tracemalloc.start()
            try:
                k = model_space(t, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert k.dim == 12
            assert peak < mb * 2 ** 20

    @pytest.mark.parametrize("n", [256, 1024])
    def test_a_repeated_window_reuses_its_q(self, n):
        # past the transient panels every window of each entry of the
        # four-Blaschke diagonal, split, is the same bytes, so one q object
        # serves the entry's run; so on the Blaschke entry of Theta_2
        parts, _, k, _ = _range_qr(REAL_SYMBOLS["blaschke_diag4"], n, 0, DEFAULT_TOL)
        assert k == 4 * (n - 2) and len(parts) == 4
        for _, panels, k_i in parts:
            assert k_i == n - 2 and len(panels) == -(-k_i // 32)
            assert len({id(q) for *_, q in panels}) <= 4
        parts, _, _, _ = _range_qr(REAL_SYMBOLS["theta2_large_n"], n, 0, DEFAULT_TOL)
        assert len(parts) == 2 and parts[0][1] == range(2, n + 1)
        assert len({id(q) for *_, q in parts[1][1]}) <= 5

    @pytest.mark.parametrize("name, n, headroom", [
        ("blaschke_diag4", 256, 0), ("blaschke_diag4", 256, 2),
        ("theta2_large_n", 256, 0), ("theta2_large_n", 256, 2),
        ("column_above_panel", 200, 0),
    ])
    def test_stationary_runs_are_bitwise_the_dense_loop(self, name, n, headroom):
        # the runs of the four-Blaschke diagonal and of Theta_2's Blaschke
        # entry end where inputs stop being kept; on the m = 3 symbol the
        # 32-column panels shift the fill pattern every panel, so no window
        # repeats its predecessor
        t = _column_above_panel() if name == "column_above_panel" else REAL_SYMBOLS[name]
        parts, size, k, _ = _range_qr(t, n, headroom, DEFAULT_TOL)
        oracle, _, k_o = _dense_range_qr(t, n, headroom)
        assert k == k_o
        _assert_same_parts(parts, oracle)
        if name == "column_above_panel":
            [(_, panels, _)] = parts
            assert len({id(q) for *_, q in panels}) == len(panels) > 2
        field = t.mats.dtype
        assert np.array_equal(beurling_space(t, n, headroom).matrix,
                              _q_columns(oracle, size, field))
        assert np.array_equal(model_space(t, n, headroom).matrix,
                              _q_columns(oracle, size, field, complement=True))


# Theta_2 with its z^2 entry made a Blaschke factor: no unit entry
_BLASCHKE_PAIR = diag_inner(
    [blaschke_scalar(BlaschkeSpec([0.4]), 48),
     blaschke_scalar(BlaschkeSpec([0.5, -1 / 3]), 48)], 48)
_REAL_COMPOSED = compose(
    _conjugated(diag_inner([blaschke_scalar(BlaschkeSpec([a]), 6) for a in (0.5, -0.3, 0.4)], 6),
                _random_orthogonal(np.random.default_rng(7), 3),
                _random_orthogonal(np.random.default_rng(8), 3)),
    diag_inner([monomial_inner(k, 2) for k in (1, 0, 2)], 2))
# exactly real symbols that are not monomials: their columns are not all unit vectors
REAL_SYMBOLS = {
    "blaschke_diag": _BLASCHKE_DIAG,
    # no unit entry and a band of 4 rows per entry: split, each entry in
    # long runs of repeated windows
    "blaschke_diag4": diag_inner(
        [blaschke_scalar(BlaschkeSpec([a]), 3) for a in (0.2, -0.3, 0.1, -0.15)], 3),
    "real_composed": _REAL_COMPOSED,
    # the Theta_2 of the large_n benchmark workload
    "theta2_large_n": diag_inner(
        [monomial_inner(2, 48), blaschke_scalar(BlaschkeSpec([0.5, -1 / 3]), 48)], 48),
}


@pytest.fixture
def qr_dtypes(monkeypatch):
    """The dtype of every matrix handed to np.linalg.qr, in call order."""
    seen = []
    qr = np.linalg.qr

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    return seen


class TestSymbolField:
    """Exactly real symbols factor in real arithmetic, all others in complex."""

    @pytest.mark.parametrize("headroom", [0, 1])
    @pytest.mark.parametrize("name, n", [(name, n) for name in ("blaschke_diag", "real_composed")
                                         for n in (12, 45, 256)]
                             + [("theta2_large_n", 256)])
    def test_complex_dense_loop_spans_the_same(self, name, n, headroom):
        t = REAL_SYMBOLS[name]
        assert not t.mats.imag.any()
        oracle, size, k = _dense_range_qr(t, n, headroom, dtype=complex)
        assert all(np.iscomplexobj(q) for _, panels, _ in oracle
                   if not isinstance(panels, range) for *_, q in panels)
        assert _projector_gap(beurling_space(t, n, headroom).matrix,
                              _q_columns(oracle, size, complex)) <= 1e-12
        assert _projector_gap(model_space(t, n, headroom).matrix,
                              _q_columns(oracle, size, complex, complement=True)) <= 1e-12

    def test_a_tiny_imaginary_part_takes_the_complex_path(self, qr_dtypes):
        t = REAL_SYMBOLS["blaschke_diag"]
        mats = t.mats.astype(complex)
        mats[1, 1, 1] += 1e-300j
        tc = MatSymbol(t.m_out, t.m_in, mats, t.tail_bound, claimed_inner=True)
        kc = model_space(tc, 45)
        assert qr_dtypes and set(qr_dtypes) == {np.dtype(complex)}
        qr_dtypes.clear()
        k = model_space(t, 45)
        assert qr_dtypes and set(qr_dtypes) == {np.dtype(float)}
        assert subspace_distance(k, kc) <= 1e-12

    @pytest.mark.parametrize("build", [beurling_space, model_space])
    @pytest.mark.parametrize("name", sorted(REAL_SYMBOLS))
    def test_real_panels_never_reach_a_complex_qr(self, qr_dtypes, name, build):
        t = REAL_SYMBOLS[name]
        s = build(t, t.deg + 40)
        assert qr_dtypes and set(qr_dtypes) == {np.dtype(float)}
        parts, _, _, _ = _range_qr(t, t.deg + 40, 0, DEFAULT_TOL)
        assert all(q.dtype == np.float64 for _, panels, _ in parts
                   if not isinstance(panels, range) for *_, q in panels)
        assert not s.matrix.imag.any()

    @pytest.mark.parametrize("build", [beurling_space, model_space])
    @pytest.mark.parametrize("name", sorted(ORACLE_SYMBOLS.keys() | REAL_SYMBOLS.keys()))
    def test_returned_matrix_in_the_symbols_field_read_only_orthonormal(self, name, build):
        t = {**ORACLE_SYMBOLS, **REAL_SYMBOLS}[name]
        s = build(t, t.deg + 40)
        field = np.complex128 if t.mats.imag.any() else np.float64
        # a Beurling range keeps its thin complement, a model space nothing
        for sp in filter(None, (s, s._memo.get("complement"))):
            q = sp.matrix
            assert q.dtype == field and not q.flags.writeable
            assert np.max(np.abs(np.conj(q.T) @ q - np.eye(sp.dim))) <= sp.tol

    def test_real_panels_fill_q_in_place(self):
        # a second copy of Q, or a k x k identity, would about double the peak
        t = REAL_SYMBOLS["theta2_large_n"]
        panels, n, k, _ = _range_qr(t, 512, 0, DEFAULT_TOL)
        tracemalloc.start()
        try:
            q = _q_columns(panels, n, np.float64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.dtype == np.float64
        assert peak < 1.25 * q.nbytes


class TestBlockOrder:
    """The banded QR factors a diagonal Theta one entry at a time, and any
    other Theta whole."""

    def test_panels_are_one_block_high(self, monkeypatch):
        # in the degree-major order Theta_2's windows are 194 x 98; its
        # Blaschke entry alone has a band of 49 rows
        shapes = []
        qr = np.linalg.qr

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        model_space(REAL_SYMBOLS["theta2_large_n"], 256)
        assert shapes and max(rows for rows, _ in shapes) <= 2 * 49

    def test_each_block_is_factored_on_its_own_rows(self):
        # at N = 128 the z^2 entry keeps 127 columns, the unit vectors at
        # degrees 2 ... 128, and the Blaschke entry 81, factored on its own
        # ambient rows in 49-column panels
        t = REAL_SYMBOLS["theta2_large_n"]
        parts, n, k, _ = _range_qr(t, 128, 0, DEFAULT_TOL)
        assert k == 208 and [k_b for *_, k_b in parts] == [127, 81]
        assert [rows for rows, _, _ in parts] == [slice(0, n, 2), slice(1, n, 2)]
        assert parts[0][1] == range(2, 129)
        assert [c0 for c0, _, _ in parts[1][1]] == [0, 49]
        oracle, _, _ = _dense_range_qr(t, 128, 0)
        _assert_same_parts(parts, oracle)
        rng, model = _dense_range_and_model(t, 128)
        assert _projector_gap(beurling_space(t, 128).matrix, rng) <= 1e-12
        assert _projector_gap(model_space(t, 128).matrix, model) <= 1e-12
        _assert_closed_form(t, 128, 0, beurling_space(t, 128), model_space(t, 128))

    @pytest.mark.parametrize("name, n", [("blaschke_diag", 200), ("theta2_large_n", 64),
                                         ("blaschke_diag4", 200), ("blaschke_pair", 64)])
    def test_every_diagonal_is_split(self, name, n):
        # blaschke_diag's band 2 * 13 and the four-Blaschke diagonal's 4 * 4
        # are below a minimal panel, and one panel would take Theta_2's 80
        # and the Blaschke pair's 34 kept columns, yet each entry is
        # factored on its own rows, and a z^2 entry not at all
        t = _BLASCHKE_PAIR if name == "blaschke_pair" else REAL_SYMBOLS[name]
        parts, size, k, _ = _range_qr(t, n, 0, DEFAULT_TOL)
        m = t.m_out
        assert [rows for rows, _, _ in parts] == [slice(i, size, m) for i in range(m)]
        assert [isinstance(panels, range) for _, panels, _ in parts] == _loop_units(t)
        oracle, _, k_o = _dense_range_qr(t, n, 0)
        assert k == k_o
        _assert_same_parts(parts, oracle)

    @pytest.mark.parametrize("name", ["blaschke_block_and_z2", "zero_row_isometry"])
    def test_a_symbol_that_is_not_diagonal_is_factored_whole(self, name):
        # at N = 45 a band of 33 and 36 rows, and 116 and 71 kept columns:
        # several panels, all in the ambient row order
        t = ORACLE_SYMBOLS[name]
        parts, size, k, _ = _range_qr(t, 45, 0, DEFAULT_TOL)
        assert len(parts) == 1 and parts[0][0] == slice(0, size, 1)
        oracle, _, k_o = _dense_range_qr(t, 45, 0)
        assert k == k_o
        _assert_same_parts(parts, oracle)
        assert np.array_equal(beurling_space(t, 45).matrix, _q_columns(oracle, size, complex))
        assert np.array_equal(model_space(t, 45).matrix,
                              _q_columns(oracle, size, complex, complement=True))

    def test_untouched_outputs_stay_in_the_model_space(self):
        # factored whole, the reflections leave rounding dust on output 1
        # (4e-17 at most), not exact zeros
        t = ORACLE_SYMBOLS["zero_row_isometry"]
        assert np.max(np.abs(beurling_space(t, 45).matrix[1::3])) <= 1e-12
        k_space = model_space(t, 45)
        unit = np.zeros((3 * 46, 46))
        unit[1::3] = np.eye(46)
        assert np.linalg.norm(_residual(k_space.matrix, unit)) <= 1e-12

    def test_model_space_memory_follows_the_largest_block(self):
        # in the degree-major order this takes 30 MB
        t = REAL_SYMBOLS["theta2_large_n"]
        tracemalloc.start()
        try:
            k = model_space(t, 4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert k.dim == 50
        assert peak < 20 * 2 ** 20


# unit coefficients: +-1 and +-i, whose |c|^2 is exactly 1, and phases
# whose modulus may round to 1 or not (either way a valid inner entry)
_PHASES = (1.0, -1.0, 1j, -1j, complex(np.exp(0.3j)), complex(np.exp(2.1j)))


@st.composite
def _diagonal_symbols(draw):
    """A square diagonal inner symbol: each entry a unit monomial c z^d or a
    Blaschke factor with real or complex zeros, truncated at degree 5 ... 9
    (a zero at 0 only shifts).  From degree 5 on, delta stays below 0.85
    for every choice."""
    m, deg = draw(st.integers(1, 4)), draw(st.integers(5, 9))
    mats = np.zeros((deg + 1, m, m), dtype=complex)
    for i in range(m):
        if draw(st.booleans()):
            mats[draw(st.integers(0, deg)), i, i] = draw(st.sampled_from(_PHASES))
            continue
        radii = draw(st.lists(st.sampled_from([0.0, 0.2, 0.35, 0.5]), min_size=1, max_size=2))
        angles = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=len(radii),
                               max_size=len(radii)))
        zeros = [r * np.exp(1j * np.pi * a) for r, a in zip(radii, angles)]
        mats[:, i, i] = blaschke_scalar(BlaschkeSpec(zeros), deg).mats[:, 0, 0]
    return MatSymbol(m, m, mats, 0.0, claimed_inner=True)


class TestClosedForm:
    """Unit entries of a diagonal symbol get their columns without a QR."""

    @given(_diagonal_symbols(), st.integers(0, 30), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_random_diagonals_against_the_dense_oracle(self, t, extra, headroom):
        n = t.deg + extra
        rng, model = _dense_range_and_model(t, n, headroom)
        b, k = beurling_space(t, n, headroom), model_space(t, n, headroom)
        field = np.complex128 if t.mats.imag.any() else np.float64
        for s, oracle in ((b, rng), (k, model)):
            assert s.dim == oracle.shape[1]
            q = s.matrix
            assert q.dtype == field
            assert np.abs(np.conj(q.T) @ q - np.eye(s.dim)).max(initial=0.0) <= 1e-14
            assert subspace_distance(s, Subspace._of(t.m_out, n, oracle, s.tol)) <= 1e-13
        # the range keeps its complement when that is the thinner side
        size = b.ambient_dim
        assert ("complement" in b._memo) == (size - b.dim <= b.dim)
        assert "complement" not in k._memo
        # the old QR of a phase that is not +-1 or +-i leaves rounding in
        # its columns: up to 3.3e-15 in this strategy's range
        _assert_closed_form(t, n, headroom, b, k, old_gap=1e-14)
        units = _loop_units(t)
        if all(units) and not (t.mats.real * t.mats.imag).any():
            # every coefficient +-1 or +-i: the certificate is exactly 0
            assert _isometry_defect(t) == 0.0

    @pytest.mark.parametrize("t", [
        ORACLE_SYMBOLS["monomial_diag4"],
        diag_inner([monomial_inner(0, 3), blaschke_scalar(BlaschkeSpec([0, 0], 1j), 3)], 3),
    ], ids=["theta4", "complex_units"])
    def test_an_all_unit_symbol_needs_no_factorization(self, monkeypatch, t):
        def refuse(*args, **kwargs):
            raise AssertionError("a unit entry reached a factorization")

        for name in ("qr", "svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        b, k = beurling_space(t, 64), model_space(t, 64)
        monkeypatch.undo()
        assert b.dim + k.dim == t.m_out * 65
        _assert_closed_form(t, 64, 0, b, k)

    @pytest.mark.parametrize("build", [beurling_space, model_space])
    def test_a_mixed_diagonal_factors_only_its_other_entry(self, monkeypatch, build):
        # diag(z^2, b) at N = 200 hands np.linalg.qr the windows of b alone,
        # byte for byte; its band 25 keeps b's panel width the same, 32
        b = blaschke_scalar(BlaschkeSpec([0.5, -0.3 + 0.2j]), 24)
        t = diag_inner([monomial_inner(2, 24), b], 24)
        seen = []
        qr = np.linalg.qr

        def recording(a, *args, **kwargs):
            seen.append(np.array(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", recording)
        build(t, 200)
        mixed = list(seen)
        seen.clear()
        build(b, 200)
        assert len(mixed) == len(seen) > 1
        assert all(np.array_equal(x, y) for x, y in zip(mixed, seen))

    def test_a_unit_lead_beside_another_nonzero_is_factored(self):
        # 1e-20 + z is inner to within delta = 2e-20, and its coefficient at
        # its column degree has modulus 1, but it is not a unit entry
        mats = np.zeros((2, 2, 2))
        mats[1, 0, 0] = mats[1, 1, 1] = 1.0
        mats[0, 1, 1] = 1e-20
        t = MatSymbol(2, 2, mats, claimed_inner=True)
        parts, _, _, _ = _range_qr(t, 40, 0, DEFAULT_TOL)
        assert parts[0][1] == range(1, 41) and not isinstance(parts[1][1], range)
        oracle, _, _ = _dense_range_qr(t, 40, 0)
        _assert_same_parts(parts, oracle)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, np.nextafter(1.0, 0.0), 1.0, 2.0])
    @pytest.mark.parametrize("t", [
        ORACLE_SYMBOLS["monomial_diag4"],
        diag_inner([monomial_inner(1, 3), scalar_symbol([0, 0, complex(np.exp(0.3j))],
                                                         claimed_inner=True)], 3),
        REAL_SYMBOLS["theta2_large_n"],
    ], ids=["theta4", "phase", "theta2"])
    def test_the_certificate_refuses_as_with_delta(self, t, tol):
        # whether delta is computed or known to be 0, a symbol is refused
        # exactly when 1 - delta > tol^2 (1 + delta) fails
        delta = _isometry_defect(t)
        for build in (beurling_space, model_space):
            if 1.0 - delta > tol ** 2 * (1.0 + delta):
                build(t, t.deg + 8, tol=tol)
            else:
                with pytest.raises(NotInnerError):
                    build(t, t.deg + 8, tol=tol)

    @pytest.mark.parametrize("build", [beurling_space, model_space])
    def test_the_refusals_before_the_certificate_stay(self, build):
        t = ORACLE_SYMBOLS["monomial_diag4"]
        with pytest.raises(NotInnerError):
            build(MatSymbol(4, 4, t.mats), 8)
        with pytest.raises(PreconditionError):
            build(t, 8, headroom=-1)
        with pytest.raises(TruncationOverflowError):
            build(t, 2)


class TestRefusal:
    """Claimed-inner symbols whose kept columns may lose rank are refused."""

    @pytest.mark.parametrize("build", [beurling_space, model_space])
    @pytest.mark.parametrize("sym", [
        MatSymbol(2, 2, np.diag([1.0, 0.0]).reshape(1, 2, 2), claimed_inner=True),
        MatSymbol(1, 2, np.array([[[2 ** -0.5, 2 ** -0.5]]]), claimed_inner=True),
    ], ids=["rank_deficient", "wide"])
    def test_refused(self, build, sym):
        with pytest.raises(NotInnerError):
            build(sym, 6)

    def test_large_tail_still_builds(self):
        # b_{1/2} truncated at degree 3 has tail 0.19 and delta about 0.34:
        # its columns still certifiably have full rank
        t = blaschke_scalar(BlaschkeSpec([0.5]), 3)
        assert 0.3 < _isometry_defect(t) < 0.4
        rng, model = _dense_range_and_model(t, 16)
        assert _projector_gap(beurling_space(t, 16).matrix, rng) <= 1e-12
        assert _projector_gap(model_space(t, 16).matrix, model) <= 1e-12

    @pytest.mark.parametrize("build", [beurling_space, model_space])
    def test_negative_headroom(self, build):
        # headroom -1 would admit products cut off at the ambient degree
        with pytest.raises(PreconditionError):
            build(monomial_inner(2, 2), 6, headroom=-1)


def _isometry_defect_by_lags(t):
    """delta of ``_isometry_defect``, one product per lag l of the stacked
    coefficients with a copy shifted by l blocks."""
    stack = t.mats.reshape(-1, t.m_in)
    rows = stack.shape[0]
    coef = np.stack([np.conj(stack[: rows - l * t.m_out]).T @ stack[l * t.m_out:]
                     for l in range(t.deg + 1)])
    coef[0] -= np.eye(t.m_in)
    top = np.linalg.eigvalsh(np.conj(coef.transpose(0, 2, 1)) @ coef)[:, -1]
    norms = np.sqrt(np.maximum(top, 0.0))
    return float(norms[0] + 2.0 * norms[1:].sum())


def _random_symbol(seed, m_out, m_in, deg):
    rng = np.random.default_rng(seed)
    shape = (deg + 1, m_out, m_in)
    return MatSymbol(m_out, m_in, 0.3 * (rng.standard_normal(shape)
                                         + 1j * rng.standard_normal(shape)))


class TestIsometryDefect:
    """The Gram-and-shear delta against one product per lag."""

    @pytest.mark.parametrize("t", [
        *ORACLE_SYMBOLS.values(), *REAL_SYMBOLS.values(),
        blaschke_scalar(BlaschkeSpec([0.5]), 3),
        # complex and non-square, taller and wider, and of degree 0
        _random_symbol(1, 3, 2, 6), _random_symbol(2, 2, 3, 4), _random_symbol(3, 2, 2, 0),
    ], ids=[*ORACLE_SYMBOLS, *REAL_SYMBOLS, "blaschke_deg3",
            "random_3x2", "random_2x3", "random_deg0"])
    def test_matches_the_lag_loop(self, t):
        want = _isometry_defect_by_lags(t)
        assert _isometry_defect(t) == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestModel:
    def test_scalar_z2(self):
        s = model_space(monomial_inner(2, 2), 4)
        x = np.stack([ONE.padded(4), Z.padded(4)], axis=-1)
        assert np.linalg.norm(x - project(s, x), axis=(0, 1)).max() <= 1e-10
        assert s.dim == 2

    def test_diag_constants(self):
        t = diag_inner([monomial_inner(1, 1)] * 2, 1)
        s = model_space(t, 5)
        target = from_spanning([basis_vector(2, 0), basis_vector(2, 1)], 5)
        assert subspace_distance(s, target) <= 1e-12

    def test_kernel_vector_membership(self):
        # the function with coefficients (1, 1/2, 1/4, ...) lies in the
        # complement of the z * b_{1/2} range up to the certified tail
        n, d = 32, 25
        t = blaschke_scalar(BlaschkeSpec([0.5, 0]), d)
        s = model_space(t, n)
        k = make_fn(1, [[0.5 ** j] for j in range(n + 1)])
        x = k.coeffs[:, :, None]
        residual = np.linalg.norm(x - project(s, x)) / _norm(k)
        assert residual <= 1e-6


class TestLattice:
    def test_complement_of_zero(self):
        z = from_spanning([], 2, dim_m=1)
        assert complement(z).dim == 3

    def test_complement_of_full(self):
        full = from_spanning([monomial_fn(1, 0, k) for k in range(3)], 2)
        assert complement(full).dim == 0

    def test_complement_involution(self):
        rng = np.random.default_rng(1)
        s = from_spanning(_random_fns(rng, 3, 2, 4), 4)
        assert subspace_distance(complement(complement(s)), s) <= 1e-10

    def test_dims_add_up(self):
        t = diag_inner([monomial_inner(2, 4), monomial_inner(4, 4)], 4)
        b = beurling_space(t, 16)
        k = model_space(t, 16)
        assert b.dim + k.dim == 2 * 17
        overlap = np.linalg.norm(np.conj(b.matrix.T) @ k.matrix, 2)
        assert overlap <= 1e-12


class TestProject:
    def test_onto_constants(self):
        s = from_spanning([ONE], 2)
        out = project(s, (ONE + Z).coeffs[:, :, None])
        assert out.shape == (3, 1, 1)
        assert np.allclose(out[:1, :, 0], [[1]]) and not out[1:].any()

    def test_onto_zero(self):
        assert not project(from_spanning([], 2, dim_m=1), Z.coeffs[:, :, None]).any()

    def test_projector_hermitian_idempotent(self):
        rng = np.random.default_rng(2)
        s = from_spanning(_random_fns(rng, 3, 2, 3), 3)
        p = _projector(s)
        assert np.allclose(p, np.conj(p.T), atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)

    def test_pythagoras(self):
        rng = np.random.default_rng(3)
        s = from_spanning(_random_fns(rng, 2, 2, 3), 3)
        f = _random_fns(rng, 1, 2, 3)[0]
        x = f.coeffs[:, :, None]
        pf = project(s, x)
        qf = project(complement(s), x)
        assert np.linalg.norm(pf + qf - x) <= 1e-10 * _norm(f)
        assert _norm(f) ** 2 == pytest.approx(np.linalg.norm(pf) ** 2
                                              + np.linalg.norm(x - pf) ** 2)

    def test_columns_are_projected_one_by_one(self):
        rng = np.random.default_rng(4)
        s = from_spanning(_random_fns(rng, 3, 2, 4), 4)
        x = np.stack([f.coeffs for f in _random_fns(rng, 3, 2, 4)], axis=-1)
        out = project(s, x)
        for j in range(3):
            one = project(s, x[:, :, j : j + 1])[:, :, 0]
            assert np.linalg.norm(out[:, :, j] - one) <= 1e-14 * np.linalg.norm(one)
            assert np.allclose(out[:, :, j].reshape(-1),
                               _projector(s) @ x[:, :, j].reshape(-1), atol=1e-12)

    def test_window_drops_higher_rows_and_pads_shorter_ones(self):
        # the rows above the window are orthogonal to the space, so a long
        # function projects as its truncation and a short one as its padding
        rng = np.random.default_rng(5)
        s = from_spanning(_random_fns(rng, 2, 2, 4), 4)
        long = np.stack([f.coeffs for f in _random_fns(rng, 2, 2, 9)], axis=-1)
        assert np.array_equal(project(s, long), project(s, long[:5]))
        short = long[:2]
        padded = np.concatenate([short, np.zeros((3, 2, 2))])
        assert project(s, short).shape == (5, 2, 2)
        assert np.array_equal(project(s, short), project(s, padded))

    def test_real_space_keeps_the_field_of_the_columns(self):
        s = from_spanning([ONE, Z], 3)
        assert s.matrix.dtype == np.float64
        assert project(s, np.ones((2, 1, 1))).dtype == np.float64
        out = project(s, np.full((2, 1, 1), 1j))
        assert out.dtype == complex and np.allclose(out[:2, 0, 0], [1j, 1j])

    @pytest.mark.parametrize("shape", [(3, 2, 1), (3, 1), (0, 1, 1)])
    def test_shape_mismatch(self, shape):
        with pytest.raises(DimensionMismatchError):
            project(from_spanning([ONE], 2), np.ones(shape))


class TestDistance:
    def test_reflexive(self):
        s = from_spanning([ONE], 3)
        assert subspace_distance(s, s) == 0.0

    def test_orthogonal_lines(self):
        assert subspace_distance(
            from_spanning([ONE], 1), from_spanning([Z], 1)
        ) == pytest.approx(1.0)

    def test_principal_angle(self):
        # hand 2x2 eigenproblem: eigenvalues of P1 - P2 are +-1/sqrt(2)
        tilted = make_fn(1, [[2 ** -0.5], [2 ** -0.5]])
        d = subspace_distance(from_spanning([ONE], 1), from_spanning([tilted], 1))
        assert d == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_ambient_padding(self):
        a = from_spanning([ONE], 1)
        b = from_spanning([ONE], 5)
        assert subspace_distance(a, b) <= 1e-12


class TestSlices:
    def test_vanishing_slice_drops_constants(self):
        s = Subspace(1, 2, (ONE, Z))
        v = vanishing_slice(s)
        assert v.dim == 1
        assert subspace_distance(v, from_spanning([Z], 2)) <= 1e-10

    def test_vanishing_slice_identity(self):
        s = from_spanning([monomial_fn(2, 0, 1)], 2)
        assert subspace_distance(vanishing_slice(s), s) <= 1e-12

    def test_vanishing_slice_mixed(self):
        plus = make_fn(1, [[2 ** -0.5], [2 ** -0.5]])
        minus = make_fn(1, [[2 ** -0.5], [-(2 ** -0.5)]])
        v = vanishing_slice(Subspace(1, 2, (plus, minus)))
        assert v.dim == 1
        assert subspace_distance(v, from_spanning([Z], 2)) <= 1e-10

    def test_degree_slice(self):
        s = from_spanning([ONE, Z, monomial_fn(1, 0, 3)], 3)
        cut = degree_slice(s, 1)
        assert cut.dim == 2
        assert all(b.trimmed_deg() <= 1 for b in cut.basis)


class TestWandering:
    def test_model_space_case(self):
        s = model_space(monomial_inner(2, 2), 4)
        w = wandering(s)
        assert w.dim == 1
        assert subspace_distance(w, from_spanning([ONE], 4)) <= 1e-10

    def test_all_vanishing(self):
        s = from_spanning([monomial_fn(2, 0, 1), monomial_fn(2, 1, 2)], 3)
        assert wandering(s).dim == 0

    def test_blaschke_product_rank(self):
        d = 12
        psi = diag_inner(
            [blaschke_scalar(BlaschkeSpec([0.5]), d),
             blaschke_scalar(BlaschkeSpec([1 / 3]), d)],
            d,
        )
        theta = diag_inner([monomial_inner(1, 1)] * 2, 1)
        k = model_space(theta, 4)
        s = _image(psi, k, 4 + d)
        w = wandering(s)
        # oracle: rank of the matrix of values at the origin
        vals = np.column_stack([b.value_at_zero() for b in s.basis])
        assert w.dim == np.linalg.matrix_rank(vals, tol=1e-10) == 2


class TestDefect:
    def test_beurling_shift_invariant(self):
        full = beurling_space(monomial_inner(1, 1), 6)
        restricted = beurling_space(monomial_inner(1, 1), 6, headroom=1)
        cert = defect_of(full, "S", domain=restricted)
        assert cert.defect_dim == 0
        assert cert.max_residual <= 1e-12

    def test_model_backward_invariant(self):
        s = model_space(monomial_inner(2, 2), 4)
        cert = defect_of(s, "S*")
        assert cert.defect_dim == 0

    def test_model_under_shift_has_defect_one(self):
        s = Subspace(1, 2, (ONE, Z))
        cert = defect_of(s, "S")
        assert cert.defect_dim == 1
        assert np.allclose(cert.singular_values, [1.0, 0.0], atol=1e-12)
        assert subspace_distance(
            from_spanning(list(cert.defect_basis), 2),
            from_spanning([monomial_fn(1, 0, 2)], 2),
        ) <= 1e-10

    def test_headroom_violation(self):
        s = from_spanning([monomial_fn(1, 0, 2)], 2)
        with pytest.raises(TruncationOverflowError):
            defect_of(s, "S")

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(4)
        s = from_spanning(_random_fns(rng, 3, 2, 3), 5)
        dims = [
            defect_of(s, "S", tol=t).defect_dim
            for t in (1e-12, 1e-8, 1e-4, 1e-1, 2.0)
        ]
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_certificate_within_band(self):
        # out-of-band escapes are the truncation shadow, not true defects
        full = beurling_space(monomial_inner(1, 1), 6, headroom=1)
        cert_banded = defect_of(full, "S", band=full.band)
        assert cert_banded.defect_dim == 0

    def test_mode_is_stamped_not_taken(self):
        m = Subspace(1, 4, (ONE,))
        with pytest.raises(TypeError):
            defect_of(m, "S*", mode="bogus")
        assert defect_of(m, "S*").mode == "almost"
        assert certify_nearly(m, 0).mode == "nearly"

    @pytest.mark.parametrize("domain", ["default", "empty", "non_empty"])
    def test_unknown_operator_refused_on_any_domain(self, domain):
        # an empty domain has nothing to shift, but an unknown tag is still
        # refused rather than certified
        m = Subspace(1, 4, ()) if domain != "non_empty" else Subspace(1, 4, (ONE,))
        kwargs = {"domain": Subspace(1, 4, ())} if domain == "empty" else {}
        with pytest.raises(PreconditionError, match="unknown operator tag 'bogus'"):
            defect_of(m, "bogus", **kwargs)


# --------------------------------------------------------------------------
# thin-side algebra: the remembered complement, the thin defect frame and
# the distance without n x n projectors, against the dense formulas


def _dense_distance(a, b, band=None):
    """Reference: the 2-norm of the difference of the two n x n projectors."""
    deg = max(a.ambient_deg, b.ambient_deg)
    diff = _projector(a.padded(deg)) - _projector(b.padded(deg))
    if band is not None:
        cut = a.dim_m * (band + 1)
        diff = diff[:cut, :cut]
    return float(np.linalg.norm(diff, 2)) if diff.size else 0.0


def _ambient_defect(m, op, domain=None, tol=None, band=None):
    """Reference: the residual against M's Q in the ambient frame.

    Returns (defect_dim, singular values, defect columns, max_residual),
    the last the first singular value below the cut (0.0 if there is none).
    """
    domain = m if domain is None else domain
    tol = m.tol if tol is None else tol
    cols = _shift_rows(domain.padded(m.ambient_deg).matrix, m.dim_m, op)
    q = m.matrix
    resid = cols - q @ (np.conj(q.T) @ cols)
    if band is not None:
        resid[m.dim_m * (band + 1):, :] = 0.0
    u, s, _ = np.linalg.svd(resid, full_matrices=False)
    rank = int(np.sum(s > tol))
    return rank, s, u[:, :rank], float(s[rank]) if rank < s.size else 0.0


def _without_memo(s):
    """The same Q, tol and band with an empty memo."""
    return pickle.loads(pickle.dumps(s))


def _theta_small():
    return diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)


def _prop_perp_space(n=12):
    # the almost-invariant complement of the prop_perp_almost scenario
    psi = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
    theta = diag_inner([monomial_inner(2, 2), monomial_inner(1, 2)], 2)
    k = model_space(theta, n - 2)
    x = complement(_image(psi, k, n, dim_m=2))
    return x, degree_slice(x, n - 1), 1e-8


def _section4_space(nk=6):
    # the coordinate complement of the section4 scenario
    k = model_space(diag_inner([monomial_inner(3, 3), monomial_inner(2, 3)], 3), nk)
    k_perp = complement(k)
    return k_perp, degree_slice(k_perp, nk - 1), 1e-8


def _counterexample_space(n=8):
    # the counterexample scenario's space, a complement of Theta K_Theta
    theta = diag_inner([monomial_inner(1, 1)] * 2, 1)
    return complement(_image(theta, model_space(theta, n), n))


def _beurling_shift():
    t = _theta_small()
    return beurling_space(t, 20), beurling_space(t, 20, headroom=1), None


def _beurling_backshift():
    return beurling_space(_theta_small(), 20), None, None


def _complement_shift():
    s = complement(from_spanning(_random_fns(np.random.default_rng(8), 3, 2, 9), 9))
    return s, degree_slice(s, 8), None


THIN_CASES = {
    "beurling_S": ("S", _beurling_shift),
    "beurling_Sstar": ("S*", _beurling_backshift),
    "complement_S": ("S", _complement_shift),
    # a tol above every singular value: no defect, the whole residual left over
    "complement_S_coarse": ("S", lambda: _complement_shift()[:2] + (2.0,)),
    "complement_Sstar": ("S*", lambda: (complement(from_spanning(
        _random_fns(np.random.default_rng(9), 2, 1, 7), 7)), None, None)),
    "prop_perp_almost": ("S", _prop_perp_space),
    "section4": ("S", _section4_space),
}


class TestThinFrameDefect:
    @pytest.mark.parametrize("name", sorted(THIN_CASES))
    def test_agrees_with_ambient_residual(self, name):
        op, build = THIN_CASES[name]
        m, domain, tol = build()
        perp = m._memo.get("complement")
        assert perp is not None and perp.dim < m.dim  # the thin frame is taken
        cert = defect_of(m, op, domain=domain, tol=tol)
        rank, s, ud, max_res = _ambient_defect(m, op, domain, tol)
        assert cert.defect_dim == rank
        assert len(cert.singular_values) == len(s)
        assert np.max(np.abs(np.array(cert.singular_values) - s)) <= 1e-12
        assert abs(cert.max_residual - max_res) <= 1e-12
        found = np.column_stack([flatten(f, m.ambient_deg) for f in cert.defect_basis]) \
            if rank else ud
        assert _projector_gap(found, ud) <= 1e-12

    def test_certify_nearly_on_a_complement(self):
        # certify_nearly without band
        space = _counterexample_space()
        cert = certify_nearly(space, 0)
        rank, s, ud, max_res = _ambient_defect(
            space, "S*", domain=vanishing_slice(space))
        assert cert.defect_dim == rank > 0
        assert np.allclose(cert.singular_values, s, rtol=0, atol=1e-12)
        assert abs(cert.max_residual - max_res) <= 1e-12
        found = np.column_stack([flatten(f, 8) for f in cert.defect_basis])
        assert _projector_gap(found, ud) <= 1e-12

    def test_thin_and_ambient_frames_agree(self):
        m, domain, _ = _beurling_shift()
        thin = defect_of(m, "S", domain=domain)
        plain = defect_of(_without_memo(m), "S", domain=domain)
        assert thin.defect_dim == plain.defect_dim == 0
        assert len(thin.singular_values) == len(plain.singular_values)
        assert np.allclose(thin.singular_values, plain.singular_values,
                           rtol=0, atol=1e-12)
        assert abs(thin.max_residual - plain.max_residual) <= 1e-12

    def test_max_residual_is_the_operator_norm(self):
        # M = span((z - z^2)/sqrt 2) leaves both images z, z^2 of the domain
        # span(1, z) the residual (z + z^2)/2: each column has norm
        # 1/sqrt 2, the residual operator norm 1
        z2 = monomial_fn(1, 0, 2)
        m = Subspace(1, 3, ((Z - z2) * 2 ** -0.5,))
        domain = Subspace(1, 3, (ONE, Z))
        cert = defect_of(m, "S", domain=domain, tol=2.0)
        assert cert.defect_dim == 0
        assert cert.max_residual == pytest.approx(1.0, abs=1e-12)
        cut = defect_of(m, "S", domain=domain, tol=1e-8)
        assert cut.defect_dim == 1
        assert cut.max_residual == cut.singular_values[1] <= 1e-12

    def test_max_residual_is_zero_when_every_direction_is_a_defect(self):
        cert = defect_of(Subspace(1, 3, (ONE,)), "S", domain=Subspace(1, 3, (ONE, Z)))
        assert cert.defect_dim == len(cert.singular_values) == 2
        assert cert.max_residual == 0.0

    def test_band_keeps_the_ambient_frame(self):
        m = beurling_space(monomial_inner(1, 1), 6, headroom=1)
        cert = defect_of(m, "S", band=m.band)
        rank, s, _, max_res = _ambient_defect(m, "S", band=m.band)
        assert cert.defect_dim == rank == 0
        assert np.allclose(cert.singular_values, s, rtol=0, atol=1e-12)
        assert abs(cert.max_residual - max_res) <= 1e-12


def _distance_pairs():
    rng = np.random.default_rng(11)
    small = from_spanning(_random_fns(rng, 3, 2, 5), 5)
    other = from_spanning(_random_fns(rng, 3, 2, 5), 5)
    rotated = from_spanning(small.basis[::-1], 5)
    zero = from_spanning([], 5, dim_m=2)
    fat = complement(small)
    fat_other = complement(from_spanning(list(small.basis[:2]) + [other.basis[0]], 5))
    wide = from_spanning(list(small.basis) + _random_fns(rng, 1, 2, 8), 8)
    return {
        "equal": (small, rotated),
        "unequal": (small, other),
        "empty_empty": (zero, from_spanning([], 3, dim_m=2)),
        "empty_small": (zero, small),
        "fat_fat": (fat, fat_other),
        "fat_small": (fat, other),
        "padded": (small, wide),
        "model_vs_monomials": (
            model_space(_theta_small(), 9),
            from_spanning([monomial_fn(2, i, j) for i, k in enumerate((2, 3))
                           for j in range(k)], 9, dim_m=2),
        ),
    }


DISTANCE_PAIRS = _distance_pairs()


class TestDistanceOracle:
    @pytest.mark.parametrize("band", [None, 0, 2, 5, 20])
    @pytest.mark.parametrize("name", sorted(DISTANCE_PAIRS))
    def test_agrees_with_projectors(self, name, band):
        a, b = DISTANCE_PAIRS[name]
        for x, y in ((a, b), (b, a)):
            assert abs(subspace_distance(x, y, band=band)
                       - _dense_distance(x, y, band)) <= 1e-12

    @given(st.integers(1, 3), st.integers(0, 8), st.integers(0, 8), st.integers(0, 6),
           st.integers(-1, 9), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_pairs(self, m, deg_a, deg_b, count, band, seed):
        gen = np.random.default_rng(seed)
        a = from_spanning(_random_fns(gen, count, m, deg_a), deg_a, dim_m=m)
        b = from_spanning(_random_fns(gen, gen.integers(0, 7), m, deg_b), deg_b, dim_m=m)
        if gen.random() < 0.5:
            b = complement(b)
        band = None if band < 0 else band
        assert abs(subspace_distance(a, b, band=band) - _dense_distance(a, b, band)) <= 1e-12


class TestNegativeBand:
    def test_distance(self):
        k = from_spanning([ONE], 3)
        z = from_spanning([Z], 3)
        with pytest.raises(PreconditionError):
            subspace_distance(k, z, band=-1)

    @pytest.mark.parametrize("band", [-1, -2])
    def test_defect_of(self, band):
        z = from_spanning([Z], 3)
        with pytest.raises(PreconditionError):
            defect_of(z, "S*", band=band)

    def test_certify_nearly(self):
        with pytest.raises(PreconditionError):
            certify_nearly(from_spanning([Z], 3), 0, band=-1)


class TestComplementCache:
    """The fatter side keeps its thin complement; nothing points back."""

    @pytest.mark.parametrize("build", [
        lambda: from_spanning(_random_fns(np.random.default_rng(1), 3, 2, 4), 4),
        lambda: from_spanning([], 3, dim_m=2),
        lambda: model_space(_theta_small(), 10),
    ])
    def test_thin_space_is_its_complements_complement(self, build):
        a = build()
        c = complement(a)
        assert a.dim < c.dim
        assert complement(c) is a
        assert a._memo == {}  # no entry on the thin side
        assert complement(a) is not c  # a thin space's complement is recomputed
        assert a.dim + c.dim == a.ambient_dim

    @pytest.mark.parametrize("build", [
        lambda: complement(from_spanning([ONE], 6)),
        lambda: beurling_space(_theta_small(), 10),
        lambda: from_spanning(_random_fns(np.random.default_rng(2), 4, 1, 5), 5),
    ])
    def test_fat_holder_returns_the_same_thin_object(self, build):
        a = build()
        c = complement(a)
        assert c.dim <= a.dim
        assert complement(a) is c
        assert c._memo == {}
        again = complement(c)
        assert again is not a
        assert _projector_gap(again.matrix, a.matrix) <= 1e-12

    def test_tie_is_kept_by_the_input(self):
        a = from_spanning([ONE, Z], 3)
        c = complement(a)
        assert a.dim == c.dim == 2
        assert complement(a) is c and c._memo == {}

    def test_beurling_complement_is_the_model_space(self):
        t = _theta_small()
        b = beurling_space(t, 16, headroom=2)
        k = complement(b)
        assert k.band == b.band and k.tol == b.tol
        assert _projector_gap(k.matrix, model_space(t, 16, headroom=2).matrix) <= 1e-12

    @pytest.mark.parametrize("ambient_deg, kept", [(3, False), (4, True)])
    def test_beurling_keeps_its_complement_only_when_thinner(self, ambient_deg, kept):
        # diag(z^2, z^3): the model space has 5 columns, the range 2N - 3
        b = beurling_space(_theta_small(), ambient_deg)
        assert (b.ambient_dim - b.dim <= b.dim) == kept
        assert ("complement" in b._memo) == kept

    def test_dropped_fat_space_is_freed_without_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            b = beurling_space(_theta_small(), 40)
            thin = complement(b)
            fat_ref, thin_ref = weakref.ref(b), weakref.ref(thin)
            del b
            assert fat_ref() is None
            assert complement(thin) is not None  # recomputed
            del thin
            assert thin_ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_space_pickles_without_its_memo(self):
        b = beurling_space(_theta_small(), 12)
        thin = complement(b)
        for s in (b, thin):
            copy = pickle.loads(pickle.dumps(s))
            assert copy._memo == {}
            assert np.array_equal(copy.matrix, s.matrix)
            assert not copy.matrix.flags.writeable
            assert (copy.dim_m, copy.ambient_deg, copy.tol, copy.band) == \
                (s.dim_m, s.ambient_deg, s.tol, s.band)

    @pytest.mark.parametrize("build", [
        lambda: beurling_space(_theta_small(), 14),
        lambda: complement(from_spanning(_random_fns(np.random.default_rng(3), 2, 2, 6), 6)),
        lambda: model_space(_theta_small(), 14),
    ])
    def test_recomputed_complement_spans_the_same(self, build):
        a = build()
        kept, fresh = complement(a), complement(_without_memo(a))
        assert kept is not fresh
        assert _projector_gap(kept.matrix, fresh.matrix) <= 1e-12

    def test_wandering_is_not_kept(self):
        s = model_space(monomial_inner(2, 2), 6)
        assert wandering(s).dim == 1
        assert s._memo == {}


class TestThinSideGuards:
    """Structural guards: the thin-side paths must not grow back to O(n^3)."""

    @staticmethod
    def _record_svd_shapes(monkeypatch) -> list:
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        return shapes

    def test_beurling_defect_factors_only_the_thin_side(self, monkeypatch):
        t = _theta_small()
        b = beurling_space(t, 512)
        domain = beurling_space(t, 512, headroom=1)
        shapes = self._record_svd_shapes(monkeypatch)
        cert = defect_of(b, "S", domain=domain)
        assert cert.defect_dim == 0
        assert shapes
        assert max(shape[0] for shape in shapes) <= b.ambient_dim - b.dim

    @pytest.mark.parametrize("name", ["prop_perp_almost", "section4", "counterexample"])
    def test_scenario_complements_factor_only_the_thin_side(self, name, monkeypatch):
        # the three scenario spaces at N = 128: fat complements of a thin
        # space, certified without an SVD of the ambient residual
        if name == "counterexample":
            m, domain, tol = _counterexample_space(128), None, None
        elif name == "prop_perp_almost":
            m, domain, tol = _prop_perp_space(128)
        else:
            m, domain, tol = _section4_space(128)
        thin = m.ambient_dim - m.dim
        assert thin < m.dim
        shapes = self._record_svd_shapes(monkeypatch)
        if domain is None:
            certify_nearly(m, 0)
        else:
            defect_of(m, "S", domain=domain, tol=tol)
        assert shapes
        assert max(shape[0] for shape in shapes) <= thin

    def test_distance_of_thin_spaces_stays_small(self):
        n = 4095
        gen = np.random.default_rng(12)
        a = from_spanning(_random_fns(gen, 5, 1, n), n)
        b = from_spanning(_random_fns(gen, 5, 1, n), n)
        tracemalloc.start()
        try:
            subspace_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_distance_releases_its_stack_before_the_eigenvalues(self):
        # the shapes of the roundtrip r2p2 pair: 56 columns each, 164 and 64
        # rows.  X = [Q_A | Q_B] is 0.28 MB and R, R J and R J R* are 0.19 MB
        # each: X freed, the peak is the product; X kept, it adds 0.28 MB
        gen = np.random.default_rng(21)
        a = from_spanning(_random_fns(gen, 56, 4, 40), 40)
        b = from_spanning(_random_fns(gen, 56, 4, 15), 15)
        tracemalloc.start()
        try:
            subspace_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.9 * 2 ** 20


# --------------------------------------------------------------------------
# one null space per banded certificate, one plan per inner symbol


def _two_step_domain(m, band):
    """The banded certificate's domain as two slices, one SVD each: F(0) = 0
    on M, then deg F <= band on what that kept (the construction before
    one null space), on the rows as they are, zero rows included."""
    _, null = _split_combos(m.matrix[: m.dim_m], m.dim, m.tol)
    v = m.matrix @ null
    cut = m.dim_m * (band + 1)
    _, null = _split_combos(v[cut:], v.shape[1], m.tol)
    q = v @ null
    q[cut:] = 0.0
    return Subspace._of(m.dim_m, m.ambient_deg, q, m.tol, min(m.band, band))


def _fresh_symbol(t):
    """The same symbol with an empty memo."""
    return MatSymbol(t.m_out, t.m_in, t.mats, t.tail_bound, t.claimed_inner)


class TestOneNullSpace:
    """certify_nearly's banded domain is one null space of the origin rows
    stacked on the rows above the band, where it was two slices."""

    @given(_diagonal_symbols(), st.integers(0, 24), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_model_spaces_against_two_slices(self, t, extra, below):
        k = model_space(t, t.deg + extra)
        band = max(0, k.band - below)
        domain = _slice(k, True, band)
        oracle = (_two_step_domain(k, band) if band < k.ambient_deg
                  else vanishing_slice(k))
        assert domain.dim == oracle.dim and domain.band == oracle.band
        assert not domain.matrix[k.dim_m * (band + 1):].any()
        # a null space is fixed only to rounding over the smallest singular
        # value it keeps out (Wedin): a truncated Blaschke entry of low
        # degree leaves constraint singular values down to 1.05e-10 against
        # the 1e-10 cut, where both constructions move by up to 10 eps / gap
        q, cut = k.matrix, k.dim_m * (band + 1)
        con = np.concatenate([q[: k.dim_m], q[cut:]])
        s = np.linalg.svd(con, compute_uv=False) if con.any() else np.ones(1)
        gap = s[s > k.tol * max(1.0, s[0])].min(initial=1.0)
        eps = np.finfo(float).eps
        assert subspace_distance(domain, oracle) <= max(1e-12, 64 * eps / gap)
        cert = certify_nearly(k, 0, band=band)
        want = defect_of(k, "S*", domain=oracle, band=band)
        assert cert.defect_dim == want.defect_dim
        assert len(cert.singular_values) == len(want.singular_values)
        assert np.allclose(cert.singular_values, want.singular_values, rtol=0, atol=1e-13)

    def test_a_banded_certificate_takes_two_svds(self, monkeypatch):
        # the domain's null space and the residual's spectrum
        k = model_space(_fresh_symbol(REAL_SYMBOLS["theta2_large_n"]), 64)
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        cert = certify_nearly(k, 0, band=k.band)
        assert cert.defect_dim == 0 and len(calls) == 2
        # the exactly zero rows above the band (the z^2 entry's) are dropped
        assert calls[0][0] < k.dim_m * (1 + k.ambient_deg - k.band)

    def test_a_constraint_without_a_nonzero_row_cuts_nothing(self, monkeypatch):
        s = from_spanning([Z, monomial_fn(1, 0, 2)], 5)

        def refuse(*args, **kwargs):
            raise AssertionError("an all-zero constraint reached an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for sliced in (vanishing_slice(s), degree_slice(s, 3), _slice(s, True, 2)):
            assert sliced.matrix.tobytes() == s.matrix.tobytes()
        assert _slice(s, True, 2).band == 2


class TestSymbolPlan:
    """What _range_qr reads of the symbol alone is computed once per symbol."""

    def test_delta_once_across_orders_and_headrooms(self, monkeypatch):
        import hardylab.subspaces as subspaces

        calls = []
        defect = subspaces._isometry_defect

        def counting(t):
            calls.append(t)
            return defect(t)

        monkeypatch.setattr(subspaces, "_isometry_defect", counting)
        t = _fresh_symbol(REAL_SYMBOLS["theta2_large_n"])
        for n in (64, 128, 256):
            for headroom in (0, 2):
                model_space(t, n, headroom)
                beurling_space(t, n, headroom)
        assert calls == [t]
        model_space(_fresh_symbol(t), 64)
        assert len(calls) == 2

    @pytest.mark.parametrize("build", [beurling_space, model_space])
    def test_refusals_on_the_first_and_a_repeated_call(self, build):
        t = _fresh_symbol(REAL_SYMBOLS["theta2_large_n"])
        for _ in range(2):
            # 1 - delta <= tol^2 (1 + delta) at tol 2, whatever delta is
            with pytest.raises(NotInnerError):
                build(t, 64, tol=2.0)
            with pytest.raises(TruncationOverflowError):
                build(t, t.deg - 1)
            with pytest.raises(NotInnerError):
                build(MatSymbol(t.m_out, t.m_in, t.mats), 64)
        assert "plan" in t._memo
        build(t, 64)

    @pytest.mark.parametrize("t", [
        REAL_SYMBOLS["theta2_large_n"],
        diag_inner([blaschke_scalar(BlaschkeSpec([0.5, -0.3 + 0.2j]), 24),
                    blaschke_scalar(BlaschkeSpec([0.4j]), 24)], 24),
    ], ids=["theta2", "complex_blaschke"])
    @pytest.mark.parametrize("n", [64, 128, 256, 1024])
    def test_a_cached_plan_changes_no_byte(self, t, n):
        model_space(t, t.deg)
        assert "plan" in t._memo
        for build in (beurling_space, model_space):
            cached, fresh = build(t, n), build(_fresh_symbol(t), n)
            assert cached.matrix.dtype == fresh.matrix.dtype
            assert cached.matrix.tobytes() == fresh.matrix.tobytes()
            assert cached.band == fresh.band

    def test_the_memo_is_not_state(self):
        t = _fresh_symbol(REAL_SYMBOLS["theta2_large_n"])
        bare = _fresh_symbol(t)
        degs = t.column_degrees()
        assert not t._memo
        model_space(t, 64)
        # the plan keeps the column degrees; nothing else is memoized
        assert set(t._memo) == {"plan"} and not bare._memo
        assert np.array_equal(t._memo["plan"][0], degs)
        assert repr(t) == repr(bare) and "_memo" not in repr(t)
        back = pickle.loads(pickle.dumps(t))
        assert back._memo == {}
        assert np.array_equal(back.mats, t.mats) and back.claimed_inner
        assert np.array_equal(back.column_degrees(), degs)


def test_thin_frame_refuses_an_unknown_tag_on_an_empty_domain():
    # the thin complement P is shifted instead of the domain; the tag is
    # still refused before an empty domain returns
    fat = complement(Subspace(1, 4, (ONE,)))
    assert "complement" in fat._memo
    with pytest.raises(PreconditionError, match="unknown operator tag 'bogus'"):
        defect_of(fat, "bogus", domain=Subspace(1, 4, ()))
