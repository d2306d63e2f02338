"""Unit tests for the decomposition algorithm and its converse."""

import copy
import pickle
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import nearly, scenarios, subspaces
from hardylab.errors import (
    CertificationError,
    DimensionMismatchError,
    InvariantViolationError,
    NotNearlyInvariantError,
    PreconditionError,
    TruncationOverflowError,
    WorkbenchError,
)
from hardylab.funcs import (
    CoeffFn,
    basis_vector,
    flatten,
    make_fn,
    monomial_fn,
    unflatten,
    zero_fn,
)
from hardylab.inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from hardylab.multipliers import MatSymbol
from hardylab.nearly import (
    DEFAULT_NEAR_TOL,
    DecompResult,
    almost_invariant_Sstar_check,
    certify_nearly,
    decompose,
    duality_residuals,
    extract_K,
    orthocomplement_membership,
    synthesize_M,
)
from hardylab.subspaces import (
    Subspace,
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
# the non-constant F0 column of the main_defect1 scenario
POLY_COL = make_fn(3, [[2 ** -0.5, 0, 0], [0, 2 ** -0.5, 0]])


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


def _inner(f, g):
    """<F, G> = sum_n <A_n, B_n>, linear in F, conjugate-linear in G."""
    deg = max(f.deg, g.deg)
    return complex(np.sum(f.padded(deg) * np.conj(g.padded(deg))))


def _backshift(f):
    """(F(z) - F(0)) / z: coefficients move down one degree."""
    return CoeffFn(f.dim_m, f.coeffs[1:]) if f.deg else zero_fn(f.dim_m)


def _cauchy(t, f):
    """T_Theta F by the Cauchy product C_n = sum_{j+k=n} Theta_j A_k."""
    out = np.zeros((t.deg + f.deg + 1, t.m_out), dtype=complex)
    for j in range(t.deg + 1):
        out[j : j + f.deg + 1] += f.coeffs @ t.mats[j].T
    return CoeffFn(t.m_out, out)


def _reference_decompose(m, defect_basis, f, eps=1e-10, k_max=None):
    """The peeling iteration one CoeffFn at a time: the oracle for decompose.

    Inner products, the backward shift and the projection onto M act on
    functions; each wandering and defect component is subtracted on its
    own.  The input checks are left to decompose.
    """
    defect_basis = list(defect_basis)
    p = len(defect_basis)
    if k_max is None:
        k_max = m.ambient_deg + p + 8
    pre_tol = max(100.0 * m.tol, 1e-8)
    w = wandering(m)
    r = w.dim
    g = f
    gk_norms = [_norm(g)]
    a_trace, beta_trace = [], []
    max_step_residual = 0.0
    iterations = 0
    while gk_norms[-1] > eps and iterations < k_max:
        f_next = g
        if r:
            a = np.array([_inner(g, wi) for wi in w.basis])
            for ai, wi in zip(a, w.basis):
                f_next = f_next - ai * wi
            a_trace.append(a)
        at_zero = float(np.linalg.norm(f_next.value_at_zero()))
        if at_zero > pre_tol * max(1.0, gk_norms[-1]):
            raise InvariantViolationError(
                f"wandering removal left value {at_zero:.3g} at the origin"
            )
        h = _backshift(f_next)
        g = _project_fn(m, h)
        beta = np.array([_inner(h, ej) for ej in defect_basis])
        escape = h - g
        for bj, ej in zip(beta, defect_basis):
            escape = escape - bj * ej
        esc_norm = _norm(escape)
        if esc_norm > DEFAULT_NEAR_TOL:
            raise NotNearlyInvariantError(iterations + 1, esc_norm, escape)
        max_step_residual = max(max_step_residual, esc_norm)
        beta_trace.append(beta)
        gk_norms.append(_norm(g))
        iterations += 1
    k0 = None
    if r:
        k0 = CoeffFn(r, np.vstack(a_trace) if a_trace else np.zeros((1, r)))
    kj = []
    for j in range(p):
        col = np.array([b[j] for b in beta_trace], dtype=complex).reshape(-1, 1)
        kj.append(CoeffFn(1, col) if col.size else zero_fn(1))
    total = (_norm(k0) ** 2 if k0 is not None else 0.0) + sum(_norm(k) ** 2 for k in kj)
    return DecompResult(
        K0=k0, kj=tuple(kj), gk_norms=tuple(gk_norms), max_step_residual=max_step_residual,
        norm_gap=abs(_norm(f) ** 2 - total), iterations=iterations,
        converged=gk_norms[-1] <= eps,
    )


def _coordinates(res):
    """K0 (if any) and k_1..k_p of a decomposition."""
    return ([res.K0] if res.K0 is not None else []) + list(res.kj)


def _tuple_fn(res):
    """The stacked C^{r+p}-valued coordinate function (K0, k_1..k_p)."""
    parts = _coordinates(res)
    deg = max(p.deg for p in parts)
    return CoeffFn(sum(p.dim_m for p in parts), np.hstack([p.padded(deg) for p in parts]))


def _assert_same_decomposition(res, ref, tol=1e-12):
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert np.allclose(res.gk_norms, ref.gk_norms, rtol=0, atol=tol)
    assert res.norm_gap == pytest.approx(ref.norm_gap, rel=0, abs=tol)
    assert res.max_step_residual == pytest.approx(ref.max_step_residual, rel=0, abs=tol)
    got, want = _coordinates(res), _coordinates(ref)
    assert [g.dim_m for g in got] == [w.dim_m for w in want]
    for g, w in zip(got, want):
        assert g.coeffs.shape == w.coeffs.shape
        assert np.allclose(g.coeffs, w.coeffs, rtol=0, atol=tol)


def _roundtrip_space(r, pdim, m, degrees, nk, f0_cols=None):
    """(M, E) synthesized as in the scenarios' roundtrip configurations."""
    k = model_space(diag_inner([monomial_inner(d, max(degrees)) for d in degrees],
                               max(degrees)), nk)
    if f0_cols is None:
        f0_cols = [basis_vector(m, i) for i in range(r)]
    e_fns = [basis_vector(m, m - pdim + j) for j in range(pdim)]
    return synthesize_M(k, f0_cols, e_fns, nk + 2), e_fns


@cache
def _oracle_spaces():
    return (
        # r = 0: the (0, 1, 1) configuration of main_defectp
        _roundtrip_space(0, 1, 1, (2,), 4, f0_cols=[]),
        # the non-constant F0 of main_defect1
        _roundtrip_space(1, 1, 3, (3, 2), 6, f0_cols=[POLY_COL]),
        _roundtrip_space(2, 1, 3, (2, 2, 3), 6),
    )


def _counterexample_space(n=10):
    theta = diag_inner([monomial_inner(1, 1)] * 2, 1)
    k_theta = model_space(theta, n)
    theta_k = from_spanning(
        [_cauchy(theta, b) for b in k_theta.basis], n
    )
    return complement(theta_k)


# the escape of the chain space's v_1 under S*, above DEFAULT_NEAR_TOL
CHAIN_LEAK = 1.6e-6


def _chain_space():
    """M = span(1, v_1, .., v_4) at ambient degree 9, with no defect, where
    v_k = s z^k + t z^(k+5), t = CHAIN_LEAK and s = sqrt(1 - t^2).

    S* v_k = v_(k-1) and S* v_1 = s + t z^5, with z^5 outside M, so an
    iterate escapes by t times its v_1 part.  Q's first column is v_4,
    which escapes at step 4.  The others mix 1, v_1, v_2, v_3 with weights
    of modulus 1/2, so each escapes by t / 2 < DEFAULT_NEAR_TOL at most.
    Returns (M, the columns 1, v_1, .., v_4).
    """
    t = CHAIN_LEAK
    cols = np.zeros((10, 5), dtype=complex)
    cols[0, 0] = 1.0
    for k in range(1, 5):
        cols[k, k], cols[k + 5, k] = np.sqrt(1 - t * t), t
    mix = (1j ** np.outer(range(4), range(4))) / 2
    q = np.column_stack([cols[:, 4], cols[:, :4] @ mix])
    return Subspace(1, 9, [unflatten(x, 1) for x in q.T]), cols


class TestDecompose:
    def test_model_space_hand_iteration(self):
        space = Subspace(1, 4, (ONE, Z))
        res = decompose(space, [], Z)
        assert res.converged and res.iterations == 2
        assert res.norm_gap <= 1e-12
        assert np.allclose(np.abs(res.K0.coeffs.ravel()), [0, 1])
        assert res.kj == ()

    def test_pure_defect_case(self):
        space = Subspace(1, 4, (Z,))
        res = decompose(space, [ONE], Z)
        assert res.K0 is None
        assert np.allclose(np.abs(res.kj[0].coeffs.ravel()), [1])
        assert res.norm_gap <= 1e-12

    def test_counterexample_escape(self):
        space = _counterexample_space()
        with pytest.raises(NotNearlyInvariantError) as err:
            decompose(space, [], monomial_fn(2, 0, 2))
        assert err.value.step == 1
        assert err.value.residual == pytest.approx(1.0, abs=1e-10)

    def test_function_outside_space(self):
        space = Subspace(1, 4, (Z,))
        with pytest.raises(PreconditionError):
            decompose(space, [], ONE)

    def test_sloppy_defect_basis(self):
        space = Subspace(1, 4, (Z,))
        with pytest.raises(PreconditionError):
            decompose(space, [2 * ONE], Z)

    def test_defect_not_orthogonal_to_space(self):
        space = Subspace(1, 4, (Z,))
        with pytest.raises(PreconditionError):
            decompose(space, [Z], Z)

    def test_traces_match_coordinates(self):
        space = Subspace(1, 4, (ONE, Z))
        res = decompose(space, [], ONE + Z)
        assert res.gk_norms[-1] <= 1e-10

    def test_diagnostic_on_k_max(self):
        space = Subspace(1, 4, (ONE, Z))
        res = decompose(space, [], Z, k_max=1)
        assert not res.converged
        assert res.iterations == 1

    def test_norm_identity_budget(self):
        rng = np.random.default_rng(8)
        space = model_space(monomial_inner(4, 4), 6)
        eps = 1e-10
        for _ in range(5):
            coords = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            f = space.basis[0] * coords[0]
            for c, b in zip(coords[1:], space.basis[1:]):
                f = f + c * b
            res = decompose(space, [], f, eps=eps)
            budget = 10 * eps * _norm(f) + res.max_step_residual * res.iterations
            assert res.norm_gap <= budget + 1e-12

    def test_norm_gap_is_measured_against_the_first_remainder_norm(self):
        # ||F|| is read once, as gk_norms[0]; norm_gap is exactly its
        # Parseval gap against the tuple's squared norm
        rng = np.random.default_rng(12)
        for space, e in _oracle_spaces():
            for _ in range(10):
                f = unflatten(space.matrix @ (rng.standard_normal(space.dim)
                                              + 1j * rng.standard_normal(space.dim)), space.dim_m)
                res = decompose(space, e, f)
                coef = np.hstack(([res.K0.coeffs] if res.K0 is not None else [])
                                 + [k.coeffs for k in res.kj])
                assert res.norm_gap == abs(res.gk_norms[0] ** 2
                                           - float(np.vdot(coef, coef).real))

    def test_linearity_of_tuples(self):
        space = Subspace(1, 6, (ONE, Z))
        fa = ONE + 2 * Z
        fb = ONE - Z
        ra = decompose(space, [], fa)
        rb = decompose(space, [], fb)
        rc = decompose(space, [], 0.5 * fa + 2j * fb)
        deg = max(ra.K0.deg, rb.K0.deg, rc.K0.deg)
        combo = 0.5 * ra.K0.padded(deg) + 2j * rb.K0.padded(deg)
        assert np.allclose(rc.K0.padded(deg), combo, atol=1e-9)


def _unit_element(space, coords):
    vec = space.matrix @ np.asarray(coords, dtype=complex)
    return unflatten(vec / np.linalg.norm(vec), space.dim_m)


class TestAgainstReference:
    @pytest.mark.parametrize("case", range(3))
    def test_basis_and_random_elements(self, case):
        space, e = _oracle_spaces()[case]
        rng = np.random.default_rng(case)
        draws = [rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
                 for _ in range(3)]
        for f in list(space.basis) + [_unit_element(space, c) for c in draws]:
            _assert_same_decomposition(decompose(space, e, f),
                                       _reference_decompose(space, e, f))

    def test_k_max_cut_off(self):
        space, e = _oracle_spaces()[2]
        f = _unit_element(space, np.arange(1, space.dim + 1))
        res = decompose(space, e, f, k_max=2)
        assert not res.converged and res.iterations == 2
        _assert_same_decomposition(res, _reference_decompose(space, e, f, k_max=2))

    def test_counterexample_refusal(self):
        space = _counterexample_space()
        f = monomial_fn(2, 0, 2)
        with pytest.raises(NotNearlyInvariantError) as got:
            decompose(space, [], f)
        with pytest.raises(NotNearlyInvariantError) as want:
            _reference_decompose(space, [], f)
        assert got.value.step == want.value.step == 1
        assert got.value.residual == pytest.approx(want.value.residual, rel=0, abs=1e-12)
        assert got.value.residual == pytest.approx(1.0, abs=1e-10)
        assert got.value.escape.deg == space.ambient_deg
        assert np.allclose(got.value.escape.coeffs,
                           want.value.escape.padded(space.ambient_deg), atol=1e-12)

    @given(st.integers(0, 2),
           st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False),
                    min_size=60, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_random_unit_elements(self, case, coords):
        space, e = _oracle_spaces()[case]
        coords = np.asarray(coords[: space.dim])
        if np.linalg.norm(coords) < 1e-3:
            return
        f = _unit_element(space, coords)
        _assert_same_decomposition(decompose(space, e, f),
                                   _reference_decompose(space, e, f))


def _ambient_peel(q, w, e, dim_m, g, eps, k_max, pre_tol, near_tol):
    """The peeling kernel with every step in the ambient frame: the oracle
    for the coordinate kernel ``nearly._peel``.

    Returns (a, beta, gk, max_res, end) as (steps, r, b), (steps, p, b),
    (steps + 1, b), (b,) and (b,) arrays; end is each column's step count.
    """
    g = np.array(g, dtype=complex)
    b = g.shape[1]
    qh, wh, eh = (np.conj(x.T) for x in (q, w, e))
    norms = np.linalg.norm(g, axis=0)
    gk = [norms.copy()]
    a_steps, beta_steps = [], []
    max_res = np.zeros(b)
    end = np.zeros(b, dtype=int)
    run = np.flatnonzero(norms > eps)
    while run.size and len(gk) <= k_max:
        g_run = g[:, run]
        a = wh @ g_run
        f = g_run - w @ a
        at_zero = np.linalg.norm(f[:dim_m], axis=0)
        bad = at_zero > pre_tol * np.maximum(1.0, norms[run])
        if bad.any():
            raise InvariantViolationError(
                f"wandering removal left value {at_zero[bad.argmax()]:.3g} at the origin"
            )
        h = np.zeros_like(f)
        h[:-dim_m] = f[dim_m:]
        g_next = q @ (qh @ h)
        beta = eh @ h
        escape = h - g_next - e @ beta
        esc = np.linalg.norm(escape, axis=0)
        bad = esc > near_tol
        if bad.any():
            j = bad.argmax()
            raise NotNearlyInvariantError(len(gk), float(esc[j]),
                                          unflatten(escape[:, j], dim_m))
        for steps, coords in ((a_steps, a), (beta_steps, beta)):
            full = np.zeros((coords.shape[0], b), dtype=complex)
            full[:, run] = coords
            steps.append(full)
        g[:, run] = g_next
        norms[run] = np.linalg.norm(g_next, axis=0)
        max_res[run] = np.maximum(max_res[run], esc)
        end[run] += 1
        gk.append(norms.copy())
        run = run[norms[run] > eps]
    steps = len(gk) - 1
    return (np.array(a_steps, dtype=complex).reshape(steps, w.shape[1], b),
            np.array(beta_steps, dtype=complex).reshape(steps, e.shape[1], b),
            np.array(gk), max_res, end)


@cache
def _kernel_spaces():
    """(M, E) with (r, p) = (0, 1), (2, 1) and (2, 2)."""
    return (_oracle_spaces()[0], _oracle_spaces()[2],
            _roundtrip_space(2, 2, 4, (4, 4, 3, 3), 6))


def _fresh(space):
    """The same space without its memo (no wandering part, no step map)."""
    return copy.copy(space)


def _peel_both(space, e, g, k_max=None, eps=1e-10):
    """(coordinate kernel, ambient oracle) on the columns g of M; g = None
    peels the columns of Q, as extract_K does."""
    got = nearly._peel(space, list(e), g, eps, k_max)
    if k_max is None:
        k_max = nearly._default_k_max(space.ambient_deg, len(e))
    pre_tol = nearly._defect_tol(space.tol)
    e_cols = (np.column_stack([flatten(f, space.ambient_deg) for f in e]) if e
              else np.zeros((space.ambient_dim, 0), dtype=complex))
    want = _ambient_peel(space.matrix, wandering(space).matrix, e_cols, space.dim_m,
                         space.matrix if g is None else g, eps, k_max, pre_tol,
                         DEFAULT_NEAR_TOL)
    return got, want


def _assert_same_peel(got, want, tol=1e-12):
    tup, gk, max_res, end = got
    a, beta, gk_want, res_want, end_want = want
    r = a.shape[1]
    assert tup.shape == (a.shape[0], r + beta.shape[1], a.shape[2])
    assert np.allclose(tup[:, :r], a, rtol=0, atol=tol)
    assert np.allclose(tup[:, r:], beta, rtol=0, atol=tol)
    assert gk.shape == gk_want.shape
    assert np.allclose(gk, gk_want, rtol=0, atol=tol)
    assert np.allclose(max_res, res_want, rtol=0, atol=tol)
    assert np.array_equal(end, end_want)


def _unit_column(space, coords):
    return flatten(_unit_element(space, coords), space.ambient_deg).reshape(-1, 1)


def _refusal(call):
    with pytest.raises((InvariantViolationError, NotNearlyInvariantError)) as err:
        call()
    return err.value


class TestCoordinateKernel:
    """``nearly._peel`` on M's coordinates against the ambient-frame oracle."""

    @pytest.mark.parametrize("case", range(3))
    @pytest.mark.parametrize("columns", [
        "one", "all_from_I", "all_ambient",
        # the steps a column runs past its stop are discarded, so how often
        # the stop is tested does not show in the results: a stop test
        # after every step, or batches of several steps of several columns
        "one_stride1", "all_from_I_stride16", "all_ambient_stride16",
    ])
    def test_matches_ambient_oracle(self, monkeypatch, case, columns):
        columns, _, stride = columns.partition("_stride")
        if stride:
            monkeypatch.setattr(nearly, "_STOP_STRIDE", int(stride))
        space, e = _kernel_spaces()[case]
        if columns == "one":
            g = _unit_column(space, np.arange(1, space.dim + 1) * (1 + 1j))
        else:
            g = None if columns == "all_from_I" else space.matrix
        got, want = _peel_both(space, e, g)
        assert len(got[0]) > 1
        _assert_same_peel(got, want)

    @pytest.mark.parametrize("columns, k_max", [
        pytest.param("one", 2, id="one"),
        pytest.param("all_from_I", 2, id="all_from_I"),
        # one coordinate step
        pytest.param("one", 1, id="one-k_max_1"),
        # one column is tested for a stop every _STOP_STRIDE steps, so
        # k_max 3 ends the first batch early
        pytest.param("one", 3, id="one-k_max_3"),
    ])
    def test_k_max_cut_off(self, columns, k_max):
        space, e = _kernel_spaces()[2]
        g = _unit_column(space, np.ones(space.dim)) if columns == "one" else None
        got, want = _peel_both(space, e, g, k_max=k_max)
        assert len(got[0]) == k_max and np.max(got[1][-1]) > 1e-10
        _assert_same_peel(got, want)

    @pytest.mark.parametrize("stride", [1, 2, nearly._STOP_STRIDE])
    def test_steps_past_a_stop_are_discarded(self, monkeypatch, stride):
        # in span(1, z, .., z^4), column 0 stops at step 2 with ||G'|| =
        # 0.7 <= eps, and would go on to a wandering coordinate 0.7 at step
        # 4; z^4 runs to step 5
        monkeypatch.setattr(nearly, "_STOP_STRIDE", stride)
        space = Subspace(1, 4, [monomial_fn(1, 0, k) for k in range(5)])
        g = np.zeros((5, 2), dtype=complex)
        g[[0, 1, 3], 0], g[4, 1] = [0.51, 0.5, 0.7], 1.0
        got, want = _peel_both(space, [], g, eps=0.8)
        assert list((got[1] > 0.8).sum(axis=0)) == [2, 5]
        _assert_same_peel(got, want)

    @pytest.mark.parametrize("columns", ["one", "all_from_I"])
    def test_origin_refusal(self, monkeypatch, columns):
        # a wandering basis missing one direction leaves a value at the origin
        space, e = _kernel_spaces()[2]
        space = _fresh(space)
        w = wandering(_fresh(space))
        short = from_spanning(list(w.basis)[:-1], space.ambient_deg, space.tol)
        monkeypatch.setattr(nearly, "wandering", lambda m: short)
        g = _unit_column(space, np.ones(space.dim)) if columns == "one" else None
        got = _refusal(lambda: _peel_both(space, e, g))
        assert isinstance(got, InvariantViolationError)
        e_cols = np.column_stack([flatten(f, space.ambient_deg) for f in e])
        want = _refusal(lambda: _ambient_peel(
            space.matrix, short.matrix, e_cols, space.dim_m,
            space.matrix if g is None else g, 1e-10, 20, 1e-8, DEFAULT_NEAR_TOL))
        assert type(got) is type(want) and str(got) == str(want)

    @pytest.mark.parametrize("setting", [
        # z^3 escapes at step 2, a coordinate step
        ("span", "one", 2),
        # z^2 escapes at step 1 of Q's columns, a coordinate step
        ("span", "all_from_I", 1),
        # the first step of an ambient input
        ("counterexample", "one", 1),
        ("counterexample", "all_from_I", 1),
        # v_4 escapes at step 4: the escape vector is rebuilt from the c of
        # step 4, two or three coordinate steps in
        ("chain", "one", 4),
        ("chain", "all_from_I", 4),
        # column 0 stops at step 2 and would escape at step 3; v_4 escapes
        # at step 4, in the same batch of steps or in a later one
        ("chain", "stopped_and_escaping_stride1", 4),
        ("chain", "stopped_and_escaping_stride2", 4),
        ("chain", f"stopped_and_escaping_stride{nearly._STOP_STRIDE}", 4),
        # column 0 starts at eps, so it takes no step, though it would
        # escape at step 1; v_4 escapes at step 4
        ("chain", "at_eps_and_escaping", 4),
    ])
    def test_escape_refusal(self, monkeypatch, setting):
        which, columns, step = setting
        columns, _, stride = columns.partition("_stride")
        if stride:
            monkeypatch.setattr(nearly, "_STOP_STRIDE", int(stride))
        eps = 1e-10
        if which == "span":
            space = Subspace(1, 5, (ONE, monomial_fn(1, 0, 3), monomial_fn(1, 0, 2)))
            g = flatten(monomial_fn(1, 0, 3), space.ambient_deg).reshape(-1, 1)
        elif which == "counterexample":
            space = _counterexample_space()
            g = flatten(monomial_fn(2, 0, 2), space.ambient_deg).reshape(-1, 1)
        else:
            space, cols = _chain_space()
            g = cols[:, 4:]
        if columns == "all_from_I":
            g = None
        elif columns == "stopped_and_escaping":
            # ||G'|| is 0.86 after step 1 and 0.7 <= eps after step 2, when
            # 0.7 v_1 is left, which escapes by 0.7 CHAIN_LEAK at step 3
            stopping = cols[:, :4] @ [0.51, 0.5, 0.0, 0.7]
            g, eps = np.column_stack([stopping, cols[:, 4]]), 0.8
            assert 0.7 * CHAIN_LEAK > DEFAULT_NEAR_TOL
        elif columns == "at_eps_and_escaping":
            g, eps = np.column_stack([0.7 * cols[:, 1], cols[:, 4]]), 0.8
        got = _refusal(lambda: _peel_both(space, [], g, eps=eps))
        want = _refusal(lambda: _ambient_peel(
            space.matrix, wandering(space).matrix,
            np.zeros((space.ambient_dim, 0), dtype=complex), space.dim_m,
            space.matrix if g is None else g, eps, 20, 1e-8, DEFAULT_NEAR_TOL))
        assert isinstance(got, NotNearlyInvariantError)
        assert got.step == want.step == step
        if which == "chain":
            # the refusal is v_4's, not the stopped column's
            assert want.residual == pytest.approx(CHAIN_LEAK, rel=1e-9)
        assert got.residual == pytest.approx(want.residual, rel=0, abs=1e-12)
        assert got.escape.deg == want.escape.deg == space.ambient_deg
        assert np.allclose(got.escape.coeffs, want.escape.coeffs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, nearly._STOP_STRIDE])
    def test_stopped_column_is_not_refused(self, monkeypatch, stride):
        # column 0 stops at step 2 with 0.7 v_1 left, which would escape by
        # 0.7 CHAIN_LEAK at step 3; column 1, 0.6 (v_1 + .. + v_4), runs to
        # step 4 and escapes by 0.6 CHAIN_LEAK at each step.  Both advance
        # in lockstep, so column 0 takes step 3 but is not refused for it
        monkeypatch.setattr(nearly, "_STOP_STRIDE", stride)
        space, cols = _chain_space()
        g = np.column_stack([cols[:, :4] @ [0.51, 0.5, 0.0, 0.7],
                             0.6 * cols[:, 1:].sum(axis=1)])
        assert 0.6 * CHAIN_LEAK < DEFAULT_NEAR_TOL < 0.7 * CHAIN_LEAK
        got, want = _peel_both(space, [], g, eps=0.8)
        assert list((got[1] > 0.8).sum(axis=0)) == [2, 4]
        assert np.max(got[2]) < DEFAULT_NEAR_TOL
        _assert_same_peel(got, want)

    @pytest.mark.parametrize("case", range(3))
    def test_input_off_the_space(self, case):
        space, e = _kernel_spaces()[case]
        pre_tol = max(100.0 * space.tol, 1e-8)
        g = _unit_column(space, np.linspace(1, 2, space.dim) - 0.5j)
        rng = np.random.default_rng(case)
        off = rng.standard_normal((space.ambient_dim, 1)) + 0j
        off -= space.matrix @ (np.conj(space.matrix.T) @ off)
        off /= np.linalg.norm(off)
        x = g + 0.5 * pre_tol * off
        got = nearly._peel(space, list(e), x, 1e-10, None)
        # x is peeled as its projection, but gk[0] stays ||x||
        _, want = _peel_both(space, e, space.matrix @ (np.conj(space.matrix.T) @ x))
        want[2][0] = np.linalg.norm(x, axis=0)
        _assert_same_peel(got, want)
        with pytest.raises(PreconditionError):
            _peel_both(space, e, g + 2 * pre_tol * off)

    @given(st.integers(0, 2),
           st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                       allow_infinity=False),
                    min_size=60, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_random_unit_elements(self, case, coords):
        space, e = _kernel_spaces()[case]
        coords = np.asarray(coords[: space.dim])
        if np.linalg.norm(coords) < 1e-3:
            return
        _assert_same_peel(*_peel_both(space, e, _unit_column(space, coords)))

    @pytest.mark.parametrize("depth", ["one", "exact", "past_k_max"])
    @pytest.mark.parametrize("run", [
        "converges-one", "converges-all_from_I",
        # v_4 escapes at step 4
        "escapes-one", "escapes-all_from_I",
        # a wandering basis missing one direction fails at the origin
        "origin-one", "origin-all_from_I",
    ])
    def test_first_batch_depth(self, monkeypatch, run, depth):
        # the first batch runs the step map's depth in column products:
        # one step, exactly the run, or more than k_max steps (cut at
        # k_max); later batches run the stride
        which, columns = run.split("-")
        space, e = _kernel_spaces()[2]
        w = wandering(_fresh(space))
        g = _unit_column(space, np.arange(1, space.dim + 1) * (1 - 1j))
        if which == "escapes":
            space, cols = _chain_space()
            e, w, g = [], wandering(space), cols[:, 4:]
        elif which == "origin":
            w = from_spanning(list(w.basis)[:-1], space.ambient_deg, space.tol)
            monkeypatch.setattr(nearly, "wandering", lambda m: w)
        if columns == "all_from_I":
            g = None
        b = space.dim if g is None else g.shape[1]
        k_max = nearly._default_k_max(space.ambient_deg, len(e))
        length = _run_length(space, e, g, k_max)
        space = _fresh(space)
        sm = nearly._step_map(space, list(e), nearly._defect_tol(space.tol))
        sm.depth = {"one": 1, "exact": length, "past_k_max": k_max + 1}[depth] * b
        if which == "converges":
            got, want = _peel_both(space, e, g)
            _assert_same_peel(got, want)
            assert sm.depth == len(got[0]) == length
            return
        start = sm.depth
        got = _refusal(lambda: nearly._peel(space, list(e), g, 1e-10, None))
        e_cols = (np.column_stack([flatten(f, space.ambient_deg) for f in e]) if e
                  else np.zeros((space.ambient_dim, 0), dtype=complex))
        want = _refusal(lambda: _ambient_peel(
            space.matrix, w.matrix, e_cols, space.dim_m,
            space.matrix if g is None else g, 1e-10, k_max, 1e-8, DEFAULT_NEAR_TOL))
        assert type(got) is type(want) and str(got) == str(want)
        if which == "escapes":
            assert got.step == want.step == length == 4
            assert got.residual == pytest.approx(want.residual, rel=0, abs=1e-12)
            assert np.allclose(got.escape.coeffs, want.escape.coeffs, rtol=0, atol=1e-12)
        # a refused peel leaves the depth as it found it
        assert sm.depth == start


def _run_length(space, e, g, k_max, eps=1e-10):
    """The steps a peel of the columns g runs: its step count when it
    converges, else the first k_max at which it refuses."""
    for k in range(1, k_max + 1):
        try:
            tup, gk, _, _ = nearly._peel(_fresh(space), list(e), g, eps, k)
        except (InvariantViolationError, NotNearlyInvariantError):
            return k
        if np.max(gk[-1]) <= eps:
            return len(tup)
    return k_max


def _assert_identical(res, ref):
    """Every field of two decompositions equal, the coefficients bitwise."""
    assert (res.gk_norms, res.max_step_residual, res.norm_gap, res.iterations,
            res.converged) == (ref.gk_norms, ref.max_step_residual, ref.norm_gap,
                               ref.iterations, ref.converged)
    got, want = _coordinates(res), _coordinates(ref)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dim_m == w.dim_m and np.array_equal(g.coeffs, w.coeffs)


class TestCallHistory:
    """A peel's first batch follows the step map's depth, which the last
    peel with the map set; the results never do."""

    @staticmethod
    def _by_depth(space, e):
        """(shallowest, a middle one, deepest) of Q's columns as functions."""
        depth = [decompose(_fresh(space), e, f).iterations for f in space.basis]
        order = np.argsort(depth, kind="stable")
        picks = order[0], order[len(order) // 2], order[-1]
        assert depth[picks[0]] < depth[picks[1]] < depth[picks[2]]
        return tuple(space.basis[i] for i in picks)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_same_result_after_any_earlier_call(self, field):
        space, e = _kernel_spaces()[2]
        shallow, middle, deep = self._by_depth(space, e)
        f = middle if field == "real" else middle * (0.6 - 0.8j)
        want = decompose(_fresh(space), e, f)
        for before in (lambda s: extract_K(s, e), lambda s: decompose(s, e, deep),
                       lambda s: decompose(s, e, shallow)):
            s = _fresh(space)
            before(s)
            _assert_identical(decompose(s, e, f), want)

    def test_depth_is_the_deepest_stop_of_the_last_peel(self):
        space, e = _kernel_spaces()[2]
        shallow, _, deep = self._by_depth(space, e)
        space = _fresh(space)
        k = extract_K(space, e)
        sm = space._memo["step_map"]
        # K's window is the number of steps, which the deepest column ran
        assert sm.depth == k.ambient_deg + 1
        # the last peel's, not the deepest so far
        for f in (shallow, deep, shallow):
            res = decompose(space, e, f)
            assert sm.depth == res.iterations


@cache
def _complex_space():
    """(M, E) synthesized as the (2, 1, 3) roundtrip configuration, with
    F0 columns of unimodular complex weights: a complex M."""
    k = model_space(diag_inner([monomial_inner(d, 3) for d in (2, 2, 3)], 3), 6)
    e = [basis_vector(3, 2)]
    f0 = [basis_vector(3, 0) * (0.6 + 0.8j), basis_vector(3, 1) * 1j]
    return synthesize_M(k, f0, e, 8), e


def _batch_spaces(case):
    if case == "p0":
        return Subspace(1, 6, (ONE, Z, monomial_fn(1, 0, 2))), []
    if case == "r2p2":
        return _kernel_spaces()[2]
    if case == "complex":
        return _complex_space()
    return _oracle_spaces()[{"r0": 0, "poly_f0": 1, "r2p1": 2}[case]]


# r = 0 is main_defectp's (0, 1, 1) configuration and p = 0 the model
# space of z^3; every M but the "complex" one is real
BATCH_CASES = ["r0", "poly_f0", "r2p1", "r2p2", "p0", "complex"]


def _batch(space, e, g):
    """``decompose`` of each column of g, by one ``_peel`` of all of them
    at the default eps and k_max, each column read by ``_result``."""
    peel = nearly._peel(space, e, g, nearly._EPS, None)
    return [nearly._result(peel, j, len(e), nearly._EPS) for j in range(g.shape[1])]


class TestDecompositionBatch:
    """``nearly._peel`` on many columns, as ``extract_K`` runs it, read by
    ``_result``: each result what ``decompose`` returns for that column
    alone."""

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_each_column_is_its_decompose(self, case):
        # Q's columns, as the roundtrip scenarios peel them, then a zero
        # column and one below eps
        space, e = _batch_spaces(case)
        assert (space.matrix.dtype.kind == "c") == (case == "complex")
        q = space.matrix
        g = np.column_stack([q, np.zeros(len(q)), 1e-11 * q[:, 0]])
        got = _batch(space, e, g)
        assert len(got) == g.shape[1]
        for res, c in zip(got, g.T):
            _assert_identical(res, decompose(space, e, unflatten(c, space.dim_m)))
        # the columns stop at different steps, the last two at once
        assert len({res.iterations for res in got[:-2]}) > 1
        assert [res.iterations for res in got[-2:]] == [0, 0]
        assert got[-2].gk_norms == (0.0,)
        # ||G|| as the peel takes it, one axis-0 norm over the batch: a
        # one-vector norm sums in another order
        assert got[-1].gk_norms == (float(np.linalg.norm(g, axis=0)[-1]),)
        assert all(res.converged for res in got)

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_dense_columns_match_to_rounding(self, case):
        # a product of b columns rounds differently from a product of one
        # when every term counts, so dense combinations agree to rounding:
        # the same steps, values within 1e-12
        space, e = _batch_spaces(case)
        rng = np.random.default_rng(space.dim)
        coords = rng.standard_normal((space.dim, 5)) + 1j * rng.standard_normal((space.dim, 5))
        g = space.matrix @ coords
        got = _batch(space, e, g)
        for res, c in zip(got, g.T):
            _assert_same_decomposition(res, decompose(space, e, unflatten(c, space.dim_m)))

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_results_hold_what_the_checked_constructor_builds(self, case):
        # ``_result`` wraps the peel's coefficients unchecked: each function
        # is bitwise the checked constructor's, and none is a view of the
        # peel's writable buffer
        space, e = _batch_spaces(case)
        peel = nearly._peel(space, e, space.matrix, nearly._EPS, None)
        tup, p = peel[0], len(e)
        r = tup.shape[1] - p
        for j in range(space.dim):
            res = nearly._result(peel, j, p, nearly._EPS)
            steps = res.iterations
            coef = tup[:steps, :, j] if steps else np.zeros((1, r + p), dtype=complex)
            want = [CoeffFn(r, coef[:, :r])] if r else []
            want += [CoeffFn(1, coef[:, i : i + 1]) for i in range(r, r + p)]
            got = ([res.K0] if r else []) + list(res.kj)
            assert len(got) == len(want)
            for f, w in zip(got, want):
                assert f.dim_m == w.dim_m and f.coeffs.shape == w.coeffs.shape
                assert f.coeffs.dtype == w.coeffs.dtype == complex
                assert f.coeffs.tobytes() == w.coeffs.tobytes()
                assert f.coeffs.flags.c_contiguous and not f.coeffs.flags.writeable
                assert not np.shares_memory(f.coeffs, tup)

    def test_k_max_cut_off(self):
        # the result builder on a peel cut at k_max = 2
        space, e = _kernel_spaces()[2]
        peel = nearly._peel(space, e, space.matrix, 1e-10, 2)
        got = [nearly._result(peel, j, len(e), 1e-10) for j in range(space.dim)]
        for res, f in zip(got, space.basis):
            _assert_identical(res, decompose(space, e, f, k_max=2))
        # some columns stop within the two steps, the others are cut
        assert {res.converged for res in got} == {True, False}

    def test_column_off_the_space_raises_its_own_error(self):
        space, e = _oracle_spaces()[2]
        off = flatten(monomial_fn(3, 0, space.ambient_deg), space.ambient_deg)
        with pytest.raises(PreconditionError) as alone:
            decompose(space, e, unflatten(off, space.dim_m))
        g = np.column_stack([space.matrix[:, 0], off, space.matrix[:, 1]])
        with pytest.raises(PreconditionError) as batch:
            _batch(space, e, g)
        assert str(batch.value) == str(alone.value)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_refusal_is_the_earliest_step(self, order):
        # v_2 escapes at step 2 and v_4 at step 4, alone as in a batch
        space, cols = _chain_space()
        with pytest.raises(NotNearlyInvariantError) as alone:
            decompose(space, [], unflatten(cols[:, 2], 1))
        assert alone.value.step == 2
        g = cols[:, [4, 2]][:, list(order)]
        with pytest.raises(NotNearlyInvariantError) as batch:
            _batch(space, [], g)
        assert (batch.value.step, batch.value.residual) == (alone.value.step,
                                                            alone.value.residual)
        assert np.array_equal(batch.value.escape.coeffs, alone.value.escape.coeffs)

    def test_no_columns(self):
        space, e = _oracle_spaces()[2]
        assert _batch(space, e, space.matrix[:, :0]) == []


class TestCertificateMemo:
    def _counted(self, monkeypatch):
        calls = []
        original = nearly.defect_of

        def counting(*args, **kwargs):
            calls.append(kwargs.get("band"))
            return original(*args, **kwargs)

        monkeypatch.setattr(nearly, "defect_of", counting)
        return calls

    def test_same_tol_and_band_is_a_lookup(self, monkeypatch):
        # synthesize_M certified the space, at its tol and no band
        space, _ = _roundtrip_space(2, 1, 3, (2, 2, 3), 6)
        calls = self._counted(monkeypatch)
        first = certify_nearly(space, 1)
        # p_max is not read, and tol=None resolves to the space's tol
        assert certify_nearly(space, 0, tol=space.tol) is first
        assert not calls

    def test_another_tol_or_band_recomputes(self, monkeypatch):
        space, _ = _roundtrip_space(2, 1, 3, (2, 2, 3), 6)
        first = certify_nearly(space, 1)
        calls = self._counted(monkeypatch)
        band = certify_nearly(space, 1, band=space.ambient_deg - 1)
        assert certify_nearly(space, 1, band=space.ambient_deg - 1) is band
        loose = certify_nearly(space, 1, tol=1e-6)
        assert calls == [space.ambient_deg - 1, None]
        # one slot: the first key is computed again, to the same certificate
        again = certify_nearly(space, 1)
        assert len(calls) == 3 and again is not first
        for cert in (band, loose):
            assert cert.defect_dim == first.defect_dim
        assert (again.defect_dim, again.singular_values, again.max_residual) == (
            first.defect_dim, first.singular_values, first.max_residual)

    def test_pickled_space_carries_no_certificate(self):
        space, _ = _roundtrip_space(2, 1, 3, (2, 2, 3), 6)
        assert "certificate" in space._memo
        assert "certificate" not in pickle.loads(pickle.dumps(space))._memo


# the r = 2, p = 2 space of the benchmark's roundtrip workload: dim 56, n = 172
ROUNDTRIP_R2P2 = ((16, 16, 12, 12), 40)
# tracemalloc peak of extract_K on it with the ambient-frame kernel: 1.52 MB
EXTRACT_PEAK_BOUND = 1.52e6


class TestStepMapCache:
    def _counted(self, monkeypatch, name):
        calls = [0]
        original = getattr(nearly, name)

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(nearly, name, counting)
        return calls

    def test_built_once_per_space_and_defect_basis(self, monkeypatch):
        space, e = _kernel_spaces()[2]
        space = _fresh(space)
        builds = self._counted(monkeypatch, "_build_step_map")
        checks = self._counted(monkeypatch, "_check_defect_basis")
        rng = np.random.default_rng(3)
        for _ in range(40):
            coords = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            assert decompose(space, e, _unit_element(space, coords)).converged
        assert builds[0] == checks[0] == 1

    def test_new_defect_basis_gives_the_fresh_result(self):
        space, e = _kernel_spaces()[2]
        space = _fresh(space)
        f = _unit_element(space, np.arange(space.dim) + 1j)
        first = decompose(space, e, f)
        swapped = [e[1], 1j * e[0]]
        again = decompose(space, swapped, f)
        fresh = decompose(_fresh(space), swapped, f)
        for got, want in ((again, fresh), (decompose(space, e, f), first)):
            _assert_same_decomposition(got, want, tol=0.0)
        assert np.allclose(again.kj[0].coeffs, first.kj[1].coeffs, atol=1e-12)
        assert np.allclose(again.kj[1].coeffs, -1j * first.kj[0].coeffs, atol=1e-12)

    def test_bad_defect_basis_refused_on_every_call(self):
        space, e = _kernel_spaces()[2]
        space = _fresh(space)
        f = space.basis[0]
        decompose(space, e, f)
        for bad in ([2 * e[0], e[1]], [e[0], space.basis[1]]):
            for _ in range(2):
                with pytest.raises(PreconditionError):
                    decompose(space, bad, f)
                with pytest.raises(PreconditionError):
                    extract_K(space, bad)
        assert decompose(space, e, f).converged

    def test_pickled_space_carries_no_step_map(self):
        space, e = _kernel_spaces()[2]
        space = _fresh(space)
        decompose(space, e, space.basis[0])
        assert "step_map" in space._memo
        back = pickle.loads(pickle.dumps(space))
        assert "step_map" not in back._memo
        assert np.array_equal(back.matrix, space.matrix)

    @staticmethod
    def _roundtrip_r2p2():
        powers, nk = ROUNDTRIP_R2P2
        k = model_space(diag_inner([monomial_inner(d, max(powers)) for d in powers],
                                   max(powers)), nk)
        f0 = [basis_vector(4, i) for i in range(2)]
        e = [basis_vector(4, 2 + j) for j in range(2)]
        space = synthesize_M(k, f0, e, nk + 2)
        assert (space.dim, space.ambient_dim) == (56, 172)
        return k, e, space

    def test_extract_K_peak_memory(self):
        k, e, space = self._roundtrip_r2p2()
        tracemalloc.start()
        try:
            back = extract_K(space, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert subspace_distance(back, k) <= 1e-6
        assert peak <= EXTRACT_PEAK_BOUND

    def test_step_map_keeps_the_nonzero_rows_of_t(self):
        _, e, space = self._roundtrip_r2p2()
        sm = nearly._step_map(_fresh(space), e, 1e-8)
        # a synthesized space escapes by exactly zero: T keeps no row
        assert sm.stack.shape == (56 + 2 + 2 + 4, 56) and not sm.blocks[2].any()
        chain, _ = _chain_space()
        sm = nearly._step_map(chain, [], 1e-8)
        t = sm.stack[sm.blocks[2] == 1]
        assert 0 < len(t) <= chain.dim and t.any(axis=1).all()

    def test_decompose_copies_no_adjoint_of_q(self):
        # with the step map cached, a call allocates only columns and
        # coordinates; a copy of conj(Q)^T alone would be Q's 154 KB
        _, e, space = self._roundtrip_r2p2()
        f = space.basis[3]
        decompose(space, e, f)
        tracemalloc.start()
        try:
            assert decompose(space, e, f).converged
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < space.matrix.nbytes


class TestNoAmbientSteps:
    """With M's step map cached, every step of a decompose runs on M's
    coordinates: only the membership check sees n-row arrays."""

    def test_decompose_at_large_order(self, monkeypatch):
        space = model_space(diag_inner([monomial_inner(24, 24)] * 2, 24), 512)
        n = space.ambient_dim
        f = monomial_fn(2, 0, 23)
        # the step map is itself an ambient step on Q: build it before recording
        decompose(space, [], f)
        log = []

        def recording(label, fn, shape_of=lambda a, *_, **__: np.shape(a)):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                log.append((label, shape_of(*args, **kwargs)))
                return out
            return wrapped

        monkeypatch.setattr(np.linalg, "norm", recording("norm", np.linalg.norm))
        monkeypatch.setattr(np.linalg, "qr", recording("qr", np.linalg.qr))
        monkeypatch.setattr(nearly, "_shift_rows", recording("shift", nearly._shift_rows))
        monkeypatch.setattr(nearly, "_ambient_step",
                            recording("step", nearly._ambient_step, lambda *_: ()))
        res = decompose(space, [], f)
        assert res.converged and res.iterations == 24
        assert not {"step", "shift", "qr"} & {label for label, _ in log}
        # the two membership norms, ||g|| and ||g - Q c||
        assert [label for label, shape in log if shape[:1] == (n,)] == ["norm", "norm"]


class TestCertifyNearly:
    def test_multiplied_model_space_defect_zero(self):
        d = 16
        psi = diag_inner(
            [blaschke_scalar(BlaschkeSpec([0.5]), d),
             blaschke_scalar(BlaschkeSpec([1 / 3]), d)],
            d,
        )
        theta = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
        k_theta = model_space(theta, 8)
        space = from_spanning(
            [_cauchy(psi, b) for b in k_theta.basis], 8 + d
        )
        cert = certify_nearly(space, 0, tol=max(1e-8, 3 * psi.tail_bound))
        assert cert.defect_dim == 0

    def test_shifted_line(self):
        space = from_spanning([monomial_fn(2, 0, 1)], 3)
        cert = certify_nearly(space, 1)
        assert cert.defect_dim == 1
        assert subspace_distance(
            from_spanning(list(cert.defect_basis), 3),
            from_spanning([basis_vector(2, 0)], 3),
        ) <= 1e-10

    def test_counterexample_defect(self):
        space = _counterexample_space()
        cert = certify_nearly(space, 0)
        assert cert.defect_dim >= 1
        found = from_spanning(list(cert.defect_basis), space.ambient_deg)
        target = from_spanning(
            [monomial_fn(2, 0, 1), monomial_fn(2, 1, 1)], space.ambient_deg
        )
        assert subspace_distance(found, target) <= 1e-10


class TestExtractAndSynthesize:
    def test_extract_trivial_model(self):
        space = Subspace(1, 4, (ONE, Z))
        k = extract_K(space, [])
        assert k.dim_m == 1
        assert subspace_distance(k, from_spanning([ONE, Z], k.ambient_deg)) <= 1e-10

    def test_extract_pure_defect(self):
        space = Subspace(1, 4, (Z,))
        k = extract_K(space, [ONE])
        assert k.dim_m == 1 and k.dim == 1
        assert subspace_distance(k, from_spanning([ONE], k.ambient_deg)) <= 1e-10

    def test_synthesize_pure_defect_line(self):
        k = from_spanning([ONE], 0)
        space = synthesize_M(k, [], [ONE], 2)
        assert subspace_distance(space, from_spanning([Z], 2)) <= 1e-12

    def test_synthesize_no_defect_model(self):
        k = from_spanning([ONE, Z], 1)
        space = synthesize_M(k, [ONE], [], 3)
        assert subspace_distance(space, from_spanning([ONE, Z], 3)) <= 1e-12

    def test_equal_degree_roundtrip(self):
        theta = diag_inner([monomial_inner(2, 2)] * 3, 2)
        k = model_space(theta, 5)
        f0 = [basis_vector(3, 0), basis_vector(3, 1)]
        e = [basis_vector(3, 2)]
        space = synthesize_M(k, f0, e, 7)
        cert = certify_nearly(space, 1)
        assert cert.defect_dim <= 1
        back = extract_K(space, e)
        assert subspace_distance(back, k) <= 1e-6

    def test_forward_roundtrip_reproduces_space(self):
        theta = diag_inner([monomial_inner(3, 3), monomial_inner(2, 3)], 3)
        k = model_space(theta, 6)
        f0 = [basis_vector(2, 0)]
        e = [basis_vector(2, 1)]
        space = synthesize_M(k, f0, e, 8)
        back = extract_K(space, e)
        again = synthesize_M(back, f0, e, 8)
        assert subspace_distance(again, space) <= 1e-6

    def test_dependent_values_at_zero_rejected(self):
        k = from_spanning(
            [CoeffFn(2, np.eye(2, dtype=complex).reshape(1, 2, 2)[0])], 1
        )
        plus = make_fn(2, [[2 ** -0.5, 0], [0, 2 ** -0.5]])
        with pytest.raises(PreconditionError):
            synthesize_M(from_spanning([make_fn(2, [[1, 0]]), make_fn(2, [[0, 1]])], 2),
                         [plus, plus], [], 6)

    def test_headroom_enforced(self):
        k = from_spanning([ONE, Z], 4)
        with pytest.raises(TruncationOverflowError):
            synthesize_M(k, [ONE], [], 3)

    def test_a_defect_above_p_is_refused(self):
        # z e_0 alone: S* z e_0 = e_0 leaves the space, a defect of 1 with
        # no defect function to carry it
        k = Subspace(1, 4, (monomial_fn(1, 0, 1),))
        with pytest.raises(CertificationError, match="synthesized space has defect 1 > 0"):
            synthesize_M(k, [basis_vector(2, 0)], [], 6)

    def test_propagates_decomposition_refusal(self):
        with pytest.raises(NotNearlyInvariantError):
            extract_K(_counterexample_space(6), [])


def _reference_synthesize(k, f0_cols, e_fns, ambient_deg):
    """Span of F0 K0 + sum_j z k_j E_j over K's basis, one product at a time."""
    shifted = [CoeffFn(e.dim_m, np.vstack([np.zeros((1, e.dim_m)), e.coeffs])) for e in e_fns]
    gens = [MatSymbol(f.dim_m, 1, f.coeffs.reshape(-1, f.dim_m, 1))
            for f in list(f0_cols) + shifted]
    out = []
    for kappa in k.basis:
        parts = [_cauchy(t, CoeffFn(1, kappa.coeffs[:, i : i + 1]))
                 for i, t in enumerate(gens)]
        acc = parts[0]
        for part in parts[1:]:
            acc = acc + part
        out.append(acc)
    return from_spanning(out, ambient_deg, k.tol)


class TestBatchedPath:
    @pytest.mark.parametrize("config", [
        ((2,), 4, [], [ONE]),
        ((3, 2), 6, [POLY_COL], [basis_vector(3, 2)]),
        ((2, 2, 3), 6, [basis_vector(3, 0), basis_vector(3, 1)], [basis_vector(3, 2)]),
    ])
    def test_synthesis_matches_product_loop(self, config):
        degrees, nk, f0, e = config
        k = model_space(diag_inner([monomial_inner(d, max(degrees)) for d in degrees],
                                   max(degrees)), nk)
        space = synthesize_M(k, f0, e, nk + 2)
        assert subspace_distance(space, _reference_synthesize(k, f0, e, nk + 2)) <= 1e-12

    @pytest.mark.parametrize("space_e", [
        (Subspace(1, 6, (ONE, Z, monomial_fn(1, 0, 2))), []),
        (Subspace(1, 6, (Z, monomial_fn(1, 0, 2))), [ONE]),
        "oracle0", "oracle1", "oracle2",
    ])
    def test_extract_matches_reference_tuples(self, space_e):
        if isinstance(space_e, str):
            space_e = _oracle_spaces()[int(space_e[-1])]
        space, e = space_e
        refs = [_reference_decompose(space, e, b) for b in space.basis]
        # the basis columns converge after different numbers of steps
        assert len({ref.iterations for ref in refs}) > 1
        tuples = [_tuple_fn(ref) for ref in refs]
        deg = max(t.deg for t in tuples)
        k = extract_K(space, e)
        assert k.ambient_deg == deg
        assert subspace_distance(k, from_spanning(tuples, deg)) <= 1e-12

    def test_refusal_reports_earliest_step(self):
        # M = span{1, z^3, z^2}: z^3 escapes at step 2, z^2 already at step 1
        z2, z3 = monomial_fn(1, 0, 2), monomial_fn(1, 0, 3)
        space = Subspace(1, 5, (ONE, z3, z2))
        with pytest.raises(NotNearlyInvariantError) as late:
            decompose(space, [], z3)
        assert late.value.step == 2
        with pytest.raises(NotNearlyInvariantError) as err:
            extract_K(space, [])
        assert err.value.step == 1
        assert err.value.residual == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_refusal_tie_reports_lowest_column(self, order):
        # M = span{1, z, z^3, z^4} with u, v a rotation of z^3, z^4: both
        # escape at step 1, u by cos t along z^2 and v by sin t
        t = 0.3
        z3, z4 = monomial_fn(1, 0, 3), monomial_fn(1, 0, 4)
        u = np.cos(t) * z3 + np.sin(t) * z4
        v = -np.sin(t) * z3 + np.cos(t) * z4
        pair = (u, v)
        space = Subspace(1, 6, (ONE, Z) + tuple(pair[i] for i in order))
        with pytest.raises(NotNearlyInvariantError) as err:
            extract_K(space, [])
        first = (np.cos(t), -np.sin(t))[order[0]]
        assert err.value.step == 1
        assert err.value.residual == pytest.approx(abs(first), abs=1e-12)
        assert err.value.escape.deg == space.ambient_deg
        assert np.allclose(err.value.escape.coeffs.ravel(),
                           (first * monomial_fn(1, 0, 2)).padded(6).ravel(), atol=1e-12)


class TestAlmostInvariant:
    def test_backward_invariant_model(self):
        space = model_space(monomial_inner(3, 3), 5)
        ok, residual = almost_invariant_Sstar_check(space, [])
        assert ok and residual <= 1e-12

    def test_tilted_line_needs_defect(self):
        tilted = make_fn(1, [[2 ** -0.5], [2 ** -0.5]])
        space = Subspace(1, 3, (tilted,))
        ok, residual = almost_invariant_Sstar_check(space, [])
        assert not ok
        assert residual == pytest.approx(0.5, abs=1e-12)
        partner = make_fn(1, [[2 ** -0.5], [-(2 ** -0.5)]])
        ok2, residual2 = almost_invariant_Sstar_check(space, [partner])
        assert ok2 and residual2 <= 1e-12

    def test_only_wandering_vectors_are_shifted(self):
        # S* z^2 = z leaves span{1, z^2}, but z^2 is not wandering: only
        # S* 1 = 0 is tested
        space = Subspace(1, 4, (ONE, monomial_fn(1, 0, 2)))
        ok, residual = almost_invariant_Sstar_check(space, [])
        assert ok and residual == 0.0


def _duality_one(space, defect):
    """``duality_residuals`` of the one pair (space, defect)."""
    (out,) = duality_residuals([(space, defect)])
    return out


def _duality_agrees(space, defect, tol=1e-8):
    lhs, rhs = _duality_one(space, defect)
    return (lhs <= tol) == (rhs <= tol)


class TestDuality:
    def test_invariant_model(self):
        assert _duality_agrees(Subspace(1, 4, (ONE, Z)), [])

    def test_shifted_line_with_defect(self):
        assert _duality_agrees(Subspace(1, 4, (Z,)), [ONE])

    def test_defect_overlapping_the_space_is_refused(self):
        with pytest.raises(PreconditionError):
            duality_residuals([(Subspace(1, 4, (Z,)), [Z])])

    def test_empty_space_has_nothing_to_escape(self):
        assert duality_residuals([(Subspace(1, 4, ()), [ONE])]) == ((0.0, 0.0),)

    def test_residuals_expose_both_sides(self):
        lhs, rhs = _duality_one(Subspace(1, 4, (ONE, Z)), [])
        assert lhs <= 1e-12 and rhs <= 1e-12

    def test_random_pairs_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            raw = [
                CoeffFn(2, rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
                for _ in range(3)
            ]
            space = from_spanning(raw, 5)
            probe = CoeffFn(2, rng.standard_normal((6, 2))
                            + 1j * rng.standard_normal((6, 2)))
            perp = probe - _project_fn(space, probe)
            defect = [perp * (1.0 / _norm(perp))]
            assert _duality_agrees(space, defect)


def _fat_duality(space, defect):
    """The residuals read in the fat frame, the oracle for the adjoint
    identity: X = M (+) span E from [Q | E], its full complement X^perp,
    and the compressed shift on X^perp against X^perp (+) span E.

    Returns (largest column escape of S* Q from X, 2-norm of the escape of
    S_c X^perp from X^perp (+) span E).
    """
    dim_m = space.dim_m
    e = np.column_stack([flatten(f, space.ambient_deg) for f in defect])
    qe = np.hstack([space.matrix, e])
    down = np.zeros_like(space.matrix)
    down[:-dim_m] = space.matrix[dim_m:]
    forward = np.linalg.norm(down - qe @ (np.conj(qe.T) @ down), axis=0).max()
    x = Subspace._of(dim_m, space.ambient_deg, qe, space.tol, space.band)
    x_perp = complement(x).matrix
    up = np.zeros_like(x_perp)
    up[dim_m:] = x_perp[:-dim_m]
    y = np.hstack([x_perp, e])
    rest = up - y @ (np.conj(y.T) @ up)
    return forward, np.linalg.norm(rest, 2)


class TestDualityAdjointIdentity:
    """The complement residual ||P_M S_c P_{X^perp}|| is read off the thin
    n x dim M residual of S* Q, since S_c* = S*."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_scenario_pairs_match_the_fat_oracle(self, monkeypatch, seed):
        pairs = []

        def recording(batch):
            batch = list(batch)
            out = duality_residuals(batch)
            pairs.extend((space, defect, res) for (space, defect), res in zip(batch, out))
            return out

        monkeypatch.setattr(scenarios, "duality_residuals", recording)
        assert scenarios.run_scenario("duality", {"seed": seed}).passed
        assert len(pairs) == 50
        for space, defect, (forward, rest) in pairs:
            want_forward, want_rest = _fat_duality(space, defect)
            assert forward == pytest.approx(want_forward, rel=0, abs=1e-12)
            assert rest == pytest.approx(want_rest, rel=0, abs=1e-12)

    def test_factors_nothing_wider_than_m(self, monkeypatch):
        # M = span(z^5 e_0, z^3 e_1) in an ambient of n = 130 rows and
        # E = z^4 e_0: S* z^5 e_0 lies in E, S* z^3 e_1 = z^2 e_1 escapes
        space = Subspace(2, 64, (monomial_fn(2, 0, 5), monomial_fn(2, 1, 3)))
        defect = [monomial_fn(2, 0, 4)]
        # (what, columns): each SVD by the width of its widest factor (a
        # full SVD of an n-row matrix has an n x n one), each 2-norm of a
        # matrix (an SVD), each basis built as a Subspace
        log = []
        svd, norm, built = np.linalg.svd, np.linalg.norm, Subspace._of.__func__

        def recording_svd(a, full_matrices=True, compute_uv=True, **kwargs):
            log.append(("svd", max(np.shape(a)) if full_matrices and compute_uv
                        else np.shape(a)[-1]))
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

        def recording_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                log.append(("norm", np.shape(x)[1]))
            return norm(x, ord, *args, **kwargs)

        def recording_of(cls, dim_m, ambient_deg, q, *args, **kwargs):
            log.append(("basis", q.shape[1]))
            return built(cls, dim_m, ambient_deg, q, *args, **kwargs)

        def recording_complement(a):
            log.append(("complement", a.ambient_dim - a.dim))
            return complement(a)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "norm", recording_norm)
        monkeypatch.setattr(Subspace, "_of", classmethod(recording_of))
        monkeypatch.setattr(subspaces, "complement", recording_complement)
        monkeypatch.setattr(nearly, "complement", recording_complement, raising=False)
        forward, rest = _duality_one(space, defect)
        assert forward == rest == 1.0
        # one 2-norm (an SVD without vectors) of the n x dim M residual,
        # and nothing wider
        assert ("svd", space.dim) in log
        assert all(label in ("svd", "norm") and width <= space.dim
                   for label, width in log), log


def _random_pair(rng, dim_m, deg, count):
    """A complex span of count random functions and one unit defect orthogonal to it."""
    raw = [CoeffFn(dim_m, rng.standard_normal((deg + 1, dim_m))
                   + 1j * rng.standard_normal((deg + 1, dim_m))) for _ in range(count + 1)]
    space = from_spanning(raw[:count], deg)
    perp = raw[count] - _project_fn(space, raw[count])
    return space, [perp * (1.0 / _norm(perp))]


class TestDualityBatch:
    """A batch gives each pair what the pair gives alone, refusals included."""

    SPACE = Subspace(1, 4, (Z,))

    def _mixed(self):
        rng = np.random.default_rng(4)
        theta = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2), monomial_inner(2, 2)], 2)
        return [
            (Subspace(1, 4, (ONE, Z)), []),                          # real, empty E
            _random_pair(rng, 2, 5, 3),                              # complex
            (self.SPACE, [ONE]),                                     # real
            _random_pair(rng, 2, 5, 2),
            (model_space(theta, 6), []),                             # dim_m 3, real
            _random_pair(rng, 2, 5, 3),                              # stacks with pair 1
            (Subspace(1, 4, ()), [ONE]),                             # empty M
            _random_pair(rng, 3, 4, 2),
            (Subspace(1, 4, (monomial_fn(1, 0, 2),)), [Z]),          # stacks with pair 2
            (Subspace(1, 6, (ONE, Z)), [monomial_fn(1, 0, 3), monomial_fn(1, 0, 5)]),
        ]

    def test_each_pair_gets_its_result_alone(self):
        pairs = self._mixed()
        got = duality_residuals(pairs)
        assert len(got) == len(pairs)
        for pair, residuals in zip(pairs, got):
            alone = _duality_one(*pair)
            assert residuals == pytest.approx(alone, rel=0, abs=1e-15)
        # the batch is not all trivial: some pair escapes, some does not
        assert max(f for f, _ in got) > 0.1 and min(f for f, _ in got) <= 1e-12

    @pytest.mark.parametrize("bad", [
        (SPACE, [Z]),                                                # overlaps M
        (Subspace(1, 4, (ONE, Z)), [monomial_fn(1, 0, 2) * 2.0]),    # not orthonormal
    ], ids=["overlap", "not_orthonormal"])
    def test_a_bad_pair_raises_its_own_error(self, bad):
        with pytest.raises(PreconditionError) as alone:
            _duality_one(*bad)
        pairs = self._mixed()
        pairs.insert(4, bad)
        with pytest.raises(PreconditionError) as batched:
            duality_residuals(pairs)
        assert str(batched.value) == str(alone.value)

    def test_the_first_of_two_bad_pairs_raises(self):
        first = (Subspace(1, 4, (ONE, Z)), [monomial_fn(1, 0, 2) * 2.0])
        second = (self.SPACE, [Z])
        with pytest.raises(PreconditionError) as want:
            _duality_one(*first)
        # in the first batch the second bad pair's stack is formed first, by
        # pair 0; in the other two both bad pairs share one stack
        for pairs in ([(self.SPACE, [ONE]), first, second], [first, second],
                      [first, (Subspace(1, 4, (ONE, Z)), [Z])]):
            with pytest.raises(PreconditionError) as got:
                duality_residuals(pairs)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("unflattenable", [
        (SPACE, [basis_vector(2, 0)]),                               # E over C^2
        (SPACE, [monomial_fn(1, 0, 6)]),                             # past degree 4
    ], ids=["wrong_dim_m", "overflow"])
    def test_the_first_error_raises_whatever_its_kind(self, unflattenable):
        """A refused E and an E that does not flatten into M's ambient
        raise in input order, as they do one pair at a time."""
        refused = (Subspace(1, 4, (ONE, Z)), [monomial_fn(1, 0, 2) * 2.0])
        with pytest.raises((DimensionMismatchError, TruncationOverflowError)) as shape:
            _duality_one(*unflattenable)
        with pytest.raises(PreconditionError) as refusal:
            _duality_one(*refused)
        for first, second, want in ((refused, unflattenable, refusal),
                                    (unflattenable, refused, shape)):
            pairs = self._mixed()
            pairs.insert(2, first)
            pairs.insert(6, second)
            with pytest.raises(WorkbenchError) as got:
                duality_residuals(pairs)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)

    def test_a_batch_of_one_is_not_copied(self):
        q = self.SPACE.matrix
        assert np.shares_memory(nearly._stack([q]), q)
        assert not np.shares_memory(nearly._stack([q, q]), q)

    def test_no_pairs(self):
        assert duality_residuals([]) == ()

    @pytest.mark.parametrize("m, n", [(1, 4), (2, 8), (3, 12), (4, 3)])
    def test_scenario_passes_at_twenty_seeds(self, m, n):
        for seed in range(20):
            report = scenarios.run_scenario("duality",
                                            {"m": m, "N": n, "pairs": 60, "seed": seed})
            assert report.passed, (seed, report.metrics)


class TestOrthocomplementMembership:
    def test_scalar_line_members(self):
        space = from_spanning([Z], 2)
        k = from_spanning([ONE], 0)
        ((member, residual),) = orthocomplement_membership(_stacked([ONE]), [], [ONE], k)
        assert member and residual <= 1e-12
        assert _norm(ONE - _project_fn(space, ONE)) == pytest.approx(1.0)

    def test_scalar_line_nonmember(self):
        k = from_spanning([ONE], 0)
        ((member, residual),) = orthocomplement_membership(_stacked([Z]), [], [ONE], k)
        assert not member
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_direct_projection(self):
        rng = np.random.default_rng(23)
        theta = diag_inner([monomial_inner(3, 3), monomial_inner(2, 3)], 3)
        k = model_space(theta, 6)
        f0 = basis_vector(2, 0)
        e = basis_vector(2, 1)
        space = synthesize_M(k, [f0], [e], 8)
        gs = []
        for i in range(20):
            g = CoeffFn(2, rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))
            if i % 2 == 0:
                g = g - _project_fn(space, g)
            gs.append(g)
        results = orthocomplement_membership(_stacked(gs), [f0], [e], k)
        assert len(results) == len(gs)
        for g, (member, _) in zip(gs, results):
            assert member == (_norm(_project_fn(space, g)) <= 1e-7 * max(1.0, _norm(g)))

    def test_no_generator_column_is_refused(self):
        with pytest.raises(PreconditionError):
            orthocomplement_membership(_stacked([ONE]), [], [], from_spanning([ONE], 0))


class TestOneGenerator:
    """synthesize_M and the membership test build [F0 | zE] the same way."""

    def test_mixed_dimensions_refused_by_synthesis(self):
        k = model_space(diag_inner([monomial_inner(2, 2)] * 2, 2), 4)
        with pytest.raises(DimensionMismatchError):
            synthesize_M(k, [basis_vector(2, 0)], [basis_vector(3, 2)], 4)

    def test_mixed_dimensions_refused_by_membership(self):
        k = model_space(diag_inner([monomial_inner(2, 2)] * 2, 2), 4)
        g = basis_vector(2, 1)
        with pytest.raises(DimensionMismatchError):
            orthocomplement_membership(_stacked([g]), [basis_vector(2, 0)],
                                       [basis_vector(3, 2)], k)

    def test_membership_refuses_wrong_dimensions(self):
        k = model_space(diag_inner([monomial_inner(2, 2)] * 2, 2), 4)
        f0, e = [basis_vector(2, 0)], [basis_vector(2, 1)]
        with pytest.raises(DimensionMismatchError):
            orthocomplement_membership(_stacked([basis_vector(3, 0)]), f0, e, k)
        with pytest.raises(DimensionMismatchError):
            orthocomplement_membership(_stacked([basis_vector(2, 0)]), f0, [], k)

    def test_generator_layout(self):
        # one column of each kind, the defect one degree up; trailing zero
        # coefficients do not raise the symbol's degree
        f0 = make_fn(2, [[1, 0], [0, 0], [0, 0]])
        e = basis_vector(2, 1)
        gen = nearly._generator([f0], [e])
        assert (gen.m_out, gen.m_in, gen.deg) == (2, 2, 1)
        assert np.array_equal(gen.mats[:, :, 0], [[1, 0], [0, 0]])
        assert np.array_equal(gen.mats[:, :, 1], [[0, 0], [0, 1]])


# duality_residuals on one pair, under the id the single-pair form had
DUALITY = pytest.param(_duality_one, id="duality_residuals")


class TestDefectListCheck:
    """The duality and almost-invariance checks refuse a bad E like decompose."""

    SPACE = Subspace(1, 4, (Z,))
    SLANTED = make_fn(1, [[1], [1]])  # norm sqrt 2, and overlaps Z

    @pytest.mark.parametrize("check", [DUALITY, almost_invariant_Sstar_check])
    def test_non_orthonormal_defect_refused(self, check):
        with pytest.raises(PreconditionError, match="not orthonormal"):
            check(self.SPACE, [ONE * 2.0])
        with pytest.raises(PreconditionError, match="not orthonormal"):
            check(self.SPACE, [ONE, ONE])

    @pytest.mark.parametrize("check", [DUALITY, almost_invariant_Sstar_check])
    def test_overlapping_defect_refused(self, check):
        with pytest.raises(PreconditionError, match="not orthogonal"):
            check(self.SPACE, [self.SLANTED * 2 ** -0.5])

    @pytest.mark.parametrize("check", [DUALITY, almost_invariant_Sstar_check])
    def test_same_refusal_as_decompose(self, check):
        with pytest.raises(PreconditionError) as ours:
            check(self.SPACE, [Z])
        with pytest.raises(PreconditionError) as theirs:
            decompose(self.SPACE, [Z], Z)
        assert str(ours.value) == str(theirs.value)

    @pytest.mark.parametrize("a, refused", [(8e-9, False), (1.2e-8, True)])
    def test_overlap_is_the_two_norm(self, a, refused):
        # Q*E = a' I for two columns: Frobenius norm a' sqrt 2, 2-norm a';
        # the check is the 2-norm against max(100 tol, 1e-8) = 1e-8
        space = Subspace(1, 6, (ONE, Z))
        z2, z3 = monomial_fn(1, 0, 2), monomial_fn(1, 0, 3)
        scale = (1 + a * a) ** -0.5
        e = [(z2 + ONE * a) * scale, (z3 + Z * a) * scale]
        if refused:
            with pytest.raises(PreconditionError, match="not orthogonal"):
                _duality_one(space, e)
        else:
            _duality_one(space, e)

    @pytest.mark.parametrize("dev, refused", [(5e-8, False), (2e-7, True)])
    def test_synthesize_checks_e_at_the_same_tolerance(self, dev, refused):
        # at K tol 1e-9 the line is max(100 tol, 1e-8) = 1e-7 for synthesize_M
        # as for the peeling of the space it builds
        k = model_space(diag_inner([monomial_inner(2, 2)] * 2, 2), 4, tol=1e-9)
        f0 = [basis_vector(2, 0)]
        # E = sqrt(1 + dev) e_1 has Gram deviation dev
        e = [basis_vector(2, 1) * (1 + dev) ** 0.5]
        if refused:
            space = synthesize_M(k, f0, [basis_vector(2, 1)], 6)
            with pytest.raises(PreconditionError, match="not orthonormal"):
                synthesize_M(k, f0, e, 6)
            with pytest.raises(PreconditionError, match="not orthonormal"):
                decompose(space, e, space.basis[0])
        else:
            space = synthesize_M(k, f0, e, 6)
            assert decompose(space, e, space.basis[0]).converged

    @pytest.mark.parametrize("check", [
        lambda m, e: decompose(m, e, Z),
        _duality_one,
        almost_invariant_Sstar_check,
    ], ids=["decompose", "duality_residuals", "almost_invariant_Sstar_check"])
    @pytest.mark.parametrize("a, refused", [(5e-9, False), (5e-8, True)])
    def test_one_tolerance_for_every_check(self, check, a, refused):
        # E = normalized (1 + a z) overlaps M = span(z) by a / sqrt(1 + a^2):
        # the peeling and both duality checks draw the line at the same 1e-8
        e = [make_fn(1, [[1], [a]]) * (1 + a * a) ** -0.5]
        if refused:
            with pytest.raises(PreconditionError, match="not orthogonal"):
                check(self.SPACE, e)
        else:
            check(self.SPACE, e)


def _complexified(space):
    """The same Q stored as complex128, which sends it down the complex path."""
    return Subspace._of(space.dim_m, space.ambient_deg, space.matrix.astype(complex),
                        space.tol, space.band)


@cache
def _real_spaces():
    """(M, E) synthesized from real data, and a real model space of Theta_2's kind."""
    m, e = _roundtrip_space(2, 2, 4, (4, 4, 3, 3), 6)
    theta = diag_inner([monomial_inner(2, 12),
                        blaschke_scalar(BlaschkeSpec([0.5, -1 / 3]), 12)], 12)
    return m, e, model_space(theta, 40)


def _certificate_parts(cert):
    basis = (np.column_stack([b.coeffs.reshape(-1) for b in cert.defect_basis])
             if cert.defect_dim else np.zeros((1, 0)))
    return cert.defect_dim, np.array(cert.singular_values), cert.max_residual, basis


# each case maps (M, E, K) to a Subspace, a certificate, a number or a
# decomposition; M and K are both real or both complexified
FIELD_CASES = {
    "vanishing_slice": lambda m, e, k: vanishing_slice(k),
    "degree_slice": lambda m, e, k: degree_slice(k, k.ambient_deg - 1),
    "wandering": lambda m, e, k: wandering(m),
    "complement": lambda m, e, k: complement(k),
    "defect_of_S*": lambda m, e, k: defect_of(k, "S*"),
    "defect_of_S_on_a_slice": lambda m, e, k: defect_of(
        k, "S", domain=degree_slice(k, k.ambient_deg - 1)),
    "defect_of_band": lambda m, e, k: defect_of(m, "S*", band=m.ambient_deg - 2),
    # the fat complement keeps K: its residual is read through K
    "defect_of_thin_frame": lambda m, e, k: defect_of(complement(k), "S*"),
    "subspace_distance": lambda m, e, k: subspace_distance(
        k, degree_slice(k, k.ambient_deg - 1), band=30),
    "certify_nearly": lambda m, e, k: certify_nearly(m, len(e)),
    "certify_nearly_band": lambda m, e, k: certify_nearly(k, 0, band=k.band),
    "decompose_complex_F": lambda m, e, k: decompose(
        m, e, _unit_element(m, np.linspace(1, 2, m.dim) - 0.5j)),
    "extract_K": lambda m, e, k: extract_K(m, e),
}


class TestRealAndComplexified:
    """Real data in real arithmetic gives what its complexified copy gives."""

    @pytest.mark.parametrize("case", sorted(FIELD_CASES))
    def test_same_result(self, case):
        m, e, k = _real_spaces()
        assert m.matrix.dtype == k.matrix.dtype == np.float64
        got = FIELD_CASES[case](_fresh(m), e, _fresh(k))
        want = FIELD_CASES[case](_complexified(m), e, _complexified(k))
        if isinstance(got, Subspace):
            # a span of exactly real columns is real in either field
            field = np.float64 if case == "extract_K" else np.complex128
            assert (got.matrix.dtype, want.matrix.dtype) == (np.float64, field)
            assert got.dim == want.dim and got.band == want.band
            q, p = got.matrix, want.matrix
            assert np.linalg.norm(q @ q.T - p @ np.conj(p.T), 2) <= 1e-12
        elif isinstance(got, DecompResult):
            _assert_same_decomposition(got, want)
        elif isinstance(got, float):
            assert got == pytest.approx(want, rel=0, abs=1e-12)
        else:
            dim, s, top, basis = _certificate_parts(got)
            dim_c, s_c, top_c, basis_c = _certificate_parts(want)
            assert dim == dim_c and s.shape == s_c.shape
            assert np.allclose(s, s_c, rtol=0, atol=1e-12)
            assert top == pytest.approx(top_c, rel=0, abs=1e-12)
            gap = basis @ np.conj(basis.T) - basis_c @ np.conj(basis_c.T)
            assert np.linalg.norm(gap, 2) <= 1e-12
