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
    gk_norms = [g.norm()]
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
        g = project(m, h)
        beta = np.array([_inner(h, ej) for ej in defect_basis])
        escape = h - g
        for bj, ej in zip(beta, defect_basis):
            escape = escape - bj * ej
        esc_norm = escape.norm()
        if esc_norm > DEFAULT_NEAR_TOL:
            raise NotNearlyInvariantError(iterations + 1, esc_norm, escape)
        max_step_residual = max(max_step_residual, esc_norm)
        beta_trace.append(beta)
        gk_norms.append(g.norm())
        iterations += 1
    k0 = None
    if r:
        k0 = CoeffFn(r, np.vstack(a_trace) if a_trace else np.zeros((1, r)))
    kj = []
    for j in range(p):
        col = np.array([b[j] for b in beta_trace], dtype=complex).reshape(-1, 1)
        kj.append(CoeffFn(1, col) if col.size else zero_fn(1))
    total = (k0.norm() ** 2 if k0 is not None else 0.0) + sum(k.norm() ** 2 for k in kj)
    return DecompResult(
        K0=k0, kj=tuple(kj), gk_norms=tuple(gk_norms), max_step_residual=max_step_residual,
        norm_gap=abs(f.norm() ** 2 - total), iterations=iterations,
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
            budget = 10 * eps * f.norm() + res.max_step_residual * res.iterations
            assert res.norm_gap <= budget + 1e-12

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

    Returns (a, beta, gk, max_res) as (steps, r, b), (steps, p, b),
    (steps + 1, b) and (b,) arrays.
    """
    g = np.array(g, dtype=complex)
    b = g.shape[1]
    qh, wh, eh = (np.conj(x.T) for x in (q, w, e))
    norms = np.linalg.norm(g, axis=0)
    gk = [norms.copy()]
    a_steps, beta_steps = [], []
    max_res = np.zeros(b)
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
        gk.append(norms.copy())
        run = run[norms[run] > eps]
    steps = len(gk) - 1
    return (np.array(a_steps, dtype=complex).reshape(steps, w.shape[1], b),
            np.array(beta_steps, dtype=complex).reshape(steps, e.shape[1], b),
            np.array(gk), max_res)


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
    tup, gk, max_res = got
    a, beta, gk_want, res_want = want
    r = a.shape[1]
    assert tup.shape == (a.shape[0], r + beta.shape[1], a.shape[2])
    assert np.allclose(tup[:, :r], a, rtol=0, atol=tol)
    assert np.allclose(tup[:, r:], beta, rtol=0, atol=tol)
    assert gk.shape == gk_want.shape
    assert np.allclose(gk, gk_want, rtol=0, atol=tol)
    assert np.allclose(max_res, res_want, rtol=0, atol=tol)


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
        # only the ambient first step runs
        pytest.param("one", 1, id="one-k_max_1"),
        # one column is tested for a stop after its ambient step and then
        # every _STOP_STRIDE steps, so k_max 3 ends between two tests
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
        got, want = _peel_both(space, e, g + 0.5 * pre_tol * off)
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
    """After the first step, the peeling loop touches no n-row array."""

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
                            recording("step 1", nearly._ambient_step, lambda *_: ()))
        res = decompose(space, [], f)
        assert res.converged and res.iterations == 24
        labels = [label for label, _ in log]
        assert labels.count("step 1") == 1
        after = log[labels.index("step 1") + 1:]
        assert after and not [entry for entry in after if entry[1][:1] == (n,)]
        # the set-up and step 1 did see the ambient rows
        assert [entry for entry in log if entry[1][:1] == (n,)]


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


def _duality_agrees(space, defect, tol=1e-8):
    lhs, rhs = duality_residuals(space, defect)
    return (lhs <= tol) == (rhs <= tol)


class TestDuality:
    def test_invariant_model(self):
        assert _duality_agrees(Subspace(1, 4, (ONE, Z)), [])

    def test_shifted_line_with_defect(self):
        assert _duality_agrees(Subspace(1, 4, (Z,)), [ONE])

    def test_defect_overlapping_the_space_is_refused(self):
        with pytest.raises(PreconditionError):
            duality_residuals(Subspace(1, 4, (Z,)), [Z])

    def test_empty_space_has_nothing_to_escape(self):
        assert duality_residuals(Subspace(1, 4, ()), [ONE]) == (0.0, 0.0)

    def test_residuals_expose_both_sides(self):
        lhs, rhs = duality_residuals(Subspace(1, 4, (ONE, Z)), [])
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
            perp = probe - project(space, probe)
            defect = [perp * (1.0 / perp.norm())]
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

        def recording(space, defect):
            out = duality_residuals(space, defect)
            pairs.append((space, defect, out))
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
        forward, rest = duality_residuals(space, defect)
        assert forward == rest == 1.0
        # one 2-norm of the n x dim M residual, and nothing wider
        assert ("norm", space.dim) in log
        assert all(label in ("svd", "norm") and width <= space.dim
                   for label, width in log), log


class TestOrthocomplementMembership:
    def test_scalar_line_members(self):
        space = from_spanning([Z], 2)
        k = from_spanning([ONE], 0)
        member, residual = orthocomplement_membership(ONE, [], [ONE], k)
        assert member and residual <= 1e-12
        assert (ONE - project(space, ONE)).norm() == pytest.approx(1.0)

    def test_scalar_line_nonmember(self):
        k = from_spanning([ONE], 0)
        member, residual = orthocomplement_membership(Z, [], [ONE], k)
        assert not member
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_direct_projection(self):
        rng = np.random.default_rng(23)
        theta = diag_inner([monomial_inner(3, 3), monomial_inner(2, 3)], 3)
        k = model_space(theta, 6)
        f0 = basis_vector(2, 0)
        e = basis_vector(2, 1)
        space = synthesize_M(k, [f0], [e], 8)
        for i in range(20):
            g = CoeffFn(2, rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))
            if i % 2 == 0:
                g = g - project(space, g)
            member, _ = orthocomplement_membership(g, [f0], [e], k)
            assert member == (project(space, g).norm() <= 1e-7 * max(1.0, g.norm()))

    def test_no_generator_column_is_refused(self):
        with pytest.raises(PreconditionError):
            orthocomplement_membership(ONE, [], [], from_spanning([ONE], 0))


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
            orthocomplement_membership(g, [basis_vector(2, 0)], [basis_vector(3, 2)], k)

    def test_membership_refuses_wrong_dimensions(self):
        k = model_space(diag_inner([monomial_inner(2, 2)] * 2, 2), 4)
        f0, e = [basis_vector(2, 0)], [basis_vector(2, 1)]
        with pytest.raises(DimensionMismatchError):
            orthocomplement_membership(basis_vector(3, 0), f0, e, k)
        with pytest.raises(DimensionMismatchError):
            orthocomplement_membership(basis_vector(2, 0), f0, [], k)

    def test_generator_layout(self):
        # one column of each kind, the defect one degree up; trailing zero
        # coefficients do not raise the symbol's degree
        f0 = make_fn(2, [[1, 0], [0, 0], [0, 0]])
        e = basis_vector(2, 1)
        gen = nearly._generator([f0], [e])
        assert (gen.m_out, gen.m_in, gen.deg) == (2, 2, 1)
        assert np.array_equal(gen.mats[:, :, 0], [[1, 0], [0, 0]])
        assert np.array_equal(gen.mats[:, :, 1], [[0, 0], [0, 1]])


class TestDefectListCheck:
    """The duality and almost-invariance checks refuse a bad E like decompose."""

    SPACE = Subspace(1, 4, (Z,))
    SLANTED = make_fn(1, [[1], [1]])  # norm sqrt 2, and overlaps Z

    @pytest.mark.parametrize("check", [duality_residuals, almost_invariant_Sstar_check])
    def test_non_orthonormal_defect_refused(self, check):
        with pytest.raises(PreconditionError, match="not orthonormal"):
            check(self.SPACE, [ONE * 2.0])
        with pytest.raises(PreconditionError, match="not orthonormal"):
            check(self.SPACE, [ONE, ONE])

    @pytest.mark.parametrize("check", [duality_residuals, almost_invariant_Sstar_check])
    def test_overlapping_defect_refused(self, check):
        with pytest.raises(PreconditionError, match="not orthogonal"):
            check(self.SPACE, [self.SLANTED * 2 ** -0.5])

    @pytest.mark.parametrize("check", [duality_residuals, almost_invariant_Sstar_check])
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
                duality_residuals(space, e)
        else:
            duality_residuals(space, e)

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
        duality_residuals,
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
