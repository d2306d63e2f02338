"""Unit tests for the decomposition algorithm and its converse."""

import numpy as np
import pytest

from hardylab.errors import (
    InvariantViolationError,
    NotNearlyInvariantError,
    PreconditionError,
    TruncationOverflowError,
)
from hardylab.funcs import (
    CoeffFn,
    basis_vector,
    make_fn,
    monomial_fn,
)
from hardylab.inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from hardylab.multipliers import apply_multiplier, column_symbol
from hardylab.nearly import (
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
    from_spanning,
    model_space,
    project,
    subspace_distance,
)

ONE = make_fn(1, [[1]])
Z = make_fn(1, [[0], [1]])


def _counterexample_space(n=10):
    theta = diag_inner([monomial_inner(1, 1)] * 2, 1)
    k_theta = model_space(theta, n)
    theta_k = from_spanning(
        [apply_multiplier(theta, b) for b in k_theta.basis], n
    )
    return complement(theta_k)


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
        assert np.allclose(
            np.vstack(res.A_trace), res.K0.coeffs[: len(res.A_trace)]
        )
        assert res.gk_norms[-1] <= 1e-10

    def test_kj_is_shifted_beta_trace(self):
        space = Subspace(1, 4, (Z, monomial_fn(1, 0, 2)))
        res = decompose(space, [ONE], monomial_fn(1, 0, 2))
        betas = np.vstack(res.beta_trace)
        for j, kj in enumerate(res.kj):
            assert np.allclose(kj.coeffs[:, 0], betas[:, j])

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
            [apply_multiplier(psi, b) for b in k_theta.basis], 8 + d
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

    def test_propagates_decomposition_refusal(self):
        with pytest.raises(NotNearlyInvariantError):
            extract_K(_counterexample_space(6), [])


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


def _duality_agrees(space, defect, tol=1e-8):
    lhs, rhs = duality_residuals(space, defect)
    return (lhs <= tol) == (rhs <= tol)


class TestDuality:
    def test_invariant_model(self):
        assert _duality_agrees(Subspace(1, 4, (ONE, Z)), [])

    def test_shifted_line_with_defect(self):
        assert _duality_agrees(Subspace(1, 4, (Z,)), [ONE])

    def test_defect_overlapping_the_space_is_refused(self):
        with pytest.raises(InvariantViolationError):
            duality_residuals(Subspace(1, 4, (Z,)), [Z])

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


class TestOrthocomplementMembership:
    def test_scalar_line_members(self):
        space = from_spanning([Z], 2)
        k = from_spanning([ONE], 0)
        k_perp = complement(k)
        e = [column_symbol(ONE)]
        member, residual = orthocomplement_membership(ONE, None, e, k_perp)
        assert member and residual <= 1e-12
        assert (ONE - project(space, ONE)).norm() == pytest.approx(1.0)

    def test_scalar_line_nonmember(self):
        k = from_spanning([ONE], 0)
        k_perp = complement(k)
        e = [column_symbol(ONE)]
        member, residual = orthocomplement_membership(Z, None, e, k_perp)
        assert not member
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_direct_projection(self):
        rng = np.random.default_rng(23)
        theta = diag_inner([monomial_inner(3, 3), monomial_inner(2, 3)], 3)
        k = model_space(theta, 6)
        f0 = basis_vector(2, 0)
        e = basis_vector(2, 1)
        space = synthesize_M(k, [f0], [e], 8)
        k_perp = complement(k)
        for i in range(20):
            g = CoeffFn(2, rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2)))
            if i % 2 == 0:
                g = g - project(space, g)
            member, _ = orthocomplement_membership(
                g, column_symbol(f0), [column_symbol(e)], k_perp
            )
            assert member == (project(space, g).norm() <= 1e-7 * max(1.0, g.norm()))
