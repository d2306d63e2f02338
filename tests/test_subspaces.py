"""Unit tests for the subspace lattice and defect certificates."""

import numpy as np
import pytest

from hardylab.errors import (
    InvariantViolationError,
    NotInnerError,
    TruncationOverflowError,
)
from hardylab.funcs import (
    CoeffFn,
    basis_vector,
    flatten,
    make_fn,
    monomial_fn,
)
from hardylab.inner import BlaschkeSpec, blaschke_scalar, diag_inner, eval_blaschke, monomial_inner
from hardylab.multipliers import apply_multiplier, scalar_symbol
from hardylab.subspaces import (
    Subspace,
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


def _random_fns(rng, count, m, deg):
    return [
        CoeffFn(m, rng.standard_normal((deg + 1, m))
                + 1j * rng.standard_normal((deg + 1, m)))
        for _ in range(count)
    ]


_THETA = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
_MIXED = from_spanning(_random_fns(np.random.default_rng(5), 4, 2, 6), 6)

# every constructor whose Q comes straight out of an SVD and is not re-checked
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
        tv = np.array([eval_blaschke(spec, z) for z in w])
        oracle = np.zeros((n + 1, n + 1), dtype=complex)
        for j in range(n + 1):
            g = np.conj(tv) * w ** j
            coeffs = np.fft.fft(g) / grid
            anal = np.zeros(grid, dtype=complex)
            anal[: grid // 2] = coeffs[: grid // 2]
            h = np.fft.ifft(anal) * grid
            oracle[:, j] = (np.fft.fft(tv * h) / grid)[: n + 1]
        cut = s.band + 1
        diff = (s.projector() - oracle)[:cut, :cut]
        assert np.linalg.norm(diff, 2) <= 1e-6


class TestModel:
    def test_scalar_z2(self):
        s = model_space(monomial_inner(2, 2), 4)
        for f in (ONE, Z):
            assert (f - project(s, f)).norm() <= 1e-10
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
        residual = (k - project(s, k)).norm() / k.norm()
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
        out = project(s, ONE + Z)
        assert np.allclose(out.padded(0), [[1]])

    def test_onto_zero(self):
        assert project(from_spanning([], 2, dim_m=1), Z).is_zero()

    def test_projector_hermitian_idempotent(self):
        rng = np.random.default_rng(2)
        s = from_spanning(_random_fns(rng, 3, 2, 3), 3)
        p = s.projector()
        assert np.allclose(p, np.conj(p.T), atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-12)

    def test_pythagoras(self):
        rng = np.random.default_rng(3)
        s = from_spanning(_random_fns(rng, 2, 2, 3), 3)
        f = _random_fns(rng, 1, 2, 3)[0]
        pf = project(s, f)
        qf = project(complement(s), f)
        assert (pf + qf - f).norm() <= 1e-10 * f.norm()
        assert f.norm() ** 2 == pytest.approx(pf.norm() ** 2 + (f - pf).norm() ** 2)


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
        s = from_spanning([apply_multiplier(psi, b) for b in k.basis], 4 + d)
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
