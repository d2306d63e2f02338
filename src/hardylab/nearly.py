"""Near-invariance analysis: decomposition, parameter space, synthesis.

Core algorithm: a function F in a nearly backward-shift invariant subspace
M with defect basis E_1..E_p splits as

    F = F0 K0 + sum_j z k_j E_j,      ||F||^2 = ||K0||^2 + sum_j ||k_j||^2,

where F0 stacks an orthonormal basis of the wandering part of M and
(K0, k_1..k_p) ranges over a backward-shift invariant parameter space K of
C^{r+p}-valued functions.  The peeling iteration that produces the tuple
one coefficient per step has one kernel, ``_peel``, which peels many
columns together.  Each step applies the compressed backward shift
P_M S* (I - P_W) to an iterate that lies in M, so the kernel runs on M's
coordinates c (G = Q c): one step is one product of a step map, built
once per (M, E) and kept in M's memo, with the running columns of c.  In
coordinates, coefficient k of the tuple of G = Q c is C A^k c, with A the
dim M x dim M block and C the r + p coordinate rows of the step map.
Only the first step of an input that may lie off M, by up to the
membership tolerance, runs in the ambient frame.  ``decompose`` runs the
kernel on one function, ``extract_K`` on every column of M's Q at once
(from c = I), and ``synthesize_M`` rebuilds M from (K, F0, E) as one
product of the generator symbol [F0 | zE] with K's Q.  The orthocomplement
test ``orthocomplement_membership`` applies the adjoint of the same
generator, which ``_generator`` builds for both.  Every defect list, in
the peeling and in the duality checks, passes ``_check_defect_basis`` at
one tolerance, ``_defect_tol``.

The iteration doubles as a near-invariance monitor: if a backward-shift
step leaves M (+) span(E) by more than ``DEFAULT_NEAR_TOL`` the
decomposition refuses with NotNearlyInvariantError instead of silently
projecting.  With several columns, the refusal is the one at the earliest
failing step, and on a tie the one of the lowest failing column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CertificationError,
    DimensionMismatchError,
    InvariantViolationError,
    NotNearlyInvariantError,
    PreconditionError,
    TruncationOverflowError,
)
from .funcs import CoeffFn, flatten, unflatten
from .multipliers import MatSymbol, multiply, multiply_adjoint
from .subspaces import (
    DefectCertificate,
    Subspace,
    _columns,
    _gram_deviation,
    _rank,
    _residual,
    _shift_rows,
    _span_columns,
    complement,
    defect_of,
    degree_slice,
    project,
    vanishing_slice,
    wandering,
)

__all__ = [
    "DecompResult",
    "decompose",
    "certify_nearly",
    "extract_K",
    "synthesize_M",
    "almost_invariant_Sstar_check",
    "duality_residuals",
    "orthocomplement_membership",
]

# the escape norm above which a peeling step refuses
DEFAULT_NEAR_TOL = 1e-6
# decompose's default stopping norm, and extract_K's
_EPS = 1e-10
# extract_K's bound on the Gram deviation of the coordinate map
_ISO_TOL = 1e-6
# almost_invariant_Sstar_check's bound on the escape of S* W
_ALMOST_TOL = 1e-8
# synthesize_M's bound on the Gram deviation of the F0 and E columns
_ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class DecompResult:
    """Outcome of one decomposition run.

    ``K0`` is the C^r-valued wandering coordinate function (None when the
    wandering part is trivial), ``kj`` the p scalar defect coordinate
    functions; coefficient k of each is the coordinate peeled at step
    k + 1.  ``gk_norms`` are the remainder norms, ``max_step_residual``
    the largest escape norm of a step, and ``norm_gap`` the Parseval
    identity defect | ||F||^2 - ||K0||^2 - sum ||k_j||^2 |.
    """

    K0: CoeffFn | None
    kj: tuple
    gk_norms: tuple
    max_step_residual: float
    norm_gap: float
    iterations: int
    converged: bool


def _defect_tol(tol: float) -> float:
    """The tolerance of M's membership and defect-basis checks: max(100 tol, 1e-8)."""
    return max(100.0 * tol, 1e-8)


def _check_defect_basis(m: Subspace, cols: np.ndarray, tol: float) -> None:
    if not cols.shape[1]:
        return
    dev = _gram_deviation(cols)
    if dev > tol:
        raise PreconditionError(
            f"defect basis is not orthonormal (Gram deviation {dev:.3g})"
        )
    if not m.dim:
        return
    inner = np.conj(m.matrix.T) @ cols
    # the Frobenius norm bounds the 2-norm, so the SVD runs only near a refusal
    if np.linalg.norm(inner) > tol:
        overlap = float(np.linalg.norm(inner, 2))
        if overlap > tol:
            raise PreconditionError(
                f"defect basis is not orthogonal to the space (overlap {overlap:.3g})"
            )


@dataclass(frozen=True, eq=False)
class _StepMap:
    """One peeling step on M's coordinates c (g = Q c), for one defect basis E.

    With W = Q V_r the wandering part and Pi = I - V_r V_r*, ``stack``
    holds these row blocks, each applied to c:

        A = Q* S* Q Pi      the next coordinates            (dim M rows)
        V_r*                the wandering coordinates a     (r rows)
        E* S* Q Pi          the defect coordinates beta     (p rows)
        (Q Pi)[:m]          the value at the origin         (m rows)
        T                   the triangular factor of the escape map
                            (I - QQ* - EE*) S* Q Pi         (dim M rows)

    so ||T c|| is the escape norm of the step.  ``blocks`` (3 x rows, 0/1)
    sums the squared entries of the A, origin and T blocks.  ``key`` is
    E's flattened coefficients; ``w`` and ``e`` serve the steps taken in
    the ambient frame.
    """

    key: bytes
    w: np.ndarray
    e: np.ndarray
    stack: np.ndarray
    blocks: np.ndarray


def _step_map(m: Subspace, defect_basis: list, pre_tol: float) -> _StepMap:
    """M's step map for this defect basis, from M's memo when E is unchanged.

    The memo has one slot, which a new E replaces.  The defect-basis checks
    run when a map is built, so a refused E is refused on every call.
    """
    e = _columns(defect_basis, m.dim_m, m.ambient_deg)
    key = e.tobytes()
    sm = m._memo.get("step_map")
    if sm is None or sm.key != key:
        sm = _build_step_map(m, e, key, pre_tol)
        m._memo["step_map"] = sm
    return sm


def _build_step_map(m: Subspace, e: np.ndarray, key: bytes, pre_tol: float) -> _StepMap:
    """Check the defect columns e, then fill the blocks of ``_StepMap``.

    The stack outlives the call, so it is allocated first and filled in
    place, not stacked from copies of its blocks.
    """
    _check_defect_basis(m, e, pre_tol)
    q, d, dim_m = m.matrix, m.dim, m.dim_m
    w = wandering(m).matrix
    i_beta = d + w.shape[1]
    i_origin = i_beta + e.shape[1]
    i_t = i_origin + dim_m
    stack = np.empty((i_t + d, d), dtype=complex)
    a, vh, beta = stack[:d], stack[d:i_beta], stack[i_beta:i_origin]
    np.matmul(np.conj(w.T), q, out=vh)
    h = q - w @ vh
    stack[i_origin:i_t] = h[:dim_m]
    h = _shift_rows(h, dim_m, "S*")
    np.matmul(np.conj(q.T), h, out=a)
    np.matmul(np.conj(e.T), h, out=beta)
    h -= q @ a
    h -= e @ beta
    stack[i_t:] = np.linalg.qr(h, mode="r")
    blocks = np.zeros((3, len(stack)))
    blocks[0, :d] = blocks[1, i_origin:i_t] = blocks[2, i_t:] = 1.0
    return _StepMap(key, w, e, stack, blocks)


def _default_k_max(ambient_deg: int, p: int) -> int:
    """The default step bound of the peeling: ambient degree + p + 8."""
    return ambient_deg + p + 8


def _peel_setup(m: Subspace, defect_basis: list, g: np.ndarray | None,
                k_max: int | None):
    """The checks before peeling; returns (step map, k_max, pre_tol).

    Every column of g must lie in M within pre_tol (relative to its norm);
    g = None stands for Q's own columns, which lie in M.  The defect
    functions must be orthonormal and orthogonal to M (checked once per
    step map).
    """
    if k_max is None:
        k_max = _default_k_max(m.ambient_deg, len(defect_basis))
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    pre_tol = _defect_tol(m.tol)
    if g is not None:
        resid = np.linalg.norm(_residual(m, g), axis=0)
        outside = resid > pre_tol * np.maximum(1.0, np.linalg.norm(g, axis=0))
        if outside.any():
            raise PreconditionError(
                f"function is not in the subspace (residual {resid[outside.argmax()]:.3g})"
            )
    return _step_map(m, defect_basis, pre_tol), k_max, pre_tol


def _ambient_step(q: np.ndarray, sm: _StepMap, dim_m: int, g: np.ndarray):
    """One step on ambient columns g.

        a = W* G,   F = G - W a,   H = S* F,
        c = Q* H,   beta = E* H,   escape = H - Q c - E beta.

    Returns ((a; beta), ||F(0)||, c, escape, ||escape||), norms per column.
    """
    a = np.conj(sm.w.T) @ g
    f = g - sm.w @ a
    h = _shift_rows(f, dim_m, "S*")
    c = np.conj(q.T @ np.conj(h))  # Q* H without a copy of Q
    beta = np.conj(sm.e.T) @ h
    escape = h - q @ c - sm.e @ beta
    return (np.vstack([a, beta]), np.linalg.norm(f[:dim_m], axis=0), c, escape,
            np.linalg.norm(escape, axis=0))


def _peel(m: Subspace, sm: _StepMap, g: np.ndarray | None, eps: float,
          k_max: int, pre_tol: float):
    """The peeling iteration on b columns of M, all in one pass.

    g is the n x b matrix of the columns, or None for the columns of Q.
    One step, on the columns still running, with W the wandering basis,
    Q the basis of M and E the defect basis (all as column matrices):

        a = W* G,   F = G - W a,   F(0) = F[:m] must vanish,
        H = S* F,   G' = Q Q* H,   beta = E* H,   escape = H - G' - E beta.

    Every G' is Q c, so the steps run on M's coordinates: one product of
    the step map ``sm.stack`` with the running columns of c gives c', a,
    beta, F(0) and T c, where ||T c|| = ||escape||.  A first step on g
    runs in the ambient frame, since g may lie off M by up to pre_tol;
    Q's own columns start from c = I.  No n-row array is formed after the
    first step, except to rebuild a refused escape vector.

    A column stops once its ||G'|| <= eps, or after k_max steps.  An
    origin value above pre_tol * max(1, ||G||) raises
    InvariantViolationError, and an escape norm above DEFAULT_NEAR_TOL raises
    NotNearlyInvariantError.  Both report the earliest failing step, and
    on a tie the lowest failing column.

    Returns (tup, gk, max_res): tup (steps, r + p, b) holds the per-step
    coordinates (a, then beta), zero after a column stopped; gk
    (steps + 1, b) the remainder norms, a stopped column's last norm
    repeated; max_res the largest escape norm of each column.
    """
    q, dim_m, d = m.matrix, m.dim_m, m.dim
    width = sm.w.shape[1] + sm.e.shape[1]
    norms = np.ones(d) if g is None else np.linalg.norm(g, axis=0)
    b = norms.size
    run = np.flatnonzero(norms > eps)
    if g is None:
        c = np.eye(d, dtype=complex)[:, run]
    gk, tup = [norms.copy()], []
    max_res = np.zeros(b)
    while run.size and len(gk) <= k_max:
        lim = pre_tol * np.maximum(1.0, norms[run])
        if g is not None:
            coords, at_zero, c_next, escape, esc = _ambient_step(q, sm, dim_m, g[:, run])
            now = np.linalg.norm(c_next, axis=0)
            g = None
        else:
            y = sm.stack @ c
            coords, c_next, escape = y[d : d + width], y[:d], None
            now, at_zero, esc = np.sqrt(sm.blocks @ np.square(np.abs(y)))
        if ((at_zero > lim) | (esc > DEFAULT_NEAR_TOL)).any():
            bad = at_zero > lim
            if bad.any():
                raise InvariantViolationError(
                    f"wandering removal left value {at_zero[bad.argmax()]:.3g} at the origin"
                )
            j = int((esc > DEFAULT_NEAR_TOL).argmax())
            vec = (escape[:, j] if escape is not None
                   else _ambient_step(q, sm, dim_m, q @ c[:, j : j + 1])[3][:, 0])
            raise NotNearlyInvariantError(len(gk), float(esc[j]), unflatten(vec, dim_m))
        row = np.zeros((width, b), dtype=complex)
        row[:, run] = coords
        tup.append(row)
        norms[run] = now
        max_res[run] = np.maximum(max_res[run], esc)
        gk.append(norms.copy())
        keep = now > eps
        c = c_next if keep.all() else c_next[:, keep]
        run = run[keep]
    return (np.array(tup, dtype=complex).reshape(len(tup), width, b),
            np.array(gk), max_res)


def decompose(m: Subspace, defect_basis, f: CoeffFn, eps: float = _EPS,
              k_max: int | None = None) -> DecompResult:
    """Peel F in M into wandering and defect coordinates.

    Each step removes the wandering component (which must leave a function
    vanishing at 0), applies the backward shift, and splits the result into
    its M part, its defect coordinates, and an escape remainder R; ``_peel``
    runs the first step on F's coefficient vector and the others on M's
    coordinates, with M's step map for this defect basis (built on the
    first call, when the defect-basis checks run).  ``||R|| >
    DEFAULT_NEAR_TOL`` raises NotNearlyInvariantError carrying the step and
    the escaping vector; hitting ``k_max`` (default: ambient degree + p + 8)
    with ``||G|| > eps`` returns a diagnostic result with
    ``converged=False``.
    """
    defect_basis = list(defect_basis)
    if f.dim_m != m.dim_m:
        raise DimensionMismatchError(f"function over C^{f.dim_m}, subspace over C^{m.dim_m}")
    g = flatten(f, m.ambient_deg).reshape(-1, 1)
    sm, k_max, pre_tol = _peel_setup(m, defect_basis, g, k_max)
    tup, gk, max_res = _peel(m, sm, g, eps, k_max, pre_tol)
    steps, r, p = len(tup), sm.w.shape[1], sm.e.shape[1]
    a, beta = tup[:, :r, 0], tup[:, r:, 0]
    k0 = CoeffFn(r, a if steps else np.zeros((1, r))) if r else None
    kj = tuple(CoeffFn(1, beta[:, j : j + 1] if steps else np.zeros((1, 1)))
               for j in range(p))
    total = (k0.norm() ** 2 if k0 is not None else 0.0) + sum(k.norm() ** 2 for k in kj)
    return DecompResult(
        K0=k0,
        kj=kj,
        gk_norms=tuple(float(x) for x in gk[:, 0]),
        max_step_residual=float(max_res[0]),
        norm_gap=abs(f.norm() ** 2 - total),
        iterations=steps,
        converged=bool(gk[-1, 0] <= eps),
    )


def certify_nearly(m: Subspace, p_max: int, tol: float | None = None,
                   band: int | None = None) -> DefectCertificate:
    """Minimal backward-shift escape of the origin-vanishing part of M.

    Always returns a certificate; the caller compares defect_dim against
    p_max.  ``band`` restricts both the analyzed slice and the counted
    residuals to the faithful degree band of a truncated construction.
    """
    domain = vanishing_slice(m)
    if band is not None:
        domain = degree_slice(domain, band)
    return defect_of(m, "S*", domain=domain, tol=tol, band=band, mode="nearly")


def extract_K(m: Subspace, defect_basis) -> Subspace:
    """Decompose every basis vector of M and span the coordinate tuples.

    The columns of Q are peeled together by one ``_peel`` run on M's
    coordinates, from c = I (they lie in M, so there is no membership
    check), with the checks and the default ``eps`` and ``k_max`` of
    ``decompose``; a refusal reports the earliest failing step, and on a
    tie the lowest failing column.  K's ambient degree is the number of
    steps minus one.  The tuple map must be isometric (Gram matrix of the
    tuples matches the Gram matrix of the basis within 1e-6) and the
    resulting space must be invariant under the componentwise backward
    shift; violations raise CertificationError.
    """
    defect_basis = list(defect_basis)
    if not m.dim:
        return Subspace(max(len(defect_basis), 1), 0, (), m.tol)
    sm, k_max, pre_tol = _peel_setup(m, defect_basis, None, None)
    # step k of column j is coefficient k of basis vector j's tuple
    # (K0, k_1..k_p); Q's columns have norm 1 > eps, so at least one step runs
    tup, *_ = _peel(m, sm, None, _EPS, k_max, pre_tol)
    steps, width = tup.shape[:2]
    if not width:
        raise InvariantViolationError("decomposition carries no coordinates")
    cols = tup.reshape(-1, m.dim)
    dev = _gram_deviation(cols)
    if dev > _ISO_TOL:
        raise CertificationError(
            f"coordinate map is not isometric (Gram deviation {dev:.3g} > {_ISO_TOL:.3g})"
        )
    k = _span_columns(cols, width, steps - 1, m.tol)
    cert = defect_of(k, "S*", tol=max(m.tol, _ISO_TOL))
    if cert.defect_dim:
        raise CertificationError(
            f"extracted space is not backward-shift invariant "
            f"(defect {cert.defect_dim}, top escape {cert.singular_values[0]:.3g})"
        )
    return k


def synthesize_M(k: Subspace, f0_cols, e_fns, ambient_deg: int,
                 check: bool = True) -> Subspace:
    """Rebuild the function space from coordinates: F = F0 K0 + sum z k_j E_j.

    F0 columns must be orthonormal with linearly independent values at 0;
    E must be orthonormal.  Every image is one product: the m x (r+p)
    generator symbol [F0 | zE] (``_generator``) applied by ``multiply`` to
    the columns of K's Q, then spanned by the ``from_spanning`` cut at K's
    tol.  The output is certified nearly invariant with defect at most p
    unless ``check`` is disabled.
    """
    f0_cols = list(f0_cols)
    e_fns = list(e_fns)
    r, p = len(f0_cols), len(e_fns)
    if k.dim_m != r + p:
        raise DimensionMismatchError(
            f"coordinate space over C^{k.dim_m}, expected C^{r + p}"
        )
    gen = _generator(f0_cols, e_fns)
    _check_orthonormal(f0_cols, "F0 columns")
    _check_orthonormal(e_fns, "defect functions")
    if r:
        vals = np.column_stack([c.value_at_zero() for c in f0_cols])
        if _rank(np.linalg.svd(vals, compute_uv=False), 1e-10, 1.0) < r:
            raise PreconditionError(
                "F0 values at the origin are linearly dependent"
            )
    need = k.ambient_deg + max(gen.deg, 1)
    if ambient_deg < need:
        raise TruncationOverflowError(
            f"ambient degree {ambient_deg} below required headroom {need}"
        )
    m = _apply_space(gen, k, ambient_deg, k.tol)
    if check:
        cert = certify_nearly(m, p)
        if cert.defect_dim > p:
            raise CertificationError(
                f"synthesized space has defect {cert.defect_dim} > {p}"
            )
    return m


def _apply_space(t: MatSymbol, space: Subspace, ambient_deg: int,
                 tol: float) -> Subspace:
    """Exact image of a subspace under a multiplier, re-orthonormalized."""
    x = space.matrix.reshape(space.ambient_deg + 1, space.dim_m, space.dim)
    images = multiply(t, x, ambient_deg).reshape(-1, space.dim)
    return _span_columns(images, t.m_out, ambient_deg, tol)


def _generator(f0_cols: list, e_fns: list) -> MatSymbol:
    """The m x (r+p) symbol [F0 | zE] of the F0 columns and defect functions.

    F0's columns enter as they are, each E_j one degree up, so that
    T_{zE} = S T_E and T*_{zE} = T*_E S*; the symbol ends at its last
    nonzero coefficient.  Columns over different C^m are refused.
    """
    cols = f0_cols + e_fns
    if not cols:
        raise PreconditionError("need at least one generator column")
    m, r = cols[0].dim_m, len(f0_cols)
    gen = np.zeros((max(f.deg for f in cols) + 2, m, len(cols)), dtype=complex)
    for i, f in enumerate(cols):
        if f.dim_m != m:
            raise DimensionMismatchError(f"generator column over C^{f.dim_m} among C^{m}")
        up = int(i >= r)
        gen[up : up + f.deg + 1, :, i] = f.coeffs
    nz = np.flatnonzero(gen.any(axis=(1, 2)))
    return MatSymbol(m, len(cols), gen[: nz[-1] + 1 if nz.size else 1])


def _check_orthonormal(fns, label: str) -> None:
    if not fns:
        return
    dev = _gram_deviation(_columns(fns, fns[0].dim_m, max(f.deg for f in fns)))
    if dev > _ORTHONORMAL_TOL:
        raise PreconditionError(f"{label} are not orthonormal (deviation {dev:.3g})")


def _direct_sum(m: Subspace, defect_basis) -> Subspace:
    """M (+) span(defect), the defect basis checked as the peeling checks it."""
    cols = _columns(defect_basis, m.dim_m, m.ambient_deg)
    if not cols.shape[1]:
        return m
    _check_defect_basis(m, cols, _defect_tol(m.tol))
    return Subspace._of(m.dim_m, m.ambient_deg, np.hstack([m.matrix, cols]), m.tol, m.band)


def almost_invariant_Sstar_check(m: Subspace, defect_basis) -> tuple:
    """Whether every wandering vector stays in M (+) defect under S*.

    Near invariance constrains only the origin-vanishing part of M; this
    upgrade additionally requires S* W_i in M (+) span(defect) for every
    wandering basis vector W_i.  Returns (ok, max residual); ok means a
    residual of at most 1e-8.
    """
    x = _direct_sum(m, defect_basis)
    residual = _max_escape(x, _shift_rows(wandering(m).matrix, m.dim_m, "S*"))
    return residual <= _ALMOST_TOL, residual


def _max_escape(target: Subspace, cols: np.ndarray) -> float:
    """Largest distance of the columns of cols from the target subspace."""
    return float(max(np.linalg.norm(_residual(target, cols), axis=0), default=0.0))


def duality_residuals(m: Subspace, defect_basis) -> tuple:
    """(forward residual, complement residual) of the two containments.

    Forward: largest escape of S* M from M (+) F.  Complement: largest
    escape of the compressed shift applied to (M (+) F)^perp from
    (M (+) F)^perp (+) F.  The compressed shift is used because its
    ambient adjoint is exactly S*, which makes the equivalence of the two
    statements an identity of finite-dimensional linear algebra; the
    genuine shift would overflow the ambient on complement vectors.
    """
    x = _direct_sum(m, defect_basis)
    lhs_res = _max_escape(x, _shift_rows(m.matrix, m.dim_m, "S*"))
    x_perp = complement(x)
    y = _direct_sum(x_perp, defect_basis)
    rhs_res = _max_escape(y, _shift_rows(x_perp.matrix, m.dim_m, "S"))
    return lhs_res, rhs_res


def orthocomplement_membership(g: CoeffFn, f0_cols, e_fns, k: Subspace,
                               tol: float = 1e-7) -> tuple:
    """Membership of G in the orthocomplement of M = [F0 | zE] K.

    Computes the tuple (T*_{F0} G, T*_{E_1} S* G, ..., T*_{E_p} S* G), one
    ``multiply_adjoint`` of the generator [F0 | zE] of ``synthesize_M``
    (T*_{zE} = T*_E S*), which is the adjoint of the synthesis map.  G is
    orthogonal to M iff that coordinate tuple has no component in the
    parameter space K, the same K that ``synthesize_M`` takes; with no F0
    columns the F0 slot is omitted.  The columns are not checked for
    orthonormality; G or a K over the wrong C^m is refused by the kernel
    and by ``project``.  Returns (member, residual).
    """
    gen = _generator(list(f0_cols), list(e_fns))
    tup = CoeffFn(gen.m_in, multiply_adjoint(gen, g.coeffs[..., None])[:, :, 0])
    # the distance from K's complement is the size of the K part; K padded
    # to the tuple's degree covers tuples that outgrow the coordinate
    # window, since everything above it is orthogonal to K
    k = k.padded(max(tup.trimmed_deg(), k.ambient_deg))
    residual = project(k, tup).norm()
    return residual <= tol * max(1.0, g.norm()), float(residual)
