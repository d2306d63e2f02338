"""Near-invariance analysis: decomposition, parameter space, synthesis.

Core algorithm: a function F in a nearly backward-shift invariant subspace
M with defect basis E_1..E_p splits as

    F = F0 K0 + sum_j z k_j E_j,      ||F||^2 = ||K0||^2 + sum_j ||k_j||^2,

where F0 stacks an orthonormal basis of the wandering part of M and
(K0, k_1..k_p) ranges over a backward-shift invariant parameter space K of
C^{r+p}-valued functions.  ``decompose`` runs the peeling iteration that
produces the tuple one coefficient per step, ``extract_K`` maps a whole
subspace through it, and ``synthesize_M`` rebuilds M from (K, F0, E).

The iteration doubles as a near-invariance monitor: if a backward-shift
step leaves M (+) span(E) by more than ``near_tol`` the decomposition
refuses with NotNearlyInvariantError instead of silently projecting.
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
from .funcs import CoeffFn, backshift, inner_product, shift, zero_fn
from .multipliers import MatSymbol, adjoint_apply, apply_multiplier, column_symbol
from .subspaces import (
    DefectCertificate,
    Subspace,
    _columns,
    _gram_deviation,
    _rank,
    _shift_rows,
    complement,
    defect_of,
    degree_slice,
    from_spanning,
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

DEFAULT_NEAR_TOL = 1e-6


@dataclass(frozen=True)
class DecompResult:
    """Outcome of one decomposition run.

    ``K0`` is the C^r-valued wandering coordinate function (None when the
    wandering part is trivial), ``kj`` the p scalar defect coordinate
    functions.  ``A_trace``/``beta_trace`` are the per-step coordinates
    (K0 rows, and the k_j coefficients shifted up by one), ``gk_norms``
    the remainder norms, and ``norm_gap`` the Parseval identity defect
    | ||F||^2 - ||K0||^2 - sum ||k_j||^2 |.
    """

    K0: CoeffFn | None
    kj: tuple
    A_trace: tuple
    beta_trace: tuple
    gk_norms: tuple
    max_step_residual: float
    norm_gap: float
    iterations: int
    converged: bool

    @property
    def r(self) -> int:
        return self.K0.dim_m if self.K0 is not None else 0

    @property
    def p(self) -> int:
        return len(self.kj)

    def tuple_fn(self) -> CoeffFn:
        """The stacked C^{r+p}-valued coordinate function (K0, k_1..k_p)."""
        parts = []
        if self.K0 is not None:
            parts.append(self.K0)
        parts.extend(self.kj)
        if not parts:
            raise InvariantViolationError("decomposition carries no coordinates")
        deg = max(p.deg for p in parts)
        cols = [p.padded(deg) for p in parts]
        return CoeffFn(sum(p.dim_m for p in parts), np.hstack(cols))


def _check_defect_basis(m: Subspace, defect_basis, tol: float) -> None:
    cols = _columns(defect_basis, m.dim_m, m.ambient_deg)
    if not cols.shape[1]:
        return
    dev = _gram_deviation(cols)
    if dev > tol:
        raise PreconditionError(
            f"defect basis is not orthonormal (Gram deviation {dev:.3g})"
        )
    if m.dim:
        q = m.matrix
        overlap = float(np.linalg.norm(np.conj(q.T) @ cols, 2))
        if overlap > tol:
            raise PreconditionError(
                f"defect basis is not orthogonal to the space (overlap {overlap:.3g})"
            )


def decompose(m: Subspace, defect_basis, f: CoeffFn, eps: float = 1e-10,
              k_max: int | None = None, near_tol: float = DEFAULT_NEAR_TOL) -> DecompResult:
    """Peel F in M into wandering and defect coordinates.

    Each step removes the wandering component (which must leave a function
    vanishing at 0), applies the backward shift, and splits the result into
    its M part, its defect coordinates, and an escape remainder R.
    ``||R|| > near_tol`` raises NotNearlyInvariantError carrying the step
    and the escaping vector; hitting ``k_max`` with ``||G|| > eps`` returns
    a diagnostic result with ``converged=False``.
    """
    defect_basis = list(defect_basis)
    p = len(defect_basis)
    if k_max is None:
        k_max = m.ambient_deg + p + 8
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    pre_tol = max(100.0 * m.tol, 1e-8)
    resid = (f - project(m, f)).norm()
    if resid > pre_tol * max(1.0, f.norm()):
        raise PreconditionError(
            f"function is not in the subspace (residual {resid:.3g})"
        )
    _check_defect_basis(m, defect_basis, pre_tol)
    w = wandering(m)
    r = w.dim

    g = f
    gk_norms = [g.norm()]
    a_trace: list[np.ndarray] = []
    beta_trace: list[np.ndarray] = []
    max_step_residual = 0.0
    iterations = 0
    while gk_norms[-1] > eps and iterations < k_max:
        if r:
            a = np.array([inner_product(g, wi) for wi in w.basis])
            f_next = g
            for ai, wi in zip(a, w.basis):
                f_next = f_next - ai * wi
            a_trace.append(a)
        else:
            f_next = g
        at_zero = float(np.linalg.norm(f_next.value_at_zero()))
        if at_zero > pre_tol * max(1.0, gk_norms[-1]):
            raise InvariantViolationError(
                f"wandering removal left value {at_zero:.3g} at the origin"
            )
        h = backshift(f_next)
        g = project(m, h)
        beta = np.array([inner_product(h, ej) for ej in defect_basis])
        escape = h - g
        for bj, ej in zip(beta, defect_basis):
            escape = escape - bj * ej
        esc_norm = escape.norm()
        if esc_norm > near_tol:
            raise NotNearlyInvariantError(iterations + 1, esc_norm, escape)
        max_step_residual = max(max_step_residual, esc_norm)
        beta_trace.append(beta)
        gk_norms.append(g.norm())
        iterations += 1

    if r:
        rows = np.vstack(a_trace) if a_trace else np.zeros((1, r), dtype=complex)
        k0 = CoeffFn(r, rows)
    else:
        k0 = None
    kj = []
    for j in range(p):
        col = np.array([b[j] for b in beta_trace], dtype=complex).reshape(-1, 1)
        kj.append(CoeffFn(1, col) if col.size else zero_fn(1))
    total = (k0.norm() ** 2 if k0 is not None else 0.0) + sum(k.norm() ** 2 for k in kj)
    return DecompResult(
        K0=k0,
        kj=tuple(kj),
        A_trace=tuple(a_trace),
        beta_trace=tuple(beta_trace),
        gk_norms=tuple(gk_norms),
        max_step_residual=max_step_residual,
        norm_gap=abs(f.norm() ** 2 - total),
        iterations=iterations,
        converged=gk_norms[-1] <= eps,
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


def extract_K(m: Subspace, defect_basis, eps: float = 1e-10,
              k_max: int | None = None, near_tol: float = DEFAULT_NEAR_TOL,
              ambient_deg: int | None = None, iso_tol: float = 1e-6) -> Subspace:
    """Decompose every basis vector of M and span the coordinate tuples.

    The tuple map must be isometric (Gram matrix of the tuples matches the
    Gram matrix of the basis within iso_tol) and the resulting space must
    be invariant under the componentwise backward shift; violations raise
    CertificationError.
    """
    defect_basis = list(defect_basis)
    results = [decompose(m, defect_basis, b, eps, k_max, near_tol) for b in m.basis]
    if not results:
        return Subspace(max(len(defect_basis), 1), ambient_deg or 0, (), m.tol)
    tuples = [res.tuple_fn() for res in results]
    if ambient_deg is None:
        ambient_deg = max(t.deg for t in tuples)
    dev = _gram_deviation(_columns(tuples, tuples[0].dim_m, ambient_deg))
    if dev > iso_tol:
        raise CertificationError(
            f"coordinate map is not isometric (Gram deviation {dev:.3g} > {iso_tol:.3g})"
        )
    k = from_spanning(tuples, ambient_deg, m.tol)
    cert = defect_of(k, "S*", tol=max(m.tol, iso_tol))
    if cert.defect_dim:
        raise CertificationError(
            f"extracted space is not backward-shift invariant "
            f"(defect {cert.defect_dim}, top escape {cert.singular_values[0]:.3g})"
        )
    return k


def synthesize_M(k: Subspace, f0_cols, e_fns, ambient_deg: int,
                 tol: float | None = None, check: bool = True) -> Subspace:
    """Rebuild the function space from coordinates: F = F0 K0 + sum z k_j E_j.

    F0 columns must be orthonormal with linearly independent values at 0;
    E must be orthonormal.  The output is certified nearly invariant with
    defect at most p unless ``check`` is disabled.
    """
    f0_cols = list(f0_cols)
    e_fns = list(e_fns)
    r, p = len(f0_cols), len(e_fns)
    if k.dim_m != r + p:
        raise DimensionMismatchError(
            f"coordinate space over C^{k.dim_m}, expected C^{r + p}"
        )
    if tol is None:
        tol = k.tol
    if r:
        m_dim = f0_cols[0].dim_m
    elif p:
        m_dim = e_fns[0].dim_m
    else:
        raise PreconditionError("need at least one generator column")
    _check_orthonormal(f0_cols, "F0 columns")
    _check_orthonormal(e_fns, "defect functions")
    if r:
        vals = np.column_stack([c.value_at_zero() for c in f0_cols])
        if _rank(np.linalg.svd(vals, compute_uv=False), 1e-10, 1.0) < r:
            raise PreconditionError(
                "F0 values at the origin are linearly dependent"
            )
    max_f0 = max((c.trimmed_deg() for c in f0_cols), default=0)
    max_e = max((e.trimmed_deg() for e in e_fns), default=0)
    need = k.ambient_deg + max(max_f0, max_e + 1)
    if ambient_deg < need:
        raise TruncationOverflowError(
            f"ambient degree {ambient_deg} below required headroom {need}"
        )
    symbols_f0 = [column_symbol(c) for c in f0_cols]
    symbols_e = [column_symbol(e) for e in e_fns]
    out = []
    for kappa in k.basis:
        acc = zero_fn(m_dim)
        for i in range(r):
            scalar = CoeffFn(1, kappa.coeffs[:, i : i + 1])
            acc = acc + apply_multiplier(symbols_f0[i], scalar)
        for j in range(p):
            scalar = CoeffFn(1, kappa.coeffs[:, r + j : r + j + 1])
            acc = acc + apply_multiplier(symbols_e[j], shift(scalar))
        out.append(acc)
    m = from_spanning(out, ambient_deg, tol)
    if check:
        cert = certify_nearly(m, p)
        if cert.defect_dim > p:
            raise CertificationError(
                f"synthesized space has defect {cert.defect_dim} > {p}"
            )
    return m


def _check_orthonormal(fns, label: str, tol: float = 1e-8) -> None:
    if not fns:
        return
    dev = _gram_deviation(_columns(fns, fns[0].dim_m, max(f.deg for f in fns)))
    if dev > tol:
        raise PreconditionError(f"{label} are not orthonormal (deviation {dev:.3g})")


def _direct_sum(m: Subspace, defect_basis) -> Subspace:
    """M (+) span(defect) as an orthonormal concatenation, checked."""
    cols = _columns(defect_basis, m.dim_m, m.ambient_deg)
    if not cols.shape[1]:
        return m
    return Subspace._of(m.dim_m, m.ambient_deg, np.hstack([m.matrix, cols]),
                        max(m.tol, 1e-9), m.band, check=True)


def almost_invariant_Sstar_check(m: Subspace, defect_basis,
                                 tol: float = 1e-8) -> tuple:
    """Whether every wandering vector stays in M (+) defect under S*.

    Near invariance constrains only the origin-vanishing part of M; this
    upgrade additionally requires S* W_i in M (+) span(defect) for every
    wandering basis vector W_i.  Returns (ok, max residual).
    """
    x = _direct_sum(m, defect_basis)
    w = wandering(m)
    residual = 0.0
    for wi in w.basis:
        h = backshift(wi)
        residual = max(residual, (h - project(x, h)).norm())
    return residual <= tol, residual


def _max_escape(target: Subspace, cols: np.ndarray) -> float:
    """Largest distance of the columns of cols from the target subspace."""
    q = target.matrix
    resid = cols - q @ (np.conj(q.T) @ cols)
    return float(max(np.linalg.norm(resid, axis=0), default=0.0))


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


def orthocomplement_membership(g: CoeffFn, f0: MatSymbol | None, e_syms,
                               k_perp: Subspace, tol: float = 1e-7) -> tuple:
    """Membership of G in the orthocomplement via the coordinate adjoints.

    Computes the tuple (T*_{F0} G, T*_{E_1} S* G, ..., T*_{E_p} S* G) and
    tests whether it lies in the given forward-shift invariant coordinate
    complement; the F0 slot is omitted when the space has no wandering
    part.  Returns (member, residual).
    """
    e_syms = list(e_syms)
    parts = []
    if f0 is not None:
        if f0.m_out != g.dim_m:
            raise DimensionMismatchError(
                f"F0 maps into C^{f0.m_out}, G lives in C^{g.dim_m}"
            )
        parts.append(adjoint_apply(f0, g))
    sg = backshift(g)
    for j, ej in enumerate(e_syms):
        if ej.m_in != 1 or ej.m_out != g.dim_m:
            raise DimensionMismatchError(f"defect symbol {j} must be {g.dim_m}x1")
        parts.append(adjoint_apply(ej, sg))
    if not parts:
        raise PreconditionError("no coordinate slots: need F0 or defect symbols")
    width = sum(p.dim_m for p in parts)
    if width != k_perp.dim_m:
        raise DimensionMismatchError(
            f"tuple has {width} components, complement lives over C^{k_perp.dim_m}"
        )
    deg = max(p.deg for p in parts)
    tup = CoeffFn(width, np.hstack([p.padded(deg) for p in parts]))
    # the distance from the complement is the size of the K part; K padded
    # to the tuple's degree covers tuples that outgrow the coordinate
    # window, since everything above it is orthogonal to K
    k = complement(k_perp)
    k = k.padded(max(tup.trimmed_deg(), k.ambient_deg))
    residual = project(k, tup).norm()
    return residual <= tol * max(1.0, g.norm()), float(residual)
