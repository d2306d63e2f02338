"""Closed subspaces of the truncated ambient space, as orthonormal matrices.

Every subspace lives in the flattened ambient C^{m(N+1)} (see
``funcs.flatten``).  Its only stored state is the column matrix Q of shape
(m(N+1), dim) with orthonormal columns; ``basis`` is a lazy tuple view of
those columns as functions.

Orthonormality is checked once, at the boundary: a caller's basis given to
the ``Subspace`` constructor, the chopped rows of ``degree_slice``, and (in
``nearly``) defect lists.  JSON spaces are orthonormalized by
``from_spanning``.  A Q that comes straight out of an SVD in this module,
or is a product, slice or zero-padding of one, is trusted and not
re-checked.

Every rank decision cuts a singular spectrum through ``_rank``: the count
of singular values above tol * scale.  The scale is per site:
``from_spanning`` the largest input column norm, ``beurling_space`` the
top singular value, the slice and wandering combinations max(1, top
singular value), ``defect_of`` 1 (an absolute cut).

Constructors that approximate infinite-dimensional spaces (Beurling ranges,
model spaces) record the degree band on which the truncation is faithful;
comparisons can be compressed to that band.

Degree headroom is explicit: the genuine shift refuses to act on a domain
with a nonzero coefficient at the top ambient degree instead of silently
truncating, which is the main numerical trap in invariance-defect
certification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotInnerError,
    PreconditionError,
    TruncationOverflowError,
)
from .funcs import CoeffFn, flatten, unflatten, zero_fn
from .multipliers import MatSymbol, toeplitz_matrix

__all__ = [
    "DEFAULT_TOL",
    "Subspace",
    "DefectCertificate",
    "from_spanning",
    "beurling_space",
    "model_space",
    "complement",
    "project",
    "subspace_distance",
    "vanishing_slice",
    "degree_slice",
    "wandering",
    "defect_of",
]

DEFAULT_TOL = 1e-10


def _rank(s: np.ndarray, tol: float, scale: float) -> int:
    """Number of singular values above tol * scale: the one rank cut."""
    return int(np.sum(s > tol * scale))


def _gram_deviation(cols: np.ndarray) -> float:
    """max |Q*Q - I| over the entries; 0 for no columns."""
    if not cols.shape[1]:
        return 0.0
    gram = np.conj(cols.T) @ cols
    return float(np.max(np.abs(gram - np.eye(cols.shape[1]))))


def _columns(fns, dim_m: int, ambient_deg: int) -> np.ndarray:
    """Flattened functions as the columns of a (m(N+1), len) matrix."""
    fns = tuple(fns)
    for f in fns:
        if f.dim_m != dim_m:
            raise DimensionMismatchError(
                f"function over C^{f.dim_m} among C^{dim_m} functions"
            )
    if not fns:
        return np.zeros((dim_m * (ambient_deg + 1), 0), dtype=complex)
    return np.column_stack([flatten(f, ambient_deg) for f in fns])


def _shift_rows(q: np.ndarray, dim_m: int, op: str) -> np.ndarray:
    """S or S* applied to every column of q, as a shift by one block of rows.

    S moves coefficients up one degree and drops the top one (the
    compressed shift), S* moves them down and zero-fills the top.
    """
    out = np.zeros(q.shape, dtype=complex)
    if op == "S":
        out[dim_m:] = q[:-dim_m]
    elif op == "S*":
        out[:-dim_m] = q[dim_m:]
    else:
        raise PreconditionError(f"unknown operator tag {op!r} (expected 'S' or 'S*')")
    return out


@dataclass(frozen=True, eq=False, init=False)
class Subspace:
    """Closed subspace of the truncated ambient, stored as orthonormal Q.

    ``Subspace(dim_m, ambient_deg, basis, tol, band)`` takes a caller's
    orthonormal basis of functions and checks it at tol.  ``band`` is the
    largest degree on which the construction faithfully represents its
    infinite-dimensional counterpart (equal to ambient_deg for exact
    constructions).
    """

    dim_m: int
    ambient_deg: int
    matrix: np.ndarray = field(repr=False)
    tol: float
    band: int

    def __init__(self, dim_m: int, ambient_deg: int, basis=(),
                 tol: float = DEFAULT_TOL, band: int | None = None):
        self._assign(dim_m, ambient_deg, _columns(basis, dim_m, ambient_deg), tol, band)
        self.__post_init__()

    def __post_init__(self):
        """The boundary check: Q must be orthonormal at tol.

        It keeps the dataclass hook's name, under which bench/tracing.py
        times it.
        """
        dev = _gram_deviation(self.matrix)
        if dev > self.tol:
            raise InvariantViolationError(
                f"basis is not orthonormal: max Gram deviation {dev:.3g} > tol {self.tol:.3g}"
            )

    @classmethod
    def _of(cls, dim_m: int, ambient_deg: int, q: np.ndarray, tol: float,
            band: int | None = None, check: bool = False) -> "Subspace":
        """Wrap a Q built by this package; checked only if asked."""
        s = cls.__new__(cls)
        s._assign(dim_m, ambient_deg, q, tol, band)
        if check:
            s.__post_init__()
        return s

    def _assign(self, dim_m, ambient_deg, q, tol, band) -> None:
        if band is None:
            band = ambient_deg
        if not 0 <= band <= ambient_deg:
            raise PreconditionError(f"band {band} outside [0, {ambient_deg}]")
        q = np.ascontiguousarray(q, dtype=complex)
        q.flags.writeable = False
        for name, value in (("dim_m", dim_m), ("ambient_deg", ambient_deg),
                            ("matrix", q), ("tol", tol), ("band", band)):
            object.__setattr__(self, name, value)

    @cached_property
    def basis(self) -> tuple:
        """The columns of Q as functions of degree ambient_deg."""
        return tuple(unflatten(c, self.dim_m) for c in self.matrix.T)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def projector(self) -> np.ndarray:
        q = self.matrix
        return q @ np.conj(q.T)

    def padded(self, ambient_deg: int) -> "Subspace":
        """Same span inside a larger ambient window."""
        if ambient_deg < self.ambient_deg:
            raise TruncationOverflowError(
                f"cannot shrink ambient degree {self.ambient_deg} to {ambient_deg}"
            )
        if ambient_deg == self.ambient_deg:
            return self
        q = np.zeros((self.dim_m * (ambient_deg + 1), self.dim), dtype=complex)
        q[: self.ambient_dim] = self.matrix
        return Subspace._of(self.dim_m, ambient_deg, q, self.tol, self.band)


@dataclass(frozen=True)
class DefectCertificate:
    """Certified invariance statement for one operator and one subspace.

    ``defect_basis`` spans the minimal escape directions found (orthonormal,
    inside the orthocomplement); ``singular_values`` is the full residual
    spectrum so borderline ranks can be audited; ``max_residual`` is the
    largest per-vector escape remaining after the defect basis is included.
    """

    op_tag: str
    mode: str
    defect_dim: int
    defect_basis: tuple
    singular_values: tuple
    max_residual: float


def from_spanning(fns, ambient_deg: int, tol: float = DEFAULT_TOL,
                  dim_m: int | None = None) -> Subspace:
    """Orthonormal basis of the span by rank-revealing SVD.

    Directions with singular value at most tol times the largest input
    norm are discarded.  ``dim_m`` only matters for an empty input, where
    it fixes the ambient of the zero subspace (default 1).
    """
    fns = list(fns)
    if fns:
        dim_m = fns[0].dim_m
    dim_m = dim_m or 1
    cols = _columns(fns, dim_m, ambient_deg)
    scale = max((float(np.linalg.norm(c)) for c in cols.T), default=0.0)
    if scale == 0.0:
        return Subspace._of(dim_m, ambient_deg, cols[:, :0], tol)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return Subspace._of(dim_m, ambient_deg, u[:, :_rank(s, tol, scale)], tol)


def beurling_space(t: MatSymbol, ambient_deg: int, headroom: int = 0,
                   tol: float = DEFAULT_TOL) -> Subspace:
    """Range of an inner multiplier on the truncated ambient.

    Only truncation-free products enter: the input monomial z^j e_i is kept
    when j + (degree of column i) <= ambient_deg - headroom, so every basis
    vector is an exact product.  The recorded band is where the truncated
    range agrees with the untruncated one.
    """
    if not t.claimed_inner:
        raise NotInnerError("refusing to build a Beurling-type range from a non-isometry")
    if ambient_deg < t.deg:
        raise TruncationOverflowError(
            f"ambient degree {ambient_deg} below symbol degree {t.deg}"
        )
    col_degs = [t.column_degree(i) for i in range(t.m_in)]
    keep = [j * t.m_in + i for j in range(ambient_deg + 1) for i in range(t.m_in)
            if j + col_degs[i] <= ambient_deg - headroom]
    band = max(0, ambient_deg - max(col_degs) - headroom)
    cols = toeplitz_matrix(t, ambient_deg)[:, keep]
    if not keep:
        return Subspace._of(t.m_out, ambient_deg, cols, tol, band)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return Subspace._of(t.m_out, ambient_deg, u[:, :_rank(s, tol, s[0])], tol, band)


def model_space(t: MatSymbol, ambient_deg: int, headroom: int = 0,
                tol: float = DEFAULT_TOL) -> Subspace:
    """Orthocomplement of the Beurling range inside the truncated ambient.

    The truncated complement over-approximates the model space in the top
    degree band; compare within degrees <= the recorded band.
    """
    return complement(beurling_space(t, ambient_deg, headroom, tol))


def complement(a: Subspace) -> Subspace:
    """Orthocomplement in the flattened ambient; dims add up exactly."""
    if a.dim == 0:
        q = np.eye(a.ambient_dim, dtype=complex)
    else:
        u, _, _ = np.linalg.svd(a.matrix, full_matrices=True)
        q = u[:, a.dim:]
    return Subspace._of(a.dim_m, a.ambient_deg, q, a.tol, a.band)


def project(a: Subspace, f: CoeffFn) -> CoeffFn:
    """Orthogonal projection P_A F."""
    if f.dim_m != a.dim_m:
        raise DimensionMismatchError(f"function over C^{f.dim_m}, subspace over C^{a.dim_m}")
    if a.dim == 0:
        return zero_fn(a.dim_m)
    q = a.matrix
    vec = flatten(f, a.ambient_deg)
    return unflatten(q @ (np.conj(q.T) @ vec), a.dim_m)


def subspace_distance(a: Subspace, b: Subspace, band: int | None = None) -> float:
    """Operator norm of P_A - P_B in [0, 1]; 0 iff equal spans at tol.

    With ``band``, the difference is compressed to degrees <= band before
    taking the norm (the faithful-truncation comparison).
    """
    if a.dim_m != b.dim_m:
        raise DimensionMismatchError(
            f"subspaces over C^{a.dim_m} and C^{b.dim_m}"
        )
    deg = max(a.ambient_deg, b.ambient_deg)
    diff = a.padded(deg).projector() - b.padded(deg).projector()
    if band is not None:
        cut = a.dim_m * (band + 1)
        diff = diff[:cut, :cut]
    if diff.size == 0:
        return 0.0
    return float(np.linalg.norm(diff, 2))


def _split_combos(mat: np.ndarray, k: int, tol: float) -> tuple:
    """Orthonormal column combinations (row space, null space) of mat.

    One SVD; the rank is decided at tol * max(1, top singular value).
    """
    if k == 0:
        return np.zeros((0, 0), dtype=complex), np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = _rank(s, tol, max(1.0, s[0]))
    v = np.conj(vh).T
    return v[:, :rank], v[:, rank:]


def vanishing_slice(m: Subspace) -> Subspace:
    """{F in M : F(0) = 0}: null space of evaluation at 0 restricted to M."""
    _, null = _split_combos(m.matrix[: m.dim_m], m.dim, m.tol)
    return Subspace._of(m.dim_m, m.ambient_deg, m.matrix @ null, m.tol, m.band)


def degree_slice(m: Subspace, max_deg: int) -> Subspace:
    """{F in M : all coefficients above max_deg vanish}.

    The null-space combinations leave sub-tolerance dust in the excluded
    rows; it is chopped to exact zeros so the slice honors its contract
    (headroom checks rely on exact degrees), and the chopped Q is checked.
    """
    if max_deg >= m.ambient_deg:
        return m
    cut = m.dim_m * (max_deg + 1)
    _, null = _split_combos(m.matrix[cut:], m.dim, m.tol)
    q = m.matrix @ null
    q[cut:] = 0.0
    return Subspace._of(m.dim_m, m.ambient_deg, q, m.tol, min(m.band, max_deg),
                        check=True)


def wandering(m: Subspace) -> Subspace:
    """W = M minus (M cap zH^2): the part of M visible at the origin.

    dim W is at most the ambient vector dimension; its basis is the column
    data for reconstructing M from its parameter space.
    """
    row, _ = _split_combos(m.matrix[: m.dim_m], m.dim, m.tol)
    w = Subspace._of(m.dim_m, m.ambient_deg, m.matrix @ row, m.tol, m.band)
    if w.dim > m.dim_m:
        raise InvariantViolationError(
            f"wandering dimension {w.dim} exceeds ambient vector dimension {m.dim_m}"
        )
    return w


def defect_of(m: Subspace, op: str, *, domain: Subspace | None = None,
              tol: float | None = None, band: int | None = None,
              mode: str = "almost") -> DefectCertificate:
    """Minimal escape space of op applied to (a slice of) M.

    Applies op to every basis vector of ``domain`` (default: M itself),
    projects onto the orthocomplement of M, and reads the defect off the
    singular spectrum of the residual family (absolute cut at tol).  For
    op = 'S' the domain must leave one degree of headroom: its top block
    of rows must vanish; there is no silent truncation.  ``band`` zeroes
    residual components above the faithful band before rank decisions
    (truncation shadow of exact containments).
    """
    if domain is None:
        domain = m
    if tol is None:
        tol = m.tol
    if domain.dim_m != m.dim_m:
        raise DimensionMismatchError("domain and space live over different C^m")
    dq = domain.padded(m.ambient_deg).matrix
    if op == "S" and np.any(dq[-m.dim_m:] != 0):
        raise TruncationOverflowError(
            f"shift needs one degree of headroom: a domain vector has a nonzero "
            f"coefficient at the ambient degree {m.ambient_deg}"
        )
    if domain.dim == 0:
        return DefectCertificate(op, mode, 0, (), (), 0.0)
    cols = _shift_rows(dq, m.dim_m, op)
    q = m.matrix
    resid = cols - q @ (np.conj(q.T) @ cols)
    if band is not None:
        resid[m.dim_m * (band + 1):, :] = 0.0
    u, s, _ = np.linalg.svd(resid, full_matrices=False)
    defect_dim = _rank(s, tol, 1.0)
    ud = u[:, :defect_dim]
    leftover = resid - ud @ (np.conj(ud.T) @ resid) if defect_dim else resid
    max_residual = float(max(np.linalg.norm(leftover, axis=0), default=0.0))
    return DefectCertificate(op, mode, defect_dim,
                             tuple(unflatten(c, m.dim_m) for c in ud.T),
                             tuple(float(x) for x in s), max_residual)
