"""Closed subspaces of the truncated ambient space, as orthonormal matrices.

Every subspace lives in the flattened ambient C^{m(N+1)} (see
``funcs.flatten``).  Its only stored state is the column matrix Q of shape
(m(N+1), dim) with orthonormal columns; ``basis`` is a lazy tuple view of
those columns as functions.

Orthonormality is checked once, at the boundary: a caller's basis given to
the ``Subspace`` constructor, the chopped rows of ``degree_slice``, and (in
``nearly``) defect lists.  JSON spaces are orthonormalized by
``from_spanning``.  A Q that comes straight out of an SVD or a QR in this
module, or is a product, slice or zero-padding of one, is trusted and not
re-checked.

Every SVD rank decision cuts a singular spectrum through ``_rank``: the
count of singular values above tol * scale.  The scale is per site:
``from_spanning`` the largest input column norm, the slice and wandering
combinations max(1, top singular value), ``defect_of`` 1 (an absolute cut).

Beurling ranges and model spaces of an inner symbol come from one banded
Householder QR of the symbol's kept Toeplitz columns (``_range_qr``), with
no SVD: instead of a rank cut, the isometry defect of the stored symbol
certifies that every kept column survives a cut at tol * top singular
value, and a symbol without that certificate is refused.  The QR goes one
block of the symbol's sparsity pattern at a time (a diagonal symbol has
one block per entry), so the band is the largest block's, m_b (deg_b + 1),
not m_out (deg + 1); a symbol whose whole band fits a minimal panel, or
whose kept columns fit one panel, is factored whole.  The kept columns are
never stored as one matrix: each panel fills a window of the rows it
reaches straight from the symbol's coefficients and takes over the rows
the previous panel updated below its own (the carry), so memory grows
with n times the band height, not with n x k.  Both record the degree
band on which the truncation is faithful; comparisons can be compressed
to that band.

A Q lives in the field of its data, by one rule: it is float64 when the
data it is built from is exactly real (every imaginary part exactly
zero, no tolerance: ``multipliers._field``), complex128 otherwise.  The
data is an inner symbol's coefficients for ``beurling_space``/
``model_space``, whose field the ``MatSymbol`` fixed when it was built
and whose QR runs in that field, and the columns given to
``from_spanning`` or the ``Subspace`` constructor.  Everything built
from a Q inherits its field: complements, paddings, slices, wandering
parts, residuals, defect bases and ``nearly``'s step map.  A real matrix
that meets a complex operand multiplies through the operand's float64
view (``_mul``), so a real Q is never cast to a complex copy.  Only
``CoeffFn``, the boundary type, stays complex: it holds small
coefficient arrays.

A subspace remembers its orthocomplement only when it is the fatter side
(at least as many columns): the thin complement sits in the fat space's
per-instance memo, and nothing points back from the thin side, so no
reference cycle forms and a dropped fat space is freed at once.
``complement`` stores the thinner of its input and its result on the
fatter one, and ``beurling_space`` stores the model-space columns of the
same QR when they are no more than the range's.  The memo also holds
``nearly``'s peeling step map; it is not pickled.

The fat side is handled through its thin complement P: ``defect_of``
reads the residual (I - QQ*) X as P (P* X) and factors the (n - dim) x b
matrix P* X.  ``subspace_distance`` forms no n x n matrix:
P_A - P_B = X J X* with X = [Q_A | Q_B] and J = diag(I, -I), so the
distance is the largest |eigenvalue| of R J R*, R from a QR of X.

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
from .multipliers import MatSymbol, _field

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
# fewest columns in one panel of the banded QR behind beurling_space/model_space
_PANEL_MIN = 32


def _rank(s: np.ndarray, tol: float, scale: float) -> int:
    """Number of singular values above tol * scale: the one rank cut."""
    return int(np.sum(s > tol * scale))


def _mul(a: np.ndarray, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """a @ x, or a* @ x with ``adjoint``, without copying an a larger than x.

    x is a vector or a matrix.  A real a meets a complex x through x's
    float64 view: with x of shape (d, b), a @ x is
    (a @ x.view(float).reshape(d, 2b)).view(complex), so a real a is never
    cast to a complex copy.  For a complex a, a* x conjugates the smaller
    operand: conj(a^T conj(x)) copies x, conj(a)^T x copies a.
    """
    if a.dtype.kind == "c":
        if not adjoint:
            return a @ x
        return np.conj(a.T) @ x if a.size < x.size else np.conj(a.T @ np.conj(x))
    if adjoint:
        a = a.T
    if x.dtype.kind != "c":
        return a @ x
    b = x.shape[1] if x.ndim == 2 else 1
    pairs = np.ascontiguousarray(x).view(float).reshape(len(x), 2 * b)
    return (a @ pairs).view(complex).reshape(a.shape[:-1] + x.shape[1:])


def _gram_deviation(cols: np.ndarray) -> float:
    """max |Q*Q - I| over the entries; 0 for no columns."""
    if not cols.shape[1]:
        return 0.0
    gram = _mul(cols, cols, adjoint=True)
    return float(np.max(np.abs(gram - np.eye(cols.shape[1]))))


def _columns(fns, dim_m: int, ambient_deg: int) -> np.ndarray:
    """Flattened functions as the columns of a (m(N+1), len) matrix, in
    the field of their coefficients (``_field``)."""
    fns = tuple(fns)
    for f in fns:
        if f.dim_m != dim_m:
            raise DimensionMismatchError(
                f"function over C^{f.dim_m} among C^{dim_m} functions"
            )
    if not fns:
        return np.zeros((dim_m * (ambient_deg + 1), 0))
    return _field(np.column_stack([flatten(f, ambient_deg) for f in fns]))


def _residual(space: Subspace, cols: np.ndarray) -> np.ndarray:
    """(I - QQ*) cols: the part of each column orthogonal to the space.

    Both products go through ``_mul``, so Q is not copied.
    """
    q = space.matrix
    return cols - _mul(q, _mul(q, cols, adjoint=True))


def _check_band(band: int | None) -> None:
    if band is not None and band < 0:
        raise PreconditionError(f"band {band} is negative")


def _shift_rows(q: np.ndarray, dim_m: int, op: str) -> np.ndarray:
    """S or S* applied to every column of q, as a shift by one block of rows.

    S moves coefficients up one degree and drops the top one (the
    compressed shift), S* moves them down and zero-fills the top.
    """
    out = np.zeros(q.shape, dtype=q.dtype)
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

    ``Subspace(dim_m, ambient_deg, basis, tol)`` takes a caller's
    orthonormal basis of functions and checks it at tol.  ``band`` is the
    largest degree on which the construction faithfully represents its
    infinite-dimensional counterpart: ambient_deg for a caller's basis,
    which is exact, and for the other exact constructions; spaces built by
    this package (``_of``) may record a lower one.  ``matrix`` is
    float64 for an exactly real basis and complex128 otherwise (the
    module's field rule).  The per-instance ``_memo`` (a fat space's thin
    complement, a peeling step map) is a cache, not state: pickling drops
    it.
    """

    dim_m: int
    ambient_deg: int
    matrix: np.ndarray = field(repr=False)
    tol: float
    band: int

    def __init__(self, dim_m: int, ambient_deg: int, basis=(), tol: float = DEFAULT_TOL):
        self._assign(dim_m, ambient_deg, _columns(basis, dim_m, ambient_deg), tol, None)
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
            band: int | None = None) -> "Subspace":
        """Wrap a Q built by this package, unchecked."""
        s = cls.__new__(cls)
        s._assign(dim_m, ambient_deg, q, tol, band)
        return s

    def _assign(self, dim_m, ambient_deg, q, tol, band) -> None:
        if band is None:
            band = ambient_deg
        if not 0 <= band <= ambient_deg:
            raise PreconditionError(f"band {band} outside [0, {ambient_deg}]")
        q = np.ascontiguousarray(q, dtype=complex if np.iscomplexobj(q) else float)
        q.flags.writeable = False
        for name, value in (("dim_m", dim_m), ("ambient_deg", ambient_deg),
                            ("matrix", q), ("tol", tol), ("band", band),
                            ("_memo", {})):
            object.__setattr__(self, name, value)

    def __getstate__(self) -> tuple:
        return self.dim_m, self.ambient_deg, self.matrix, self.tol, self.band

    def __setstate__(self, state: tuple) -> None:
        self._assign(*state)

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

    def padded(self, ambient_deg: int) -> "Subspace":
        """Same span inside a larger ambient window."""
        if ambient_deg < self.ambient_deg:
            raise TruncationOverflowError(
                f"cannot shrink ambient degree {self.ambient_deg} to {ambient_deg}"
            )
        if ambient_deg == self.ambient_deg:
            return self
        q = np.zeros((self.dim_m * (ambient_deg + 1), self.dim), dtype=self.matrix.dtype)
        q[: self.ambient_dim] = self.matrix
        return Subspace._of(self.dim_m, ambient_deg, q, self.tol, self.band)


@dataclass(frozen=True)
class DefectCertificate:
    """Certified invariance statement for one operator and one subspace.

    ``defect_basis`` spans the minimal escape directions found (orthonormal,
    inside the orthocomplement); ``singular_values`` is the full residual
    spectrum so borderline ranks can be audited; ``max_residual`` is the
    operator norm of the escape remaining after the defect basis is
    included, ``singular_values[defect_dim]`` (0.0 when every direction
    is a defect).
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
    return _span_columns(_columns(fns, dim_m, ambient_deg), dim_m, ambient_deg, tol)


def _span_columns(cols: np.ndarray, dim_m: int, ambient_deg: int,
                  tol: float) -> Subspace:
    """``from_spanning`` on flattened columns: the SVD cut at tol * largest norm.

    Exactly real columns are spanned in real arithmetic (``_field``).
    """
    cols = _field(cols)
    scale = float(np.linalg.norm(cols, axis=0).max(initial=0.0))
    if scale == 0.0:
        return Subspace._of(dim_m, ambient_deg, cols[:, :0], tol)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return Subspace._of(dim_m, ambient_deg, u[:, :_rank(s, tol, scale)], tol)


def _isometry_defect(t: MatSymbol) -> float:
    """delta = sum over l of ||(Theta* Theta - I)^(l)||_2, for the stored Theta.

    The Fourier coefficient l >= 0 of Theta* Theta - I is
    sum_j Theta_j^H Theta_{j+l} - [l = 0] I; coefficient -l is its
    adjoint, of the same norm.  One Gram product of the coefficients side
    by side, m_out x (deg + 1) m_in, gives every Theta_i^H Theta_j as block
    (i, j), and coefficient l is the sum of block diagonal l: the block
    rows are sheared, row i moved i blocks left over zeros, and summed.
    Each 2-norm is the square root of the largest eigenvalue of the
    coefficient's Gram matrix.
    """
    d1, m = t.deg + 1, t.m_in
    side = t.mats.transpose(1, 0, 2).reshape(t.m_out, d1 * m)
    gram = _mul(side, side, adjoint=True).reshape(d1, m, d1, m).transpose(0, 2, 1, 3)
    # in rows of 2 d1 blocks, block (i, j) sits at flat block i (2 d1) + j;
    # read in rows of 2 d1 + 1, row i starts at flat block i (2 d1) + i, so
    # its block l is block (i, i + l), zero once i + l >= d1
    shear = np.zeros((d1 * (2 * d1 + 1), m, m), dtype=gram.dtype)
    shear[: 2 * d1 * d1].reshape(d1, 2 * d1, m, m)[:, :d1] = gram
    coef = shear.reshape(d1, 2 * d1 + 1, m, m)[:, :d1].sum(axis=0)
    coef[0] -= np.eye(m)
    top = np.linalg.eigvalsh(np.conj(coef.transpose(0, 2, 1)) @ coef)[:, -1]
    norms = np.sqrt(np.maximum(top, 0.0))
    return float(norms[0] + 2.0 * norms[1:].sum())


def _blocks(mats: np.ndarray):
    """The blocks of Theta's sparsity pattern, or None for a symbol of one.

    A block is a set of output rows and input columns linked by nonzero
    coefficients; the row-to-row links of the stored coefficients ``mats``
    are closed by boolean squaring, and each row is labelled by the first
    row of its block.  Returns per block, by first row, (rows, inputs) as
    lists, and last the output rows that no column touches, as a block
    without inputs.  A symbol of one block that touches every output row
    gives None.
    """
    link = mats.any(axis=0)
    m = link.shape[0]
    reach = link @ link.T
    # rows of one block are joined by a chain of at most m - 1 links
    for _ in range((m - 1).bit_length()):
        reach = reach @ reach
    label = np.where(reach.any(axis=1), reach.argmax(axis=1), m).tolist()
    if not any(label):
        return None
    owner = [label[r] for r in link.argmax(axis=0).tolist()]
    return [([r for r, b in enumerate(label) if b == head],
             [i for i, b in enumerate(owner) if b == head])
            for head in sorted(set(label))]


def _panel_qr(mats: np.ndarray, col_degs: np.ndarray, ambient_deg: int,
              headroom: int, width: int):
    """The panelled QR of one block's kept columns, in its own row order.

    ``mats`` holds the block's coefficients, m_b outputs by its inputs, up
    to its top column degree; row d m_b + l of the block is ambient degree
    d of its l-th output.  Returns (panels, k): k kept columns and one
    (c0, r1, q) per panel of ``width`` columns, q acting on rows
    c0 ... r1 - 1.
    """
    m = mats.shape[1]
    jj, ii = np.nonzero(np.arange(ambient_deg + 1)[:, None] + col_degs
                        <= ambient_deg - headroom)
    k = jj.size
    # column (j, i) holds Theta_d e_i at row (j + d) m + r: its start plus
    # offset d m + r < tall, the entry of row d m + r of the stacked
    # coefficients.  Column c starts at most m - 1 rows above row c.
    tall = mats.shape[0] * m
    starts = jj * m
    offsets = np.arange(tall)[:, None]
    stack = mats.reshape(tall, -1)
    reach = np.maximum.accumulate((jj + col_degs[ii] + 1) * m)
    panels = []
    carry = np.zeros((0, 0), dtype=stack.dtype)
    for c0 in range(0, k, width):
        c1 = min(c0 + width, k)
        # rows c0 ... r1 - 1 hold every nonzero of the panel below row c0,
        # fill-in from earlier panels included (reach is a running maximum)
        r1 = int(reach[c1 - 1])
        # the later columns that start above r1; the rest are still zero there
        c2 = int(np.searchsorted(starts, r1))
        # each column is filled whole into the window plus m rows above it
        # and tall rows below: its entries above c0 (final R) and from r1
        # on (later windows) land in those margins, so no index wraps
        buf = np.zeros((m + r1 - c0 + tall, c2 - c0), dtype=stack.dtype)
        buf[starts[c0:c2] - (c0 - m) + offsets, np.arange(c2 - c0)] = stack[:, ii[c0:c2]]
        window = buf[m : m + r1 - c0]
        window[: carry.shape[0], : carry.shape[1]] = carry
        q, _ = np.linalg.qr(window[:, : c1 - c0], mode="complete")
        # rows c0 ... c1 - 1 of the update are final R; the rest carry over
        carry = (np.conj(q.T) @ window[:, c1 - c0:])[c1 - c0:]
        panels.append((c0, r1, q))
    return panels, k


def _range_qr(t: MatSymbol, ambient_deg: int, headroom: int, tol: float):
    """Panelled Householder QR of the kept columns of T_Theta, one block at a time.

    The input monomial z^j e_i is kept when j + (degree of column i) <=
    ambient_deg - headroom, so every kept column z^j Theta e_i is an exact
    product, nonzero only on degrees j ... j + deg_i: the kept-column
    matrix C is block lower-banded.  For every x in the span of the kept
    inputs, ||C x||^2 - ||x||^2 = <(Theta* Theta - I) x, x>, so every singular
    value of C squared lies in [1 - delta, 1 + delta]
    (``_isometry_defect``).  When 1 - delta > tol^2 (1 + delta) a cut at
    tol * s_0 keeps every column, so C has full rank and its QR spans the
    range; otherwise the symbol is refused.

    No kept column reaches outside its block of Theta's sparsity pattern
    (``_blocks``), so C splits into one kept-column matrix per block, and
    each is factored on its own (``_panel_qr``): its ambient rows and kept
    columns degree-major inside the block, banded with height
    m_b (deg_b + 1).  The band is one block's, not m_out (deg + 1); every
    block shares one panel width, max(_PANEL_MIN, the largest band).  The
    output rows that no column touches form a last block with no columns:
    they lie wholly in the model space.  A symbol of one block that
    touches every output row is factored whole, in the ambient row order,
    and so is any symbol whose band in that order, m_out (deg + 1), is at
    most _PANEL_MIN or at least k: one panel of width max(_PANEL_MIN,
    band) then has a window at most twice as tall as its width, or takes
    every kept column, and splitting it by block adds panels, each a QR
    call, for little arithmetic.

    C is never formed.  Panel c0 ... c1 - 1 works on one window, rows
    c0 ... r1 - 1 by columns c0 ... c2 - 1 (c2 the first later column that
    starts at or below row r1), filled straight from Theta's coefficients.
    Over its top left lies the carry of the previous panel: the rows from
    c0 down of the columns that panel updated, with every earlier Q*
    applied.  The rows above c0 are final R and are dropped, also from the
    fill of a column that starts above c0 (possible when the panel width is
    not a multiple of m_b).  The panel is factored on its own columns, and
    its Q* applied to the rest of the window gives the next carry.  Memory
    grows with n times the largest band height, not with n x k.

    The field is the symbol's, read from ``t.mats`` as stored: for a real
    symbol the stack, every window, the carry and each panel's q are
    float64, else complex128.  A real symbol thus gets the real
    Householder QR of the same C, which spans the same range.

    Returns (parts, n, k, band), one part (rows, panels, k_b) per block:
    the block's Q_b = H_1 ... H_P acts on the ambient rows ``rows`` (a
    slice for the whole ambient or a block of one output, else an index
    array), with panel (c0, r1, q) acting as the unitary q on the block's
    rows c0 ... r1 - 1; Q_b[:, :k_b] spans the block's part of the range
    and Q_b[:, k_b:] its complement there.
    """
    if not t.claimed_inner:
        raise NotInnerError("refusing to build a Beurling-type range from a non-isometry")
    if headroom < 0:
        raise PreconditionError(f"headroom {headroom} is negative")
    if ambient_deg < t.deg:
        raise TruncationOverflowError(
            f"ambient degree {ambient_deg} below symbol degree {t.deg}"
        )
    delta = _isometry_defect(t)
    if not 1.0 - delta > tol ** 2 * (1.0 + delta):
        raise NotInnerError(
            f"claimed-inner symbol fails the rank certificate: delta = sum of "
            f"||(Theta* Theta - I)^(l)|| = {delta:.3g} and 1 - delta <= "
            f"tol^2 (1 + delta) at tol {tol:.3g}, so its kept columns may lose rank"
        )
    m, n = t.m_out, t.m_out * (ambient_deg + 1)
    col_degs = t.column_degrees()
    top_deg = int(col_degs.max())
    band = max(0, ambient_deg - headroom - top_deg)
    mats = t.mats[: top_deg + 1]
    # the ambient order stays where its band is no wider than a minimal
    # panel, or one panel takes every kept column: there the blocks would
    # add panels (a QR each) and save little arithmetic
    tall = m * (top_deg + 1)
    whole = tall <= _PANEL_MIN or sum(
        max(0, ambient_deg - headroom - d + 1) for d in col_degs.tolist()) <= tall
    blocks = None if whole else _blocks(mats)
    if blocks is None:
        panels, k = _panel_qr(mats, col_degs, ambient_deg, headroom, max(_PANEL_MIN, tall))
        return [(slice(0, n, 1), panels, k)], n, k, band
    tops = [int(col_degs[ins].max()) if ins else -1 for _, ins in blocks]
    width = max(_PANEL_MIN, max(len(rows) * (d + 1) for (rows, _), d in zip(blocks, tops)))
    degree = np.arange(ambient_deg + 1)[:, None] * m
    parts = []
    for (rows, ins), d in zip(blocks, tops):
        # the untouched rows keep no column: their Q_b is the identity
        panels, k_b = _panel_qr(mats[: d + 1, rows][:, :, ins], col_degs[ins],
                                ambient_deg, headroom, width) if ins else ([], 0)
        # the ambient rows of a one-output block are every m-th: a slice
        parts.append((slice(rows[0], n, m) if len(rows) == 1 else (degree + rows).ravel(),
                      panels, k_b))
    return parts, n, sum(k_b for *_, k_b in parts), band


def _unit_columns(panels, y: np.ndarray, a: int) -> np.ndarray:
    """Columns a, a + 1, ... of one block's Q_b, written over the zeros y.

    The panels are applied in reverse to the unit vectors at rows a, a + 1,
    ..., in place.
    """
    np.fill_diagonal(y[a:], 1.0)
    for c0, r1, q in reversed(panels):
        # columns that start above the panel's first row stay as they are
        s = max(c0 - a, 0)
        y[c0:r1, s:] = q @ y[c0:r1, s:]
    return y


def _q_columns(parts, n: int, complement: bool = False) -> np.ndarray:
    """Q's range columns, or with ``complement`` its complement columns,
    in ambient row order.

    The range columns are the blocks' range columns, block after block,
    and the complement columns their complement columns in the same order.
    A block's columns are its panels applied in reverse to unit vectors in
    its own row order.  A block whose rows are a slice (the whole ambient,
    or one output) works in a view of the result; a block of several
    outputs is built apart and scattered to its rows, so only its share of
    the columns is held twice.  The result is in the panels' field, the
    symbol's (float64 when there are none: unit vectors are real).
    """
    k = sum(k_b for *_, k_b in parts)
    qs = [panels[0][2] for _, panels, _ in parts if panels]
    x = np.zeros((n, n - k if complement else k), dtype=qs[0].dtype if qs else float)
    if len(parts) == 1:
        # the whole ambient as one block: its columns are Q's
        return _unit_columns(parts[0][1], x, k if complement else 0)
    at = 0
    for rows, panels, k_b in parts:
        n_b = n // rows.step if isinstance(rows, slice) else rows.size
        # the block's columns a ... e - 1 are columns at ... at + e - a - 1 of x
        a, e = (k_b, n_b) if complement else (0, k_b)
        if isinstance(rows, slice):
            _unit_columns(panels, x[rows, at : at + e - a], a)
        else:
            x[rows, at : at + e - a] = _unit_columns(
                panels, np.zeros((n_b, e - a), dtype=x.dtype), a)
        at += e - a
    return x


def beurling_space(t: MatSymbol, ambient_deg: int, headroom: int = 0,
                   tol: float = DEFAULT_TOL) -> Subspace:
    """Range of an inner multiplier on the truncated ambient.

    Only truncation-free products enter: the input monomial z^j e_i is kept
    when j + (degree of column i) <= ambient_deg - headroom, so every basis
    vector is an exact product.  The basis is Q[:, :k] of one banded QR of
    the k kept columns (see ``_range_qr``); a claimed-inner symbol whose
    kept columns are not certified to have full rank is refused with
    ``NotInnerError``.  The recorded band is where the truncated range
    agrees with the untruncated one.  When the complement Q[:, k:] has no
    more columns than the range, the range keeps it (see ``complement``).
    """
    parts, n, k, band = _range_qr(t, ambient_deg, headroom, tol)
    rng = Subspace._of(t.m_out, ambient_deg, _q_columns(parts, n), tol, band)
    if n - k <= k:
        rng._memo["complement"] = Subspace._of(
            t.m_out, ambient_deg, _q_columns(parts, n, complement=True), tol, band)
    return rng


def model_space(t: MatSymbol, ambient_deg: int, headroom: int = 0,
                tol: float = DEFAULT_TOL) -> Subspace:
    """Orthocomplement of the Beurling range inside the truncated ambient.

    It is Q[:, k:] of the same banded QR that gives ``beurling_space``.
    The truncated complement over-approximates the model space in the top
    degree band; compare within degrees <= the recorded band.
    """
    parts, n, k, band = _range_qr(t, ambient_deg, headroom, tol)
    return Subspace._of(t.m_out, ambient_deg, _q_columns(parts, n, complement=True), tol, band)


def complement(a: Subspace) -> Subspace:
    """Orthocomplement in the flattened ambient; dims add up exactly.

    The fatter side (at least as many columns) keeps the thinner one: a
    kept complement is returned as it is, a computed one is stored on
    whichever of a and the result is fatter.  So complement(complement(a))
    is a for a thin a, and a thin complement is recomputed on every call.
    """
    c = a._memo.get("complement")
    if c is not None:
        return c
    if a.dim == 0:
        q = np.eye(a.ambient_dim, dtype=a.matrix.dtype)
    else:
        u, _, _ = np.linalg.svd(a.matrix, full_matrices=True)
        q = u[:, a.dim:]
    c = Subspace._of(a.dim_m, a.ambient_deg, q, a.tol, a.band)
    fat, thin = (a, c) if a.dim >= c.dim else (c, a)
    fat._memo["complement"] = thin
    return c


def project(a: Subspace, f: CoeffFn) -> CoeffFn:
    """Orthogonal projection P_A F."""
    if f.dim_m != a.dim_m:
        raise DimensionMismatchError(f"function over C^{f.dim_m}, subspace over C^{a.dim_m}")
    if a.dim == 0:
        return zero_fn(a.dim_m)
    q = a.matrix
    vec = flatten(f, a.ambient_deg)
    return unflatten(_mul(q, _mul(q, vec, adjoint=True)), a.dim_m)


def subspace_distance(a: Subspace, b: Subspace, band: int | None = None) -> float:
    """Operator norm of P_A - P_B in [0, 1]; 0 iff equal spans at tol.

    With ``band``, the difference is compressed to degrees <= band before
    taking the norm (the faithful-truncation comparison).  No n x n matrix
    is formed: with X = [Q_A | Q_B] (rows up to the band) and
    J = diag(I, -I), P_A - P_B = X J X*, whose nonzero eigenvalues are
    those of R J R* for X = QR.
    """
    if a.dim_m != b.dim_m:
        raise DimensionMismatchError(
            f"subspaces over C^{a.dim_m} and C^{b.dim_m}"
        )
    _check_band(band)
    rows = a.dim_m * (max(a.ambient_deg, b.ambient_deg) + 1)
    if band is not None:
        rows = min(rows, a.dim_m * (band + 1))
    qa, qb = a.matrix[:rows], b.matrix[:rows]
    x = np.zeros((rows, a.dim + b.dim), dtype=np.result_type(qa, qb))
    x[: len(qa), : a.dim] = qa
    x[: len(qb), a.dim :] = qb
    if x.size == 0:
        return 0.0
    # X and R are freed once used: held on, they raise the call's peak
    r = np.linalg.qr(x, mode="r")
    del x
    gram = (r * np.repeat([1.0, -1.0], [a.dim, b.dim])) @ np.conj(r.T)
    del r
    return float(np.max(np.abs(np.linalg.eigvalsh(gram))))


def _split_combos(mat: np.ndarray, k: int, tol: float) -> tuple:
    """Orthonormal column combinations (row space, null space) of mat.

    One SVD; the rank is decided at tol * max(1, top singular value).
    """
    if k == 0:
        return np.zeros((0, 0), dtype=mat.dtype), np.zeros((0, 0), dtype=mat.dtype)
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
    s = Subspace._of(m.dim_m, m.ambient_deg, q, m.tol, min(m.band, max_deg))
    s.__post_init__()
    return s


def wandering(m: Subspace) -> Subspace:
    """W = M minus (M cap zH^2): the part of M visible at the origin.

    dim W is at most the ambient vector dimension; its basis is the column
    data for reconstructing M from its parameter space.  It is computed on
    every call; ``nearly``'s step map keeps the W it peels with.
    """
    row, _ = _split_combos(m.matrix[: m.dim_m], m.dim, m.tol)
    w = Subspace._of(m.dim_m, m.ambient_deg, m.matrix @ row, m.tol, m.band)
    if w.dim > m.dim_m:
        raise InvariantViolationError(
            f"wandering dimension {w.dim} exceeds ambient vector dimension {m.dim_m}"
        )
    return w


def defect_of(m: Subspace, op: str, *, domain: Subspace | None = None,
              tol: float | None = None, band: int | None = None) -> DefectCertificate:
    """Minimal escape space of op applied to (a slice of) M.

    Applies op to every basis vector of ``domain`` (default: M itself),
    projects onto the orthocomplement of M, and reads the defect off the
    singular spectrum of the residual family (absolute cut at tol).  For
    op = 'S' the domain must leave one degree of headroom: its top block
    of rows must vanish; there is no silent truncation.  ``band`` zeroes
    residual components above the faithful band before rank decisions
    (truncation shadow of exact containments).  The certificate's mode is
    'almost' (``certify_nearly`` restamps its own 'nearly').

    Without ``band``, when M keeps its thin complement P (see
    ``complement``), the residual (I - QQ*) X of the images X is P (P* X):
    the SVD runs on the (n - dim M) x b matrix P* X, its left vectors map
    back through P, and the spectrum is padded with exact zeros to length
    min(n, b).  ``max_residual`` is the operator norm of the residual left
    after the defect directions, the first singular value below the cut
    (0.0 when every direction is a defect).
    """
    _check_band(band)
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
    # the shift refuses an unknown tag, so an empty domain certifies none
    cols = _shift_rows(dq, m.dim_m, op)
    if domain.dim == 0:
        return DefectCertificate(op, "almost", 0, (), (), 0.0)
    perp = m._memo.get("complement") if band is None else None
    if perp is not None:
        resid = _mul(perp.matrix, cols, adjoint=True)
    else:
        resid = _residual(m, cols)
        if band is not None:
            resid[m.dim_m * (band + 1):, :] = 0.0
    u, s, _ = np.linalg.svd(resid, full_matrices=False)
    defect_dim = _rank(s, tol, 1.0)
    ud = u[:, :defect_dim]
    if perp is not None:
        ud = _mul(perp.matrix, ud)
        s = np.concatenate([s, np.zeros(min(cols.shape) - s.size)])
    max_residual = float(s[defect_dim]) if defect_dim < s.size else 0.0
    return DefectCertificate(op, "almost", defect_dim,
                             tuple(unflatten(c, m.dim_m) for c in ud.T),
                             tuple(float(x) for x in s), max_residual)
