"""Truncated vector-valued analytic functions on the disc: the boundary type.

A :class:`CoeffFn` stores the Taylor coefficients A_0 ... A_N of a
C^m-valued function F(z) = sum_n A_n z^n.  The squared norm is the
coefficient Parseval sum ``sum_n ||A_n||^2``.  Values are immutable and
safe to share.

``CoeffFn`` is what callers pass in and get back (JSON functions, defect
lists, decomposition coordinates); the arithmetic here builds such
inputs.  Inside the package the work runs on coefficient matrices: a
function is a column of ``flatten``, and a symbol acts on such columns
through ``multipliers.multiply``.

Degree bookkeeping is deliberate: operations never silently truncate.
Embedding into a fixed ambient degree (``flatten``) refuses to drop a
nonzero coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, TruncationOverflowError

__all__ = [
    "CoeffFn",
    "make_fn",
    "zero_fn",
    "basis_vector",
    "monomial_fn",
    "flatten",
    "unflatten",
]


@dataclass(frozen=True)
class CoeffFn:
    """A truncated C^m-valued analytic function, coefficient-major.

    Attributes
    ----------
    dim_m : int
        Ambient vector dimension m.
    coeffs : np.ndarray
        Complex array of shape (deg + 1, dim_m); row n is A_n.
    """

    dim_m: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DimensionMismatchError(
                f"coefficients must be a nonempty (deg+1, m) array, got shape {arr.shape}"
            )
        if self.dim_m < 1 or arr.shape[1] != self.dim_m:
            raise DimensionMismatchError(
                f"coefficient vectors have length {arr.shape[1]}, expected dim_m={self.dim_m}"
            )
        arr = arr.copy(order="C")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def _of(cls, dim_m: int, coeffs: np.ndarray) -> "CoeffFn":
        """Wrap a finite (deg + 1, dim_m) array the package computed, unchecked.

        The contract holds as in the checked constructor: the coefficients
        are a fresh complex C-ordered copy, made read-only, so no caller
        keeps a writable alias of them.
        """
        arr = np.array(coeffs, dtype=complex, order="C")
        arr.flags.writeable = False
        f = cls.__new__(cls)
        object.__setattr__(f, "dim_m", dim_m)
        object.__setattr__(f, "coeffs", arr)
        return f

    @property
    def deg(self) -> int:
        return self.coeffs.shape[0] - 1

    def value_at_zero(self) -> np.ndarray:
        return self.coeffs[0].copy()

    def trimmed_deg(self) -> int:
        """Largest index with a nonzero coefficient row (0 for the zero fn)."""
        nz = np.flatnonzero(np.any(self.coeffs != 0, axis=1))
        return int(nz[-1]) if nz.size else 0

    def padded(self, deg: int) -> np.ndarray:
        """Coefficient array zero-padded/losslessly cut to (deg+1, m) rows."""
        if deg >= self.deg:
            out = np.zeros((deg + 1, self.dim_m), dtype=complex)
            out[: self.deg + 1] = self.coeffs
            return out
        if np.any(self.coeffs[deg + 1 :] != 0):
            raise TruncationOverflowError(
                f"degree {self.trimmed_deg()} exceeds ambient degree {deg}"
            )
        return self.coeffs[: deg + 1].copy()

    # pointwise linear structure (aligned by zero-padding)
    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        _check_same_dim(self, other)
        deg = max(self.deg, other.deg)
        return CoeffFn(self.dim_m, self.padded(deg) + other.padded(deg))

    def __sub__(self, other: "CoeffFn") -> "CoeffFn":
        _check_same_dim(self, other)
        deg = max(self.deg, other.deg)
        return CoeffFn(self.dim_m, self.padded(deg) - other.padded(deg))

    def __mul__(self, scalar: complex) -> "CoeffFn":
        return CoeffFn(self.dim_m, self.coeffs * complex(scalar))

    __rmul__ = __mul__


def _check_same_dim(f: CoeffFn, g: CoeffFn) -> None:
    if f.dim_m != g.dim_m:
        raise DimensionMismatchError(
            f"functions live over C^{f.dim_m} and C^{g.dim_m}"
        )


def make_fn(dim_m: int, coeffs) -> CoeffFn:
    """Build a CoeffFn from a nonempty list of length-m coefficient vectors.

    No normalization is performed; deg = len(coeffs) - 1 as given.
    """
    rows = [np.asarray(row, dtype=complex).reshape(-1) for row in coeffs]
    if not rows:
        raise DimensionMismatchError("coefficient list must be nonempty")
    for i, row in enumerate(rows):
        if row.shape[0] != dim_m:
            raise DimensionMismatchError(
                f"coefficient {i} has length {row.shape[0]}, expected {dim_m}"
            )
    return CoeffFn(dim_m, np.vstack(rows))


def zero_fn(dim_m: int) -> CoeffFn:
    """Canonical zero function: degree 0, single zero vector."""
    return CoeffFn(dim_m, np.zeros((1, dim_m), dtype=complex))


def basis_vector(dim_m: int, i: int) -> CoeffFn:
    """The constant function e_i (0-indexed)."""
    row = np.zeros((1, dim_m), dtype=complex)
    row[0, i] = 1.0
    return CoeffFn(dim_m, row)


def monomial_fn(dim_m: int, i: int, k: int) -> CoeffFn:
    """The function z^k e_i (0-indexed component)."""
    arr = np.zeros((k + 1, dim_m), dtype=complex)
    arr[k, i] = 1.0
    return CoeffFn(dim_m, arr)


def flatten(f: CoeffFn, ambient_deg: int) -> np.ndarray:
    """Embed into C^{m(N+1)}: degree-major blocks of m components.

    Exact-zero rows beyond the ambient degree are dropped losslessly;
    a nonzero row beyond it raises TruncationOverflowError.
    """
    return f.padded(ambient_deg).reshape(-1)


def unflatten(vec: np.ndarray, dim_m: int) -> CoeffFn:
    """Inverse of flatten for a length m(N+1) vector."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.size == 0 or vec.size % dim_m != 0:
        raise DimensionMismatchError(
            f"flattened length {vec.size} is not a positive multiple of {dim_m}"
        )
    return CoeffFn(dim_m, vec.reshape(-1, dim_m))
