"""Matrix-valued analytic multipliers and the one kernel that applies them.

A :class:`MatSymbol` stores Taylor coefficients Theta_0 ... Theta_d of an
operator-valued symbol together with a certified bound on the discarded
tail and an innerness claim.

Every action of a symbol on coefficients goes through one pair of
functions on coefficient arrays of shape (deg + 1, m, b), b columns at
once: ``multiply`` is the banded block Cauchy product T_Theta X, and
``multiply_adjoint`` the analytic part of Theta* Y.  Such an array is a
reshaped ``Subspace.matrix``, a ``CoeffFn.coeffs[..., None]`` or another
symbol's ``mats``.  Both are exact for polynomial data, so the adjoint
identity <T X, Y> = <X, T* Y> holds up to rounding, and no Toeplitz
matrix is ever formed.  Each coefficient acts as one broadcast matrix
product over the degrees of its operand, a BLAS call per coefficient.

A symbol's field is decided once, when it is built: ``mats`` is float64
when every imaginary part is exactly zero (no tolerance: ``_field``),
complex128 otherwise.  Both functions work in the field of their
operands, so a real symbol on real columns never touches complex
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, TruncationOverflowError

__all__ = [
    "MatSymbol",
    "scalar_symbol",
    "compose",
    "multiply",
    "multiply_adjoint",
]


@dataclass(frozen=True)
class MatSymbol:
    """Truncated operator-valued analytic symbol.

    Attributes
    ----------
    m_out, m_in : int
        Row and column dimension of each coefficient matrix.
    mats : np.ndarray
        Read-only array of shape (deg + 1, m_out, m_in) in the field of
        the coefficients: float64 when they are exactly real, else
        complex128.
    tail_bound : float
        Certified bound on the sup-norm of the discarded tail
        (0 for exactly polynomial symbols).
    claimed_inner : bool
        Whether the untruncated symbol is an isometry a.e. on the circle.
    """

    m_out: int
    m_in: int
    mats: np.ndarray = field(repr=False)
    tail_bound: float = 0.0
    claimed_inner: bool = False

    def __post_init__(self):
        arr = np.array(self.mats, dtype=complex, order="C")
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise DimensionMismatchError(
                f"symbol coefficients must be (deg+1, m_out, m_in), got {arr.shape}"
            )
        if arr.shape[1] != self.m_out or arr.shape[2] != self.m_in:
            raise DimensionMismatchError(
                f"coefficient blocks are {arr.shape[1]}x{arr.shape[2]}, "
                f"expected {self.m_out}x{self.m_in}"
            )
        arr = _field(arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("symbol coefficients must be finite")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "mats", arr)

    @property
    def deg(self) -> int:
        return self.mats.shape[0] - 1

    def column_degrees(self) -> np.ndarray:
        """Largest coefficient index where each column is nonzero (0 if none)."""
        nz = np.any(self.mats != 0, axis=1)[::-1]
        return np.where(nz.any(axis=0), self.deg - nz.argmax(axis=0), 0)


def _field(x: np.ndarray) -> np.ndarray:
    """x in the field of its data: float64 when no entry has a nonzero
    imaginary part (an exact test, no tolerance), else as it is."""
    if np.iscomplexobj(x) and not x.imag.any():
        return np.ascontiguousarray(x.real)
    return x


def scalar_symbol(coeffs, tail_bound: float = 0.0, claimed_inner: bool = False) -> MatSymbol:
    """1x1 symbol from a list of scalar Taylor coefficients."""
    arr = np.asarray(coeffs, dtype=complex).reshape(-1, 1, 1)
    return MatSymbol(1, 1, arr, tail_bound, claimed_inner)


def _check_input(t: MatSymbol, x: np.ndarray, m: int, label: str) -> np.ndarray:
    """x checked for shape, in the field of the product with t's coefficients."""
    x = np.asarray(x)
    if x.ndim != 3 or x.shape[0] < 1 or x.shape[1] != m:
        raise DimensionMismatchError(
            f"{label} expects coefficients of shape (deg+1, {m}, b), got {x.shape}"
        )
    return x.astype(np.result_type(t.mats, x), copy=False)


def multiply(t: MatSymbol, x: np.ndarray, out_deg: int | None = None) -> np.ndarray:
    """T_Theta X: coefficient n is sum_{j+k=n} Theta_j X_k, for b columns at once.

    x has shape (d+1, m_in, b); the result has shape (out_deg+1, m_out, b),
    by default the full product degree t.deg + d.  A larger out_deg pads
    with exact zeros; a smaller one must only cut exact zeros, and a
    nonzero coefficient above it raises TruncationOverflowError.
    """
    x = _check_input(t, x, t.m_in, "symbol")
    if out_deg is not None and out_deg < 0:
        raise DimensionMismatchError(f"output degree {out_deg} is negative")
    d = x.shape[0] - 1
    full = t.deg + d
    rows = full if out_deg is None else max(out_deg, full)
    out = np.zeros((rows + 1, t.m_out, x.shape[2]), dtype=x.dtype)
    for j in range(t.deg + 1):
        out[j : j + d + 1] += t.mats[j] @ x
    if out_deg is not None and out_deg < full:
        if np.any(out[out_deg + 1:] != 0):
            raise TruncationOverflowError(
                f"product has a nonzero coefficient above degree {out_deg}"
            )
        out = out[: out_deg + 1]
    return out


def multiply_adjoint(t: MatSymbol, y: np.ndarray) -> np.ndarray:
    """Analytic part of Theta* Y: coefficient n is sum_j Theta_j^H Y_{n+j}.

    y has shape (d+1, m_out, b); the result has shape (d+1, m_in, b).
    """
    y = _check_input(t, y, t.m_out, "adjoint")
    d = y.shape[0] - 1
    out = np.zeros((d + 1, t.m_in, y.shape[2]), dtype=y.dtype)
    for j in range(min(t.deg, d) + 1):
        out[: d + 1 - j] += np.conj(t.mats[j].T) @ y[j:]
    return out


def compose(a: MatSymbol, b: MatSymbol) -> MatSymbol:
    """Symbol product (AB)(z) = A(z)B(z): the kernel applied to B's blocks.

    Tail bounds combine pessimistically.
    """
    if a.m_in != b.m_out:
        raise DimensionMismatchError(
            f"cannot compose {a.m_out}x{a.m_in} with {b.m_out}x{b.m_in}"
        )
    # sup norms: ||A|| <= 1 + tail for claimed inner, else coefficient l1 bound
    sup_a = _sup_bound(a)
    sup_b = _sup_bound(b)
    tail = a.tail_bound * sup_b + b.tail_bound * sup_a + a.tail_bound * b.tail_bound
    return MatSymbol(
        a.m_out, b.m_in, multiply(a, b.mats), tail, a.claimed_inner and b.claimed_inner
    )


def _sup_bound(t: MatSymbol) -> float:
    if t.claimed_inner:
        return 1.0 + t.tail_bound
    return float(sum(np.linalg.norm(blk, 2) for blk in t.mats)) + t.tail_bound
