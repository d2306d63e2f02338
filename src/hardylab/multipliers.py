"""Matrix-valued analytic multipliers and their truncated realizations.

A :class:`MatSymbol` stores Taylor coefficients Theta_0 ... Theta_d of an
operator-valued symbol together with a certified bound on the discarded
tail and an innerness claim.  Application is the exact Cauchy product;
the adjoint is computed coefficient-wise (correlation), so the adjoint
identity <T F, G> = <F, T* G> holds exactly for polynomial data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .funcs import CoeffFn

__all__ = [
    "MatSymbol",
    "scalar_symbol",
    "column_symbol",
    "identity_symbol",
    "symbol_column",
    "compose",
    "apply_multiplier",
    "adjoint_apply",
    "toeplitz_matrix",
]


@dataclass(frozen=True)
class MatSymbol:
    """Truncated operator-valued analytic symbol.

    Attributes
    ----------
    m_out, m_in : int
        Row and column dimension of each coefficient matrix.
    mats : np.ndarray
        Complex array of shape (deg + 1, m_out, m_in).
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
        arr = np.asarray(self.mats, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] < 1:
            raise DimensionMismatchError(
                f"symbol coefficients must be (deg+1, m_out, m_in), got {arr.shape}"
            )
        if arr.shape[1] != self.m_out or arr.shape[2] != self.m_in:
            raise DimensionMismatchError(
                f"coefficient blocks are {arr.shape[1]}x{arr.shape[2]}, "
                f"expected {self.m_out}x{self.m_in}"
            )
        arr = arr.copy(order="C")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("symbol coefficients must be finite")
        if self.tail_bound < 0:
            raise ValueError("tail_bound must be non-negative")
        arr.flags.writeable = False
        object.__setattr__(self, "mats", arr)

    @property
    def deg(self) -> int:
        return self.mats.shape[0] - 1

    def column_degree(self, j: int) -> int:
        """Largest coefficient index where column j is nonzero."""
        nz = np.flatnonzero(np.any(self.mats[:, :, j] != 0, axis=1))
        return int(nz[-1]) if nz.size else 0

    def eval_on_circle(self, grid_points: int) -> np.ndarray:
        """Symbol values at the grid_points-th roots of unity, shape (g, m_out, m_in)."""
        theta = 2.0 * np.pi * np.arange(grid_points) / grid_points
        powers = np.exp(1j * np.outer(theta, np.arange(self.deg + 1)))
        return np.tensordot(powers, self.mats, axes=(1, 0))


def scalar_symbol(coeffs, tail_bound: float = 0.0, claimed_inner: bool = False) -> MatSymbol:
    """1x1 symbol from a list of scalar Taylor coefficients."""
    arr = np.asarray(coeffs, dtype=complex).reshape(-1, 1, 1)
    return MatSymbol(1, 1, arr, tail_bound, claimed_inner)


def column_symbol(f: CoeffFn) -> MatSymbol:
    """View an m-vector function as an m x 1 multiplier symbol."""
    return MatSymbol(f.dim_m, 1, f.coeffs.reshape(-1, f.dim_m, 1))


def identity_symbol(m: int) -> MatSymbol:
    return MatSymbol(m, m, np.eye(m, dtype=complex).reshape(1, m, m), 0.0, True)


def symbol_column(t: MatSymbol, j: int) -> CoeffFn:
    """Column j of the symbol as a CoeffFn (the function Theta e_j)."""
    return CoeffFn(t.m_out, t.mats[:, :, j])


def compose(a: MatSymbol, b: MatSymbol, out_deg: int | None = None) -> MatSymbol:
    """Symbol product (AB)(z) = A(z)B(z) by block Cauchy product.

    Tail bounds combine pessimistically; truncating below the full product
    degree folds the dropped blocks into the tail bound.
    """
    if a.m_in != b.m_out:
        raise DimensionMismatchError(
            f"cannot compose {a.m_out}x{a.m_in} with {b.m_out}x{b.m_in}"
        )
    full = a.deg + b.deg
    if out_deg is None:
        out_deg = full
    out = np.zeros((full + 1, a.m_out, b.m_in), dtype=complex)
    for j in range(a.deg + 1):
        out[j : j + b.deg + 1] += np.einsum("oi,dij->doj", a.mats[j], b.mats)
    # sup norms: ||A|| <= 1 + tail for claimed inner, else coefficient l1 bound
    sup_a = _sup_bound(a)
    sup_b = _sup_bound(b)
    tail = a.tail_bound * sup_b + b.tail_bound * sup_a + a.tail_bound * b.tail_bound
    if out_deg < full:
        dropped = out[out_deg + 1 :]
        tail += float(sum(np.linalg.norm(blk, 2) for blk in dropped))
        out = out[: out_deg + 1]
    return MatSymbol(
        a.m_out, b.m_in, out, tail, a.claimed_inner and b.claimed_inner
    )


def _sup_bound(t: MatSymbol) -> float:
    if t.claimed_inner:
        return 1.0 + t.tail_bound
    return float(sum(np.linalg.norm(blk, 2) for blk in t.mats)) + t.tail_bound


def apply_multiplier(t: MatSymbol, f: CoeffFn, out_deg: int | None = None) -> CoeffFn:
    """Cauchy product C_n = sum_{j+k=n} Theta_j A_k up to out_deg.

    Default out_deg is the full product degree; anything smaller is an
    explicit truncation request.
    """
    if t.m_in != f.dim_m:
        raise DimensionMismatchError(
            f"symbol expects C^{t.m_in} input, function lives in C^{f.dim_m}"
        )
    full = t.deg + f.deg
    if out_deg is None:
        out_deg = full
    out = np.zeros((max(out_deg, full) + 1, t.m_out), dtype=complex)
    for j in range(t.deg + 1):
        out[j : j + f.deg + 1] += f.coeffs @ t.mats[j].T
    return CoeffFn(t.m_out, out[: out_deg + 1])


def adjoint_apply(t: MatSymbol, g: CoeffFn) -> CoeffFn:
    """Analytic part of Theta(z)* G: coefficient n is sum_j Theta_j^H B_{n+j}."""
    if t.m_out != g.dim_m:
        raise DimensionMismatchError(
            f"adjoint expects C^{t.m_out} input, function lives in C^{g.dim_m}"
        )
    out = np.zeros((g.deg + 1, t.m_in), dtype=complex)
    for j in range(min(t.deg, g.deg) + 1):
        out[: g.deg + 1 - j] += g.coeffs[j:] @ np.conj(t.mats[j])
    return CoeffFn(t.m_in, out)


def toeplitz_matrix(t: MatSymbol, ambient_deg: int) -> np.ndarray:
    """Block lower-triangular Toeplitz realization on the flattened ambient.

    Block (i, j) is Theta_{i-j} for i >= j.  Acting on a flattened input of
    degree <= ambient_deg equals apply_multiplier followed by truncation.
    """
    n = ambient_deg + 1
    out = np.zeros((t.m_out * n, t.m_in * n), dtype=complex)
    for d in range(min(t.deg, ambient_deg) + 1):
        blk = t.mats[d]
        for j in range(n - d):
            i = j + d
            out[i * t.m_out : (i + 1) * t.m_out, j * t.m_in : (j + 1) * t.m_in] = blk
    return out
