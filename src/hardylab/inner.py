"""Inner functions: Blaschke products, monomials, diagonal assemblies.

Truncated Blaschke symbols carry a certified tail bound so downstream
isometry claims degrade explicitly: the coefficients stored up to the
truncation degree are exact (float arithmetic aside), and the l1 norm of
everything discarded is bounded by a dominating geometric series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DomainError, NotInnerError
from .multipliers import MatSymbol, scalar_symbol

__all__ = [
    "BlaschkeSpec",
    "blaschke_scalar",
    "monomial_inner",
    "diag_inner",
]


@dataclass(frozen=True)
class BlaschkeSpec:
    """Finite Blaschke product data: zeros inside the disc, unimodular rotation."""

    zeros: tuple = ()
    rotation: complex = 1.0 + 0j

    def __post_init__(self):
        zs = tuple(complex(a) for a in self.zeros)
        for a in zs:
            if abs(a) >= 1.0:
                raise DomainError(f"Blaschke zero |{a}| >= 1 is outside the open disc")
        rot = complex(self.rotation)
        if abs(abs(rot) - 1.0) > 1e-12:
            raise DomainError(f"rotation must be unimodular, got |rot| = {abs(rot):.6g}")
        object.__setattr__(self, "zeros", zs)
        object.__setattr__(self, "rotation", rot / abs(rot))


def _factor_coeffs(a: complex, deg: int) -> np.ndarray:
    """Taylor coefficients of b_a(z) = (|a|/a)(a - z)/(1 - conj(a) z) up to deg.

    Normalized so b_a(0) = |a| > 0; the degenerate zero uses b_0(z) = z.
    """
    out = np.zeros(deg + 1, dtype=complex)
    if a == 0:
        if deg >= 1:
            out[1] = 1.0
        return out
    u = abs(a) / a
    ac = np.conj(a)
    out[0] = abs(a)
    n = np.arange(1, deg + 1)
    out[1:] = -u * (1 - abs(a) ** 2) * ac ** (n - 1)
    return out


def _tail_bound(zeros, deg: int) -> float:
    """Certified l1 bound on product coefficients beyond index deg.

    Each nonzero factor satisfies |c_n| <= M rho^n with
    M = max(|a|, (1-|a|^2)/|a|); a k-fold product is dominated termwise by
    prod(M_i) * C(n+k-1, k-1) * rho^n.  Zeros at the origin shift exactly.
    The dominating series from index n0 on is a negative-binomial tail,
    summed in closed form as k terms:

        sum_{n >= n0} C(n+k-1, k-1) rho^n
            = (1-rho)^-k sum_{i<k} C(n0+k-1, i) (1-rho)^i rho^(n0+k-1-i).
    """
    shifts = sum(1 for a in zeros if a == 0)
    rest = [a for a in zeros if a != 0]
    if not rest:
        # pure monomial: exact unless the shift itself exceeds the window
        return 0.0 if deg >= shifts else 1.0
    # below the shift degree every coefficient of the non-shift part is tail
    n0 = max(deg - shifts + 1, 0)
    rho = max(abs(a) for a in rest)
    scale = float(np.prod([max(abs(a), (1 - abs(a) ** 2) / abs(a)) for a in rest]))
    k = len(rest)
    top = n0 + k - 1
    term = rho ** top
    total = term
    for i in range(1, k):
        term *= (top - i + 1) / i * (1 - rho) / rho
        total += term
    return scale * total / (1 - rho) ** k


def blaschke_scalar(spec: BlaschkeSpec, deg: int) -> MatSymbol:
    """Truncated Taylor expansion of a finite Blaschke product.

    Coefficients up to deg are exact; the discarded tail is certified by
    tail_bound.
    """
    if deg < 0:
        raise DimensionMismatchError("truncation degree must be non-negative")
    coeffs = np.zeros(deg + 1, dtype=complex)
    coeffs[0] = spec.rotation
    for a in spec.zeros:
        fac = _factor_coeffs(a, deg)
        coeffs = np.convolve(coeffs, fac)[: deg + 1]
    return scalar_symbol(coeffs, tail_bound=_tail_bound(spec.zeros, deg), claimed_inner=True)


def monomial_inner(k: int, deg: int) -> MatSymbol:
    """The exact inner function z^k on a degree-deg coefficient window."""
    if not 0 <= k <= deg:
        raise DimensionMismatchError(f"monomial power {k} outside [0, {deg}]")
    coeffs = np.zeros(deg + 1, dtype=complex)
    coeffs[k] = 1.0
    return scalar_symbol(coeffs, tail_bound=0.0, claimed_inner=True)


def _cut_entry(e: MatSymbol, deg: int) -> tuple:
    """A 1x1 entry's coefficients cut to deg, and its tail plus the cut's l1 norm."""
    col = e.mats[:, 0, 0]
    tail = e.tail_bound
    if col.shape[0] > deg + 1:
        tail += float(np.sum(np.abs(col[deg + 1 :])))
        col = col[: deg + 1]
    return col, tail


def diag_inner(entries, deg: int) -> MatSymbol:
    """Diagonal symbol from 1x1 inner entries, padded/truncated to a common degree.

    Truncating an entry folds the dropped coefficients into its tail bound;
    the diagonal tail bound is the max over entries.
    """
    entries = list(entries)
    if not entries:
        raise DimensionMismatchError("diag_inner needs at least one entry")
    m = len(entries)
    mats = np.zeros((deg + 1, m, m), dtype=complex)
    tail = 0.0
    for i, e in enumerate(entries):
        if e.m_out != 1 or e.m_in != 1:
            raise DimensionMismatchError(f"entry {i} is {e.m_out}x{e.m_in}, expected 1x1")
        if not e.claimed_inner:
            raise NotInnerError(f"entry {i} is not claimed inner")
        col, entry_tail = _cut_entry(e, deg)
        mats[: col.shape[0], i, i] = col
        tail = max(tail, entry_tail)
    return MatSymbol(m, m, mats, tail_bound=tail, claimed_inner=True)
