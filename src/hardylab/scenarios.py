"""Named verification scenarios with machine-readable reports.

Each scenario builds concrete truncated spaces, runs the relevant
operations at pinned thresholds, and reports every measured quantity, each
claim among them a row from which ``run_scenario`` derives pass/fail.
Reports echo enough parameters to re-run standalone; given the same inputs
and seed they are byte-identical up to the runtime field.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotNearlyInvariantError, ParseError
from .funcs import basis_vector, make_fn, monomial_fn, unflatten
from .inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from .multipliers import MatSymbol, compose, multiply
from .nearly import (
    _EPS,
    _apply_space,
    _default_k_max,
    _extract,
    _result,
    almost_invariant_Sstar_check,
    certify_nearly,
    decompose,
    duality_residuals,
    orthocomplement_membership,
    synthesize_M,
)
from .serialize import parse_symbol_spec
from .subspaces import (
    DEFAULT_TOL,
    Subspace,
    _groups,
    _mul,
    _plan,
    _residual,
    _span_columns,
    _span_stack,
    _split_combos,
    beurling_space,
    complement,
    defect_of,
    degree_slice,
    from_spanning,
    model_space,
    subspace_distance,
    vanishing_slice,
    wandering,
)

__all__ = ["ScenarioReport", "SCENARIOS", "run_scenario", "run_all", "render_markdown"]


@dataclass(frozen=True)
class ScenarioReport:
    scenario_id: str
    passed: bool
    metrics: dict
    parameters: dict
    runtime_ms: float

    def to_dict(self) -> dict:
        return asdict(self)


def _whole(val) -> bool:
    return isinstance(val, numbers.Integral) and not isinstance(val, bool)


def _finite(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)


# a scenario's table maps each key to (default, kind) or (default, kind,
# least, why); kind -> (what a value must be, its test); booleans pass none
_KINDS = {
    "tol": ("a finite number > 0", lambda v: _finite(v) and v > 0),
    "zero": ("a finite number of modulus < 1", lambda v: _finite(v) and abs(v) < 1),
    "size": ("an integer", _whole),
    "r": ("null or an integer >= 0", lambda v: v is None or _whole(v) and v >= 0),
    "rprime": ("1 or 2", lambda v: _whole(v) and v in (1, 2)),
    "orders": ("a list of at least two integers in strictly increasing order",
               lambda v: isinstance(v, list) and len(v) >= 2 and all(map(_whole, v))
               and all(a < b for a, b in zip(v, v[1:]))),
    # a bad symbol spec raises, naming its own path; a good one is parsed
    # once, here, into the symbol that the least values and the runner read
    "symbol": ("an inner symbol spec", parse_symbol_spec),
}


def _merge(table: dict, params: dict | None) -> tuple:
    """The table's defaults with params laid over them, every value checked
    against its row: first its kind, then its least value.

    Returns (merged, values): merged holds the values as given, which the
    report echoes, and values the same values as the runner reads them,
    with each symbol spec parsed into its symbol.  A size (or the first of
    the orders) below its row's least, an int or a function of values (0
    if the row gives none), is refused with the row's reason.
    """
    merged = {key: row[0] for key, row in table.items()}
    for key, val in (params or {}).items():
        if key not in table:
            raise ParseError(f"unknown parameter {key!r}; known: {sorted(table)}")
        merged[key] = val
    values = dict(merged)
    for key, (_, kind, *_) in table.items():
        want, test = _KINDS[kind]
        try:
            ok = test(merged[key])
        except (ParseError, DomainError) as exc:
            raise ParseError(f"parameter {key!r}: {exc}") from exc
        if not ok:
            raise ParseError(f"parameter {key!r} must be {want}, got {merged[key]!r}")
        if kind == "symbol":
            # the test of a symbol spec returns its symbol
            values[key] = ok
    for key, (_, kind, *rest) in table.items():
        if kind in ("size", "orders"):
            least, why = rest or (0, "no size is negative")
            least = least(values) if callable(least) else least
            first = merged[key][0] if kind == "orders" else merged[key]
            if first < least:
                head = f"starts at {first}," if kind == "orders" else f"= {first} is"
                raise ParseError(f"parameter {key!r} {head} below {least}, {why}")
    return merged, values


def _certifying(threshold: float, p: dict, *zeros: str) -> float:
    """The threshold, if a residual or distance of unit vectors (<= 1) can fail it.

    It derives from the tail of Blaschke factors truncated at
    ``blaschke_deg``, so a refusal names that key and the zero keys.
    """
    if threshold >= 1.0:
        named = ", ".join(f"{key!r} = {p[key]}" for key in ("blaschke_deg", *zeros))
        raise ParseError(
            f"parameters {named} leave a tail whose "
            f"threshold {threshold:.3g} >= 1 certifies nothing"
        )
    return threshold


def _random_units(rng, dim_m: int, deg: int, count: int) -> np.ndarray:
    """Seeded flattened unit vectors of degree deg, one per column.

    One draw of the whole batch, in the order of ``count`` draws of one
    vector each: a vector's real parts first, then its imaginary parts.
    """
    draw = rng.standard_normal((count, 2, (deg + 1) * dim_m))
    vecs = (draw[:, 0] + 1j * draw[:, 1]).T
    return vecs * (1.0 / np.linalg.norm(vecs, axis=0))


# a draw whose residual off a space is below the cut is drawn again
# (``_perp_units``) or dropped (``section4``), not normalized;
# ``counterexample``'s refusal escapes by a unit vector, within the window
_DRAW_CUT = 1e-6
_UNIT_ESCAPE = (0.99, 1.01)


def _perp_units(rng, spaces: list, deg: int) -> np.ndarray:
    """Seeded flattened unit vectors, row i orthogonal to spaces[i].

    Each round draws one unit (``_random_units``) for every space still
    open and keeps those whose residual off their space has a norm above
    ``_DRAW_CUT``; the others draw again, in at most 16 rounds.  The
    residuals of a round are one stacked product: the Q's are zero-padded
    to one width, which adds only exact zeros to Q Q* g.
    """
    dim_m = spaces[0].dim_m
    q = np.zeros((len(spaces), dim_m * (deg + 1), max(s.dim for s in spaces)), dtype=complex)
    for qi, s in zip(q, spaces):
        qi[:, : s.dim] = s.matrix
    out = np.empty(q.shape[:2], dtype=complex)
    todo = np.arange(len(spaces))
    for _ in range(16):
        draws = _random_units(rng, dim_m, deg, todo.size).T
        g = _residual(q, draws[:, :, None])[:, :, 0]
        norms = np.linalg.norm(g, axis=1)
        kept = norms > _DRAW_CUT
        out[todo[kept]] = g[kept] * (1.0 / norms[kept, None])
        todo, q = todo[~kept], q[~kept]
        if not todo.size:
            return out
    raise RuntimeError("could not draw a vector orthogonal to the space")


# --------------------------------------------------------------------------
# scenario runners: each returns its metrics, every claim among them a row

_OPS = {
    "==": lambda v, b: v == b,
    "<=": lambda v, b: v <= b,
    ">=": lambda v, b: v >= b,
    "true": lambda v, _: v,
    "false": lambda v, _: not v,
    "within": lambda v, b: b[0] <= v <= b[1],
    "near": lambda v, b: abs(v - b[0]) <= b[1],
}


class _Check(NamedTuple):
    """One claim, ``value op bound``, under the metric key that reports its
    value; a row not shown is checked but not reported."""

    value: object
    op: str
    bound: object = None
    shown: bool = True


def _holds(row: _Check) -> bool:
    return bool(_OPS[row.op](row.value, row.bound))


def _settle(metrics: dict) -> tuple:
    """(passed, the metrics with each row replaced by its value): passed if
    every row holds and every nested block, settled alike, has ``passed``."""
    out, passed = {}, True
    for key, val in metrics.items():
        if isinstance(val, dict):
            ok, out[key] = _settle(val)
            out[key]["passed"] = ok
        elif isinstance(val, _Check):
            ok = _holds(val)
            if val.shown:
                out[key] = val.value
        else:
            ok, out[key] = True, val
        passed = passed and ok
    return passed, out


def _sc_beurling(p: dict):
    theta = p["theta"]
    n, tol = p["N"], p["tol"]
    rng_full = beurling_space(theta, n, tol=tol)
    rng_res = beurling_space(theta, n, headroom=1, tol=tol)
    cert = defect_of(rng_full, "S", domain=rng_res, tol=tol)
    model = complement(rng_full)
    overlap = float(np.linalg.norm(_mul(rng_full.matrix, model.matrix, adjoint=True), 2)) \
        if rng_full.dim and model.dim else 0.0
    metrics = {
        "shift_defect_dim": _Check(cert.defect_dim, "==", 0),
        "shift_escape": cert.singular_values[0] if cert.singular_values else 0.0,
        "range_dim": rng_full.dim,
        "model_dim": model.dim,
        "dims_complementary": _Check(rng_full.dim + model.dim == theta.m_out * (n + 1), "true"),
        "range_model_overlap": _Check(overlap, "<=", p["distance_tol"]),
    }
    col_degs, _, diagonal, unit, _ = _plan(theta)
    # a diagonal of unit entries c z^k: the model space is spanned by the
    # monomials below each entry's degree
    if diagonal and unit.all():
        target = from_spanning(
            [monomial_fn(theta.m_out, i, j) for i, k in enumerate(col_degs) for j in range(k)],
            n, tol, dim_m=theta.m_out,
        )
        metrics["distance"] = _Check(subspace_distance(model, target), "<=", p["distance_tol"])
        metrics["distance_threshold"] = p["distance_tol"]
    return metrics


def _isometry_columns(m: int) -> list:
    """Two deterministic orthonormal constant columns in C^m, m >= 2."""
    mixed = (basis_vector(m, 1) + basis_vector(m, 2)) * (2 ** -0.5) if m >= 3 \
        else basis_vector(m, 1)
    return [basis_vector(m, 0), mixed]


def _shift_defect(space: Subspace, cols: np.ndarray, defect_tol: float) -> tuple:
    """S's defect on the degree <= N - 1 slice of the space, and the
    distance of the defect's span from span (I - P_M) cols."""
    n, m, tol = space.ambient_deg, space.dim_m, space.tol
    cert = defect_of(space, "S", domain=degree_slice(space, n - 1), tol=defect_tol)
    target = _span_columns(_residual(space.matrix, cols), m, n, tol)
    found = from_spanning(list(cert.defect_basis), n, tol, dim_m=m)
    return cert.defect_dim, subspace_distance(found, target)


def _sc_prop_f0k_almost(p: dict):
    m, rprime, n, tol = p["m"], p["rprime"], p["N"], p["tol"]
    if rprime == 2:
        theta = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
    else:
        mats = np.zeros((3, 2, 1), dtype=complex)
        mats[1, 0, 0] = 2 ** -0.5
        mats[2, 1, 0] = 2 ** -0.5
        theta = MatSymbol(2, 1, mats, 0.0, claimed_inner=True)
    v_cols = _isometry_columns(m)
    v_mats = np.stack([np.column_stack([c.coeffs[0] for c in v_cols])])
    v_sym = MatSymbol(m, 2, v_mats)
    k_theta = model_space(theta, n, tol=tol)
    space = _apply_space(v_sym, k_theta, n)
    nearly_cert = certify_nearly(space, 0, band=k_theta.band)
    defect_dim, dist = _shift_defect(
        space, multiply(v_sym, theta.mats, n).reshape(-1, rprime), p["defect_tol"])
    # dimension-growth surrogate for the unreachable infinite-dimension
    # claims: a Blaschke entry truncated at the window scale keeps feeding
    # new model directions as the window widens, a monomial entry does not
    dims = []
    flat_dims = []
    for gn in p["growth_orders"]:
        d_b = gn - p["growth_margin"]
        grow = diag_inner(
            [monomial_inner(2, d_b), blaschke_scalar(BlaschkeSpec([0.5]), d_b)], d_b
        )
        dims.append(model_space(grow, gn, tol=tol).dim)
        flat = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
        flat_dims.append(model_space(flat, gn, tol=tol).dim)
    return {
        "nearly_invariant_defect": _Check(nearly_cert.defect_dim, "==", 0),
        "defect_dim": _Check(defect_dim, "==", rprime),
        "expected_defect": rprime,
        "defect_span_distance": _Check(dist, "<=", p["span_tol"]),
        "defect_span_threshold": p["span_tol"],
        "model_dim_growth": dims,
        "growth_strictly_increasing": _Check(all(a < b for a, b in zip(dims, dims[1:])), "true"),
        "rational_model_dim_constant": _Check(len(set(flat_dims)) == 1, "true"),
    }


def _ortho_distance(psi: MatSymbol, theta: MatSymbol, n: int, tol: float) -> float:
    """Distance of (Psi K_Theta)^perp from Psi Theta H^2 (+) K_Psi at order
    n, compared within degrees <= n - deg Psi - deg Theta.

    Both sides are read through their thin complements, since
    P_A - P_B = P_{B^perp} - P_{A^perp}: in exact arithmetic the same
    operator norm, compressed to the same band.  With P the basis of
    K_{Psi Theta}, the complement of the Beurling range Psi Theta H^2 from
    the same banded QR, (Psi Theta H^2 (+) K_Psi)^perp is P null(K_Psi* P),
    the part of K_{Psi Theta} orthogonal to K_Psi, its null space taken by
    ``_split_combos``.  So the distance is that of Psi K_Theta from
    P null(K_Psi* P), and no n x n or n x (n - dim) matrix is formed.
    """
    k_theta = model_space(theta, n - theta.deg, tol=tol)
    lhs = _apply_space(psi, k_theta, n)
    p = model_space(compose(psi, theta), n, tol=tol)
    k_psi = model_space(psi, n, tol=tol)
    _, null = _split_combos(_mul(k_psi.matrix, p.matrix, adjoint=True), p.dim, tol)
    rhs = Subspace._of(psi.m_out, n, _mul(p.matrix, null), tol)
    return subspace_distance(lhs, rhs, band=n - psi.deg - theta.deg)


def _sc_lemma_ortho(p: dict):
    tol = p["tol"]
    d, n = p["blaschke_deg"], p["N"]
    psi = diag_inner(
        [monomial_inner(3, d), blaschke_scalar(BlaschkeSpec([p["psi_zero"]]), d)], d
    )
    theta = diag_inner(
        [monomial_inner(2, d), blaschke_scalar(BlaschkeSpec([p["theta_zero"]]), d)], d
    )
    prod = compose(psi, theta)
    combined_tail = psi.tail_bound + theta.tail_bound + prod.tail_bound
    threshold = _certifying(max(1e-8, 5.0 * combined_tail), p, "psi_zero", "theta_zero")
    dist = _ortho_distance(psi, theta, n, tol)
    # exact polynomial variant of the same identity
    dist_m = _ortho_distance(diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2),
                             diag_inner([monomial_inner(2, 2), monomial_inner(1, 2)], 2),
                             p["poly_N"], tol)
    return {
        "distance": _Check(dist, "<=", threshold),
        "threshold": threshold,
        "combined_tail_bound": combined_tail,
        "comparison_band": n - 2 * d,
        "poly_distance": _Check(dist_m, "<=", p["poly_tol"]),
        "poly_threshold": p["poly_tol"],
    }


def _sc_lemma_nearly(p: dict):
    tol = p["tol"]
    d, nk = p["blaschke_deg"], p["inner_N"]
    psi = diag_inner(
        [blaschke_scalar(BlaschkeSpec([p["zero1"]]), d),
         blaschke_scalar(BlaschkeSpec([p["zero2"]]), d)],
        d,
    )
    threshold = _certifying(max(1e-8, 3.0 * psi.tail_bound), p, "zero1", "zero2")
    theta = diag_inner([monomial_inner(2, 3), monomial_inner(3, 3)], 3)
    k_theta = model_space(theta, nk, tol=tol)
    space = _apply_space(psi, k_theta, nk + d)
    cert = certify_nearly(space, 0, tol=threshold)
    residual = cert.singular_values[0] if cert.singular_values else 0.0
    return {
        "defect_dim": _Check(cert.defect_dim, "==", 0),
        "residual": _Check(residual, "<=", threshold),
        "threshold": threshold,
        "tail_bound": psi.tail_bound,
        "vanishing_slice_dim": vanishing_slice(space).dim,
    }


def _sc_prop_perp_almost(p: dict):
    tol, n = p["tol"], p["N"]
    psi = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
    theta = diag_inner([monomial_inner(2, 2), monomial_inner(1, 2)], 2)
    m = psi.m_out
    k_theta = model_space(theta, n - 2, tol=tol)
    x = complement(_apply_space(psi, k_theta, n))
    # Psi's columns, padded to the window
    cols = multiply(psi, np.eye(m)[None], n).reshape(-1, m)
    defect_dim, dist = _shift_defect(x, cols, p["defect_tol"])
    return {
        "defect_dim": _Check(defect_dim, "==", m),
        "expected_defect": m,
        "defect_span_distance": _Check(dist, "<=", p["span_tol"]),
        "defect_span_threshold": p["span_tol"],
    }


def _sc_counterexample(p: dict):
    tol, n, m = p["tol"], p["N"], p["m"]
    theta = diag_inner([monomial_inner(1, 1)] * m, 1)
    k_theta = model_space(theta, n, tol=tol)
    theta_k = _apply_space(theta, k_theta, n)
    space = complement(theta_k)
    cert = certify_nearly(space, 0)
    try:
        decompose(space, [], monomial_fn(m, 0, 2))
        raised, step, residual = False, 0, 0.0
    except NotNearlyInvariantError as exc:
        raised, step, residual = True, exc.step, exc.residual
    return {
        "certify_defect_dim": _Check(cert.defect_dim, ">=", 1),
        "raised_not_nearly_invariant": _Check(raised, "true"),
        "step": step,
        "residual": _Check(residual, "within", _UNIT_ESCAPE),
        "residual_window": list(_UNIT_ESCAPE),
    }


def _sc_wandering_bound(p: dict):
    tol, n, d = p["tol"], p["N"], p["blaschke_deg"]
    m1 = model_space(monomial_inner(2, 2), n, tol=tol)
    psi = diag_inner(
        [blaschke_scalar(BlaschkeSpec([0.5]), d),
         blaschke_scalar(BlaschkeSpec([1 / 3]), d)],
        d,
    )
    theta = diag_inner([monomial_inner(1, 1)] * 2, 1)
    k_theta = model_space(theta, p["inner_N"], tol=tol)
    m2 = _apply_space(psi, k_theta, p["inner_N"] + d)
    m3 = from_spanning([monomial_fn(2, 0, 1), monomial_fn(2, 1, 2)], n, tol)
    return {
        "scalar_model_wandering_dim": _Check(wandering(m1).dim, "==", 1),
        "blaschke_product_wandering_dim": _Check(wandering(m2).dim, "==", 2),
        "vanishing_space_wandering_dim": _Check(wandering(m3).dim, "==", 0),
    }


def _roundtrip_config(r: int, pdim: int, m: int, degrees, nk: int, p: dict,
                      f0_cols=None):
    """One synthesis/extraction roundtrip; returns its metric block, checked
    against the scenario's ``distance_tol`` and ``gap_tol``.

    The extraction peels every basis vector of the synthesized M, and the
    norm gaps, iteration counts and remainder norms are read off that
    same peel, one ``_result`` per basis vector.
    """
    entries = [monomial_inner(k, max(degrees)) for k in degrees]
    k_space = model_space(diag_inner(entries, max(degrees)), nk, tol=p["tol"])
    if f0_cols is None:
        f0_cols = [basis_vector(m, i) for i in range(r)]
    e_fns = [basis_vector(m, m - pdim + j) for j in range(pdim)]
    ambient = nk + 2
    space = synthesize_M(k_space, f0_cols, e_fns, ambient)
    cert = certify_nearly(space, pdim)
    extracted, peel = _extract(space, e_fns)
    dist = subspace_distance(extracted, k_space)
    gaps, iters, monotone, summable = [], [], True, 0.0
    bound = _default_k_max(ambient, pdim)
    for j in range(space.dim):
        res = _result(peel, j, pdim, _EPS)
        gaps.append(res.norm_gap)
        iters.append(res.iterations)
        summable += sum(res.gk_norms)
        monotone = monotone and all(
            res.gk_norms[i + 1] <= res.gk_norms[i] + 1e-12
            for i in range(len(res.gk_norms) - 1)
        ) and res.converged
    return {
        "defect_dim": _Check(cert.defect_dim, "<=", pdim),
        "roundtrip_distance": _Check(dist, "<=", p["distance_tol"]),
        "max_norm_gap": _Check(max(gaps, default=0.0), "<=", p["gap_tol"]),
        "max_iterations": _Check(max(iters, default=0), "<=", bound),
        "iteration_bound": bound,
        "gk_monotone_and_converged": _Check(monotone, "true"),
        "gk_norm_sum": summable,
    }


def _roundtrips(p: dict, configs, single_p: int) -> dict:
    """Run the roundtrip configs (r, p, m, degrees, NK, F0 columns or None).

    With the parameter ``r`` set, the configs are replaced by the single
    one at that r and p = single_p, on window max(4, N - 2).  Returns one
    ``config{idx}_r{r}_p{p}`` block per config and ``norm_gap``, the
    largest of their norm gaps.
    """
    if p["r"] is not None:
        r, m = p["r"], p["r"] + single_p
        configs = [(r, single_p, m, [2] * m, max(4, p["N"] - 2), None)]
    metrics = {f"config{idx}_r{r}_p{pdim}": _roundtrip_config(r, pdim, m, degrees, nk, p, f0)
               for idx, (r, pdim, m, degrees, nk, f0) in enumerate(configs)}
    metrics["norm_gap"] = max(blk["max_norm_gap"].value for blk in metrics.values())
    return metrics


def _sc_main_defect1(p: dict):
    tol = p["tol"]
    poly_col = make_fn(3, [[2 ** -0.5, 0, 0], [0, 2 ** -0.5, 0]])
    metrics = _roundtrips(p, [
        (1, 1, 2, (3, 2), p["NK"], None),
        (1, 1, 3, (3, 2), p["NK"], [poly_col]),
        (2, 1, 3, (2, 2, 3), p["NK"], None),
    ], 1)
    # defect basis merely normalized, not orthogonal to the space: the
    # synthesis is still nearly invariant with defect <= p
    k_space = model_space(
        diag_inner([monomial_inner(3, 3), monomial_inner(2, 3)], 3), p["NK"], tol=tol
    )
    slanted = make_fn(2, [[0, 2 ** -0.5], [0, 2 ** -0.5]])
    slanted_m = synthesize_M(k_space, [basis_vector(2, 0)], [slanted], p["NK"] + 2)
    slant_cert = certify_nearly(slanted_m, 1)
    # reported before the norm gap
    gap = metrics.pop("norm_gap")
    return metrics | {"non_orthogonal_defect_dim": _Check(slant_cert.defect_dim, "<=", 1),
                      "norm_gap": gap}


def _sc_main_defectp(p: dict):
    return _roundtrips(p, [
        (1, 2, 3, (3, 2, 1), p["NK"], None),
        (2, 2, 4, (2, 2, 1, 3), p["NK"], None),
        (0, 1, 1, (2,), 4, None),
    ], p["p"])


def _sc_corollary_almost(p: dict):
    tol, n = p["tol"], p["N"]
    h = make_fn(1, [[2 ** -0.5], [2 ** -0.5]])
    space = Subspace(1, n, (h,), tol)
    ok_none, res_none = almost_invariant_Sstar_check(space, [])
    partner = make_fn(1, [[2 ** -0.5], [-(2 ** -0.5)]])
    ok_with, res_with = almost_invariant_Sstar_check(space, [partner])
    nearly = certify_nearly(space, 0)
    model3 = model_space(monomial_inner(3, 3), n, tol=tol)
    ok_inv, res_inv = almost_invariant_Sstar_check(model3, [])
    # S* h leaves span(h) by (1 - z) / 2^(3/2), of norm 1/2; the library's
    # own verdicts ok_none, ok_with and ok_inv are checked, not reported
    expected, cf_tol = 0.5, p["closed_form_tol"]
    return {
        "vacuous_nearly_defect": _Check(nearly.defect_dim, "==", 0),
        "almost_without_defect": _Check(ok_none, "false", shown=False),
        "residual_without_defect": _Check(res_none, "near", (expected, cf_tol)),
        "expected_residual_without_defect": expected,
        "almost_with_defect": _Check(ok_with, "true", shown=False),
        "residual_with_defect": _Check(res_with, "<=", cf_tol),
        "invariant_model_almost": _Check(ok_inv, "true", shown=False),
        "invariant_model_residual": _Check(res_inv, "<=", cf_tol),
        "closed_form_tol": cf_tol,
    }


def _unitaries(a: np.ndarray) -> np.ndarray:
    """The Q factors of a stack of square matrices, each column's phase
    turned so that R has a positive diagonal."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _duality_spaces(p: dict) -> list:
    """The spaces of the duality pairs and one seeded unit defect each.

    Every pair's space inputs are drawn first, in pair order: an even pair
    draws m powers and an m x m Gaussian, an odd pair a count and that
    many units.  An even space is the model space of the diagonal monomial
    symbol of its powers (built once per power tuple) turned by the
    unitary of its Gaussian (one stacked QR); every odd space is the span
    of its units.  The turns are one stacked product per base dimension,
    the spans one stacked SVD per shape (``_span_stack``), and the defect
    units are drawn last (``_perp_units``).
    """
    tol, n, m = p["tol"], p["N"], p["m"]
    rng = np.random.default_rng(p["seed"])
    powers, gauss, cols = [], [], []
    for i in range(p["pairs"]):
        if i % 2 == 0:
            powers.append(tuple(int(k) for k in rng.integers(1, 4, size=m)))
            gauss.append(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            cols.append(None)
        else:
            cols.append(_random_units(rng, m, n, int(rng.integers(2, 5))))
    bases = {}
    for ks in powers:
        if ks not in bases:
            theta = diag_inner([monomial_inner(k, max(ks)) for k in ks], max(ks))
            base = model_space(theta, n, tol=tol).matrix
            bases[ks] = base.reshape(n + 1, m, base.shape[1])
    turns = _unitaries(np.array(gauss))
    for idx in _groups(bases[ks].shape[2] for ks in powers):
        turned = turns[idx, None] @ np.stack([bases[powers[j]] for j in idx])
        for j, c in zip(idx, turned.reshape(len(idx), m * (n + 1), -1)):
            cols[2 * j] = c
    spaces = [None] * len(cols)
    for idx in _groups(c.shape for c in cols):
        for i, space in zip(idx, _span_stack(np.stack([cols[i] for i in idx]), m, n, tol)):
            spaces[i] = space
    defects = _perp_units(rng, spaces, n)
    return [(space, [unflatten(e, m)]) for space, e in zip(spaces, defects)]


def _sc_duality(p: dict):
    # per pair: (forward containment, complement containment)
    verdicts = [tuple(res <= p["residual_tol"] for res in pair)
                for pair in duality_residuals(_duality_spaces(p))]
    agreements = sum(fwd == comp for fwd, comp in verdicts)
    forward_true = sum(fwd for fwd, _ in verdicts)
    return {
        "pairs": p["pairs"],
        "agreements": _Check(agreements, "==", p["pairs"]),
        "forward_true_pairs": _Check(forward_true, ">=", p["min_each_direction"]),
        "forward_false_pairs": _Check(len(verdicts) - forward_true, ">=",
                                      p["min_each_direction"]),
    }


def _sc_section4(p: dict):
    tol, nk = p["tol"], p["NK"]
    rng = np.random.default_rng(p["seed"])
    f0_col = make_fn(3, [[2 ** -0.5, 0, 0], [0, 2 ** -0.5, 0]])
    e_fn = basis_vector(3, 2)
    k_space = model_space(
        diag_inner([monomial_inner(3, 3), monomial_inner(2, 3)], 3), nk, tol=tol
    )
    ambient = nk + 2
    space = synthesize_M(k_space, [f0_col], [e_fn], ambient)
    k_perp = complement(k_space)
    inv_cert = defect_of(k_perp, "S", domain=degree_slice(k_perp, nk - 1), tol=1e-8)
    # the even draws are projected off M, and dropped if they lie in it
    g = _random_units(rng, 3, ambient, p["draws"])
    h = _residual(space.matrix, g[:, ::2])
    h_norms = np.linalg.norm(h, axis=0)
    g[:, ::2] = h * (1.0 / np.maximum(h_norms, _DRAW_CUT))
    kept = np.ones(g.shape[1], dtype=bool)
    kept[::2] = h_norms >= _DRAW_CUT
    g = g[:, kept]
    claimed = orthocomplement_membership(g.reshape(ambient + 1, 3, g.shape[1]), [f0_col],
                                         [e_fn], k_space, tol=p["membership_tol"])
    direct = np.linalg.norm(_mul(space.matrix, g, adjoint=True), axis=0)
    # per kept draw: (claimed member, direct member)
    verdicts = [(member, bool(res <= p["membership_tol"]))
                for (member, _), res in zip(claimed, direct)]
    total = len(verdicts)
    members = sum(direct for _, direct in verdicts)
    return {
        "coordinate_complement_shift_defect": _Check(inv_cert.defect_dim, "==", 0),
        "draws": total,
        "agreements": _Check(sum(claimed == direct for claimed, direct in verdicts), "==", total),
        "members": _Check(members, ">=", p["min_each_class"]),
        "nonmembers": _Check(total - members, ">=", p["min_each_class"]),
        "min_each_class": p["min_each_class"],
    }


# --------------------------------------------------------------------------
# registry

_MONO_DIAG_23 = {
    "kind": "diag",
    "entries": [{"kind": "monomial", "k": 2}, {"kind": "monomial", "k": 3}],
    "deg": 3,
}

_TOL = (DEFAULT_TOL, "tol")

# scenario id -> (runner, parameter table, verified statement); the table
# maps each key to (default, kind) or (default, kind, least, why), as _merge
# reads it
SCENARIOS = {
    "beurling": (
        _sc_beurling,
        {"theta": (_MONO_DIAG_23, "symbol"),
         "N": (16, "size", lambda p: p["theta"].deg,
               "the degree of 'theta'"),
         "tol": _TOL, "distance_tol": (1e-10, "tol")},
        "shift-invariant ranges of inner multipliers and their complements",
    ),
    "prop_F0K_almost": (
        _sc_prop_f0k_almost,
        {"m": (3, "size", 2, "the number of isometric columns V embeds"),
         "rprime": (2, "rprime"), "N": (12, "size", 2, "the degree of Theta"),
         "tol": _TOL, "defect_tol": (1e-8, "tol"), "span_tol": (1e-6, "tol"),
         "growth_margin": (4, "size"),
         "growth_orders": ([16, 32, 48], "orders", lambda p: max(3, p["growth_margin"] + 2),
                           "max(3, 'growth_margin' + 2): the growth symbol holds z^2 "
                           "at degree order - margin, the flat one z^3")},
        "image of a model space under an isometric column map is almost "
        "shift-invariant with defect equal to the inner multiplier width",
    ),
    "lemma_orthocomplement": (
        _sc_lemma_ortho,
        {"blaschke_deg": (24, "size", 3, "the degree of Psi's z^3 entry"),
         "N": (64, "size", lambda p: 2 * p["blaschke_deg"],
               "2 * 'blaschke_deg', the least order with a comparison band"),
         "psi_zero": (0.5, "zero"), "theta_zero": (-1 / 3, "zero"),
         "poly_N": (12, "size", 4, "deg Psi + deg Theta of the polynomial pair"),
         "poly_tol": (1e-10, "tol"), "tol": _TOL},
        "orthocomplement of a multiplied model space splits as product range "
        "plus outer model space",
    ),
    "lemma_nearly": (
        _sc_lemma_nearly,
        {"blaschke_deg": (24, "size"), "inner_N": (16, "size", 3, "the degree of Theta"),
         "zero1": (0.5, "zero"), "zero2": (1 / 3, "zero"), "tol": _TOL},
        "multiplied model spaces with non-vanishing diagonal at the origin "
        "are nearly backward-shift invariant (defect 0)",
    ),
    "prop_perp_almost": (
        _sc_prop_perp_almost,
        {"N": (12, "size", 4, "deg Psi + deg Theta"), "tol": _TOL,
         "defect_tol": (1e-8, "tol"), "span_tol": (1e-9, "tol")},
        "the orthocomplement of a multiplied model space is almost "
        "shift-invariant with defect equal to the ambient dimension",
    ),
    "counterexample": (
        _sc_counterexample,
        {"m": (2, "size", 1, "the least vector dimension"),
         "N": (12, "size", 2, "the degree of the decomposed z^2 e_0"), "tol": _TOL},
        "an almost shift-invariant complement that is not nearly backward-"
        "shift invariant: the decomposition refuses with a unit escape",
    ),
    "wandering_bound": (
        _sc_wandering_bound,
        {"N": (10, "size", 2, "the degree of the scalar model space's z^2"),
         "blaschke_deg": (16, "size"),
         "inner_N": (4, "size", 1, "the degree of Theta = z I"), "tol": _TOL},
        "the origin-visible part of a subspace has dimension between 1 and "
        "the ambient vector dimension (0 only if everything vanishes)",
    ),
    "main_defect1": (
        _sc_main_defect1,
        {"NK": (6, "size", 3, "the largest degree of K's symbols"), "r": (None, "r"),
         "N": (8, "size", 0, "no size is negative; read only when 'r' is set, "
               "for the window max(4, N - 2)"),
         "tol": _TOL, "distance_tol": (1e-6, "tol"), "gap_tol": (1e-6, "tol")},
        "defect-1 synthesis/extraction roundtrip with Parseval norm identity",
    ),
    "main_defectp": (
        _sc_main_defectp,
        {"NK": (6, "size", 3, "the largest degree of K's symbols"), "r": (None, "r"),
         "p": (2, "size", lambda p: int(p["r"] == 0),
               "1 when 'r' = 0 ('r' and 'p' both 0 leave no coordinates), else 0; "
               "read only when 'r' is set"),
         "N": (8, "size", 0, "no size is negative; read only when 'r' is set, "
               "for the window max(4, N - 2)"),
         "tol": _TOL, "distance_tol": (1e-6, "tol"), "gap_tol": (1e-6, "tol")},
        "defect-p synthesis/extraction roundtrip, including the all-"
        "vanishing (wandering-free) case",
    ),
    "corollary_almost": (
        _sc_corollary_almost,
        {"N": (4, "size", 3, "the degree of the z^3 model space"), "tol": _TOL,
         "closed_form_tol": (1e-10, "tol")},
        "nearly invariant with defect vs almost invariant for the backward "
        "shift: the wandering vectors decide, with closed-form residuals",
    ),
    "duality": (
        _sc_duality,
        {"pairs": (50, "size", lambda p: max(1, 2 * p["min_each_direction"]),
                   "max(1, 2 * 'min_each_direction'): at least one pair, and the pairs "
                   "alternate between the two directions; necessary, not sufficient"),
         "m": (2, "size", 1, "the least vector dimension"),
         "N": (8, "size", lambda p: max(3, 4 // p["m"]),
               "max(3, 4 // 'm'): the ambient m (N + 1) must exceed the up to 4 "
               "drawn functions, and the even pairs draw z^3"),
         "seed": (0, "size"), "tol": _TOL, "residual_tol": (1e-8, "tol"),
         "min_each_direction": (10, "size")},
        "forward containment under the backward shift is equivalent to the "
        "complement containment under the compressed shift",
    ),
    "section4": (
        _sc_section4,
        {"NK": (6, "size", 3, "the degree of K's symbol"), "seed": (0, "size"),
         "draws": (100, "size", lambda p: max(1, 2 * p["min_each_class"]),
                   "max(1, 2 * 'min_each_class'): at least one draw, and the draws "
                   "alternate between the two classes, an even one dropped if it "
                   "lies in M; necessary, not sufficient"),
         "tol": _TOL,
         "membership_tol": (1e-7, "tol"), "min_each_class": (20, "size")},
        "membership in the orthocomplement via coordinate adjoints matches "
        "direct projection on random draws",
    ),
}


def run_scenario(scenario_id: str, params: dict | None = None) -> ScenarioReport:
    """Run one named scenario and return its report."""
    if scenario_id not in SCENARIOS:
        raise ParseError(
            f"unknown scenario {scenario_id!r}; known: {sorted(SCENARIOS)}"
        )
    runner, table, _ = SCENARIOS[scenario_id]
    merged, values = _merge(table, params)
    start = time.perf_counter()
    passed, metrics = _settle(runner(values))
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ScenarioReport(scenario_id, passed, metrics, merged, runtime_ms)


def run_all(params: dict | None = None) -> list:
    """Run every scenario in fixed id order."""
    return [run_scenario(sid, params.get(sid) if params else None)
            for sid in SCENARIOS]


def _fmt(val) -> str:
    if isinstance(val, bool):
        return "yes" if val else "no"
    if isinstance(val, float):
        return f"{val:.3g}"
    if isinstance(val, list):
        return "[" + ", ".join(_fmt(v) for v in val) + "]"
    return str(val)


def render_markdown(reports) -> str:
    """Claim/metric table for documentation."""
    lines = [
        "| scenario | verified statement | passed | metrics |",
        "| --- | --- | --- | --- |",
    ]
    for rep in reports:
        desc = SCENARIOS[rep.scenario_id][2]
        inline = ", ".join(f"{k}={_fmt(v)}" for k, v in rep.metrics.items()
                           if not isinstance(v, dict))
        nested = "; ".join(
            f"{k}: " + ", ".join(f"{kk}={_fmt(vv)}" for kk, vv in v.items())
            for k, v in rep.metrics.items() if isinstance(v, dict)
        )
        cell = inline if not nested else f"{inline}; {nested}" if inline else nested
        lines.append(
            f"| {rep.scenario_id} | {desc} | {'PASS' if rep.passed else 'FAIL'} | {cell} |"
        )
    return "\n".join(lines)
