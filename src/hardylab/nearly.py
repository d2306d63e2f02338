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
coordinates c (G = Q c), every step the first included: one step is one
product of a step map, built once per (M, E) and kept in M's memo, with
the columns of c, which all advance in lockstep.  An input starts from
c = Q* g, the product of its membership check, so an input off M by up
to the membership tolerance is peeled as its projection onto M.  The
step map is one ambient step, ``_ambient_step``, taken on the columns of
Q, its escape kept as a triangular factor; the same function rebuilds a
refused escape vector.  In coordinates, coefficient k of the tuple of
G = Q c is C A^k c, with A the dim M x dim M block and C the r + p
coordinate rows of the step map.  The loop body is that product and,
after each batch of steps, a test for a stop; a stopped column stays in
c and is left out of the refusal test.  The first batch runs as many
column products as the deepest stop step of the last peel with the same
step map (so a decompose after an ``extract_K`` of the same M, or after
a decompose as deep, is one batch), every later one ``_STOP_STRIDE``;
no run takes more than k_max steps.  The stop steps, remainder norms,
escape norms and any refusal are read after the loop from the
coordinates and three norms kept per step.
The kernel returns each column's stop step, and one result builder,
``_result``, reads a column's ``DecompResult`` off the kernel's output up
to that step.  ``decompose`` runs the kernel on one function, and
``extract_K`` on every column of M's Q at once (from c = I); its body,
``_extract``, also returns that peel, so the roundtrip scenarios read
the decomposition of every basis vector of M off the peel that gave K.
``synthesize_M`` rebuilds M
from (K, F0, E) as one product of the generator symbol [F0 | zE] with
K's Q.  The orthocomplement test ``orthocomplement_membership`` applies
the adjoint of the same generator, which ``_generator`` builds for both,
to a whole batch of functions in one product, and reads every residual
off one ``project`` of the tuples onto K.
Every defect list is checked at one tolerance, ``_defect_tol``: in the
peeling by ``_check_defect_basis``, in the duality checks by its stacked
form ``_defect_refusal``, and in ``synthesize_M`` (with the F0 columns)
by its Gram deviation.  The duality checks read their residuals off the
n x dim M (or n x r) residual of S* on M's (or W's) basis against
M (+) span(E), without a complement.  One escape kernel, ``_escape``,
takes a batch of pairs and stacks those of one shape, so
``duality_residuals`` checks many pairs in a few products and
``almost_invariant_Sstar_check`` is a batch of one.

The iteration doubles as a near-invariance monitor: if a backward-shift
step leaves M (+) span(E) by more than ``DEFAULT_NEAR_TOL`` the
decomposition refuses with NotNearlyInvariantError instead of silently
projecting.  With several columns, the refusal is the one at the earliest
failing step.  Within that step an origin failure (InvariantViolationError)
in any column comes before an escape, and then the lowest failing column
wins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CertificationError,
    DimensionMismatchError,
    InvariantViolationError,
    NotNearlyInvariantError,
    PreconditionError,
    TruncationOverflowError,
    WorkbenchError,
)
from .funcs import CoeffFn, flatten, unflatten
from .multipliers import MatSymbol, _field, multiply, multiply_adjoint
from .subspaces import (
    DefectCertificate,
    Subspace,
    _columns,
    _gram_deviation,
    _groups,
    _mul,
    _rank,
    _residual,
    _shift_rows,
    _slice,
    _span_columns,
    defect_of,
    project,
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
# the column products the peeling takes between two stop tests after its
# first batch (and in the first batch of a new step map); a call peels a
# fixed set of b columns, so one column is tested every 8 steps and 8
# columns or more every step
_STOP_STRIDE = 8
# extract_K's bound on the Gram deviation of the coordinate map
_ISO_TOL = 1e-6
# almost_invariant_Sstar_check's bound on the escape of S* W
_ALMOST_TOL = 1e-8


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


def _defect_refusal(q: np.ndarray, e: np.ndarray, tol: np.ndarray):
    """The first refused defect basis of a stack of (Q, E) pairs, as
    (index, message), or None when every E passes.

    q (k, n, dim M) and e (k, n, p) stack the pairs' bases and tol (k,)
    their tolerances.  Each E must be orthonormal, then orthogonal to its
    space: the 2-norm of Q*E at most tol.  The Frobenius norm bounds the
    2-norm, so the SVD runs only on the pairs whose Frobenius norm exceeds
    tol.
    """
    if not e.shape[-1]:
        return None
    dev = _gram_deviation(e)
    inner = _mul(q, e, adjoint=True)
    near = np.flatnonzero(np.linalg.norm(inner, axis=(-2, -1)) > tol)
    overlap = np.zeros(len(e))
    if near.size:
        overlap[near] = np.linalg.svd(inner[near], compute_uv=False)[:, 0]
    refused = np.flatnonzero((dev > tol) | (overlap > tol))
    if not refused.size:
        return None
    i = int(refused[0])
    if dev[i] > tol[i]:
        return i, f"defect basis is not orthonormal (Gram deviation {dev[i]:.3g})"
    return i, f"defect basis is not orthogonal to the space (overlap {overlap[i]:.3g})"


def _check_defect_basis(m: Subspace, cols: np.ndarray, tol: float) -> None:
    """``_defect_refusal`` of the one pair (M, E), raised."""
    refused = _defect_refusal(m.matrix[None], cols[None], np.array([tol]))
    if refused:
        raise PreconditionError(refused[1])


@dataclass(eq=False)
class _StepMap:
    """One peeling step on M's coordinates c (g = Q c), for one defect basis E.

    With W = Q V_r the wandering part and Pi = I - V_r V_r*, ``stack``
    holds these row blocks, each applied to c:

        A = Q* S* Q Pi      the next coordinates            (dim M rows)
        V_r*                the wandering coordinates a     (r rows)
        E* S* Q Pi          the defect coordinates beta     (p rows)
        (Q Pi)[:m]          the value at the origin         (m rows)
        T                   the triangular factor of the escape map
                            (I - QQ* - EE*) S* Q Pi, without its
                            exactly zero rows            (at most dim M rows)

    so ||T c|| is the escape norm of the step.  ``blocks`` (3 x rows, 0/1)
    sums the squared entries of the A, origin and T blocks.  ``fns`` are
    the defect functions the map was built from; ``w`` and ``e`` serve only
    the rebuild of a refused escape vector.  The stack is real when Q and E
    are (see ``subspaces``), else complex.  ``depth``, the one field a
    peel writes, is the deepest stop step of the last peel with the map
    that took a step and returned (0 before one): the column products
    ``_peel`` runs before its first stop test.
    """

    fns: tuple
    w: np.ndarray
    e: np.ndarray
    stack: np.ndarray
    blocks: np.ndarray
    depth: int = 0


def _step_map(m: Subspace, defect_basis: list, pre_tol: float) -> _StepMap:
    """M's step map for this defect basis, from M's memo when E is the same.

    The memo has one slot, which another E replaces.  E is the same when it
    is the same CoeffFn objects, which are immutable, so a hit costs no
    flattening; an E rebuilt from equal coefficients builds the map again.
    The defect-basis checks run when a map is built, so a refused E is
    refused on every call.
    """
    fns = tuple(defect_basis)
    sm = m._memo.get("step_map")
    if (sm is None or len(sm.fns) != len(fns)
            or any(x is not y for x, y in zip(sm.fns, fns))):
        sm = _build_step_map(m, fns, pre_tol)
        m._memo["step_map"] = sm
    return sm


def _build_step_map(m: Subspace, fns: tuple, pre_tol: float) -> _StepMap:
    """Check the defect functions, then fill the blocks of ``_StepMap``.

    The step map is one ambient step (``_ambient_step``) on the columns of
    Q: the step's rows are the A, V_r*, E* S* Q Pi and origin blocks, and T
    is the triangular factor of its escape, without the rows that are
    exactly zero (they add nothing to ||T c||).
    """
    e = _columns(fns, m.dim_m, m.ambient_deg)
    _check_defect_basis(m, e, pre_tol)
    w = wandering(m).matrix
    rows, escape = _ambient_step(m.matrix, w, e, m.dim_m, m.matrix)
    # an escape that is exactly zero (a synthesized M) has no nonzero R row
    t = np.linalg.qr(escape, mode="r") if escape.any() else escape[:0]
    stack = np.concatenate((rows, t[t.any(axis=1)]))
    blocks = np.zeros((3, len(stack)))
    i_origin = len(rows) - m.dim_m
    blocks[0, : m.dim] = blocks[1, i_origin : len(rows)] = blocks[2, len(rows) :] = 1.0
    return _StepMap(fns, w, e, stack, blocks)


def _default_k_max(ambient_deg: int, p: int) -> int:
    """The default step bound of the peeling: ambient degree + p + 8."""
    return ambient_deg + p + 8


def _ambient_step(q: np.ndarray, w: np.ndarray, e: np.ndarray, dim_m: int,
                  g: np.ndarray):
    """One peeling step on ambient columns g, with M's basis Q, the
    wandering basis W and the defect basis E:

        a = W* G,   F = G - W a,   H = S* F,
        c = Q* H,   beta = E* H,   escape = H - Q c - E beta.

    Returns (rows, escape): rows stacks c, a, beta and F(0) in the order of
    ``_StepMap.stack``.  It builds the step map (g = Q) and rebuilds a
    refused escape vector; every product goes through ``_mul``, which takes
    a real Q, W or E against complex columns.
    """
    a = _mul(w, g, adjoint=True)
    f = g - _mul(w, a)
    h = _shift_rows(f, dim_m, "S*")
    c = _mul(q, h, adjoint=True)
    beta = _mul(e, h, adjoint=True)
    rows = np.concatenate((c, a, beta, f[:dim_m]))
    # not in place, since a real H meets a complex E, but one product at a
    # time and with F released: the step map's build holds no more than
    # three n x dim M arrays
    del f
    h = h - _mul(q, c)
    return rows, h - _mul(e, beta)


def _peel(m: Subspace, defect_basis: list, g: np.ndarray | None, eps: float,
          k_max: int | None):
    """The peeling iteration on b columns of M, all in one pass.

    g is the n x b matrix of the columns, or None for the columns of Q.
    The checks come first: k_max (default ambient degree + p + 8) must be
    at least 1, every column of g must lie in M within pre_tol =
    ``_defect_tol(m.tol)`` relative to its norm (Q's own columns lie in M),
    and the defect functions must be orthonormal and orthogonal to M
    (checked when M's step map for them is built).  One step, with W the
    wandering basis, Q the basis of M and E the defect basis (all as
    column matrices):

        a = W* G,   F = G - W a,   F(0) = F[:m] must vanish,
        H = S* F,   G' = Q Q* H,   beta = E* H,   escape = H - G' - E beta.

    Every G is Q c, so the steps run on M's coordinates, from c = Q* g (the
    membership check's product; c = I for Q's own columns).  A column of g
    that lies off M, by at most pre_tol, is thus peeled as its projection
    P_M g, while its remainder norm before the first step stays ||g||.  All
    b columns advance in lockstep: the loop body is one product of the
    step map ``sm.stack`` with the b columns of c per step, which gives c',
    a, beta, F(0) and T c, where ||T c|| = ||escape||, and a test for a
    stop (a column at eps, an origin failure or an escape) after each
    batch of steps.  The first batch runs d column products, where d is
    the step map's ``depth``, the deepest stop step of the last peel with
    it that returned (``_STOP_STRIDE`` for a new map), so a decompose
    after an ``extract_K`` of the same M is one batch; every later batch
    runs ``_STOP_STRIDE``.  A batch of b columns is a whole number of
    steps, at least one, and no run takes more than k_max steps; a column
    that stops early after a deep run takes at most d steps before its
    first test.  A stopped column stays in c, but its later steps are
    excluded from the refusal test and discarded after the loop.  Of each
    product only (a; beta) and the norms ||c'||, ||F(0)|| and ||T c|| are
    kept, so the batch of products between two tests is all the loop
    holds: d column products of the stack's height in the first batch,
    ``_STOP_STRIDE`` in each later one.  The stop steps, the remainder
    norms, the largest escape norms and the refusal are read from the kept
    values after the loop.  No n-row array is formed after the membership
    check, except to rebuild a refused escape vector from the c of its
    step.  The products run in the field of the step map and the columns;
    a real map takes complex columns as float64 pairs.

    A column stops at its first step with ||G'|| <= eps, or after k_max
    steps; the steps it ran past that are discarded, and every step is the
    same product whatever the batch, so the results do not depend on the
    batch sizes or on earlier calls.  An origin value above
    pre_tol * max(1, ||G||) raises InvariantViolationError, and an escape
    norm above DEFAULT_NEAR_TOL raises NotNearlyInvariantError.  The
    earliest failing step wins; within it, an origin failure in any column
    comes before an escape, and then the lowest failing column wins.

    Returns (tup, gk, max_res, end): tup (steps, r + p, b) holds the
    per-step coordinates (a, then beta), zero after a column stopped; gk
    (steps + 1, b) the remainder norms, a stopped column's last norm
    repeated; max_res the largest escape norm of each column; end (b,)
    each column's stop step, the steps it ran (0 for a column at eps from
    the start).  steps is the largest stop step.
    """
    if k_max is None:
        k_max = _default_k_max(m.ambient_deg, len(defect_basis))
    if k_max < 1:
        raise PreconditionError("k_max must be at least 1")
    pre_tol = _defect_tol(m.tol)
    q, d = m.matrix, m.dim
    if g is None:
        g0, c = np.ones(d), np.eye(d)
    else:
        g0 = np.linalg.norm(g, axis=0)
        c = _mul(q, g, adjoint=True)
        resid = np.linalg.norm(g - _mul(q, c), axis=0)
        outside = resid > pre_tol * np.maximum(1.0, g0)
        if outside.any():
            raise PreconditionError(
                f"function is not in the subspace (residual {resid[outside.argmax()]:.3g})"
            )
    sm = _step_map(m, defect_basis, pre_tol)
    stack, width, b = sm.stack, sm.w.shape[1] + sm.e.shape[1], g0.size
    # the columns that stopped; one at eps from the start peels as zero
    at_eps = done = g0 <= eps
    c1 = c * ~at_eps
    # decided once per call: a real stack takes complex columns through
    # their float64 view (as in ``_mul``, one real product per step), so
    # every product is in the stack's field; the block sums of |y|^2 fold
    # a real and an imaginary part when the columns' field is complex
    field = np.result_type(stack, c1)
    cw = c1 if stack.dtype == field else np.ascontiguousarray(c1).view(float)
    fold = field.kind == "c"
    screen = np.array([[pre_tol], [DEFAULT_NEAR_TOL]])
    stride = max(1, _STOP_STRIDE // max(b, 1))
    # per batch of steps, over every column: (a; beta) as (n, r + p, b) and
    # the norms ||c'||, ||F(0)||, ||T c|| as (n, 3, b)
    coords, norms = [], []
    last, steps, refused = g0, 0, False
    n = min(max(1, (sm.depth or _STOP_STRIDE) // max(b, 1)), k_max)
    while n and not done.all():
        ys = np.empty((n, len(stack), cw.shape[1]), dtype=stack.dtype)
        # np.dot into a row block of ys costs less per call than np.matmul
        for y in ys:
            np.dot(stack, cw, out=y)
            cw = y[:d]
        coords.append(ys[:, d : d + width].copy())
        sq = sm.blocks @ np.square(ys.view(float))
        if fold:
            sq = sq[..., ::2] + sq[..., 1::2]
        nb = np.sqrt(sq)
        norms.append(nb)
        steps += n
        now = nb[:, 0]
        # an origin failure needs ||F(0)|| > pre_tol, so most batches need
        # only the stop test; a column that stopped fails nothing
        if (nb[:, 1:] > screen).any():
            _, origin_failed, escaped = _first_events(nb, last, eps, pre_tol)
            refused = bool(((origin_failed | escaped) & ~done).any())
            if refused:
                break
        done = done | (now <= eps).any(axis=0)
        last = now[-1]
        n = min(stride, k_max - steps)
    if not norms:
        return (np.zeros((0, width, b), dtype=stack.dtype), g0[None], np.zeros(b),
                np.zeros(b, dtype=int))
    nb = norms[0] if len(norms) == 1 else np.concatenate(norms)
    if refused:
        end, origin_failed, escaped = _first_events(nb, g0, eps, pre_tol)
        s = int(end[origin_failed | escaped].min())
        j = ((end == s) & origin_failed).nonzero()[0]
        if j.size:
            raise InvariantViolationError(
                f"wandering removal left value {nb[s - 1, 1, j[0]]:.3g} at the origin"
            )
        j = int(((end == s) & escaped).nonzero()[0][0])
        # the c that step s starts from, recomputed for column j alone
        c = c1[:, j].reshape(-1, 1)
        for _ in range(s - 1):
            c = _mul(stack, c)[:d]
        vec = _ambient_step(q, sm.w, sm.e, m.dim_m, _mul(q, c))[1][:, 0]
        raise NotNearlyInvariantError(s, float(nb[s - 1, 2, j]), unflatten(vec, m.dim_m))
    # each column's last step: its first stop, else the last step taken; a
    # column at eps from the start has ||c'|| = 0 at step 1, and ends at 0
    end = np.where(done, (nb[:, 0] <= eps).argmax(axis=0) + ~at_eps, steps)
    top = sm.depth = int(end.max())
    tup = (coords[0] if len(coords) == 1 else np.concatenate(coords))[:top].view(field)
    gk = np.concatenate((g0[None], nb[:top, 0]))
    esc = nb[:top, 2]
    if end.min() < top:
        ran = np.arange(1, top + 1)[:, None] <= end
        tup *= ran[:, None]
        gk[1:] = np.where(ran, gk[1:], gk[end, np.arange(b)])
        esc = esc * ran
    return tup, gk, esc.max(axis=0, initial=0.0), end


def _first_events(nb: np.ndarray, g0: np.ndarray, eps: float, pre_tol: float):
    """Each column's first stop or failure among n peeling steps.

    nb (n, 3, b) holds the norms ||c'||, ||F(0)||, ||T c|| of the steps and
    g0 the norms ||G|| before the first.  An event is ||c'|| <= eps, an
    origin value above pre_tol * max(1, ||G||) or an escape norm above
    DEFAULT_NEAR_TOL.  Returns (step, origin_failed, escaped) per column:
    the step of the first event (1-based, 0 for none) and whether it
    failed the origin test or escaped.
    """
    now, at_zero, esc = nb[:, 0], nb[:, 1], nb[:, 2]
    origin = at_zero > pre_tol * np.maximum(1.0, np.concatenate((g0[None], now[:-1])))
    escape = esc > DEFAULT_NEAR_TOL
    event = origin | escape | (now <= eps)
    first, cols = event.argmax(axis=0), np.arange(nb.shape[2])
    hit = event[first, cols]
    return (np.where(hit, first + 1, 0), origin[first, cols] & hit,
            escape[first, cols] & hit)


def decompose(m: Subspace, defect_basis, f: CoeffFn, eps: float = _EPS,
              k_max: int | None = None) -> DecompResult:
    """Peel F in M into wandering and defect coordinates.

    Each step removes the wandering component (which must leave a function
    vanishing at 0), applies the backward shift, and splits the result into
    its M part, its defect coordinates, and an escape remainder R; ``_peel``
    runs every step on M's coordinates, from c = Q* F, with M's step map for
    this defect basis (built on the first call, when the defect-basis
    checks run).  F must lie in M within the membership tolerance
    ``_defect_tol(m.tol)`` relative to its norm, and is peeled as its
    projection P_M F; ``gk_norms[0]`` is ||F||, and ``norm_gap`` is
    measured against it.  ``||R|| > DEFAULT_NEAR_TOL`` raises
    NotNearlyInvariantError carrying the step and the escaping vector;
    hitting ``k_max`` (default: ambient degree + p + 8) with
    ``||G|| > eps`` returns a diagnostic result with ``converged=False``.
    """
    defect_basis = list(defect_basis)
    if f.dim_m != m.dim_m:
        raise DimensionMismatchError(f"function over C^{f.dim_m}, subspace over C^{m.dim_m}")
    g = _field(flatten(f, m.ambient_deg).reshape(-1, 1))
    return _result(_peel(m, defect_basis, g, eps, k_max), 0, len(defect_basis), eps)


def _result(peel: tuple, j: int, p: int, eps: float) -> DecompResult:
    """Column j of a ``_peel`` output with p defect functions, up to its
    own stop step: its coefficients, remainder norms and escape norms."""
    tup, gk, max_res, end = peel
    steps, r = int(end[j]), tup.shape[1] - p
    # the tuple (K0, k_1..k_p), one row per coefficient
    coef = tup[:steps, :, j] if steps else np.zeros((1, tup.shape[1]), dtype=complex)
    return DecompResult(
        K0=CoeffFn._of(r, coef[:, :r]) if r else None,
        kj=tuple(CoeffFn._of(1, coef[:, i : i + 1]) for i in range(r, coef.shape[1])),
        gk_norms=tuple(gk[: steps + 1, j].tolist()),
        max_step_residual=float(max_res[j]),
        # ||K0||^2 + sum ||k_j||^2 is the squared norm of the whole tuple
        norm_gap=abs(float(gk[0, j]) ** 2 - float(np.vdot(coef, coef).real)),
        iterations=steps,
        converged=bool(gk[steps, j] <= eps),
    )


def certify_nearly(m: Subspace, p_max: int, tol: float | None = None,
                   band: int | None = None) -> DefectCertificate:
    """Minimal backward-shift escape of the origin-vanishing part of M.

    Always returns a certificate; the caller compares defect_dim against
    p_max, which this function does not read.  ``band`` restricts both the
    analyzed slice and the counted residuals to the faithful degree band of
    a truncated construction.  The certificate is kept in M's memo under
    its resolved tol and its band, one slot that another (tol, band)
    replaces, so certifying a space again (``synthesize_M`` certifies its
    output) is a lookup.

    The domain {F in M : F(0) = 0, deg F <= band} is one null space: Q
    times the null space of the origin rows of Q stacked on its rows above
    the band (``_slice``), one SVD and one rank decision at
    ||[A; B] x|| <= tol * max(1, top singular value).  A band at or above
    the ambient degree cuts nothing, and the domain is ``vanishing_slice``.
    """
    key = (m.tol if tol is None else tol, band)
    kept = m._memo.get("certificate")
    if kept is not None and kept[0] == key:
        return kept[1]
    domain = _slice(m, True, band)
    cert = replace(defect_of(m, "S*", domain=domain, tol=tol, band=band), mode="nearly")
    m._memo["certificate"] = (key, cert)
    return cert


def extract_K(m: Subspace, defect_basis) -> Subspace:
    """Decompose every basis vector of M and span the coordinate tuples.

    The columns of Q are peeled together by one ``_peel`` run on M's
    coordinates, from c = I (they lie in M, so there is no membership
    check), with the checks and the default ``eps`` and ``k_max`` of
    ``decompose``; a refusal reports the earliest failing step, within it
    an origin failure before an escape, and then the lowest failing
    column.  K's ambient degree is the number of steps minus one.  The
    tuple map must be isometric (Gram matrix of the tuples matches the
    Gram matrix of the basis within 1e-6) and the resulting space must be
    invariant under the componentwise backward shift; violations raise
    CertificationError.
    """
    return _extract(m, list(defect_basis))[0]


def _extract(m: Subspace, defect_basis: list) -> tuple:
    """``extract_K``'s K and the ``_peel`` output it was spanned from (None
    for an empty M), from which ``_result`` reads the ``DecompResult`` of
    each basis vector of M."""
    if not m.dim:
        return Subspace(max(len(defect_basis), 1), 0, (), m.tol), None
    # step k of column j is coefficient k of basis vector j's tuple
    # (K0, k_1..k_p); Q's columns have norm 1 > eps, so at least one step runs
    peel = _peel(m, defect_basis, None, _EPS, None)
    tup = peel[0]
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
    return k, peel


def synthesize_M(k: Subspace, f0_cols, e_fns, ambient_deg: int) -> Subspace:
    """Rebuild the function space from coordinates: F = F0 K0 + sum z k_j E_j.

    F0 columns must be orthonormal with linearly independent values at 0;
    E must be orthonormal, both at the tolerance of every defect list,
    ``_defect_tol(k.tol)``.  Every image is one product: the m x (r+p)
    generator symbol [F0 | zE] (``_generator``) applied by ``multiply`` to
    the columns of K's Q, then spanned by the ``from_spanning`` cut at K's
    tol.  The output is certified nearly invariant with defect at most p,
    and refused otherwise.
    """
    f0_cols = list(f0_cols)
    e_fns = list(e_fns)
    r, p = len(f0_cols), len(e_fns)
    if k.dim_m != r + p:
        raise DimensionMismatchError(
            f"coordinate space over C^{k.dim_m}, expected C^{r + p}"
        )
    gen = _generator(f0_cols, e_fns)
    # the columns of [F0 | zE] as flat vectors: E's shift keeps its Gram matrix
    cols = gen.mats.reshape(-1, r + p)
    for part, label in ((cols[:, :r], "F0 columns"), (cols[:, r:], "defect functions")):
        dev = _gram_deviation(part)
        if dev > _defect_tol(k.tol):
            raise PreconditionError(f"{label} are not orthonormal (deviation {dev:.3g})")
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
    m = _apply_space(gen, k, ambient_deg)
    cert = certify_nearly(m, p)
    if cert.defect_dim > p:
        raise CertificationError(
            f"synthesized space has defect {cert.defect_dim} > {p}"
        )
    return m


def _apply_space(t: MatSymbol, space: Subspace, ambient_deg: int) -> Subspace:
    """Exact image of a subspace under a multiplier, re-orthonormalized at
    the space's tol."""
    x = space.matrix.reshape(space.ambient_deg + 1, space.dim_m, space.dim)
    images = multiply(t, x, ambient_deg).reshape(-1, space.dim)
    return _span_columns(images, t.m_out, ambient_deg, space.tol)


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


def _stack(arrays) -> np.ndarray:
    """np.stack of the arrays, or a view of the only one: a batch of one
    is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _escape(items) -> list:
    """(I - QQ* - EE*) S* X for each (M, E, X) of items, X a matrix of
    columns in M's ambient: the part of S* X outside M (+) span(E).

    Items with the same (dim_m, ambient_deg, dim M, dim E, width of X) and
    the same fields of Q and E form one stack, and each stack is one
    product.  Every E is checked as the peeling checks it, at
    ``_defect_tol(M.tol)``.  Of several errors the first in the order of
    items raises, as if each item ran alone: a refused E, or an E that
    does not flatten into M's ambient, whose error stops the batch.
    Returns (indices, residuals) per stack: the items' indices and their
    residuals, stacked as (len(indices), n, width).
    """
    entries, error = [], None
    for m, fns, x in items:
        try:
            entries.append((m, _columns(fns, m.dim_m, m.ambient_deg), x))
        except WorkbenchError as exc:
            error = exc
            break
    stacks, refusals = [], []
    keys = ((m.dim_m, m.ambient_deg, m.dim, e.shape[1], x.shape[1], m.matrix.dtype, e.dtype)
            for m, e, x in entries)
    for indices in _groups(keys):
        ms, es, xs = zip(*(entries[i] for i in indices))
        q, e = _stack([m.matrix for m in ms]), _stack(es)
        refused = _defect_refusal(q, e, np.array([_defect_tol(m.tol) for m in ms]))
        if refused:
            refusals.append((indices[refused[0]], refused[1]))
        h = _shift_rows(_stack(xs), ms[0].dim_m, "S*")
        stacks.append((indices, _residual(q, h) - _mul(e, _mul(e, h, adjoint=True))))
    # every entry comes before the item that stopped the batch
    if refusals:
        raise PreconditionError(min(refusals)[1])
    if error is not None:
        raise error
    return stacks


def almost_invariant_Sstar_check(m: Subspace, defect_basis) -> tuple:
    """Whether every wandering vector stays in M (+) defect under S*.

    Near invariance constrains only the origin-vanishing part of M; this
    upgrade additionally requires S* W_i in M (+) span(defect) for every
    wandering basis vector W_i.  Returns (ok, max residual); ok means a
    residual of at most 1e-8.
    """
    ((_, resid),) = _escape([(m, defect_basis, wandering(m).matrix)])
    residual = float(np.linalg.norm(resid[0], axis=0).max(initial=0.0))
    return residual <= _ALMOST_TOL, residual


def duality_residuals(pairs) -> tuple:
    """(forward residual, complement residual) of the two containments,
    for each (M, E) of pairs.

    With X = M (+) span E and R = P_{X^perp} S* Q, the n x dim M residual
    of S* on M's basis: forward is the largest column norm of R, the
    largest escape of S* M from X.  Complement is ||P_M S_c P_{X^perp}||,
    the operator norm of the compressed shift S_c applied to X^perp, read
    in M, which is the escape of S_c X^perp from X^perp (+) span E.  S_c is
    used because its ambient adjoint is exactly S*, so P_M S_c P_{X^perp}
    is the adjoint of R Q* and the complement residual is ||R||_2: the
    equivalence of the two statements is an identity of finite-dimensional
    linear algebra, and X^perp is never formed.  The genuine shift would
    overflow the ambient on complement vectors.

    The pairs are checked in the stacks of ``_escape``: one residual
    product, one set of column norms and one SVD per stack.  Every E is
    checked as the peeling checks it.  Of several pairs with an error, a
    refused E or an E that does not flatten into M's ambient, the first
    in input order raises.  Returns one (forward, complement) pair per
    input pair, in order, (0.0, 0.0) for an empty M, and () for no pairs.
    Every pair's residual is held at once, so memory grows with the
    number of pairs.
    """
    pairs = list(pairs)
    out = [(0.0, 0.0)] * len(pairs)
    for indices, r in _escape([(m, e, m.matrix) for m, e in pairs]):
        if not r.shape[-1]:
            continue
        forward = np.linalg.norm(r, axis=-2).max(axis=-1)
        spectral = np.linalg.svd(r, compute_uv=False)[:, 0]
        for i, fwd, comp in zip(indices, forward, spectral):
            out[i] = (float(fwd), float(comp))
    return tuple(out)


def orthocomplement_membership(g, f0_cols, e_fns, k: Subspace,
                               tol: float = 1e-7) -> tuple:
    """Membership of each of G_1 ... G_b in the orthocomplement of M = [F0 | zE] K.

    g holds the G's coefficients, shape (d + 1, m, b), as ``multiply``
    takes them.  G_j is orthogonal to M iff its coordinate tuple
    (T*_{F0} G_j, T*_{E_1} S* G_j, ..., T*_{E_p} S* G_j) has no component
    in the parameter space K, the same K that ``synthesize_M`` takes; with
    no F0 columns the F0 slot is omitted.  The tuples of the whole batch
    are one ``multiply_adjoint`` of the generator [F0 | zE] of
    ``synthesize_M`` (T*_{zE} = T*_E S*, the adjoint of the synthesis map)
    on g.  K's part of all of them is one ``project`` onto K, which reads
    K's window only: the tuple rows above it are orthogonal to K, and a
    shorter tuple is padded with zeros.  The residual of G_j is the norm
    ||Q_K Q_K* t_j|| of its column, and G_j is a member iff it is at most
    tol * max(1, ||G_j||).  The F0 and E columns are not checked for
    orthonormality; a g or a K over the wrong C^m is refused.
    Returns one (member, residual) pair per function, in order, and ()
    for an empty batch.
    """
    gen = _generator(list(f0_cols), list(e_fns))
    # a g over the wrong C^m is refused by the product, a K by the projection
    part = project(k, multiply_adjoint(gen, g))
    g = np.asarray(g)
    b = g.shape[2]
    residuals = np.linalg.norm(part.reshape(k.ambient_dim, b), axis=0)
    norms = np.linalg.norm(g.reshape(len(g) * g.shape[1], b), axis=0)
    bounds = tol * np.maximum(1.0, norms)
    return tuple((bool(res <= bound), float(res)) for res, bound in zip(residuals, bounds))
