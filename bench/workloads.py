"""The benchmark's workloads: inputs from a seed, one pass of operations,
and a correctness check per operation.

A workload's constructor is its set-up (inputs are generated there, from
the seed).  ``ops()`` returns the operations of one pass, in order.  Each
operation is a ``(label, call, check)`` triple: ``call()`` drives hardylab
through its public entry points and is the only part that is timed;
``check(result)`` returns ``None`` when the result is mathematically right
and a short reason otherwise.  Operations of one pass may hand results to
later ones through the workload's ``state`` dict.

``kernel`` says which reference kernels (see ``worker.py``) the workload's
speed follows: ``dense`` where its time goes to large LAPACK calls,
``mixed`` where it is shared between the interpreter and LAPACK.

Every hardylab function is reached through the ``hardylab`` package (or
``hardylab.cli``) attribute at call time, so a test can plant a wrong
result by replacing that attribute.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import numpy as np

import hardylab as hl
from hardylab import cli

_RUNTIME = re.compile(r'"runtime_ms": [-+0-9.eE]+')


class Suite:
    """Every shipped scenario at default parameters, one CLI call each."""

    name = "suite"
    kernel = "mixed"

    def __init__(self, seed: int):
        self.argvs = [(sid, ["--seed", str(seed), "scenario", sid, "--json"])
                      for sid in hl.SCENARIOS]
        self.reference: dict[str, str] = {}
        self.observed: dict = {"scenarios": len(self.argvs)}

    def ops(self):
        return [(sid, _cli_call(argv), self._checker(sid))
                for sid, argv in self.argvs]

    def _checker(self, sid: str):
        def check(result):
            rc, text = result
            if rc != 0:
                return f"exit code {rc}"
            reports = json.loads(text)
            if not reports or not all(r["passed"] for r in reports):
                return "a report did not pass"
            # byte-identical to the first pass, apart from runtime_ms
            masked = _RUNTIME.sub('"runtime_ms": _', text)
            first = self.reference.setdefault(sid, masked)
            if masked != first:
                return "report differs from an earlier pass"
            return None
        return check


def _cli_call(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()
    return call


class LargeN:
    """Two inner symbols at N in {64, 128, 256}, plus Beurling at N=128."""

    name = "large_n"
    kernel = "dense"
    orders = (64, 128, 256)

    def __init__(self, seed: int):
        # the work list is fixed: nothing here depends on the seed
        self.symbols = {
            # m = 4, deg det = 9
            "theta4": hl.diag_inner(
                [hl.monomial_inner(k, 3) for k in (1, 2, 3, 3)], 3),
            # m = 2; b_{1/2} b_{-1/3} truncated at degree 48
            "theta2": hl.diag_inner(
                [hl.monomial_inner(2, 48),
                 hl.blaschke_scalar(hl.BlaschkeSpec([0.5, -1 / 3]), 48)], 48),
        }
        self.observed = {"theta2_tail_bound": self.symbols["theta2"].tail_bound}

    def ops(self):
        out = [(f"{sym}_N{n}", self._model_call(sym, n), self._model_check(sym, n))
               for sym in self.symbols for n in self.orders]
        out.append(("beurling_N128",
                    lambda: hl.run_scenario("beurling", {"N": 128}),
                    lambda rep: None if rep.passed else "beurling report failed"))
        return out

    def _model_call(self, sym: str, n: int):
        theta = self.symbols[sym]

        def call():
            k = hl.model_space(theta, n)
            cert = hl.certify_nearly(k, 0, band=k.band)
            return k.dim, cert.defect_dim
        return call

    def _model_check(self, sym: str, n: int):
        def check(result):
            dim, defect = result
            self.observed[f"{sym}_N{n}_dim"] = dim
            if sym == "theta4" and dim != 9:
                return f"dim K = {dim}, expected deg det = 9"
            if defect != 0:
                return f"certified defect {defect} within the band, expected 0"
            return None
        return check


# (diagonal monomial powers, NK, r, p) of each roundtrip configuration
ROUNDTRIP_CONFIGS = (((16, 16, 12, 12), 40, 2, 2), ((6, 6, 6), 48, 2, 1))
DRAWS = 40
DISTANCE_TOL = 1e-6
NORM_GAP_TOL = 1e-9


class Roundtrip:
    """Synthesis, certification, extraction and 40 decompositions per config."""

    name = "roundtrip"
    kernel = "mixed"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.configs = []
        for powers, nk, r, p in ROUNDTRIP_CONFIGS:
            m = r + p
            top = max(powers)
            k = hl.model_space(
                hl.diag_inner([hl.monomial_inner(e, top) for e in powers], top), nk)
            draws = (rng.standard_normal((k.dim, DRAWS))
                     + 1j * rng.standard_normal((k.dim, DRAWS)))
            self.configs.append({
                "label": f"r{r}p{p}", "K": k, "p": p, "ambient": nk + 2,
                "F0": [hl.basis_vector(m, i) for i in range(r)],
                "E": [hl.basis_vector(m, m - p + j) for j in range(p)],
                "draws": draws,
            })
        self.state: dict = {}
        self.observed = {f"{c['label']}_dim_K": c["K"].dim for c in self.configs}

    def ops(self):
        out = []
        for c in self.configs:
            out.append((f"{c['label']}_synthesize", self._synth(c), self._synth_check(c)))
            out.append((f"{c['label']}_certify", self._certify(c), self._certify_check(c)))
            out.append((f"{c['label']}_extract", self._extract(c), self._extract_check(c)))
            for j in range(DRAWS):
                out.append((f"{c['label']}_decompose", self._decompose(c, j),
                            _decompose_check))
        return out

    def _synth(self, c):
        def call():
            self.state[c["label"]] = None
            m = hl.synthesize_M(c["K"], c["F0"], c["E"], c["ambient"])
            self.state[c["label"]] = m
            return m
        return call

    def _space(self, c):
        m = self.state.get(c["label"])
        if m is None:
            raise RuntimeError("no synthesized space in this pass")
        return m

    def _synth_check(self, c):
        # the synthesis map is isometric, so dimensions agree
        return lambda m: (None if m.dim == c["K"].dim
                          else f"dim M = {m.dim}, dim K = {c['K'].dim}")

    def _certify(self, c):
        return lambda: hl.certify_nearly(self._space(c), c["p"])

    def _certify_check(self, c):
        return lambda cert: (None if cert.defect_dim <= c["p"]
                             else f"defect {cert.defect_dim} > p = {c['p']}")

    def _extract(self, c):
        return lambda: hl.extract_K(self._space(c), c["E"])

    def _extract_check(self, c):
        def check(k2):
            dist = hl.subspace_distance(k2, c["K"])
            return None if dist <= DISTANCE_TOL else f"extracted K at distance {dist:.3g}"
        return check

    def _decompose(self, c, j: int):
        def call():
            # F = M c / |M c| needs this pass's M; forming it is about 1%
            # of the operation
            m = self._space(c)
            vec = m.matrix @ c["draws"][:, j]
            f = hl.unflatten(vec / np.linalg.norm(vec), m.dim_m)
            return hl.decompose(m, c["E"], f)
        return call


def _decompose_check(res):
    if not res.converged:
        return "decomposition did not converge"
    if res.norm_gap > NORM_GAP_TOL:
        return f"Parseval norm gap {res.norm_gap:.3g} > {NORM_GAP_TOL:g}"
    return None


WORKLOADS = {w.name: w for w in (Suite, LargeN, Roundtrip)}
