#!/usr/bin/env python3
"""Command-line front end.

Usage:
    hardylab scenario all --json           run every verification scenario
    hardylab scenario counterexample       run one scenario by id
    hardylab decompose --space M.json --defect E.json --function F.json
    hardylab certify --space M.json --p 1 --op "S*"
    hardylab model-space --theta theta.json --order 16

Exit codes: 0 pass, 1 mathematical failure (certificate or scenario
failed, decomposition refused), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    CertificationError,
    DimensionMismatchError,
    DomainError,
    InvariantViolationError,
    NotInnerError,
    NotNearlyInvariantError,
    ParseError,
    PreconditionError,
    TruncationOverflowError,
    WorkbenchError,
)
from .nearly import certify_nearly, decompose
from .scenarios import SCENARIOS, render_markdown, run_all, run_scenario
from .serialize import (
    load_json,
    parse_function_list,
    parse_function_spec,
    parse_space_spec,
    parse_symbol_spec,
    serialize_function,
)
from .subspaces import DEFAULT_TOL, Subspace, defect_of, model_space

_USAGE_ERRORS = (
    ParseError,
    DimensionMismatchError,
    DomainError,
    PreconditionError,
    TruncationOverflowError,
)
_MATH_ERRORS = (
    NotNearlyInvariantError,
    CertificationError,
    NotInnerError,
    InvariantViolationError,
)


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _certificate_dict(cert) -> dict:
    return {
        "op": cert.op_tag,
        "mode": cert.mode,
        "defect_dim": cert.defect_dim,
        "defect_basis": [serialize_function(b) for b in cert.defect_basis],
        "singular_values": list(cert.singular_values),
        "max_residual": cert.max_residual,
    }


def _read_space(args) -> Subspace:
    """The --space file, with the global --tol (if given) as its rank tol."""
    doc = load_json(_read(args.space))
    if args.tol is not None and isinstance(doc, dict):
        doc["tol"] = args.tol
    return parse_space_spec(doc)


def _cmd_decompose(args) -> int:
    space = _read_space(args)
    defect = parse_function_list(_read(args.defect)) if args.defect else []
    fn = parse_function_spec(_read(args.function))
    result = decompose(space, defect, fn, eps=args.eps, k_max=args.kmax)
    _dump({
        "K0": serialize_function(result.K0) if result.K0 is not None else None,
        "kj": [serialize_function(k) for k in result.kj],
        "gk_norms": list(result.gk_norms),
        "max_step_residual": result.max_step_residual,
        "norm_gap": result.norm_gap,
        "iterations": result.iterations,
        "converged": result.converged,
    })
    return 0 if result.converged else 1


def _cmd_certify(args) -> int:
    space = _read_space(args)
    if args.op == "S*":
        cert = certify_nearly(space, args.p)
    else:
        cert = defect_of(space, "S")
    _dump(_certificate_dict(cert))
    return 0 if cert.defect_dim <= args.p else 1


def _cmd_model_space(args) -> int:
    symbol = parse_symbol_spec(_read(args.theta))
    space = model_space(symbol, args.order, headroom=args.headroom,
                        tol=args.tol if args.tol is not None else DEFAULT_TOL)
    _dump({
        "m": space.dim_m,
        "ambient_deg": space.ambient_deg,
        "dim": space.dim,
        "band": space.band,
        "basis": [serialize_function(b) for b in space.basis],
    })
    return 0


def _parse_param(text: str):
    if "=" not in text:
        raise ParseError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def _cmd_scenario(args) -> int:
    explicit = dict(_parse_param(p) for p in args.param or [])

    def _with_globals(sid: str, base: dict) -> dict:
        # global flags apply only where the scenario has the knob;
        # explicit --param keys stay strict and may error
        out = dict(base)
        defaults = SCENARIOS[sid][1]
        if args.tol is not None and "tol" in defaults:
            out.setdefault("tol", args.tol)
        if args.seed is not None and "seed" in defaults:
            out.setdefault("seed", args.seed)
        return out

    if args.id == "all":
        per_id = {
            sid: _with_globals(
                sid, {k: v for k, v in explicit.items() if k in SCENARIOS[sid][1]}
            )
            for sid in SCENARIOS
        }
        reports = run_all(per_id)
    elif args.id in SCENARIOS:
        reports = [run_scenario(args.id, _with_globals(args.id, explicit))]
    else:
        reports = [run_scenario(args.id, explicit)]  # raises the usage error
    if args.markdown:
        print(render_markdown(reports))
    elif args.json:
        _dump([r.to_dict() for r in reports])
    else:
        for rep in reports:
            print(f"{'PASS' if rep.passed else 'FAIL'}  {rep.scenario_id}  "
                  f"({rep.runtime_ms:.1f} ms)")
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical workbench for truncated vector-valued Hardy spaces",
    )
    parser.add_argument("--tol", type=float, default=None,
                        help="rank/orthonormality tolerance override")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized scenarios (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="split a function into coordinates")
    p_dec.add_argument("--space", required=True, help="spanning-set JSON file")
    p_dec.add_argument("--defect", default=None, help="defect basis JSON file")
    p_dec.add_argument("--function", required=True, help="function JSON file")
    p_dec.add_argument("--eps", type=float, default=1e-10)
    p_dec.add_argument("--kmax", type=int, default=None)
    p_dec.set_defaults(func=_cmd_decompose)

    p_cert = sub.add_parser("certify", help="invariance-defect certificate")
    p_cert.add_argument("--space", required=True, help="spanning-set JSON file")
    p_cert.add_argument("--p", type=int, default=0, help="allowed defect dimension")
    p_cert.add_argument("--op", choices=["S", "S*"], default="S*")
    p_cert.set_defaults(func=_cmd_certify)

    p_model = sub.add_parser("model-space", help="complement of an inner range")
    p_model.add_argument("--theta", required=True, help="symbol JSON file")
    p_model.add_argument("--order", type=int, required=True, help="ambient degree")
    p_model.add_argument("--headroom", type=int, default=0)
    p_model.set_defaults(func=_cmd_model_space)

    p_sc = sub.add_parser("scenario", help="run named verification scenarios")
    p_sc.add_argument("id", help="scenario id or 'all'")
    p_sc.add_argument("--param", action="append", metavar="KEY=VALUE",
                      help="override a scenario parameter (value parsed as JSON)")
    fmt = p_sc.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable reports")
    fmt.add_argument("--markdown", action="store_true", help="claim/metric table")
    p_sc.set_defaults(func=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NotNearlyInvariantError as exc:
        _dump({
            "error": "NOT-NEARLY-INVARIANT",
            "step": exc.step,
            "residual": exc.residual,
            "escape": serialize_function(exc.escape),
        })
        return 1
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
