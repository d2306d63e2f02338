"""JSON (de)serialization for functions, symbols, and spanning sets.

All complex numbers travel as [re, im] pairs.  Parse errors carry the JSON
path of the offending node (e.g. ``coeffs[2][0]``) so malformed files can
be fixed without guesswork.  JSON booleans are never numbers here:
``true`` as a dimension, degree, tolerance or [re, im] entry is refused.

Formats
-------
function:   {"m": 2, "coeffs": [[[re,im],[re,im]], ...]}     one inner list
            of m pairs per degree.
symbol:     {"kind": "monomial", "k": 2, "deg": 4}
            {"kind": "blaschke", "zeros": [[re,im],...], "rotation": [re,im], "deg": 32}
            {"kind": "diag", "entries": [<scalar specs>], "deg": 4}
            Every kind is inner, so every parsed symbol is claimed inner;
            any other kind is a parse error.  A top-level monomial lifts
            deg to k; a monomial entry of a diag must have k <= deg, since
            a cut entry would be zero.
space:      {"m": 2, "ambient_deg": 8, "spanning": [<coeffs arrays>], "tol": 1e-10}
functions:  {"m": 2, "functions": [<coeffs arrays>]}          ordered list,
            used for defect bases (must already be orthonormal).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError
from .funcs import CoeffFn, make_fn
from .inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from .multipliers import MatSymbol
from .subspaces import DEFAULT_TOL, Subspace, from_spanning

__all__ = [
    "parse_function_spec",
    "parse_symbol_spec",
    "parse_space_spec",
    "parse_function_list",
    "serialize_function",
    "load_json",
]


def load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _number(x) -> bool:
    """A JSON number; ``bool`` is an ``int`` subclass, but true is not 1 here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _whole(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _complex_at(node, path: str) -> complex:
    if not isinstance(node, (list, tuple)) or len(node) != 2:
        raise ParseError(f"{path}: expected a [re, im] pair, got {node!r}")
    re, im = node
    if not _number(re) or not _number(im):
        raise ParseError(f"{path}: entries must be numbers, got {node!r}")
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ParseError(f"{path}: non-finite number")
    return complex(re, im)


def _object(text) -> dict:
    """A JSON document (text or already parsed) that must be an object."""
    doc = load_json(text) if isinstance(text, str) else text
    if not isinstance(doc, dict):
        raise ParseError("top level: expected an object")
    return doc


def _dim_m(doc: dict) -> int:
    m = doc.get("m")
    if not _whole(m) or m < 1:
        raise ParseError(f"m: expected a positive integer, got {m!r}")
    return m


def _fn_list(doc: dict, key: str, m: int) -> list:
    """The list of coefficient arrays under key, as functions over C^m."""
    node = doc.get(key)
    if not isinstance(node, list):
        raise ParseError(f"{key}: expected a list of coefficient arrays")
    return [make_fn(m, _coeff_rows(n, m, f"{key}[{i}]")) for i, n in enumerate(node)]


def _coeff_rows(node, m: int, path: str) -> list:
    if not isinstance(node, list) or not node:
        raise ParseError(f"{path}: expected a nonempty list of coefficient vectors")
    rows = []
    for n, row in enumerate(node):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"{path}[{n}]: expected {m} component pairs")
        rows.append([_complex_at(c, f"{path}[{n}][{i}]") for i, c in enumerate(row)])
    return rows


def parse_function_spec(text: str) -> CoeffFn:
    """Parse a single coefficient function from JSON text."""
    doc = _object(text)
    m = _dim_m(doc)
    if "coeffs" not in doc:
        raise ParseError("coeffs: missing")
    return make_fn(m, _coeff_rows(doc["coeffs"], m, "coeffs"))


def _parse_scalar_symbol(doc, deg: int, path: str) -> MatSymbol:
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a scalar spec object")
    kind = doc.get("kind")
    if kind == "monomial":
        k = doc.get("k")
        if not _whole(k) or k < 0:
            raise ParseError(f"{path}.k: expected a non-negative integer, got {k!r}")
        return monomial_inner(k, max(deg, k))
    if kind == "blaschke":
        zeros_node = doc.get("zeros", [])
        if not isinstance(zeros_node, list):
            raise ParseError(f"{path}.zeros: expected a list of [re, im] pairs")
        zeros = [_complex_at(z, f"{path}.zeros[{i}]") for i, z in enumerate(zeros_node)]
        rot = _complex_at(doc["rotation"], f"{path}.rotation") if "rotation" in doc else 1.0
        return blaschke_scalar(BlaschkeSpec(zeros, rot), deg)
    raise ParseError(f"{path}.kind: unknown scalar kind {kind!r}")


def _parse_entry(doc, deg: int, path: str) -> MatSymbol:
    """A scalar spec inside a diag spec, which cuts every entry to
    ``deg``: a monomial above deg would be cut to zero, so it is refused."""
    entry = _parse_scalar_symbol(doc, deg, path)
    if doc["kind"] == "monomial" and doc["k"] > deg:
        raise ParseError(f"{path}.k: monomial degree {doc['k']} exceeds deg {deg}, "
                         f"so the entry would be cut to zero")
    return entry


def parse_symbol_spec(text: str) -> MatSymbol:
    """Parse an inner symbol from JSON text (or a parsed object).

    The kinds are ``monomial``, ``blaschke`` and a ``diag`` of those two,
    each claimed inner; any other kind is a ``ParseError`` naming ``kind``.
    """
    doc = _object(text)
    deg = doc.get("deg", 0)
    if not _whole(deg) or deg < 0:
        raise ParseError(f"deg: expected a non-negative integer, got {deg!r}")
    kind = doc.get("kind")
    if kind == "diag":
        entries = doc.get("entries")
        if not isinstance(entries, list) or not entries:
            raise ParseError("entries: expected a nonempty list of scalar specs")
        parsed = [
            _parse_entry(e, deg, f"entries[{i}]") for i, e in enumerate(entries)
        ]
        return diag_inner(parsed, deg)
    return _parse_scalar_symbol(doc, deg, "")


def parse_space_spec(text: str) -> Subspace:
    """Parse a subspace from a spanning-set JSON document."""
    doc = _object(text)
    m = _dim_m(doc)
    ambient = doc.get("ambient_deg")
    if not _whole(ambient) or ambient < 0:
        raise ParseError(f"ambient_deg: expected a non-negative integer, got {ambient!r}")
    tol = doc.get("tol", DEFAULT_TOL)
    if not _number(tol) or not math.isfinite(tol) or tol <= 0:
        raise ParseError(f"tol: expected a finite positive number, got {tol!r}")
    return from_spanning(_fn_list(doc, "spanning", m), ambient, float(tol), dim_m=m)


def parse_function_list(text: str) -> list:
    """Parse an ordered function list (defect bases and the like)."""
    doc = _object(text)
    return _fn_list(doc, "functions", _dim_m(doc))


def _pairs(arr: np.ndarray) -> list:
    return [[float(c.real), float(c.imag)] for c in arr]


def serialize_function(f: CoeffFn) -> dict:
    return {"m": f.dim_m, "coeffs": [_pairs(row) for row in f.coeffs]}
