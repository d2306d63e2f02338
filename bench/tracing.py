"""Outside-in tracer: spans around hardylab's public entry points.

Nothing in the program is edited.  ``Tracer.install`` replaces, in place,

* every public function defined in each layer module of ``hardylab``,
  and every module namespace that bound one of them through
  ``from .x import y`` (so a call that crosses modules is attributed to
  the module that defines the callee, not to the caller);
* the ``CoeffFn``, ``Subspace`` and ``MatSymbol`` constructors, plus
  ``Subspace.__post_init__`` (the orthonormality re-check);
* ``numpy.linalg.svd``, ``eigh`` and ``qr`` (the pseudo-layer ``linalg``).

``Tracer.uninstall`` puts every original back.  A span is one call: its
name, start, end, the span that was open when it started (its parent) and
the id of the benchmark operation that caused it.  Spans live in flat
arrays in memory and are written out once, at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  The harness opens one root span per pass and one child span per
operation, so the self times of all spans in a pass add up to the pass's
traced wall time exactly.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("funcs", "multipliers", "inner", "subspaces", "nearly",
          "serialize", "scenarios", "cli")
HARNESS = "harness"

# constructors traced as spans: (layer module, class name)
_CLASSES = (("funcs", "CoeffFn"), ("subspaces", "Subspace"),
            ("multipliers", "MatSymbol"))
_LINALG = ("svd", "eigh", "qr")


def _svd_extra(args, kwargs, out, exc):
    """(computed flops, largest dimension) of one SVD, from the input shape."""
    rows, cols = args[0].shape[-2:]
    return (4.0 * rows * cols * min(rows, cols), max(rows, cols))


def _decompose_extra(args, kwargs, out, exc):
    """(peeling steps, refused) of one decomposition."""
    if exc is not None:
        return (0, type(exc).__name__ == "NotNearlyInvariantError")
    return (out.iterations, False)


_EXTRAS = {"linalg.svd": _svd_extra, "nearly.decompose": _decompose_extra}


class Tracer:
    """Span recorder with install/uninstall of the outside-in wrappers."""

    def __init__(self):
        self.active = False
        self.op = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.extra: dict[int, tuple] = {}
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    # span recording

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self._start)

    def wrap(self, name: str, fn):
        tracer = self
        nid = self.name_id(name)
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                if extra is not None:
                    tracer.extra[idx] = extra(args, kwargs, None, exc)
                raise
            tracer.close(idx)
            if extra is not None:
                tracer.extra[idx] = extra(args, kwargs, out, None)
            return out

        return traced

    # ------------------------------------------------------------------
    # patching

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every entry point; spans are recorded while ``active``."""
        import numpy.linalg

        modules = {layer: importlib.import_module(f"hardylab.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        # rebind every namespace that holds one of the originals
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hardylab"
                                         or name.startswith("hardylab."))]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for layer, cls_name in _CLASSES:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, "__init__",
                      self.wrap(f"{layer}.{cls_name}", cls.__init__))
            if cls_name == "Subspace":
                self._set(cls, "__post_init__",
                          self.wrap("subspaces.gram_check", cls.__post_init__))
        for attr in _LINALG:
            self._set(numpy.linalg, attr,
                      self.wrap(f"linalg.{attr}", getattr(numpy.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    # ------------------------------------------------------------------
    # aggregation and output

    def summarize(self, first: int, stop: int) -> dict:
        """Per-name counts, inclusive and self seconds, and the extras,
        for the spans with index in [first, stop)."""
        n = stop - first
        dur = [self._end[first + i] - self._start[first + i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self._parent[first + i]
            if p >= first:
                child[p - first] += dur[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self._names[self._name[first + i]]
            calls[name] += 1
            incl[name] += dur[i]
            self_s[name] += dur[i] - child[i]
        extras = defaultdict(list)
        for idx, val in self.extra.items():
            if first <= idx < stop:
                extras[self._names[self._name[idx]]].append(val)
        roots = sum(dur[i] for i in range(n) if self._parent[first + i] < first)
        return {"calls": dict(calls), "incl": dict(incl), "self": dict(self_s),
                "extras": dict(extras), "roots_s": roots}

    def write(self, path: Path) -> None:
        """All spans as gzip'd TSV: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self._start)):
                out.write(f"{i}\t{self._names[self._name[i]]}\t{self._start[i]!r}\t"
                          f"{self._end[i]!r}\t{self._parent[i]}\t{self._op[i]}\n")


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values of one traced pass (see BENCHMARK.json)."""
    calls, incl, own, extras = (summary["calls"], summary["incl"],
                                summary["self"], summary["extras"])
    out = {}
    for layer in LAYERS + ("linalg", HARNESS):
        out[f"{layer}.self_s"] = sum(v for k, v in own.items()
                                     if k.split(".", 1)[0] == layer)
    out["funcs.coeffn_built"] = calls.get("funcs.CoeffFn", 0)
    out["funcs.flatten_calls"] = calls.get("funcs.flatten", 0)
    out["funcs.unflatten_calls"] = calls.get("funcs.unflatten", 0)
    out["subspaces.subspace_built"] = calls.get("subspaces.Subspace", 0)
    out["subspaces.gram_check_s"] = own.get("subspaces.gram_check", 0.0)
    out["subspaces.project_calls"] = calls.get("subspaces.project", 0)
    out["subspaces.wandering_calls"] = calls.get("subspaces.wandering", 0)
    for fn in ("model_space", "beurling_space", "complement", "from_spanning",
               "defect_of"):
        out[f"subspaces.{fn}_s"] = incl.get(f"subspaces.{fn}", 0.0)
    svds = extras.get("linalg.svd", [])
    out["linalg.svd_calls"] = calls.get("linalg.svd", 0)
    out["linalg.svd_s"] = incl.get("linalg.svd", 0.0)
    out["linalg.svd_gflop"] = sum(f for f, _ in svds) / 1e9
    out["linalg.max_svd_dim"] = max((d for _, d in svds), default=0)
    out["linalg.eigh_calls"] = calls.get("linalg.eigh", 0)
    decs = extras.get("nearly.decompose", [])
    out["nearly.decompose_calls"] = calls.get("nearly.decompose", 0)
    out["nearly.decompose_steps"] = sum(s for s, _ in decs)
    out["nearly.refusals"] = sum(1 for _, refused in decs if refused)
    for fn in ("decompose", "extract_K", "synthesize_M", "certify_nearly"):
        out[f"nearly.{fn}_s"] = incl.get(f"nearly.{fn}", 0.0)
    out["multipliers.apply_calls"] = calls.get("multipliers.apply_multiplier", 0)
    out["multipliers.toeplitz_s"] = incl.get("multipliers.toeplitz_matrix", 0.0)
    out["inner.symbols_built"] = sum(
        calls.get(f"inner.{fn}", 0)
        for fn in ("blaschke_scalar", "monomial_inner", "diag_inner", "as_inner"))
    return out
