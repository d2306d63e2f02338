"""API audit: every public name, and every public method and property of
the core types, has a caller inside the package, every public option is
set by some caller inside the package, no relative import goes unused,
``CoeffFn`` stays a boundary type, and the memos of ``Subspace`` and
``MatSymbol`` hold only the caches named here.

The audit reads the sources with ``ast``, so a word in a docstring or a
comment never counts as a use.
"""

import ast
from pathlib import Path

import hardylab
from hardylab.funcs import CoeffFn
from hardylab.scenarios import run_all

SRC = Path(hardylab.__file__).parent
# result types: handed back to callers, never imported by another module
RESULT_TYPES = {"DecompResult", "ScenarioReport"}
# public names only callers outside the package use: ``zero_fn`` makes the
# witness a caller hands to NotNearlyInvariantError (the benchmark harness
# plants a refusal with it), and ``extract_K`` is the extraction callers
# time and call, while the roundtrip scenarios read its peel through
# ``nearly._extract``
OUTSIDE_ONLY = {"zero_fn", "extract_K"}
# CoeffFn builds allowed in one run_all(): functions cross the boundary
# (JSON-like inputs, defect lists, decomposition results), they are not the
# currency of the numerical work
MAX_COEFFN_BUILDS = 600
# defaulted parameters only callers outside the package bind: the console
# entry point's argument list
UNBOUND_OPTIONS = {"cli.main(argv)"}
# the keys a subspace's per-instance memo may hold, each with its reader:
# a fat space's thin complement (``complement``, ``defect_of``), the
# peeling step map (``nearly._step_map``) and the nearly-invariance
# certificate (``nearly.certify_nearly``); and the one key of a symbol's
# memo: the plan of its range QR (``subspaces._plan``)
MEMO_KEYS = {"certificate", "complement", "step_map", "plan"}
# the core types whose public methods and properties each need a caller
CORE_TYPES = {"CoeffFn", "Subspace", "MatSymbol"}


def _trees() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _exported(tree) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _relative_imports(tree) -> list:
    """(source module, imported name, bound name) of every ``from .x import y``."""
    return [(node.module, alias.name, alias.asname or alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_every_public_name_has_a_caller_in_the_package():
    trees = _trees()
    imported = {(src, name)
                for module, tree in trees.items() if module != "__init__"
                for src, name, _ in _relative_imports(tree)}
    orphans = [f"{module}.{name}"
               for module, tree in trees.items()
               for name in _exported(tree)
               if name not in RESULT_TYPES | OUTSIDE_ONLY and (module, name) not in imported]
    assert orphans == []
    # an exemption that gains a caller in the package is dropped
    assert not {name for _, name in imported} & OUTSIDE_ONLY


def _attribute_reads(tree) -> list:
    """Every ``x.name`` in the tree but those on an imported module
    (``np.linalg.norm`` is numpy's ``norm``, not a method's)."""
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    reads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if not (isinstance(root, ast.Name) and root.id in modules):
            reads.append(node)
    return reads


def test_every_public_method_has_a_caller_in_the_package():
    # a caller is an attribute of the method's name read outside the
    # method's own body; the audit reads names, not types, so a name that
    # two of the types share (``padded``) is used when either is
    trees = _trees()
    reads = [node for tree in trees.values() for node in _attribute_reads(tree)]
    orphans = []
    for tree in trees.values():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in CORE_TYPES):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(method)}
                if not any(node.attr == method.name and id(node) not in own
                           for node in reads):
                    orphans.append(f"{cls.name}.{method.name}")
    assert orphans == []


def _public_signatures(trees) -> dict:
    """Name as called -> (label, positional parameter names, defaulted names).

    The functions in a module's ``__all__``, ``Subspace.__init__`` (called
    as ``Subspace``, ``self`` dropped) and the console entry ``cli.main``.
    """
    table = {}
    for module, tree in trees.items():
        wanted = set(_exported(tree)) | ({"main"} if module == "cli" else set())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "Subspace":
                node = next(n for n in node.body
                            if isinstance(n, ast.FunctionDef) and n.name == "__init__")
                name, label, skip = "Subspace", "subspaces.Subspace", 1
            elif isinstance(node, ast.FunctionDef) and node.name in wanted:
                name, label, skip = node.name, f"{module}.{node.name}", 0
            else:
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            table[name] = (label, positional, defaulted)
    return table


def test_every_public_option_is_set_by_a_caller_in_the_package():
    trees = _trees()
    table = _public_signatures(trees)
    bound = {name: set() for name in table}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in table:
                continue
            positional = table[name][1]
            bound[name] |= set(positional[: len(node.args)])
            bound[name] |= {kw.arg for kw in node.keywords}
    unset = sorted(f"{label}({param})"
                   for name, (label, _, defaulted) in table.items()
                   for param in defaulted if param not in bound[name])
    assert unset == sorted(UNBOUND_OPTIONS)


def test_no_relative_import_goes_unused():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":
            continue  # the package namespace re-exports
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}: {bound} from .{src}"
                   for src, _, bound in _relative_imports(tree) if bound not in used]
    assert unused == []


def test_run_all_builds_few_coeff_fns(monkeypatch):
    built = [0]
    original = CoeffFn.__post_init__

    def counting(self):
        built[0] += 1
        original(self)

    monkeypatch.setattr(CoeffFn, "__post_init__", counting)
    assert all(report.passed for report in run_all())
    assert 0 < built[0] <= MAX_COEFFN_BUILDS


def _memo_stores(tree) -> list:
    """The key of every ``x._memo[key] = ...`` and every other write to a memo.

    A non-literal key, or a write through a dict method, is returned as its
    source text, so it never matches a name in MEMO_KEYS.
    """
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Attribute) and node.value.attr == "_memo"):
            key = node.slice
            found.append(key.value if isinstance(key, ast.Constant) else ast.unparse(node))
        elif (isinstance(node, ast.Attribute) and node.attr in
              {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}
              and isinstance(node.value, ast.Attribute) and node.value.attr == "_memo"):
            found.append(ast.unparse(node))
    return found


def test_memo_holds_only_the_named_caches():
    stored = {key for tree in _trees().values() for key in _memo_stores(tree)}
    assert stored == MEMO_KEYS
