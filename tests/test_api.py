"""API audit: every public name has a caller inside the package, every
public option is set by some caller inside the package, no relative import
goes unused, ``CoeffFn`` stays a boundary type, and ``Subspace._memo``
holds only the caches named here.

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
# CoeffFn builds allowed in one run_all(): functions cross the boundary
# (JSON-like inputs, defect lists, decomposition results), they are not the
# currency of the numerical work
MAX_COEFFN_BUILDS = 600
# defaulted parameters only callers outside the package bind: the console
# entry point's argument list
UNBOUND_OPTIONS = {"cli.main(argv)"}
# the keys a subspace's per-instance memo may hold, each with its reader:
# a fat space's thin complement (``complement``, ``defect_of``) and the
# peeling step map (``nearly._step_map``)
MEMO_KEYS = {"complement", "step_map"}


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
               if name not in RESULT_TYPES and (module, name) not in imported]
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
