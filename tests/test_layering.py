"""The package's module layering: which modules import which."""

import ast

from conftest import ROOT

PACKAGE = ROOT / "src" / "billiard_lab"

# module -> the package modules its top-level ``from .x import`` lines
# name: the billiard map and the orbit solver each build on the table
# geometry alone, and only the exponent code uses both
LAYERS = {
    "geometry": set(),
    "dynamics": {"geometry"},
    "symbolic": {"geometry"},
    "lyapunov": {"dynamics", "geometry", "symbolic"},
}


def _relative_imports(nodes):
    """Package modules named by relative imports among ``nodes``."""
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_module_import_graph_is_pinned():
    for name, allowed in LAYERS.items():
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        assert _relative_imports(tree.body) == allowed, name
        # imports inside functions: only geometry's deferred use of the
        # orbit solver for its collision-angle observation
        nested = (_relative_imports(ast.walk(tree))
                  - _relative_imports(tree.body))
        assert nested == ({"symbolic"} if name == "geometry" else set()), name


def _lru_cached(tree):
    """Names of the functions in ``tree`` that ``functools.lru_cache``
    decorates, bare or called, imported or qualified."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) \
                else getattr(target, "id", None)
            if name == "lru_cache":
                found.add(node.name)
    return found


def test_lru_caches_are_pinned():
    # the table snapshot and the phi corpus are the package's only memos
    cached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        cached |= {f"{path.stem}.{name}"
                   for name in _lru_cached(ast.parse(path.read_text()))}
    assert cached == {"geometry.table_at", "geometry._phi_corpus"}
