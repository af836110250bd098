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


def _memos(tree, prefix=""):
    """Qualified names (``Class.method`` inside a class) of the functions
    in ``tree`` that ``functools.lru_cache`` or
    ``functools.cached_property`` decorates, bare or called, imported or
    qualified."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found |= _memos(node, f"{prefix}{node.name}.")
            continue
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _memos(node, prefix)
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) \
                else getattr(target, "id", None)
            if name in ("lru_cache", "cached_property"):
                found.add(prefix + node.name)
        found |= _memos(node, f"{prefix}{node.name}.")
    return found


def test_lru_caches_are_pinned():
    # the table snapshot (``table_at``'s cache, keyed by bits as well),
    # the phi corpus, and each family's alpha-polynomial stack and the
    # bytes of its coefficients are the package's only memos
    cached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        cached |= {f"{path.stem}.{name}"
                   for name in _memos(ast.parse(path.read_text()))}
    assert cached == {"geometry._shared_table", "geometry._phi_corpus",
                      "geometry.DeformationFamily.alpha_stack",
                      "geometry.DeformationFamily.coefficient_bits"}


def _dotted_names(tree):
    """Every dotted name ``tree`` reads (``np.linalg.solve``) or imports
    (``numpy.linalg.solve`` for ``from numpy.linalg import solve``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, (ast.Attribute, ast.Name)):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name):
                found.add(".".join([node.id] + parts[::-1]))
    return found


def test_chain_systems_have_no_dense_solve():
    # every chain system goes through the tridiagonal kernel: a dense
    # solve, an identity matrix or a banded solver is a second path
    names = _dotted_names(ast.parse((PACKAGE / "symbolic.py").read_text()))
    dense = {name for name in names
             if name.endswith("linalg.solve")
             or name.rsplit(".", 1)[-1] in {"eye", "solve_banded"}}
    assert dense == set()


def _name(node):
    """The name a node reads, calls through or imports, if any."""
    for attr in ("id", "attr", "name"):
        if isinstance(getattr(node, attr, None), str):
            return getattr(node, attr)
    return None


def _sites(tree, match, prefix):
    """Qualified names of the functions in ``tree`` (``prefix`` for the
    module level) holding a node that ``match`` accepts; a node inside a
    nested function counts for that function."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found |= _sites(node, match, f"{prefix}.{node.name}")
            continue
        if match(node):
            found.add(prefix)
        found |= _sites(node, match, prefix)
    return found


def test_one_snapshot_builder_and_one_grid_walk():
    # a table snapshot is built by table_at's cache or by _snapshot's
    # multi-row table alone, and the orbit solver takes its tables from
    # _snapshot; the grid walk's chunk budget lives in symbolic, read by
    # symbolic.walk alone: a third snapshot or walk path fails here
    builders, budget = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        builders |= _sites(tree, lambda node: isinstance(node, ast.Call)
                           and _name(node.func) == "TableAt", path.stem)
        budget |= _sites(tree, lambda node: _name(node) == "WALK_NODES",
                         path.stem)
    assert builders == {"geometry._shared_table", "geometry._snapshot"}
    assert budget == {"symbolic", "symbolic.walk"}
    symbolic = ast.parse((PACKAGE / "symbolic.py").read_text())
    imported = {alias.name for node in ast.walk(symbolic)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_snapshot" in imported
    assert not imported & {"TableAt", "table_at"}
