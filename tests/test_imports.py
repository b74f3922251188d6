import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "upg"


def private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that the module takes from another upg
    module, by ``from`` import, as an attribute of an imported module or
    as an attribute of an imported name (a class's private method)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "upg"
            if not inside:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"line {node.lineno}: {alias.name}")
                else:
                    aliases.add(alias.asname or alias.name)  # a module, class or function
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "upg":
                    aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
            and not node.attr.endswith("__")  # a dunder is public
        ):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path) == []


def test_private_import_detector_sees_both_forms(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import invariants as inv\n"
        "from .graphs import _BIT_SELECTOR, bit_indices\n"
        "from upg.claims import _evaluate\n"
        "from .graphs import SimpleGraph as G\n"
        "x = inv._PrimePiece\n"
        "y = inv.girth\n"
        "z = G._trusted(0, (), (), 0)\n"
        "w = bit_indices.__name__\n"
    )
    assert private_imports(module) == [
        "line 2: _BIT_SELECTOR",
        "line 3: _evaluate",
        "line 5: inv._PrimePiece",
        "line 7: G._trusted",
    ]


RING_GRAPH_BUILDERS = {"units", "unity_product_graph", "full_report", "complement", "ring_graph"}


def upg_names(path: Path) -> set[str]:
    """The names a module takes from another upg module: by ``from``
    import, or as an attribute of an imported upg module (``inv.girth``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "upg"
        ):
            for alias in node.names:
                names.add(alias.name)
                modules.add(alias.asname or alias.name)  # a module, class or function
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname or "upg" for alias in node.names if alias.name.split(".")[0] == "upg"
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            names.add(node.attr)
    return names


def test_cli_reaches_ring_graphs_through_ring_context():
    # every subcommand builds a ring's graphs and reports via RingContext,
    # so none of them has its own unit group, graph or report plumbing
    assert upg_names(PACKAGE / "cli.py") & RING_GRAPH_BUILDERS == set()


RING_CONSTRUCTORS = {"zmod", "gf", "boolean_ring", "direct_product", "prime_power"}


def test_cli_reaches_ring_families_through_family():
    # survey lists its rings with rings.family and the other subcommands
    # parse a spec, so the CLI builds no ring family of its own
    assert upg_names(PACKAGE / "cli.py") & RING_CONSTRUCTORS == set()


def test_upg_names_detector(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import json\n"
        "from collections import Counter\n"
        "from . import claims as cm\n"
        "from .graphs import complement, unity_product_graph as upg\n"
        "from upg.rings import units\n"
        "x = cm.full_report(json.dumps)\n"
    )
    assert upg_names(module) == {
        "claims", "complement", "unity_product_graph", "units", "full_report"
    }


CACHES = {"cache", "lru_cache"}


def _is_cache(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in CACHES


def module_level_caches(path: Path) -> list[str]:
    """functools.cache or lru_cache applied outside a function body: a
    decorator of a module-level function or class method, or a call in a
    module-level statement.  Such a cache outlives every ring built."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += node.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [
                (d.lineno, f"@{ast.unparse(d)}") for d in node.decorator_list if _is_cache(d)
            ]
            continue
        found += [
            (n.lineno, ast.unparse(n))
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and _is_cache(n.func)
        ]
    return [f"line {line}: {text}" for line, text in sorted(found)]


def test_ring_tables_stay_per_ring():
    # each GF(p^k) builds its tables in closures of that ring, so a
    # process that builds many rings keeps none of them alive
    assert module_level_caches(PACKAGE / "rings.py") == []


def test_module_level_cache_detector(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@functools.cache\n"
        "def a(p): pass\n"
        "class C:\n"
        "    @lru_cache(maxsize=None)\n"
        "    def b(self): pass\n"
        "d = cache(len)\n"
        "def ring(p):\n"
        "    @cache\n"
        "    def tables(): pass\n"
        "    return cache(tables)\n"
    )
    assert module_level_caches(module) == [
        "line 3: @functools.cache",
        "line 6: @lru_cache(maxsize=None)",
        "line 8: cache(len)",
    ]



TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, as a name or as the root
    of an attribute.  ``from __future__`` imports are directives, not
    names, and are skipped."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]


# a package __init__ imports to re-export, so it is not linted
LINTED = [
    path
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    if path.name != "__init__.py"
]


@pytest.mark.parametrize("path", LINTED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_detector(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import xml.dom as dom\n"
        "from collections import Counter, deque\n"
        "from .graphs import complement as comp, export_dot\n"
        "Counter = None\n"
        "x = os.path.join(dom.__name__)\n"
        "def f(g: deque) -> None:\n"
        "    return comp(g)\n"
    )
    assert unused_imports(module) == [
        "line 2: json",
        "line 5: Counter",
        "line 6: export_dot",
    ]
