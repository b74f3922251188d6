import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import bench_workloads

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


def test_cli_names_no_refusal():
    # ring graphs are split in closed form and never refused, so the CLI
    # has no refusal to turn into an exit code
    assert "VertexBoundError" not in upg_names(PACKAGE / "cli.py")


def handlers_of(path: Path, name: str) -> list[str]:
    """The functions, by dotted name in the module, with an ``except``
    clause that names ``name``: bare, as an attribute (``inv.name``) or in
    a tuple.  A clause outside any function is ``<module>``."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                name in (getattr(n, "id", None), getattr(n, "attr", None))
                for n in ast.walk(child.type)
            ):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def test_refusals_handled_in_run_sweep_only():
    # a refusal becomes a skipped verdict in one place; a library caller
    # of the solvers gets the exception itself
    found = [
        f"{path.stem}.{function}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in handlers_of(path, "VertexBoundError")
    ]
    assert found == ["sweep.run_sweep"]


def test_handlers_of_detector(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import invariants as inv\n"
        "from .invariants import VertexBoundError\n"
        "try:\n"
        "    pass\n"
        "except VertexBoundError:\n"
        "    pass\n"
        "class C:\n"
        "    def m(self):\n"
        "        try:\n"
        "            pass\n"
        "        except (KeyError, inv.VertexBoundError):\n"
        "            pass\n"
        "def f():\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError:\n"
        "        pass\n"
        "    except:\n"
        "        raise VertexBoundError\n"
        "    def g():\n"
        "        try:\n"
        "            pass\n"
        "        except inv.VertexBoundError as exc:\n"
        "            raise ValueError from exc\n"
    )
    assert handlers_of(module, "VertexBoundError") == ["<module>", "C.m", "f.g"]


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


def loaded_after(script: str) -> list[str]:
    """The upg modules a fresh interpreter holds after running ``script``."""
    probe = script + "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'upg'))\n"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return ast.literal_eval(res.stdout.splitlines()[-1])


def test_cli_import_loads_no_rows_engine_or_registry():
    # the rows engine and the paper's claims are loaded on first use
    assert loaded_after("import upg.cli\n") == [
        "upg", "upg.claims", "upg.cli", "upg.graphs", "upg.invariants", "upg.rings"
    ]


@pytest.mark.parametrize("workload", sorted(bench_workloads().WORKLOADS))
def test_bench_first_operation_loads_no_rows_engine(workload):
    # every CLI graph is a ring graph, split in closed form; only verify
    # reads the claim registry
    op = bench_workloads().generate(workload, 1)[0]
    loaded = loaded_after(
        "import contextlib, io, upg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = upg.cli.main({list(op.argv)!r})\n"
        f"assert code == {op.expect_exit}, code\n"
    )
    assert "upg.rows" not in loaded and "upg.tables" not in loaded
    assert ("upg.paper" in loaded) == ("upg.sweep" in loaded) == (op.argv[0] == "verify")


def test_general_graph_loads_rows_engine():
    # C5 is no ring graph: its report's split comes from the rows engine
    loaded = loaded_after(
        "from upg import InvariantReport, graph_from_edges\n"
        "report = InvariantReport(graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))\n"
        "assert report.girth == 5 and type(report.split).__name__ == 'Decomposition'\n"
    )
    assert "upg.rows" in loaded and "upg.paper" not in loaded


def test_first_table_spec_loads_tables():
    # table rings are read by their own module, loaded by the first table: spec
    data = Path(__file__).resolve().parent / "data" / "table_z4.json"
    loaded = loaded_after(
        "import upg.cli, sys\n"
        "assert 'upg.tables' not in sys.modules\n"
        f"ring = upg.rings.parse_ring_spec({f'table:@{data}'!r})\n"
        "assert ring.order == 4 and ring.unity is not None\n"
    )
    assert "upg.tables" in loaded and "upg.sweep" not in loaded


def test_package_import_loads_no_sweep_or_tables():
    assert loaded_after("import upg\n") == [
        "upg", "upg.claims", "upg.graphs", "upg.invariants", "upg.rings"
    ]


# what ``upg`` exports, by the module that defines each name
EXPORTS = {
    "claims": (
        "FAIL", "HYPOTHESIS_GAP", "NOT_APPLICABLE", "PASS", "SKIPPED", "Claim", "RingContext",
        "UnknownClaimError", "builtin_claims", "default_rings", "lookup",
    ),
    "sweep": ("ClaimVerdict", "Sweep", "render_csv", "render_json", "render_text", "run_sweep"),
    "graphs": (
        "SimpleGraph", "complement", "decompose_matching_structure", "export_dot", "export_json",
        "graph_from_edges", "graph_from_json", "recognize_complete_multipartite", "ring_graph",
        "unity_product_graph",
    ),
    "invariants": (
        "INFINITY", "InvariantReport", "VertexBoundError", "chromatic_number", "clique_number",
        "domination_number", "eccentricity_profile", "full_report", "girth", "is_hamiltonian",
        "is_planar", "max_clique",
    ),
    "rings": (
        "DEFAULT_ORDER_CAP", "FiniteRing", "NoUnityError", "OrderCapError", "RingAxiomError",
        "RingError", "RingSpecError", "UnitGroup", "boolean_ring", "characteristic",
        "direct_product", "gf", "is_boolean", "is_cyclic", "parse_ring_spec", "unit_counts",
        "units", "zmod",
    ),
    "tables": ("table_ring", "table_ring_from_json"),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_names_are_their_modules_objects(module):
    import upg

    defining = importlib.import_module(f"upg.{module}")
    for name in EXPORTS[module]:
        assert getattr(upg, name) is getattr(defining, name), name
    with pytest.raises(AttributeError):
        upg.no_such_name  # noqa: B018


def test_claims_forwards_the_traced_sweep_names_only():
    # bench/spans.py reads these four as upg.claims names
    import upg.claims
    import upg.sweep

    for name in ("run_sweep", "render_text", "render_json", "render_csv"):
        assert getattr(upg.claims, name) is getattr(upg.sweep, name), name
    for name in ("ClaimVerdict", "Sweep", "summarize"):
        assert not hasattr(upg.claims, name), name
