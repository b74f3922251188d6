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
