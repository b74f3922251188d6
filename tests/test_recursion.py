import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "upg"


def self_calls(path: Path) -> list[str]:
    """Functions of the module that call their own name.

    A module-level function or a nested closure recurses by calling its
    name; a method by calling it on ``self`` or ``cls``, since a bare name
    inside a method is the module-level one.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            target = call.func
            if id(func) in methods:
                recurses = (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")
                    and target.attr == func.name
                )
            else:
                recurses = isinstance(target, ast.Name) and target.id == func.name
            if recurses:
                found.append(f"line {call.lineno}: {func.name}")
    return found


# graphs and invariants run on graphs up to the order cap; rings recurses
# only over spec nesting, which MAX_PROD_NESTING bounds
@pytest.mark.parametrize("name", ["graphs.py", "invariants.py"])
def test_no_recursive_functions(name):
    assert self_calls(PACKAGE / name) == []


def test_recursion_detector_sees_functions_closures_and_methods(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"
        "def outer():\n"
        "    def expand(k):\n"
        "        expand(k)\n"
        "    return expand\n"
        "class C:\n"
        "    def solve(self):\n"
        "        return self.solve()\n"
        "    def complement(self):\n"
        "        return complement(self)\n"
    )
    assert self_calls(module) == ["line 2: walk", "line 5: expand", "line 9: solve"]
