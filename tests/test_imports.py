"""Every module of the package uses each name it imports, and every
private function has a caller.

``__init__.py`` is exempt from the import scan, because its imports are
the public API, and so is an import whose line carries ``# noqa``: a name
kept importable from a module that does not call it.  A function or method
whose name starts with one underscore is private to the package, so some
code of the package must name it outside its own ``def``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mahlerkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa" in lines[i - 1] for i in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported_unless_marked():
    source = "from math import gcd, lcm\nimport os  # noqa: F401\nimport os.path as osp\nx = gcd(4, 6)\n"
    assert unused_imports(source) == ["lcm (line 1)", "osp (line 3)"]


def unreferenced_private_functions(sources: dict) -> list[str]:
    """Functions and methods named _x that no code in sources (module name
    to text) names outside their own def."""
    defs, refs = [], []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defs.append((module, node))
            elif isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(module, node.lineno, alias.name) for alias in node.names]

    def outside(module, node, ref):
        return ref[2] == node.name and not (ref[0] == module and node.lineno <= ref[1] <= node.end_lineno)

    return [
        "%s.%s (line %d)" % (module, node.name, node.lineno)
        for module, node in defs
        if not any(outside(module, node, ref) for ref in refs)
    ]


def test_every_private_function_has_a_caller():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_uncalled_private_function_is_reported():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\ndef __dunder__():\n    pass\n",
        "b": "from a import _used\n\nclass C:\n    def _method(self):\n        return self._method\n\n    def _helper(self):\n        return _used()\n",
        "c": "import b\n\nb.C()._helper()\n",
    }
    assert unreferenced_private_functions(sources) == ["a._recursive (line 4)", "b._method (line 4)"]
