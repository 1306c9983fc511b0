"""Every module of the package uses each name it imports, and every
function, method and class has a caller.

``__init__.py`` is exempt from the import scan, because its imports are
the public API, and so is an import whose line carries ``# noqa``: a name
kept importable from a module that does not call it.  Some code of the
package must name each function, method and class outside its own
``def``; a re-export in ``__init__.py`` does not count, a CLI handler's
registration does.  The public names kept without a caller are listed in
UNCALLED_PUBLIC with their reasons.
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


# public names with no caller in the package, each kept for a reason
UNCALLED_PUBLIC = {
    "becker.reciprocal_rep": "the library's representation of 1/Q, shown in the README",
    "corpus.family_equation": "bench/workloads.py builds its paradox-family job from it",
    "series.LaurentSeries.invert": "bench/tracing.py wraps it and bench/test_bench.py reads its span",
}


def _definitions(tree, prefix=""):
    """(qualified name, node) for every function, method and class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _definitions(node, prefix + node.name + ".")
        else:
            yield from _definitions(node, prefix)


def unreferenced_definitions(sources: dict, private: bool) -> list[str]:
    """Functions, methods and classes that no code in sources (module name
    to text) names outside their own def: those named _x when private, the
    others when not, dunders aside.  A re-export in __init__ is no use."""
    defs, refs = [], []
    for module, source in sources.items():
        tree = ast.parse(source)
        for qualname, node in _definitions(tree):
            if not node.name.startswith("__") and node.name.startswith("_") == private:
                defs.append((module, qualname, node))
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(module, node.lineno, alias.name) for alias in node.names]

    def outside(module, node, ref):
        return ref[2] == node.name and not (ref[0] == module and node.lineno <= ref[1] <= node.end_lineno)

    return [
        "%s.%s (line %d)" % (module, qualname, node.lineno)
        for module, qualname, node in defs
        if not any(outside(module, node, ref) for ref in refs)
    ]


def package_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def test_every_private_function_has_a_caller():
    assert unreferenced_definitions(package_sources(), private=True) == []


def test_uncalled_private_function_is_reported():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\ndef __dunder__():\n    pass\n",
        "b": "from a import _used\n\nclass C:\n    def _method(self):\n        return self._method\n\n    def _helper(self):\n        return _used()\n",
        "c": "import b\n\nb.C()._helper()\n",
    }
    assert unreferenced_definitions(sources, private=True) == ["a._recursive (line 4)", "b.C._method (line 4)"]


def test_every_public_name_has_a_caller():
    found = unreferenced_definitions(package_sources(), private=False)
    assert sorted(entry.split(" ")[0] for entry in found) == sorted(UNCALLED_PUBLIC)


def test_uncalled_public_name_is_reported():
    sources = {
        "__init__": "from .a import Box, exported, used\n",
        "a": (
            "def exported():\n    pass\n\ndef used():\n    return 1\n\n"
            "class Box:\n    def unread(self):\n        return self.unread\n\n"
            "    def read(self):\n        return used()\n\n    def _private(self):\n        pass\n"
        ),
        "cli": "from a import Box\n\ndef cmd_read(args):\n    return Box().read()\n\nHANDLERS = [cmd_read]\n",
    }
    assert unreferenced_definitions(sources, private=False) == ["a.exported (line 1)", "a.Box.unread (line 8)"]
