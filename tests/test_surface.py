"""Every module-level name of the package has a reader: another line of the
package, or a benchmark file. A name that only tests reach is API surface
that nothing inside the system uses."""

import ast
from pathlib import Path

import rainunet

PACKAGE = Path(rainunet.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by def, class or
    assignment, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attribute names and the
    names it imports from a module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module: name`` for each module-level name of the ``modules``
    (name -> source) that no module and none of the ``readers`` sources
    reads."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = set().union(*map(_read, trees.values()), *(_read(ast.parse(s)) for s in readers))
    return sorted(f"{module}: {name}" for module, tree in trees.items()
                  for name in _defined(tree) if name not in read)


def test_detector():
    modules = {"a.py": "X = 1\nY: int = 2\n__all__ = []\ndef f():\n    return X\n"
                       "def g():\n    pass\nclass C:\n    pass\n",
               "b.py": "from .a import g\n"}
    assert unread(modules, ["import a\na.C()\n"]) == ["a.py: Y", "a.py: f"]
    assert unread(modules, []) == ["a.py: C", "a.py: Y", "a.py: f"]


def test_every_module_level_name_has_a_reader():
    # the benchmark's own tests are tests, not readers
    modules = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text() for p in sorted(BENCH.glob("*.py")) if not p.name.startswith("test_")]
    assert readers, f"no benchmark sources under {BENCH}"
    assert unread(modules, readers) == []
