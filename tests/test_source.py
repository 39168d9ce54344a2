"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symbb"


def unread_definitions(src: Path = SRC) -> list[str]:
    """The undecorated top-level functions and classes of ``src/*.py`` that
    no code there reads, by name or as an attribute, outside their own
    definition.  Decorated definitions (dataclasses, click commands) are
    reached through their decorator and are left out."""
    defined = {}
    read = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not top.decorator_list:
                    defined[top.name] = f"{path.name}:{top.lineno} {top.name}"
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    return sorted(where for name, where in defined.items() if name not in read)


def unread_members(src: Path = SRC) -> list[str]:
    """The methods and properties, dunders excluded, defined by a ``def`` in
    a class body of ``src/*.py`` whose name no code there reads as an
    attribute, anywhere: a read through ``super()`` counts, so that a method
    a library calls back through its base class is kept.  A plain name read,
    such as a local variable of the same name, reaches no member."""
    defined = {}
    read = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and \
                            not (member.name.startswith("__") and member.name.endswith("__")):
                        defined.setdefault(member.name, f"{path.name}:{member.lineno} "
                                                        f"{node.name}.{member.name}")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(where for name, where in defined.items() if name not in read)


def unused_imports(src: Path = SRC) -> list[str]:
    """The names that a module of ``src/*.py`` imports at top level and never
    reads by name; an attribute read counts for the name it starts from.
    ``from __future__`` imports are directives, not names."""
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for top in tree.body:
            if not isinstance(top, (ast.Import, ast.ImportFrom)) or \
                    getattr(top, "module", None) == "__future__":
                continue
            for alias in top.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}:{top.lineno} {name}")
    return unused


def test_every_top_level_definition_has_a_reader():
    # Code that only tests call belongs in tests/.
    assert unread_definitions() == []


def test_guard_sees_an_unread_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused() + used()\n")
    assert unread_definitions(tmp_path) == ["a.py:5 unused"]


def test_every_method_has_a_reader():
    assert unread_members() == []


def test_guard_sees_an_unread_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def __init__(self):\n        self.x = 1\n\n"
        "    def used(self):\n        return self.x\n\n"
        "    @property\n    def stale(self):\n        stale = self.used()\n        return stale\n\n"
        "    def hook(self):\n        return super().hook()\n\n"
        "    def unused(self):\n        return 2\n")
    assert unread_members(tmp_path) == ["a.py:16 A.unused", "a.py:9 A.stale"]


def test_every_import_is_read():
    assert unused_imports() == []


def test_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import math\nimport os.path\nfrom json import dumps, loads\n\n\n"
        "def f():\n    return math.pi, os.path.sep, loads\n")
    assert unused_imports(tmp_path) == ["a.py:5 dumps"]
