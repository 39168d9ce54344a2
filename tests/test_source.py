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


def _serialises_itself(cls: ast.ClassDef) -> bool:
    """Whether a class body calls ``asdict(self)``, which reads every field."""
    return any(isinstance(node, ast.Call) and node.args
               and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
               and getattr(node.func, "attr", getattr(node.func, "id", None)) == "asdict"
               for node in ast.walk(cls))


def unread_fields(src: Path = SRC) -> list[str]:
    """The annotated fields of the classes of ``src/*.py`` whose name no code
    there reads as an attribute, anywhere.  A class that serialises itself
    with ``dataclasses.asdict(self)`` reads all of its fields and is left
    out.  A record should hold only what a later step reads."""
    defined = []
    read = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and not _serialises_itself(node):
                defined += [(stmt.target.id, f"{path.name}:{stmt.lineno} "
                                             f"{node.name}.{stmt.target.id}")
                            for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(where for name, where in defined if name not in read)


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


def test_every_field_has_a_reader():
    assert unread_fields() == []


def test_guard_sees_an_unread_field(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\n\n\n"
        "@dataclasses.dataclass\nclass Level:\n"
        "    nodes: list\n    survivors: list\n    LIMIT = 3\n\n\n"
        "@dataclasses.dataclass\nclass Report:\n    seed: int\n\n"
        "    def to_json_obj(self):\n        return dataclasses.asdict(self)\n\n\n"
        "def count(level, survivors):\n    return len(level.nodes) + len(survivors)\n")
    assert unread_fields(tmp_path) == ["a.py:7 Level.survivors"]


def test_every_import_is_read():
    assert unused_imports() == []


def test_guard_sees_an_unused_import(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\n"
        "import math\nimport os.path\nfrom json import dumps, loads\n\n\n"
        "def f():\n    return math.pi, os.path.sep, loads\n")
    assert unused_imports(tmp_path) == ["a.py:5 dumps"]


def unread_parameters(src: Path = SRC) -> list[str]:
    """The parameters of the functions of ``src/*.py``, lambdas and nested
    functions included, that the function body never reads by name; a read
    in a nested function counts, and a bare ``super()`` reads the first
    parameter.  Names starting with ``_`` are left out, for callbacks whose
    signature a library fixes."""
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            if "super" in read and params:
                read.add(params[0])
            name = getattr(fn, "name", "<lambda>")
            found += [f"{path.name}:{fn.lineno} {name}({p})" for p in params
                      if p not in read and not p.startswith("_")]
    return found


def test_every_parameter_is_read():
    # A parameter nothing reads is a second copy of a fact the callee finds
    # elsewhere, or a leftover of an older signature.
    assert unread_parameters() == []


def test_guard_sees_an_unread_parameter(tmp_path):
    (tmp_path / "a.py").write_text(
        "def branch(fix, orbit, free):\n    return fix, orbit\n\n\n"
        "def choose(sub, group, *rest, _ctx=None, **opts):\n"
        "    def inner(x):\n        return sub, opts\n    return inner\n\n\n"
        "class A:\n    def used(self, key):\n        return self.d[key]\n\n"
        "    def stale(self, key):\n        return 1\n\n"
        "    def hook(self):\n        return super().hook()\n\n\n"
        "KEY = lambda pair, _i: pair[0]\n")
    assert unread_parameters(tmp_path) == [
        "a.py:1 branch(free)", "a.py:5 choose(group)", "a.py:5 choose(rest)",
        "a.py:6 inner(x)", "a.py:15 stale(self)", "a.py:15 stale(key)"]


# The scalar annotations a settings field may carry; ``dnn.Settings`` checks
# each of them, and a nested settings class, when the dataclass is built.
SETTING_TYPES = {"int", "float", "bool", "None"}


def _annotation_names(node: ast.AST) -> list[str] | None:
    """The names an annotation joins with ``|``, or None where it is
    anything else: a subscript, an attribute, a string."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left, right = _annotation_names(node.left), _annotation_names(node.right)
        return None if left is None or right is None else left + right
    if isinstance(node, ast.Constant) and node.value is None:
        return ["None"]
    return [node.id] if isinstance(node, ast.Name) else None


def unchecked_settings(src: Path = SRC) -> list[str]:
    """The fields of the settings classes of ``src/*.py`` (``Settings`` and
    every class that derives from one, by name) whose annotation the type
    check of ``Settings`` cannot read: anything but int, float, bool, None
    or a settings class, joined by ``|``."""
    classes = [(path.name, node) for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    settings = {"Settings"}
    grew = True
    while grew:
        found = {node.name for _, node in classes
                 if any(getattr(base, "id", None) in settings for base in node.bases)}
        grew = not found <= settings
        settings |= found
    return [f"{name}:{stmt.lineno} {node.name}.{stmt.target.id}"
            for name, node in classes if node.name in settings
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)
            and not set(_annotation_names(stmt.annotation) or ["?"]) <=
            SETTING_TYPES | settings]


def test_every_setting_has_a_checked_type():
    assert unchecked_settings() == []


def test_guard_sees_an_unchecked_setting(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass, field\n\n"
        "from b import Settings\n\n\n"
        "@dataclass\nclass Inner(Settings):\n"
        "    tol: float = 1e-6\n    label: str = 'x'\n\n\n"
        "@dataclass\nclass Outer(Inner):\n"
        "    cap: int | None = None\n    inner: Inner = field(default_factory=Inner)\n"
        "    on: bool = True\n    sizes: list[int] = field(default_factory=list)\n"
        "    name: 'Inner' = None\n    when: float | str = 0.0\n\n\n"
        "class Other:\n    label: str = 'y'\n")
    assert unchecked_settings(tmp_path) == [
        "a.py:9 Inner.label", "a.py:17 Outer.sizes", "a.py:18 Outer.name",
        "a.py:19 Outer.when"]


def unused_rules(src: Path = SRC) -> list[str]:
    """The keys of a top-level ``_RULES`` dict of ``src/*.py`` that are the
    rule of no ``setting(default, rule)`` call there: a rule left behind by
    a deleted settings field."""
    keys, used = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Dict) and \
                    any(getattr(t, "id", None) == "_RULES" for t in stmt.targets):
                keys += [(key.value, f"{path.name}:{key.lineno} {key.value!r}")
                         for key in stmt.value.keys if isinstance(key, ast.Constant)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) == "setting":
                rule = next((k.value for k in node.keywords if k.arg == "rule"),
                            node.args[1] if len(node.args) > 1 else None)
                if isinstance(rule, ast.Constant):
                    used.add(rule.value)
    return [where for key, where in keys if key not in used]


def test_every_rule_is_some_settings_rule():
    assert unused_rules() == []


def test_guard_sees_an_unused_rule(tmp_path):
    (tmp_path / "a.py").write_text(
        "_RULES = {'at least 1': lambda v: v >= 1,\n"
        "          'positive': lambda v: v > 0,\n"
        "          'finite': lambda v: v == v}\n\n\n"
        "def setting(default, rule):\n    return default, rule\n")
    (tmp_path / "b.py").write_text(
        "import a\n\n"
        "WORKERS = a.setting(1, 'at least 1')\n"
        "TOL = a.setting(0.0, rule='finite')\n"
        "OTHER = dict(rule='positive')\n")
    assert unused_rules(tmp_path) == ["a.py:2 'positive'"]


# Methods that change the container they are called on.
MUTATORS = {"append", "update", "setdefault", "clear", "add", "pop"}


def _root_name(node: ast.AST) -> str | None:
    """The name an attribute or subscript chain starts from: ``a`` for
    ``a.b[c].d``; None where it starts from a call or a literal."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _local_names(fn: ast.AST) -> set[str]:
    """The parameters of a function and every name it, or a function nested
    in it, binds: names that shadow a module-level one there."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node is not fn:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def module_state_mutations(src: Path = SRC) -> list[str]:
    """The functions of ``src/*.py`` that change module-level state: by a
    ``global`` statement, by assigning to (or deleting) a subscript or an
    attribute of a module-level name, or by calling a method of ``MUTATORS``
    on one.  Module-level names are everything the module binds at top
    level, imports included, unless the function binds the name itself; a
    function of an imported module, such as ``np.append``, is no method.
    Such state outlives a call, so a rerun in the same process could see a
    different result."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        top, imported = set(), set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                top.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0] for a in stmt.names)
                top |= imported
            else:
                top.update(n.id for n in ast.walk(stmt)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            shared = top - _local_names(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    hit = True
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                    targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) \
                        else [node.target]
                    hit = any(isinstance(t, (ast.Attribute, ast.Subscript))
                              and _root_name(t) in shared for t in targets)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    owner = node.func.value
                    hit = node.func.attr in MUTATORS and _root_name(owner) in shared and \
                        not (isinstance(owner, ast.Name) and owner.id in imported)
                else:
                    hit = False
                if hit:
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    return found


def test_no_function_mutates_module_state():
    # State kept across calls (a cache of warm starts, say) would let a
    # rerun in one process differ from the first run.
    assert module_state_mutations() == []


def test_guard_sees_module_state_mutations(tmp_path):
    (tmp_path / "a.py").write_text(
        "import sys\n\nimport numpy as np\n\n"
        "CACHE = {}\nCOUNT = 0\n\n\n"
        "class Box:\n    pass\n\n\n"
        "def bump():\n    global COUNT\n    COUNT += 1\n\n\n"
        "def store(key, value):\n    CACHE[key] = value\n\n\n"
        "def tag():\n    Box.label = 'x'\n\n\n"
        "def remember(key):\n    return CACHE.setdefault(key, [])\n\n\n"
        "def patch():\n    np.linalg.eigh = None\n\n\n"
        "def nested(key):\n    CACHE[key].append(1)\n\n\n"
        "def extend():\n    sys.path.append('x')\n\n\n"
        "def reads(key):\n    return CACHE.get(key), COUNT, Box, np.append([], 1)\n\n\n"
        "def shadows(CACHE, key):\n    CACHE[key] = 1\n    box = Box()\n"
        "    box.label = 'y'\n    local = {}\n    local.update(CACHE)\n    return local\n\n\n"
        "def rebinds(key):\n    CACHE = {}\n    CACHE[key] = 1\n    return CACHE\n")
    assert module_state_mutations(tmp_path) == [
        "a.py:14 bump", "a.py:19 store", "a.py:23 tag", "a.py:27 remember",
        "a.py:31 patch", "a.py:35 nested", "a.py:39 extend"]


def _writes_a_file(call: ast.Call) -> bool:
    """Whether a call writes a file: ``open`` (or a ``.open`` method) with a
    mode other than a read-only literal, ``os.replace``, ``.write_text``,
    ``.write_bytes`` or ``json.dump``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    owner = _root_name(func.value) if isinstance(func, ast.Attribute) else None
    if name == "open":
        at = 0 if isinstance(func, ast.Attribute) else 1
        mode = next((k.value for k in call.keywords if k.arg == "mode"),
                    call.args[at] if len(call.args) > at else None)
        return mode is not None and not (isinstance(mode, ast.Constant)
                                         and set(str(mode.value)) <= set("rbt"))
    return name in ("write_text", "write_bytes") or \
        (owner, name) in (("os", "replace"), ("json", "dump"))


def file_writes(src: Path = SRC) -> list[str]:
    """The calls of ``src/*.py`` outside ``cli.py`` that write a file.  The
    engine returns records, and only the command line writes them out."""
    return [f"{name}:{line}" for name, line in sorted(
        (path.name, node.lineno)
        for path in src.glob("*.py") if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _writes_a_file(node))]


def test_only_the_cli_writes_files():
    assert file_writes() == []


def test_guard_sees_file_writes(tmp_path):
    (tmp_path / "a.py").write_text(
        "import json\nimport os\nfrom pathlib import Path\n\n\n"
        "def save(path, state, mode):\n"
        "    with open(path, 'w') as fh:\n        json.dump(state, fh)\n"
        "    os.replace(path, path + '.bak')\n"
        "    Path(path).write_text('x')\n    Path(path).write_bytes(b'x')\n"
        "    open(path, mode=mode)\n    Path(path).open('a')\n\n\n"
        "def load(path):\n"
        "    with open(path) as fh, open(path, 'rb') as raw, Path(path).open() as p:\n"
        "        return json.load(fh), raw.read(), p.read(), 'ab'.replace('a', 'b')\n")
    (tmp_path / "cli.py").write_text("def emit(path):\n    open(path, 'w').write('x')\n")
    assert file_writes(tmp_path) == ["a.py:7", "a.py:8", "a.py:9", "a.py:10", "a.py:11",
                                     "a.py:12", "a.py:13"]
