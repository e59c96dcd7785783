"""No module in ``src/`` or ``tests/`` imports a name it never uses, no
function in ``src/`` has a parameter it never reads, no dataclass in
``src/`` has a field nothing reads, the solvers reach every design through
its own members, every shortcut flag of the CLI sets a config key, and
only ``parallel.py`` forks a worker.

A name is used when it appears as an identifier anywhere in the module, or
inside a quoted annotation. An import line marked ``# noqa: F401`` is
exempt: it keeps a binding that code outside the module reads. A parameter
is read when its name is loaded anywhere in the function's body, nested
functions included. A dataclass field is read when ``.field`` is loaded
anywhere in ``src/``, ``tests/`` or ``perfbench/``.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from ozolasso.cli import SHORTCUTS
from ozolasso.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").glob("*.py")])


def used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= used_names(ast.parse(note.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if "# noqa: F401" in lines[alias.lineno - 1] or bound in used:
                continue
            unused.append(f"line {alias.lineno}: {bound}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import json\nimport os.path\nfrom math import pi, tau  # noqa: F401\n"
        "from typing import List\n\n\ndef f(x: 'List[int]'):\n    return os.path.sep\n"
    )
    assert unused_imports(module) == ["line 1: json"]


def unread_parameters(path: Path) -> list[str]:
    """function.parameter for each parameter its function never reads."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id for stmt in body for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}.{a.arg}" for a in params if a is not None and a.arg not in read]
    return unread


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_parameters(path):
    assert unread_parameters(path) == []


def test_the_scan_finds_an_unread_parameter(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def f(a, b, *args, c=1, **kw):\n    def g():\n        return b + c\n"
        "    a = 2\n    return g(), args, kw\n\n\nh = lambda x, y: x\n"
    )
    assert unread_parameters(module) == ["f.a", "<lambda>.y"]


def dataclass_fields(path: Path) -> list[str]:
    """Class.field for each annotated field of each dataclass in the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and any(
            getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list
        ):
            found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return found


def attributes_read(paths) -> set[str]:
    """Every attribute name loaded as ``.name`` in the modules."""
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(path: Path, readers) -> list[str]:
    read = attributes_read(readers)
    return [f for f in dataclass_fields(path) if f.split(".")[1] not in read]


# RunConfig's fields are read through fields() and getattr
READ_BY_NAME = {f"RunConfig.{f.name}" for f in fields(RunConfig)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_dataclass_fields(path):
    readers = [*MODULES, *(ROOT / "perfbench").glob("*.py")]
    assert [f for f in unread_fields(path, readers) if f not in READ_BY_NAME] == []


def test_the_scan_finds_an_unread_dataclass_field(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\nclass A:\n"
        "    kept: int\n    unread: str = ''\n\n\n@dataclass\nclass B:\n    stored: int\n\n\n"
        "def f(a, b):\n    b.stored = a.kept\n    return a\n"
    )
    assert unread_fields(module, [module]) == ["A.unread", "B.stored"]


def design_adapters(path: Path) -> list[str]:
    """Each isinstance call in the module, and each import of the expansion
    module or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            found.append(f"line {node.lineno}: isinstance")
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("expansion" in module.split(".") for module in modules):
            found.append(f"line {node.lineno}: imports expansion")
    return found


def test_solvers_read_designs_only_through_their_members():
    """A dense and an expanded design answer the same members, so solvers.py
    branches on neither: it calls no isinstance and imports nothing from
    expansion."""
    assert design_adapters(ROOT / "src" / "ozolasso" / "solvers.py") == []


def test_the_scan_finds_a_design_adapter(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from .expansion import ExpandedDesign\nfrom . import expansion\n"
        "import ozolasso.expansion\nfrom .features import expansion_names\n\n\n"
        "def f(d):\n    return isinstance(d, ExpandedDesign)\n"
    )
    assert design_adapters(module) == [
        "line 1: imports expansion", "line 2: imports expansion",
        "line 3: imports expansion", "line 8: isinstance",
    ]


def test_every_shortcut_flag_names_a_config_key():
    """A shortcut flag is only another spelling of ``--set key=VALUE``."""
    keys = {f.name for f in fields(RunConfig)}
    assert [key for key in SHORTCUTS.values() if key not in keys] == []


def process_spawns(path: Path) -> list[str]:
    """Each use of ``os.fork`` and each import of ``os.fork``,
    ``multiprocessing`` or ``concurrent.futures`` in the module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "fork"
              and getattr(node.value, "id", None) == "os"):
            modules = ["os.fork"]
        else:
            continue
        if any(m == "os.fork" or m.split(".")[0] in ("multiprocessing", "concurrent")
               for m in modules):
            found.append(f"line {node.lineno}: {modules[-1]}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_parallel_module_forks(path):
    """A worker is forked in one place, ``parallel.beside``, which
    decides when it pays and reaps it."""
    if path != ROOT / "src" / "ozolasso" / "parallel.py":
        assert process_spawns(path) == []


def test_the_scan_finds_a_process_spawn(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nimport multiprocessing.pool\nfrom concurrent.futures import Executor\n"
        "from concurrent import futures\nfrom os import fork\n\n\n"
        "def f():\n    return os.fork(), os.getpid()\n"
    )
    assert process_spawns(module) == [
        "line 2: multiprocessing.pool", "line 3: concurrent.futures.Executor",
        "line 4: concurrent.futures", "line 5: os.fork", "line 9: os.fork",
    ]
