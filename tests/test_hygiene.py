"""No module in ``src/`` or ``tests/`` imports a name it never uses, no
function in ``src/`` has a parameter it never reads, no dataclass in
``src/`` has a field nothing reads, no public name in ``src/`` goes unread
but the few that code outside it reads, the solvers reach every design
through its own members, every shortcut flag of the CLI sets a config key,
only ``parallel.py`` forks a worker, and no module in ``src/`` reads the
environment.

A name is used when it appears as an identifier anywhere in the module, or
inside a quoted annotation. An import line marked ``# noqa: F401`` is
exempt: it keeps a binding that code outside the module reads. A parameter
is read when its name is loaded anywhere in the function's body, nested
functions included. A dataclass field is read when ``.field`` is loaded
anywhere in ``src/``, ``tests/`` or ``perfbench/``. A public name is read
when a module in ``src/`` loads it (as ``name`` or ``.name``) or imports it
on a line not marked ``# noqa: F401``.
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


def public_names(path: Path) -> list[str]:
    """module.name for each public function, class and module-level
    assignment, and module.Class.name for each public method."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [f"{path.stem}.{name}" for name in names if not name.startswith("_")]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not m.name.startswith("_")]
    return found


def names_read(paths) -> set[str]:
    """Every name the modules load, as ``name`` or ``.name``, or import
    from a module on a line not marked ``# noqa: F401``."""
    read = set()
    for path in paths:
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names if "# noqa: F401" not in lines[a.lineno - 1]}
    return read


def unread_public_names(paths) -> list[str]:
    read = names_read(paths)
    return [name for path in paths for name in public_names(path)
            if name.rsplit(".", 1)[1] not in read]


# Public names that nothing in src/ reads, each with a file outside it that
# does: what keeps it in the program.
READ_OUTSIDE = {
    "solvers.design_block": "perfbench/run.py",  # traced by name
    "expansion.ExpandedDesign.n_features": "perfbench/child.py",  # the pass counter
    "solvers.design_corr": "tests/test_solvers.py",  # the tests' reference for X'v/n
    "features.build_schema": "tests/test_features.py",
}


def test_every_public_name_is_read():
    assert sorted(unread_public_names(SOURCES)) == sorted(READ_OUTSIDE)


@pytest.mark.parametrize("name, reader", READ_OUTSIDE.items())
def test_each_name_read_outside_src_is_read_there(name, reader):
    """The file loads or imports the name, or names it as a string, as
    perfbench/run.py names the functions it traces."""
    path = ROOT / reader
    strings = {node.value for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant)}
    assert name.rsplit(".", 1)[1] in names_read([path]) or name in strings


def test_the_scan_finds_an_unread_public_name(tmp_path):
    (tmp_path / "b.py").write_text("def used():\n    pass\n\n\ndef kept():\n    pass\n")
    (tmp_path / "a.py").write_text(
        "from b import used\nfrom b import kept  # noqa: F401\n\nLIMIT = 1\n_hidden = 2\n\n\n"
        "def helper():\n    return LIMIT\n\n\nclass Thing:\n    def called(self):\n"
        "        return helper()\n\n    def never(self):\n        pass\n\n"
        "    def __len__(self):\n        return 0\n\n\ndef orphan():\n    return Thing().called()\n"
    )
    assert unread_public_names([tmp_path / "a.py", tmp_path / "b.py"]) == [
        "a.Thing.never", "a.orphan", "b.kept",
    ]


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


def environment_reads(path: Path) -> list[str]:
    """Each use of ``os.environ``, ``os.environb`` or ``os.getenv`` and each
    import of one of them in the module."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and getattr(node.value, "id", None) == "os"):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: os.{a.name}" for a in node.names if a.name in names]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_reads_the_environment(path):
    """No environment variable changes what the program does: settings
    come from the config file and the flags, and the CLI sets its BLAS
    threads itself."""
    assert environment_reads(path) == []


def test_the_scan_finds_an_environment_read(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nfrom os import environ, path\nfrom os import getenv as read\n\n\n"
        "def f():\n    return os.environ.get('A'), os.getenv('B'), os.environb, os.path.sep\n"
    )
    assert sorted(environment_reads(module)) == [
        "line 2: os.environ", "line 3: os.getenv",
        "line 7: os.environ", "line 7: os.environb", "line 7: os.getenv",
    ]
