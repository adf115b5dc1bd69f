"""Every name a module of the package imports is used in that module,
every dataclass field of the package is read somewhere in it, no check of
the package is an assert statement, the cli loads no module that its
commands do not all need, data does not load continual, what only verify
calls is defined in verify, only numerics scales vectors to unit norm, and
only model names the adapter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "adaptcl"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["line 1: os", "line 2: b"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def unread_fields(sources: dict) -> list:
    """Annotated fields of @dataclass classes whose name no module reads.

    The check is by name only: an attribute load `x.name` or a string
    constant "name" anywhere in the sources counts as a read of every field
    called name. It finds a field that is set and never read back, but not
    an unread field whose name is read elsewhere, such as a `mode` field
    beside the many `.mode` reads of other objects."""
    declared, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        declared.append((module, node.name, stmt.target.id))
    return [f"{m}: {cls}.{name}" for m, cls, name in declared if name not in read]


def test_detects_an_unread_dataclass_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n    x: int\n    y: int = 0\n    z: str = ''\n"
        "class B:\n    w: int\n"
        "a = A(1)\na.y = 2\nprint(a.x, 'z')\n"
    )
    assert unread_fields({"m.py": source}) == ["m.py: A.y"]


def test_no_unread_dataclass_fields():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_fields(sources) == []


def assert_statements(source: str) -> list:
    return [f"line {n.lineno}" for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_detects_an_assert_statement():
    source = "x = 1\nassert x, 'msg'\nif x:\n    assert x == 1\ny = 'assert x'\n"
    assert assert_statements(source) == ["line 2", "line 4"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_assert_statements(module):
    # python -O strips assert statements, and a check must not vanish with them
    assert assert_statements((PACKAGE / module).read_text()) == []


# what only `adaptcl verify` calls, all defined in verify.py
VERIFY_ONLY = (
    "BLOCK_FLOATS",
    "blocks",
    "verify_lemma1",
    "_mean_sq_distance_grad",
    "verify_lemma2",
    "finite_diff_grad",
)


def test_cli_import_skips_verify(tmp_path):
    # every adaptcl process imports the cli, and only `adaptcl verify` runs
    # the campaigns; the others would load and compile the module for
    # nothing. A run that stops at its config loads every module a run
    # imports, and none of them defines what only verify calls.
    code = (
        "import sys, adaptcl.cli\n"
        f"adaptcl.cli.main(['run', '--config', {str(tmp_path / 'none.cfg')!r}])\n"
        "loaded = [m for n, m in sys.modules.items() if n.startswith('adaptcl')]\n"
        f"print('adaptcl.verify' in sys.modules, [n for m in loaded for n in {VERIFY_ONLY}"
        " if hasattr(m, n)])"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False []"


def test_data_import_skips_continual():
    # data builds the tasks that continual runs; the dependency goes one way
    code = "import sys, adaptcl.data\nprint('adaptcl.continual' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def _top_level_names(tree) -> dict:
    """name -> the top-level statement of the module that defines it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                defined.update((n.id, stmt) for n in ast.walk(target) if isinstance(n, ast.Name))
    return defined


def _referenced(stmts) -> set:
    """Names that the statements load, read as an attribute or import."""
    names = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def verify_only_names(sources: dict) -> list:
    """Top-level names of modules other than verify.py that no module but
    verify.py references outside the name's own definition: code that only
    `adaptcl verify` runs, which belongs in verify.py, where other commands
    do not load it; an exception type too. Like unread_fields, the check is
    by name only."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    references = {module: _referenced(tree.body) for module, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        if module == "verify.py":
            continue
        for name, stmt in _top_level_names(tree).items():
            users = {m for m, names in references.items() if m != module and name in names}
            if name in _referenced(s for s in tree.body if s is not stmt):
                users.add(module)
            if users == {"verify.py"}:
                found.append(f"{module}: {name}")
    return found


def test_detects_a_verify_only_name():
    sources = {
        "a.py": "X = 1\nY = X\ndef f():\n    return f()\ndef g():\n    pass\n",
        "b.py": "from .a import Y\nimport a\nprint(Y, a.g)\ndef h():\n    pass\n",
        "errors.py": "class E(Exception):\n    pass\n",
        "verify.py": "from .a import f, X\nfrom .b import h\nfrom .errors import E\n",
    }
    assert verify_only_names(sources) == ["a.py: f", "b.py: h", "errors.py: E"]


def test_verify_only_names_live_in_verify():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert verify_only_names(sources) == []


def test_eps_norm_only_in_numerics():
    # numerics.l2_normalize is the one unit-norm kernel, with one rule for a
    # degenerate norm; a module that names its threshold has its own copy
    named = [p.name for p in sorted(PACKAGE.glob("*.py")) if "EPS_NORM" in p.read_text()]
    assert named == ["numerics.py"]


NAME_FIELDS = {ast.Name: "id", ast.arg: "arg", ast.Attribute: "attr"}


def adapter_names(source: str) -> list:
    """Names, parameters and attributes whose name contains "adapter", in
    any case."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, NAME_FIELDS.get(type(node), ""), "")
        if "adapter" in name.lower():
            found.append(f"line {node.lineno}: {name}")
    return sorted(found)


def test_detects_an_adapter_name():
    source = (
        "def f(adapter, x, adapt):\n"
        "    return x.adapter_act + AdapterModule(adapter_rank=2)\n"
        "y = 'adapter'\n"
    )
    want = ["line 1: adapter", "line 2: AdapterModule", "line 2: adapter_act"]
    assert adapter_names(source) == want


def test_only_model_names_the_adapter():
    # the adapter is part of the one model object: no other module passes,
    # returns or reads one, so retiring it is a change to model.py alone
    found = {
        p.name: adapter_names(p.read_text())
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "model.py"
    }
    assert {module: names for module, names in found.items() if names} == {}
