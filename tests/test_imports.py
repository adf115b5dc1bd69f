"""Every name a module of the package imports is used in that module,
every dataclass field of the package is read somewhere in it, no check of
the package is an assert statement, the cli loads no module that its
commands do not all need, and only numerics scales vectors to unit norm."""

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


def test_cli_import_skips_verify():
    # every adaptcl process imports the cli, and only `adaptcl verify` runs
    # the campaigns; the others would load and compile the module for nothing
    code = "import sys, adaptcl.cli; print('adaptcl.verify' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_eps_norm_only_in_numerics():
    # numerics.l2_normalize is the one unit-norm kernel, with one rule for a
    # degenerate norm; a module that names its threshold has its own copy
    named = [p.name for p in sorted(PACKAGE.glob("*.py")) if "EPS_NORM" in p.read_text()]
    assert named == ["numerics.py"]
