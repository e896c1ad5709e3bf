"""Every name a phibvp module, script or test imports is used in that
file, and every source file parses on the Python floor that
pyproject.toml declares."""

import ast
from pathlib import Path

import pytest

import phibvp

PACKAGE = Path(phibvp.__file__).parent
ROOT = Path(__file__).resolve().parents[1]

# perfbench/tracing.py patches cli's binding of cumulative_integral, which
# cli itself never calls
ALLOWED = {("cli", "cumulative_integral")}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    A name read only inside a quoted annotation counts as unused; with
    postponed annotations no imported name needs quoting.
    """
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# a package module by its name, a script or test by its path
CHECKED = {module: PACKAGE / f"{module}.py" for module in MODULES} | {
    f"{folder}/{p.name}": p
    for folder in ("scripts", "tests")
    for p in sorted((ROOT / folder).glob("*.py"))
}


@pytest.mark.parametrize("name", CHECKED)
def test_no_unused_imports(name):
    source = CHECKED[name].read_text(encoding="utf-8")
    unused = [imp for imp in unused_imports(source) if (name, imp) not in ALLOWED]
    assert unused == []


def test_the_checker_sees_an_unused_import():
    source = (
        "from __future__ import annotations\nimport math\nimport os.path\n"
        "from typing import Sequence as Seq, Callable\n"
        "x: Callable = os.path.sep\nSeq = 1\n"
    )
    assert unused_imports(source) == ["Seq", "math"]


# the floor that pyproject.toml declares, requires-python >= 3.10
PYTHON_FLOOR = (3, 10)
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_on_the_python_floor(path):
    source = path.read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=PYTHON_FLOOR)


def test_the_floor_is_the_declared_one():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % PYTHON_FLOOR in pyproject
    assert len(SOURCES) > len(MODULES)
