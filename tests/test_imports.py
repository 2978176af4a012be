"""Each module imports on its own, whichever is imported first, and uses
every name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("cli", "defaults", "dewalop", "exo", "latch", "mechlib", "sequence")


def test_modules_listed_are_the_package():
    assert sorted(p.stem for p in (SRC / "lammos").glob("*.py")
                  if p.stem != "__init__") == sorted(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_imports_alone_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", f"import lammos.{module}"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    # A name re-exported on purpose carries "# noqa: F401" on its line.
    path = SRC / "lammos" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{module}.py imports names it never uses: {unused}"
