"""Each module imports on its own, whichever is imported first."""

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
