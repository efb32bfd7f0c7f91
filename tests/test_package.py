"""The package binds nothing but its submodules, and each imports on its own."""

import os
import pkgutil
import subprocess
import sys
import types

import pytest

import apseq
import apseq.localize
from apseq.localize import ScanWindow

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = sorted(m.name for m in pkgutil.iter_modules(apseq.__path__))


def test_every_public_attribute_is_a_submodule():
    assert apseq.localize.ScanWindow is ScanWindow
    from apseq import localize

    assert localize is sys.modules["apseq.localize"]
    public = {name: value for name, value in vars(apseq).items() if not name.startswith("_")}
    assert public
    for name, value in public.items():
        assert isinstance(value, types.ModuleType) and value.__name__ == f"apseq.{name}", name


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(name):
    result = subprocess.run(
        [sys.executable, "-c", f"import apseq.{name}"],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert result.returncode == 0, result.stderr
