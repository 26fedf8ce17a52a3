"""The package top level exports nothing; each module imports on its own."""

import os
import subprocess
import sys
from pathlib import Path

import beepsim

# In one fresh interpreter: the bare package holds no public name; then,
# for each module in turn, forget every beepsim module imported so far and
# import that one alone, so a hidden import-order dependency fails here.
IMPORT_EACH = """
import importlib, pkgutil, sys
import beepsim
assert [k for k in vars(beepsim) if not k.startswith("__")] == [], vars(beepsim).keys()
names = [m.name for m in pkgutil.iter_modules(beepsim.__path__)]
for name in names:
    for key in [k for k in sys.modules if k == "beepsim" or k.startswith("beepsim.")]:
        del sys.modules[key]
    importlib.import_module(f"beepsim.{name}")
print(" ".join(names))
"""


def test_each_module_imports_on_its_own():
    # the child imports the same beepsim as this process, installed or not
    env = dict(os.environ, PYTHONPATH=str(Path(beepsim.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", IMPORT_EACH], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert {"cli", "runner", "topology", "errors"} <= set(done.stdout.split())
