"""The package namespace: the union of its modules' `__all__` lists."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import softaccess
from softaccess import chain, cli, model, optimize, rates, simulate

MODULES = (chain, cli, model, optimize, rates, simulate)


def test_package_reexports_each_module_name_once():
    # a name in two lists would be shadowed silently by the later `import *`
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(softaccess.__all__) == sorted(listed)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(softaccess, name) is getattr(module, name), (module.__name__, name)


def test_import_loads_no_scipy():
    # only the chain oracle's transition_matrix and numeric_distribution import scipy
    src = str(Path(softaccess.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, softaccess; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
