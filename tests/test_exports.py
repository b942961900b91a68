"""The package namespace: the union of its modules' `__all__` lists."""
from __future__ import annotations

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
