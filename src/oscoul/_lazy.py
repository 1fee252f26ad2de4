"""Modules that load on first attribute use.

``load`` follows the ``importlib.util.LazyLoader`` recipe of the standard
library documentation (also Scientific Python SPEC 1): the module is found
and registered in ``sys.modules`` at once, and executed when an attribute of
it is first read, after which it is a plain module.  The closed-form commands
read none of NumPy, so they run without importing it.  Before Python 3.12.3
the first attribute read is not thread-safe; oscoul starts no threads.
"""

import importlib.util
import sys


def load(name: str):
    """The module ``name``: the loaded one if there is one, else a lazy one."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
