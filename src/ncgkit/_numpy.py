"""numpy, loaded on first use.

``np`` is bound when ncgkit is imported, but numpy's own import runs only
when an attribute of ``np`` is first read: the exact commands
(``verify-identities``, ``algebroid``, ``list-checks``) never read one and
never pay for numpy, while the numeric ones (``index``, ``chkr-compare``,
``spectral``) load it inside their first request in a process.  This is
the ``importlib.util.LazyLoader`` recipe of the standard library; the
module it puts in ``sys.modules["numpy"]`` becomes the real numpy on first
access, so a later ``import numpy`` anywhere returns the same object and
no call pays for the indirection afterwards.  When numpy is already
imported, ``np`` is that module unchanged.

The first access is not thread-safe on Python 3.11 (``LazyLoader`` gained
a lock in 3.12); the CLI and the benchmark harness run on one thread.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:  # numpy is a dependency: fail at import, as before
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")


def loaded() -> bool:
    """Whether numpy's own import has run in this process; reading the type
    of ``np`` does not run it."""
    return type(np) is ModuleType
