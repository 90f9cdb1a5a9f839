"""PEP 562 re-exports: a package's public names are resolved on first access.

A package ``__init__`` that re-exports eagerly makes every process pay for
every name's import closure; this is the one mechanism that defers it::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "pkg.module": ("Name", "other_name"),
    })
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, modules: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``: each listed name
    is imported from its module when first read, then bound on the package
    so later reads skip the hook.  ``from package import *`` binds them all."""
    origin = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(origin[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return list(origin), __getattr__, __dir__
