"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` names what it re-exports in one table, source
module -> names, and each name is imported the first time it is looked
up.  Importing a package therefore imports none of its submodules:
``import repro.serve.http`` loads the serving modules and nothing of
the learner or the pipeline, while ``from repro import Hoiho``,
``__all__``, ``from repro.core import *`` and ``dir()`` behave as they
did with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, table: Mapping[str, Sequence[str]],
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each source module (an absolute name) to the names
    it defines; the package's own name as a key lists submodules it
    exports as modules.  A resolved name is bound on the package, so
    each is imported once and later lookups never reach
    ``__getattr__``.
    """
    source: Dict[str, str] = {name: module for module, names in table.items()
                              for name in names}

    def __getattr__(name: str) -> object:
        module = source.get(name)
        if module is None:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name))
        if module == package:
            value = importlib.import_module(package + "." + name)
        else:
            value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return list(source), __getattr__, __dir__
