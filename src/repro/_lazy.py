"""Package exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from heavy submodules
names them in a table instead of importing them, and binds the
module-level ``__getattr__`` and ``__dir__`` this returns::

    __getattr__, __dir__ = lazy_exports(__name__, globals(), {
        ".context": ("CheckContext", "CheckError"),
    })

The first read of ``CheckContext`` imports ``.context`` and caches the
object in the package namespace, so later reads are plain lookups.
``from package import name`` and ``from package import *`` work
unchanged; only the moment the submodule loads moves.  The package also
imports the same names under ``typing.TYPE_CHECKING``, so linters and
type checkers see every name in ``__all__`` bound.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, namespace: Dict[str, Any],
                 table: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps a module (relative to ``package`` when it starts with
    a dot) to the names it exports lazily; ``namespace`` is the
    package's ``globals()``.
    """
    origin = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
