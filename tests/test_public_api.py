"""Every ``repro`` package imports, and every name in its ``__all__`` exists.

A name left in ``__all__`` after its definition is deleted only fails at
``from repro.x import *`` time; this test catches it without a linter.
"""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    packages = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(
            repro.__path__, prefix=repro.__name__ + ".") if info.ispkg]
    exporting = set()
    missing = []
    for name in packages:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        exporting.add(name)
        missing += [f"{name}.{attr}" for attr in exported
                    if not hasattr(module, attr)]
    assert {"repro.core", "repro.mem", "repro.net"} <= exporting
    assert not missing, f"__all__ names that do not resolve: {missing}"
