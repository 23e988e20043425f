"""Every ``repro`` package imports, and every name in its ``__all__`` exists.

A name left in ``__all__`` after its definition is deleted only fails at
``from repro.x import *`` time; this test catches it without a linter.
Packages that resolve heavy exports on first access (PEP 562, see
``repro._lazy``) must hand out the defining module's own objects.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

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


def _packages():
    """Every ``repro`` package that declares ``__all__``."""
    names = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(
            repro.__path__, prefix=repro.__name__ + ".") if info.ispkg]
    modules = [importlib.import_module(name) for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


def _definitions():
    """Name -> the ``repro`` modules that define it at top level (a
    class, a function or an assignment), read from the source."""
    root = Path(repro.__file__).parent
    pattern = re.compile(r"^(?:class |def )?([A-Za-z_]\w*)\s*[(:=]",
                         re.MULTILINE)
    found = {}
    for path in root.rglob("*.py"):
        if path.name == "__init__.py":
            continue
        module = ".".join(
            (repro.__name__,) + path.relative_to(root).with_suffix("").parts)
        for name in set(pattern.findall(path.read_text())):
            found.setdefault(name, []).append(module)
    return found


@pytest.mark.parametrize("package", _packages(), ids=lambda m: m.__name__)
def test_exports_are_the_defining_modules_objects(package):
    """Each exported name, lazy or not, is the very object its defining
    module holds; ``dir`` lists it and ``import *`` binds it."""
    definitions = _definitions()
    starred = {}
    exec(f"from {package.__name__} import *", starred)
    for name in package.__all__:
        value = getattr(package, name)
        modules = definitions.get(name)
        assert modules, f"{package.__name__}.{name} defined nowhere"
        for module in modules:
            assert getattr(importlib.import_module(module), name) is value, \
                f"{package.__name__}.{name} is not {module}.{name}"
        assert starred[name] is value
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_export"):
        getattr(package, "no_such_export")
