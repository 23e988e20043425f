#!/usr/bin/env python
"""Reachability gate: every ``src/repro`` function is entered by tier-1.

Runs the tier-1 suite (``pytest -x -q`` over ``tests/``) in this process
under a ``sys.setprofile`` hook that records every code object entered,
then lists the functions and methods of ``src/repro`` (read from the
source with :mod:`ast`) that no test ever called.  Each one must appear
in the committed allowlist ``scripts/reach_allowlist.txt`` with a
reason; the gate fails on an unreached function that is not listed, and
on a listed one that tier-1 now reaches (its entry is stale).

Usage::

    python scripts/reach.py [pytest args...]

Extra arguments go to pytest after ``-x -q``.  Tier-1 runs several
times slower under the hook.

Anything that clears the profile hook (cProfile in the ``repro
profile`` test does) would blind the rest of the session, so a pytest
plugin re-arms it before each setup, call and teardown phase.  Code that
runs only in spawned worker processes, or only in subprocesses a test
starts, is invisible here; the allowlist says so where it matters.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path
from typing import Dict, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).with_name("reach_allowlist.txt")

#: (file, first line) -> qualified name, for every def in the package.
Functions = Dict[Tuple[str, int], str]


def package_functions() -> Functions:
    """Every function and method defined in ``src/repro``, keyed the way
    a code object identifies itself (``co_filename``,
    ``co_firstlineno``: the first decorator's line when decorated)."""
    found: Functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(str(path), first)] = name
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), module)
    return found


def read_allowlist() -> Dict[str, str]:
    """Allowlist entries: ``qualified.name: reason`` per line, ``#``
    starts a comment line."""
    entries: Dict[str, str] = {}
    for line in ALLOWLIST.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(":")
        if not sep or not reason.strip():
            raise SystemExit(f"{ALLOWLIST.name}: entry without a reason: "
                             f"{line!r}")
        entries[name.strip()] = reason.strip()
    return entries


def run_tier1(pytest_args) -> Tuple[int, Set[Tuple[str, int]]]:
    """Run tier-1 under the hook; return pytest's exit code and the
    (file, first line) of every code object entered."""
    import pytest

    entered = set()
    record = entered.add

    def hook(frame, event, arg):
        if event == "call":
            record(frame.f_code)

    class Rearm:
        """Re-installs the hook before each test phase."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.setprofile(hook)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.setprofile(hook)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            sys.setprofile(hook)

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    sys.setprofile(hook)
    try:
        code = pytest.main(["-x", "-q", *pytest_args], plugins=[Rearm()])
    finally:
        sys.setprofile(None)
    package = str(PACKAGE)
    files = {name: str(Path(name).resolve())
             for name in {c.co_filename for c in entered}}
    return int(code), {(files[c.co_filename], c.co_firstlineno)
                       for c in entered
                       if files[c.co_filename].startswith(package)}


def main(argv=None) -> int:
    """Run the gate; the exit code is non-zero on any finding."""
    args = sys.argv[1:] if argv is None else argv
    allow = read_allowlist()
    functions = package_functions()
    code, entered = run_tier1(args)
    if code != 0:
        print(f"reach: tier-1 failed (pytest exit code {code})")
        return code
    unreached = sorted(name for key, name in functions.items()
                       if key not in entered)
    missing = [name for name in unreached if name not in allow]
    stale = sorted(set(allow) - set(unreached))
    print(f"reach: {len(functions) - len(unreached)} of {len(functions)} "
          f"functions entered; {len(unreached)} unreached, "
          f"{len(unreached) - len(missing)} of them allowlisted")
    for name in missing:
        print(f"  unreached and not allowlisted: {name}")
    for name in stale:
        print(f"  allowlisted but reached or gone (drop the entry): {name}")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
