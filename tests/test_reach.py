"""Tests for the reachability gate's bookkeeping (``scripts/reach.py``).

The gate itself runs tier-1 under a profile hook, so it is a CI job of
its own; these checks keep its function table and allowlist honest
without running it.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def load_reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_keys_match_code_objects():
    from repro.cli import cmd_simulate
    from repro.hybrid.model import EmpiricalDist

    functions = load_reach().package_functions()
    for name, code in (("repro.cli.cmd_simulate", cmd_simulate.__code__),
                       ("repro.hybrid.model.EmpiricalDist.mean",
                        EmpiricalDist.mean.fget.__code__)):   # decorated
        key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        assert functions[key] == name


def test_every_allowlist_entry_names_a_function_with_a_reason():
    reach = load_reach()
    names = set(reach.package_functions().values())
    allow = reach.read_allowlist()
    assert allow and all(allow.values())
    assert set(allow) <= names, sorted(set(allow) - names)
