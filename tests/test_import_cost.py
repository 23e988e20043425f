"""What importing the simulator loads, and what switching a layer on loads.

A plain simulation imports the kernel, the null observers and the light
config types; every opt-in layer (check, telemetry, hybrid, dc, faults)
loads where a simulation switches it on.  Each check runs in a fresh
interpreter, since this test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: What a benchmark or figure script imports before its first event.
SIMULATION_IMPORTS = (
    "repro.sim.engine",
    "repro.systems.cluster",
    "repro.runner",
    "repro.faults",
    "repro.hybrid",
    "repro.dc",
    "repro.experiments.figF_faults",
    "repro.experiments.figW_scenarios",
)

#: Modules none of those imports may load.
NOT_ON_IMPORT = (
    "repro.check.context",
    "repro.check.spans",
    "repro.hybrid.controller",
    "repro.hybrid.model",
    "repro.hybrid.detector",
    "repro.telemetry.metrics",
    "repro.telemetry.breakdown",
    "repro.telemetry.export",
    "repro.dc.lb",
    "repro.dc.autoscale",
    "repro.dc.placement",
    "repro.faults.injector",
    "repro.workloads.replay",
    "repro.workloads.alibaba",
    "repro.workloads.synthetic",
    "repro.cpu.cache",
    "repro.cpu.hierarchy",
    "repro.cpu.tlb",
    "repro.mem.footprint",
    "multiprocessing",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` on the path; it
    prints one JSON object, which is returned."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_simulation_imports_leave_opt_in_layers_unloaded():
    loaded = run_fresh(f"""
        import importlib, json, sys
        for name in {SIMULATION_IMPORTS!r}:
            importlib.import_module(name)
        print(json.dumps([m for m in {NOT_ON_IMPORT!r} if m in sys.modules]))
    """)
    assert loaded == []


_BUILD = """
    import json, sys
    from dataclasses import replace
    from repro.systems.cluster import ClusterSimulation
    from repro.systems.configs import UMANYCORE
    from repro.workloads.deathstar import deathstar_app

    def build(**layer):
        return ClusterSimulation(
            replace(UMANYCORE, n_cores=128, n_clusters=8),
            deathstar_app("Text"), 20_000, n_servers=2, duration_s=0.002,
            seed=3, **layer)

    def loaded(modules):
        return [m for m in modules if m in sys.modules]
"""

#: Layer -> (code switching it on and running, modules it must load).
#: The code runs after ``_BUILD``; ``before`` is taken just ahead of it.
LAYERS = {
    "check": ("""
        before = loaded(MODULES)
        from repro.check import CheckContext
        check = CheckContext()
        sim = build(check=check)
        assert sim.engine.check is check
        sim.run()
        assert not check.violations, check.violations
     """, ("repro.check.context",)),
    "hybrid": ("""
        from repro.hybrid import HybridConfig
        before = loaded(MODULES)
        sim = build(hybrid=HybridConfig())
        assert type(sim.hybrid).__name__ == "HybridController"
        sim.run()
     """, ("repro.hybrid.controller", "repro.hybrid.model",
           "repro.hybrid.detector")),
    "dc": ("""
        from repro.dc import DcConfig
        before = loaded(MODULES)
        sim = build(dc=DcConfig(lb="affinity", replication=1,
                                autoscale=True))
        assert sim.autoscaler is not None and sim.placement is not None
        assert "spills" in sim.run().as_dict()["dc"]
     """, ("repro.dc.lb", "repro.dc.autoscale", "repro.dc.placement")),
    "metrics": ("""
        before = loaded(MODULES)
        sim = build(metrics_interval_ns=100_000.0)
        assert type(sim.metrics).__name__ == "MetricsRegistry"
        assert sim.run().metrics.samples_taken > 0
     """, ("repro.telemetry.metrics",)),
    "faults": ("""
        from repro.faults import FaultSchedule
        sim = build()
        before = loaded(MODULES)
        sim.install_faults(FaultSchedule().fail_village(0, 1, 500_000.0))
        assert type(sim.injector).__name__ == "FaultInjector"
        assert sim.run().stats["faults"]["injected"]["injected"] == 1
     """, ("repro.faults.injector",)),
    "tracer": ("""
        from repro.telemetry import Tracer
        result = build(tracer=Tracer()).run()
        before = loaded(MODULES)
        assert result.breakdown()["n_requests"] > 0
     """, ("repro.telemetry.breakdown",)),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_switching_a_layer_on_loads_it(layer):
    code, modules = LAYERS[layer]
    seen = run_fresh(textwrap.dedent(_BUILD) + f"MODULES = {modules!r}\n"
                     + textwrap.dedent(code)
                     + "print(json.dumps([before, loaded(MODULES)]))\n")
    assert seen == [[], list(modules)]
