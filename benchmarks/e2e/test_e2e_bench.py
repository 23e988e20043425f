"""Tests of the end-to-end benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``.  Every simulation uses the ``--smoke`` horizons (10 ms
or less), so the file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from calibrate import WorkClock
from child import measure
from layers import LAYERS
from repro.experiments.figW_scenarios import AUTOSCALE_DC
from repro.systems.cluster import ClusterSimulation
from repro.workloads.deathstar import deathstar_app
from workloads import UM128, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full smoke invocation: 2 untraced repeats, a traced run and
    the reference run, for every workload."""
    report = tmp_path_factory.mktemp("e2e") / "report.json"
    proc = run_bench("--smoke", "--repeats", "2", "--json", str(report))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return (json.loads(proc.stdout.strip().splitlines()[-1]),
            json.loads(report.read_text()))


def test_every_workload_runs_and_its_digest_is_stable(smoke):
    result, report = smoke
    assert result["correct"] and result["failed"] == 0
    assert set(report["workloads"]) == set(WORKLOADS)
    for name, rep in report["workloads"].items():
        untraced = [r for r in rep["runs"] if r["kind"] == "untraced"]
        assert len(untraced) == 2, name
        assert untraced[0]["digest"] == untraced[1]["digest"], name
        assert rep["checks"]["deterministic"], name


def test_traced_digest_equals_untraced(smoke):
    for name, rep in smoke[1]["workloads"].items():
        digests = {r["kind"]: r["digest"] for r in rep["runs"]
                   if r["kind"] != "reference"}
        assert digests["traced"] == digests["untraced"], name


def test_event_attribution_sums_to_engine_total(smoke):
    for name, rep in smoke[1]["workloads"].items():
        traced = next(r for r in rep["runs"] if r["kind"] == "traced")
        attributed = sum(traced["layers"][f"{layer}.events"]
                         for layer in LAYERS[1:])
        assert attributed == traced["events"] > 0, name


def test_json_carries_every_metric_named_in_benchmark_json(smoke):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    metrics = smoke[0]["metrics"]
    for name in WORKLOADS:
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            entry = metrics[f"{name}/{m['name']}"]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))


def test_watchdog_turns_a_run_that_never_drains_into_a_failure(tmp_path):
    # Autoscaler ticks and metrics sampling each re-arm while the other
    # is pending, so this cluster never drains on its own.
    def never_drains(seed, smoke, reference, workdir, clock):
        sim = ClusterSimulation(UM128, deathstar_app("Text"),
                                rps_per_server=2000.0, n_servers=2,
                                duration_s=0.002, seed=seed,
                                dc=AUTOSCALE_DC, metrics_interval_ns=1e5)
        return Outcome([sim.run()])

    out = measure(never_drains, 0, True, "untraced", 20_000, tmp_path,
                  WorkClock())
    assert not out["ok"]
    assert out["problems"][0].startswith("watchdog")
    assert out["events"] == 20_000


def test_refuses_to_run_outside_a_checkout(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no simulator.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run_bench("--workload", "steady_hot", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
