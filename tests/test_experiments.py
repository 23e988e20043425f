"""Integration tests: every experiment runner works at reduced scale."""

import numpy as np
import pytest

from repro.experiments.common import Settings, format_table, geomean

QUICK = Settings(n_servers=1, duration_s=0.01, seed=2)


def test_format_table():
    out = format_table(["a", "bb"], [["1", "22"], ["333", "4"]])
    lines = out.splitlines()
    assert len(lines) == 4          # header, separator, 2 rows
    assert "333" in lines[2] or "333" in lines[3]
    assert lines[1].strip("- ").replace("-", "") == ""  # separator line


def test_format_table_empty_and_ragged_rows():
    # No rows: still renders header + separator sized to the headers.
    out = format_table(["name", "value"], [])
    lines = out.splitlines()
    assert len(lines) == 2
    assert "name" in lines[0] and "value" in lines[0]
    assert set(lines[1]) <= {"-", " "}
    # Rows shorter than the header pad with blank cells instead of raising.
    out = format_table(["a", "b", "c"], [["1"], ["2", "3"]])
    assert len(out.splitlines()) == 4
    # Numeric cells are stringified.
    assert "42" in format_table(["n"], [[42]])


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_fig01_runner():
    from repro.experiments.fig01_microarch import run

    results = run(n_accesses=20_000, n_branches=10_000)
    assert set(results) == {"D-Prefetcher", "Branch Predictor",
                            "I-Prefetcher", "I-Cache Replace"}
    for r in results.values():
        assert r["mono"] > 0 and r["micro"] > 0


def test_fig02_04_05_runners():
    from repro.experiments.fig02_rps_cdf import run as f2
    from repro.experiments.fig04_cpu_util import run as f4
    from repro.experiments.fig05_rpc_count import run as f5

    for run in (f2, f4, f5):
        r = run(n=20_000)
        assert (np.diff(r["cdf"]) >= 0).all()
        assert 0.0 <= r["cdf"][0] <= r["cdf"][-1] <= 1.0


def test_fig03_runner_tiny():
    from repro.experiments.fig03_queues import run

    results = run(rps=20_000, compute_scale=10.0, queue_counts=(32, 1),
                  settings=QUICK)
    assert set(results) == {(32, False), (1, False), (32, True), (1, True)}
    for v in results.values():
        assert v["p99_us"] >= v["mean_us"] > 0


def test_fig06_runner_tiny():
    from repro.experiments.fig06_context_switch import run

    results = run(loads=(5000,), cs_cycles=(0, 8192), settings=QUICK)
    assert results[(0, 5000)] > 0
    assert results[(8192, 5000)] > 0


def test_fig07_runner_tiny():
    from repro.experiments.fig07_icn_contention import run

    results = run(loads=(5000,), settings=QUICK)
    assert set(results) == {("mesh", 5000), ("fattree", 5000)}
    for ratio in results.values():
        assert ratio > 0.3


def test_fig08_fig09_runners():
    from repro.experiments.fig08_footprint import run as f8
    from repro.experiments.fig09_hit_rates import run as f9

    r8 = f8(n_handlers=6)
    assert set(r8) == {"Handler-Handler", "Handler-Init"}
    r9 = f9(n_accesses=20_000)
    assert r9["data"]["L1Cache"] > 0.8


def test_latency_matrix_and_wrappers():
    from repro.experiments.latency_matrix import reduction_vs, run

    matrix = run(loads=(5000,), apps=("UrlShort",), settings=QUICK)
    assert ("uManycore", "UrlShort", 5000) in matrix
    ratio = reduction_vs(matrix, "p99_ns", "ServerClass", 5000, ("UrlShort",))
    assert ratio > 0


def test_fig15_runner_tiny():
    from repro.experiments.fig15_breakdown import run

    results = run(rps=5000, apps=("UrlShort",), settings=QUICK)
    names = {name for name, __ in results}
    assert "ScaleOut" in names and "+HW Context Switch" in names


def test_fig18_max_throughput_search():
    from repro.experiments.fig18_throughput import max_throughput
    from repro.systems.configs import UMANYCORE
    from repro.workloads.deathstar import social_network_app

    app = social_network_app("UrlShort")
    t = max_throughput(UMANYCORE, app,
                       Settings(n_servers=1, duration_s=0.008),
                       low=1000.0, high=100_000.0, iterations=3)
    assert t >= 1000.0


def test_fig19_runner_tiny():
    from repro.experiments.fig19_sensitivity import run

    results = run(rps=5000, apps=("UrlShort",), settings=QUICK)
    assert len(results) == 4


def test_fig20_runner_tiny():
    from repro.experiments.fig20_synthetic import run

    results = run(loads=(5000,), settings=QUICK)
    assert len(results) == 9  # 3 systems x 3 distributions


def test_sec68_runner_tiny():
    from repro.experiments.sec68_iso_area import run

    results = run(apps=("UrlShort",), loads=(5000,), settings=QUICK)
    assert ("ServerClass-128", "UrlShort", 5000) in results


def test_power_area_runner():
    from repro.experiments.power_area import run

    results = run()
    assert results["iso"]["iso_power_cores"] == 40


def test_figS_runner_tiny():
    from repro.experiments.figS_policies import COMBOS, run

    tiny = Settings(n_servers=1, duration_s=0.004, seed=2)
    results = run(tiny, loads=(8000,))
    assert len(results) == len(COMBOS) * 2      # fault-free + faulted
    base = results[("rr+fcfs", False, 8000)]
    assert base.completed > 0 and "sched" not in base.stats
    steal = results[("rr+steal", False, 8000)]
    assert steal.stats["sched"]["steal_policy"] == "maxload"
    assert results[("affinity+fcfs", True, 8000)].availability <= 1.0


def test_figS_bypass_runner_tiny():
    from repro.experiments.figS_policies import run_bypass

    tiny = Settings(n_servers=1, duration_s=0.004, seed=2)
    results = run_bypass(tiny, loads=(4000,))
    assert "sched" not in results[(False, 4000)].stats
    assert results[(True, 4000)].stats["sched"]["bypasses"] > 0


def test_executing_config_folds_into_points():
    from repro.experiments.common import point_for
    from repro.runner import executing, run_points
    from repro.systems.configs import UMANYCORE
    from repro.workloads.deathstar import social_network_app

    app = social_network_app("Text")
    p = point_for(UMANYCORE, app, 1000, QUICK)
    assert p.config is UMANYCORE        # points carry the config untouched
    with executing(config={"dispatch": "least", "core_bypass": True}):
        (r,) = run_points([p], memo=False)
    assert r.stats["sched"]["dispatch"] == "least"
    assert r.stats["sched"]["core_bypass"]
    (clean,) = run_points([p], memo=False)
    assert "sched" not in clean.stats   # scope left -> no overrides


def test_run_all_resume_skips_sections_done_with_an_empty_cache(
        tmp_path, monkeypatch, capsys):
    """A section that stores no result still leaves its done-marker, so
    ``--resume`` skips it (an empty cache must not read as no cache)."""
    from repro.experiments import power_area, run_all
    from repro.runner import ResultCache, executing

    calls = []
    monkeypatch.setattr(run_all, "SECTIONS", [("Tiny", ["power_area"])])
    monkeypatch.setattr(power_area, "main",
                        lambda quick: calls.append(quick))
    with executing(cache=ResultCache(tmp_path)):
        run_all.main(quick=True)
        run_all.main(quick=True, resume=True)
    assert calls == [True]
    assert "[Tiny skipped: done in a previous run" in capsys.readouterr().out


#: The section titles of ``repro experiment all``, in print order.
RUN_ALL_TITLES = [
    "Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
    "Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figures 14/16/17",
    "Figure 15", "Figure 18", "Figure 19", "Figure 20", "Section 6.8",
    "Power & area", "Figure S (policies)", "Figure D (datacenter)",
    "Figure H (hybrid)", "Figure W (scenarios)",
]


def test_figure_table_drives_cli_choices_and_run_all_sections():
    from repro.cli import build_parser
    from repro.experiments import FIGURES, run_all

    subcommands = next(a for a in build_parser()._actions
                       if a.dest == "command").choices
    id_arg = next(a for a in subcommands["experiment"]._actions
                  if a.dest == "id")
    assert list(id_arg.choices) == [f[0] for f in FIGURES] + ["all"]
    assert [title for title, __ in run_all.SECTIONS] == RUN_ALL_TITLES
    assert ("Figures 14/16/17", ["fig14_tail_latency", "fig16_avg_latency",
                                 "fig17_tail_to_avg"]) in run_all.SECTIONS
    assert not any("figF_faults" in modules
                   for __, modules in run_all.SECTIONS)


@pytest.mark.parametrize("quick", [False, True])
def test_run_all_calls_every_figure_with_exactly_quick(monkeypatch, capsys,
                                                        quick):
    """``all`` is the composition of the figure entries: each section's
    figures get ``quick`` as the one argument, nothing else."""
    import importlib

    from repro.experiments import run_all
    from repro.runner import executing

    calls = []
    for __, modules in run_all.SECTIONS:
        for name in modules:
            module = importlib.import_module(f"repro.experiments.{name}")
            monkeypatch.setattr(
                module, "main",
                lambda *args, _name=name, **kwargs:
                    calls.append((_name, args, kwargs)))
    with executing(cache=None):
        run_all.main(quick=quick)
    assert calls == [(name, (), {"quick": quick})
                     for __, modules in run_all.SECTIONS
                     for name in modules]
    assert len(calls) == 22
