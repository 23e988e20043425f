"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import SYSTEMS, _resolve_app, build_parser, main


def test_parser_simulate_defaults():
    args = build_parser().parse_args(["simulate", "--system", "umanycore"])
    assert args.system == "umanycore"
    assert args.app == "Text"
    assert args.arrivals == "poisson"


def test_parser_rejects_unknown_system():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--system", "cray"])


def test_resolve_app():
    assert _resolve_app("Text").name == "Text"
    assert _resolve_app("bimodal").name == "Syn-bimodal"
    with pytest.raises(SystemExit):
        _resolve_app("nope")


def test_list_command(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "umanycore" in out and "CPost" in out and "fig14" in out


def test_simulate_command(capsys):
    main(["simulate", "--system", "umanycore", "--app", "UrlShort",
          "--rps", "2000", "--servers", "1", "--duration", "0.008"])
    out = capsys.readouterr().out
    assert "P50 / P99" in out and "uManycore" in out


def test_simulate_json_output(capsys):
    main(["simulate", "--system", "umanycore", "--app", "UrlShort",
          "--rps", "2000", "--servers", "1", "--duration", "0.008",
          "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["system"] == "uManycore"
    assert doc["completed"] > 0
    assert doc["latency_ns"]["p99"] >= doc["latency_ns"]["p50"]
    assert "breakdown" not in doc        # no tracer on a plain simulate


def test_trace_command(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    csv_file = tmp_path / "spans.csv"
    main(["trace", "--system", "umanycore", "--app", "UrlShort",
          "--rps", "2000", "--servers", "1", "--duration", "0.008",
          "--out", str(trace_file), "--csv-out", str(csv_file)])
    out = capsys.readouterr().out
    assert "perfetto" in out and "compute" in out
    doc = json.loads(trace_file.read_text())
    cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"request", "compute", "nic_dispatch"} <= cats
    assert csv_file.read_text().startswith("span_id,")


def test_trace_command_json_breakdown(tmp_path, capsys):
    main(["trace", "--system", "scaleout", "--app", "UrlShort",
          "--rps", "2000", "--servers", "1", "--duration", "0.008",
          "--out", str(tmp_path / "t.json"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    fractions = doc["breakdown"]["fraction"]
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_experiment_command_power(capsys):
    main(["experiment", "power"])
    out = capsys.readouterr().out
    assert "iso-power ServerClass cores: 40" in out


def test_systems_table_complete():
    assert set(SYSTEMS) == {"umanycore", "scaleout", "serverclass",
                            "serverclass128"}


def test_parser_sweep_defaults():
    args = build_parser().parse_args(["sweep"])
    assert args.systems == "umanycore,scaleout,serverclass"
    assert args.jobs == 1 and not args.no_cache and not args.json


def test_sweep_command_table(capsys):
    main(["sweep", "--systems", "umanycore,scaleout", "--apps", "UrlShort",
          "--loads", "2000", "--servers", "1", "--duration", "0.004",
          "--no-cache"])
    captured = capsys.readouterr()
    assert "uManycore" in captured.out and "ScaleOut" in captured.out
    assert "p99 us" in captured.out
    # Progress goes to stderr; stdout stays a clean table.
    assert "[1/2]" in captured.err and "[2/2]" in captured.err
    assert "cache:" not in captured.err


def test_parser_check_flags():
    args = build_parser().parse_args(["simulate", "--system", "umanycore",
                                      "--check"])
    assert args.check
    args = build_parser().parse_args(["sweep", "--check"])
    assert args.check
    args = build_parser().parse_args(["validate", "--trials", "3"])
    assert args.trials == 3 and args.seed == 0


def test_simulate_check_reports_zero_violations(capsys):
    main(["simulate", "--system", "umanycore", "--app", "UrlShort",
          "--rps", "2000", "--servers", "1", "--duration", "0.008",
          "--check"])
    captured = capsys.readouterr()
    assert "P50 / P99" in captured.out
    assert "0 violations" in captured.err


def test_sweep_check_bypasses_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    main(["sweep", "--systems", "umanycore", "--apps", "UrlShort",
          "--loads", "2000", "--servers", "1", "--duration", "0.004",
          "--check"])
    captured = capsys.readouterr()
    assert "p99 us" in captured.out
    assert "cache:" not in captured.err     # check mode never caches
    assert not list(tmp_path.iterdir())


def test_validate_command_clean(capsys):
    main(["validate", "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert "2 trials, 0 violations" in captured.out
    assert "[  1/2]" in captured.err and "ok" in captured.err


def test_validate_command_failure_shrinks_and_exits(monkeypatch, capsys):
    from repro.check.context import CheckContext
    import repro.check.harness as harness

    def broken_run_trial(trial):
        check = CheckContext(strict=False)
        check.violation("conservation", "seeded imbalance")
        return check

    monkeypatch.setattr(harness, "run_trial", broken_run_trial)
    with pytest.raises(SystemExit) as err:
        main(["validate", "--trials", "1", "--seed", "2"])
    assert err.value.code == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "seeded imbalance" in out
    assert "shrunk to: Trial(" in out


# -------------------------------------------------- scheduling policies

def test_parser_policy_flags():
    args = build_parser().parse_args(
        ["simulate", "--system", "umanycore", "--dispatch", "least",
         "--rq-policy", "sjf", "--steal", "maxload", "--core-bypass"])
    assert args.dispatch == "least"
    assert args.rq_policy == "sjf"
    assert args.steal == "maxload"
    assert args.core_bypass
    # Defaults are None/False so unset flags never touch the config.
    args = build_parser().parse_args(["sweep"])
    assert args.dispatch is None and args.rq_policy is None
    assert args.steal is None and not args.core_bypass
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--system", "umanycore",
                                   "--dispatch", "hash"])


def test_policy_overrides_mapping():
    from repro.cli import _policy_overrides

    parse = build_parser().parse_args
    assert _policy_overrides(parse(["sweep"])) == {}
    assert _policy_overrides(parse(["sweep", "--steal", "off"])) == \
        {"work_steal": False}
    assert _policy_overrides(parse(["sweep", "--steal", "maxload"])) == \
        {"work_steal": True, "steal_policy": "maxload"}
    assert _policy_overrides(parse(
        ["sweep", "--dispatch", "affinity", "--rq-policy", "edf",
         "--core-bypass"])) == \
        {"dispatch": "affinity", "rq_policy": "edf", "core_bypass": True}


def test_simulate_policy_flags_json_and_check(capsys):
    main(["simulate", "--system", "umanycore", "--app", "UrlShort",
          "--rps", "2000", "--servers", "1", "--duration", "0.008",
          "--rq-policy", "srpt", "--steal", "maxload", "--core-bypass",
          "--check", "--json"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["sched"]["rq_policy"] == "srpt"
    assert doc["sched"]["steal_policy"] == "maxload"
    assert doc["sched"]["core_bypass"]
    assert "0 violations" in captured.err


def test_list_includes_policies_and_figS(capsys):
    main(["list"])
    out = capsys.readouterr().out
    assert "figS" in out
    assert "least" in out and "maxload" in out and "edf" in out


def test_sweep_command_caches_between_invocations(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = ["sweep", "--systems", "umanycore", "--apps", "UrlShort",
            "--loads", "2000", "--seeds", "5", "--servers", "1",
            "--duration", "0.004", "--json"]
    main(argv)
    cold = capsys.readouterr()
    assert "1 misses" in cold.err
    main(argv)
    warm = capsys.readouterr()
    assert "(cache)" in warm.err and "1 hits" in warm.err
    assert json.loads(warm.out) == json.loads(cold.out)


def test_profile_command_prints_hot_functions_and_dumps_stats(tmp_path,
                                                              capsys):
    import pstats

    out = tmp_path / "prof.pstats"
    main(["profile", "--system", "umanycore", "--app", "Text",
          "--rps", "5000", "--servers", "1", "--duration", "0.002",
          "--seed", "3", "--top", "5", "--sort", "cumtime",
          "--out", str(out)])
    text = capsys.readouterr().out
    assert "function calls" in text and "cumulative" in text
    assert f"profile    : wrote {out}" in text
    assert "P50 / P99" in text
    assert pstats.Stats(str(out)).total_calls > 0


def test_faults_command_reports_the_injected_schedule(capsys):
    main(["faults", "--system", "umanycore", "--app", "Text",
          "--rps", "5000", "--servers", "1", "--duration", "0.002",
          "--fault-rate", "0", "--fail-village", "1",
          "--fault-at-ms", "0.5", "--recover-at-ms", "1.0"])
    text = capsys.readouterr().out
    assert "availability" in text and "resilience :" in text
    assert "injected   : 2/2 events (village=2)" in text


def test_faults_command_json(capsys):
    main(["faults", "--system", "umanycore", "--app", "Text",
          "--rps", "5000", "--servers", "1", "--duration", "0.002",
          "--fault-rate", "0", "--fail-village", "1",
          "--fault-at-ms", "0.5", "--json"])
    d = json.loads(capsys.readouterr().out)
    assert d["faults"]["injected"]["by_kind"] == {"village": 1}
    assert d["offered"] == d["completed"] + d["rejected"] + d["failed"]
