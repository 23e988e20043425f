"""Tests for the datacenter tier (repro.dc): LB, placement, autoscale."""

from dataclasses import replace

import numpy as np
import pytest

from repro.check import CheckContext
from repro.check.harness import Trial, run_trial, shrink
from repro.dc import (DcConfig, FrontEndLB, LB_NAMES, PlacementPlan,
                      get_lb_policy)
from repro.dc.lb import AffinityLB
from repro.metrics.latency import LatencyRecorder, pooled_summary
from repro.runner import SweepPoint, result_from_dict, result_to_dict
from repro.systems import UMANYCORE, simulate
from repro.workloads import SOCIAL_NETWORK_APPS

APP = SOCIAL_NETWORK_APPS["Text"]
SMALL = replace(UMANYCORE, n_cores=64, n_clusters=4)


def lb_for(policy_name, n=4, seed=0):
    policy = get_lb_policy(policy_name)
    rng = np.random.default_rng(seed) if policy.needs_rng else None
    return FrontEndLB(n, policy, rng=rng)


def run(n_servers=1, dc=None, rps=4000.0, duration_s=0.003, seed=1, **kw):
    return simulate(SMALL, APP, rps_per_server=rps, n_servers=n_servers,
                    duration_s=duration_s, seed=seed, dc=dc, **kw)


# ------------------------------------------------------------ policies

def test_rr_rotates_and_keeps_phase_across_drains():
    lb = lb_for("rr")
    assert [lb.route("Text") for __ in range(5)] == [0, 1, 2, 3, 0]
    # Draining 2 must not shift where the rotation sends everyone else:
    # the pointer keys on the id space, not the active list.
    lb.drain(2)
    assert [lb.route("Text") for __ in range(4)] == [1, 3, 0, 1]
    lb.activate(2)
    assert lb.route("Text") == 2
    assert lb.activations == 1 and lb.drains == 1


def test_least_outstanding_breaks_ties_to_lowest_id():
    lb = lb_for("least")
    assert lb.route("Text") == 0          # all zero -> lowest id
    assert lb.route("Text") == 1
    lb.request_done(0)
    assert lb.route("Text") == 0          # 0 free again, beats 2 and 3


def test_p2c_picks_fewer_outstanding_of_two_distinct_draws():
    class Scripted:
        def __init__(self, draws):
            self.draws = list(draws)

        def integers(self, __n):
            return self.draws.pop(0)

    lb = FrontEndLB(4, get_lb_policy("p2c"), rng=Scripted([1, 1, 0, 0]))
    lb.outstanding[1] = 5
    # Draws (1, 1): the second draw shifts past the first -> servers
    # {1, 2}; 2 has fewer outstanding.
    assert lb.route("Text") == 2
    # Draws (0, 0) -> servers {0, 1}; tie (0 vs 1 after the route above
    # bumped 2) is broken to the lower id.
    lb.outstanding[1] = 0
    assert lb.route("Text") == 0


def test_affinity_home_is_stable_and_spills_under_load():
    lb = lb_for("affinity", n=4)
    home = lb.route("Text")
    assert all(lb.route("Text") == home for __ in range(3))
    # Pile outstanding work on the home until the margin is exceeded.
    other = next(s for s in range(4) if s != home)
    lb.outstanding[home] = lb.policy.spill_margin + 1
    assert lb.route("Text") == other or lb.route("Text") != home
    assert lb.policy.spills >= 1


def test_affinity_spill_margin_flows_from_config():
    assert get_lb_policy("affinity", spill_margin=9).spill_margin == 9
    with pytest.raises(ValueError):
        AffinityLB(spill_margin=-1)


def test_lb_registry_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown lb policy"):
        get_lb_policy("magic")


def test_lb_refuses_to_drain_the_last_active_server():
    lb = lb_for("rr", n=2)
    lb.drain(0)
    with pytest.raises(ValueError, match="last active"):
        lb.drain(1)
    lb.drain(0)                           # idempotent on a drained server
    assert lb.drains == 1


def test_lb_outstanding_ledger():
    lb = lb_for("rr", n=2)
    sid = lb.route("Text")
    assert lb.routed[sid] == 1 and lb.outstanding[sid] == 1
    lb.request_done(sid)
    assert lb.outstanding == [0, 0] and sum(lb.routed) == 1


# ----------------------------------------------------------- placement

def test_placement_roots_everywhere_and_leaves_striped():
    plan = PlacementPlan.build(["a", "b", "c", "root"], roots={"root"},
                               n_servers=3, replication=1)
    assert plan.servers_for("root") == (0, 1, 2)
    assert {plan.servers_for(s) for s in "abc"} == {(0,), (1,), (2,)}
    assert all(plan.is_local(sid, "root") for sid in range(3))
    hosted = [plan.services_on(sid) for sid in range(3)]
    assert sorted(len(h) for h in hosted) == [2, 2, 2]


def test_placement_replication_zero_or_ge_n_means_everywhere():
    for k in (0, 3, 7):
        plan = PlacementPlan.build(["a", "b"], roots=set(), n_servers=3,
                                   replication=k)
        assert plan.servers_for("a") == (0, 1, 2)


def test_placement_rejects_bad_assignments():
    with pytest.raises(ValueError, match="no hosting server"):
        PlacementPlan({"a": ()}, n_servers=2)
    with pytest.raises(ValueError, match="invalid server"):
        PlacementPlan({"a": (5,)}, n_servers=2)


# -------------------------------------------------------------- config

def test_lb_names_match_the_registry():
    from repro.dc.lb import LB_FACTORIES

    assert LB_NAMES == tuple(sorted(LB_FACTORIES))


def test_dc_config_validation():
    with pytest.raises(ValueError):
        DcConfig(lb="nope")
    with pytest.raises(ValueError):
        DcConfig(lb_latency_ns=-1.0)
    with pytest.raises(ValueError):
        DcConfig(replication=-1)
    with pytest.raises(ValueError):
        DcConfig(min_servers=0)
    with pytest.raises(ValueError):
        DcConfig(scale_down_util=0.8, scale_up_util=0.5)
    with pytest.raises(ValueError):
        DcConfig(autoscale_interval_ns=0.0)


# ------------------------------------------ cache fingerprint (runner)

def point(**kw):
    kw.setdefault("n_servers", 1)
    kw.setdefault("duration_s", 0.004)
    return SweepPoint(config=SMALL, app=APP, rps=2000.0, seed=3, **kw)


def test_key_sensitive_to_n_servers_and_every_dc_field():
    base = point().key()
    assert point(n_servers=2).key() != base
    assert point(dc=DcConfig()).key() != base
    dc_base = point(dc=DcConfig()).key()
    for change in (DcConfig(lb="least"),
                   DcConfig(lb_latency_ns=500.0),
                   DcConfig(replication=1),
                   DcConfig(spill_margin=9),
                   DcConfig(autoscale=True),
                   DcConfig(autoscale=True, min_servers=2),
                   DcConfig(autoscale_interval_ns=100_000.0),
                   DcConfig(scale_up_util=0.9),
                   DcConfig(scale_down_util=0.05)):
        assert point(dc=change).key() != dc_base, change


def test_cache_roundtrip_preserves_dc_stats():
    result = point(dc=DcConfig(lb="least"), n_servers=2).run()
    assert "dc" in result.stats
    rebuilt = result_from_dict(result_to_dict(result))
    assert rebuilt.stats["dc"] == result.stats["dc"]
    assert rebuilt.as_dict() == result.as_dict()


# ------------------------------------------------ determinism / parity

@pytest.mark.parametrize("lb", LB_NAMES)
def test_every_lb_policy_is_deterministic(lb):
    a = run(n_servers=2, dc=DcConfig(lb=lb)).as_dict()
    b = run(n_servers=2, dc=DcConfig(lb=lb)).as_dict()
    assert a == b


def test_dc_rr_one_server_is_byte_identical_to_plain_path():
    plain = run().as_dict()
    dc = run(dc=DcConfig(lb="rr")).as_dict()
    assert dc.pop("dc")["routed"] == [plain["offered"]]
    assert dc == plain


def test_dc_off_leaves_result_payload_unchanged():
    assert "dc" not in run().as_dict()
    assert "dc" not in run().stats


# ------------------------------------------- end-to-end under checking

def test_replicated_placement_proxies_and_passes_checks():
    check = CheckContext(strict=True)
    result = run(n_servers=2, dc=DcConfig(lb="least", replication=1),
                 check=check)
    assert check.ok and check.stats.checks > 0
    assert result.stats["dc"]["replication"] == 1
    assert result.stats["dc"]["proxied"] > 0


def test_autoscale_drain_conserves_requests():
    check = CheckContext(strict=True)
    dc = DcConfig(lb="least", autoscale=True, min_servers=1,
                  autoscale_interval_ns=100_000.0, scale_down_util=0.5)
    result = run(n_servers=3, dc=dc, rps=500.0, duration_s=0.004,
                 check=check)
    stats = result.stats["dc"]
    assert check.ok
    assert stats["scale_downs"] >= 1
    assert stats["active_at_end"] == [0]   # drained to the floor
    answered = result.completed + result.rejected + result.failed
    assert sum(stats["routed"]) == result.offered == answered


# --------------------------------------------------- fuzz harness axes

def test_harness_dc_trial_runs_clean_and_describe_is_executable():
    trial = Trial(seed=7, duration_s=0.002, trace=False, lb="p2c",
                  replication=1, autoscale=True)
    assert eval(trial.describe()) == trial   # noqa: S307 - own repr
    check = run_trial(trial)
    assert check.ok and check.stats.checks > 0


def test_shrink_resets_dc_axes_without_touching_duration_pin():
    big = Trial(seed=9, n_servers=2, duration_s=0.008, fault_rate=500.0,
                trace=True, lb="least", replication=2, autoscale=True)
    small = shrink(big, fails=lambda t: True)
    assert small.lb == "off"
    assert small.replication == 0 and not small.autoscale
    assert small.duration_s == big.duration_s / 4


# -------------------------------------------------- pooled percentiles

def test_pooled_percentiles_differ_from_averaged_summaries():
    """The satellite regression: merge samples, don't average p99s."""
    skewed, light = LatencyRecorder("s0"), LatencyRecorder("s1")
    for i in range(99):
        skewed.record(float(i), 1.0)
    skewed.record(99.0, 1000.0)
    light.record(0.0, 1.0)
    pooled = pooled_summary([skewed, light])
    everything = LatencyRecorder("all")
    for rec in (skewed, light):
        for t, lat in zip(rec._times, rec._latencies):
            everything.record(t, lat)
    want = everything.summary()
    assert (pooled.p50, pooled.p99, pooled.p999) == \
        (want.p50, want.p99, want.p999)
    averaged = (skewed.summary().p99 + light.summary().p99) / 2
    assert pooled.p99 != averaged


def test_pooled_summary_respects_warmup_and_empty_sentinel():
    rec = LatencyRecorder("s0")
    rec.record(10.0, 5.0)
    assert pooled_summary([rec], after_ns=0.0).count == 1
    assert pooled_summary([rec], after_ns=100.0).is_empty
    assert pooled_summary([]).is_empty


# ------------------------------------------------------------ CLI / UX

def test_cli_parses_dc_flags():
    from repro.cli import EXPERIMENTS, _dc_setup, build_parser

    args = build_parser().parse_args(
        ["simulate", "--system", "umanycore", "--lb", "p2c",
         "--placement", "2", "--autoscale", "--min-servers", "2"])
    assert (args.lb, args.placement) == ("p2c", 2)
    assert args.autoscale and args.min_servers == 2
    dc = _dc_setup(args)
    assert (dc.lb, dc.replication, dc.autoscale, dc.min_servers) == \
        ("p2c", 2, True, 2)
    assert _dc_setup(build_parser().parse_args(
        ["simulate", "--system", "umanycore"])) is None
    assert "figD" in EXPERIMENTS
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--lb", "magic"])


def test_cli_simulate_prints_dc_routing_table(capsys):
    from repro.cli import main

    main(["simulate", "--system", "umanycore", "--app", "Text",
          "--rps", "3000", "--servers", "2", "--duration", "0.003",
          "--lb", "least"])
    out = capsys.readouterr().out
    assert "dc         : lb=least" in out
    assert "per-server routing (lb=least):" in out
    assert "routed" in out and "p99 us" in out


def test_figd_experiment_registered_in_run_all():
    from repro.experiments import run_all

    assert ("Figure D (datacenter)", ["figD_datacenter"]) in run_all.SECTIONS
