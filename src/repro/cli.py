"""Command-line interface.

Examples::

    python -m repro simulate --system umanycore --app Text --rps 15000
    python -m repro simulate --system umanycore --json
    python -m repro simulate --system umanycore --fail-village 3
    python -m repro simulate --system umanycore --servers 4 --lb least
    python -m repro trace --system umanycore --app Text --rps 15000 \
        --out trace.json
    python -m repro sweep --systems umanycore,scaleout --apps Text \
        --loads 5000,10000,15000 --jobs 4
    python -m repro experiment fig14
    python -m repro experiment all --jobs 8
    python -m repro simulate --system umanycore --check
    python -m repro validate --trials 25 --seed 0
    python -m repro list

``simulate``, ``trace`` and ``profile`` take one run description; their
summary grows a section for each opt-in layer the run switched on
(faults, hybrid, dc).  See docs/CLI.md for the full reference.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.experiments import FIGURES
from repro.systems.configs import SCALEOUT, SERVERCLASS, SERVERCLASS_128, \
    UMANYCORE
from repro.workloads.arrival import ARRIVAL_NAMES
from repro.workloads.deathstar import DEATHSTAR_APPS, app_by_name
from repro.workloads.synthetic import SYNTHETIC_DISTRIBUTIONS

SYSTEMS = {
    "umanycore": UMANYCORE,
    "scaleout": SCALEOUT,
    "serverclass": SERVERCLASS,
    "serverclass128": SERVERCLASS_128,
}

#: ``repro experiment`` ids: every figure of the table, then ``all``.
EXPERIMENTS = [fig_id for fig_id, __, __title in FIGURES] + ["all"]


def _resolve_app(name: str):
    try:
        return app_by_name(name)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _resolve_system(name: str):
    if name not in SYSTEMS:
        raise SystemExit(f"unknown system {name!r}; pick one of "
                         f"{sorted(SYSTEMS)}")
    return SYSTEMS[name]


def _resolve_arrivals(args):
    """Arrival process from the flags: ``--trace-in`` (a CSV/JSON path,
    or ``sample`` for the bundled Alibaba-marginal trace) wins over the
    named ``--arrivals`` profile."""
    if args.trace_in:
        from repro.workloads.replay import resolve_trace

        try:
            return resolve_trace(args.trace_in)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"--trace-in: {exc}")
    return args.arrivals


def _fault_setup(args, sim):
    """Translate the fault CLI flags into (schedule, resilience)."""
    from repro.faults import FaultSchedule, ResilienceConfig, \
        fault_inventory, merge

    at_ns = args.fault_at_ms * 1e6
    rec_ns = args.recover_at_ms * 1e6 \
        if args.recover_at_ms is not None else None
    servers = range(sim.n_servers) if args.fault_server < 0 \
        else [args.fault_server]
    sched = FaultSchedule(detection_ns=args.detection_us * 1e3)
    for v in args.fail_village:
        for s in servers:
            sched.fail_village(s, v, at_ns, rec_ns)
    for spec in args.fail_link:
        try:
            u, v = (part.strip() for part in spec.split(","))
        except ValueError:
            raise SystemExit(f"--fail-link wants U,V node names, got {spec!r}")
        for s in servers:
            sched.fail_link(s, u, v, at_ns, rec_ns)
    for spec in args.fail_nic:
        try:
            v, which = spec.split(":")
        except ValueError:
            raise SystemExit(f"--fail-nic wants V:lnic|rnic, got {spec!r}")
        for s in servers:
            sched.fail_nic(s, int(v), which, at_ns, rec_ns)
    for spec in args.degrade_village:
        try:
            v, factor = spec.split(":")
        except ValueError:
            raise SystemExit(
                f"--degrade-village wants V:FACTOR, got {spec!r}")
        for s in servers:
            sched.degrade_village(s, int(v), at_ns, float(factor), rec_ns)
    if args.fault_rate > 0:
        inv = fault_inventory(sim.servers)
        sched = merge([sched, FaultSchedule.random(
            seed=args.seed, duration_ns=args.duration * 1e9,
            rate_per_s=args.fault_rate,
            detection_ns=args.detection_us * 1e3, **inv)])
    resilience = None
    if sched or args.hedge_us > 0 or args.timeout_us is not None:
        resilience = ResilienceConfig(
            timeout_ns=(args.timeout_us or 2_000.0) * 1e3,
            max_retries=args.retries,
            hedge_delay_ns=args.hedge_us * 1e3)
    return sched, resilience


def _dc_setup(args):
    """Translate the dc CLI flags into a DcConfig (None = dc tier off).

    The tier only switches on when ``--lb``, ``--placement`` or
    ``--autoscale`` was given, so plain runs keep the classic
    per-server arrival path byte-for-byte.
    """
    if args.lb is None and args.placement is None and not args.autoscale:
        return None
    from repro.dc import DcConfig

    return DcConfig(lb=args.lb or "rr",
                    lb_latency_ns=args.lb_latency_us * 1e3,
                    replication=args.placement or 0,
                    autoscale=args.autoscale,
                    min_servers=args.min_servers)


def _hybrid_setup(args):
    """Translate the hybrid CLI flags into a HybridConfig (None = off).

    The fast path only arms when ``--hybrid`` was given, so plain runs
    keep the fully detailed event path byte-for-byte.
    """
    if not args.hybrid:
        return None
    from repro.hybrid import HybridConfig

    return HybridConfig(tol=args.hybrid_tol)


def _policy_overrides(args) -> dict:
    """Translate the scheduling flags into SystemConfig field overrides.

    Flags left at their defaults contribute nothing, so a run without
    them uses the configs untouched (byte-identical to before the
    policy layer existed)."""
    kw = {}
    if args.dispatch is not None:
        kw["dispatch"] = args.dispatch
    if args.rq_policy is not None:
        kw["rq_policy"] = args.rq_policy
    if args.steal is not None:
        kw["steal"] = args.steal
    if args.core_bypass:
        kw["core_bypass"] = True
    return kw


def _executing(args):
    """The one :func:`repro.runner.executing` scope of ``sweep`` and
    ``experiment``: jobs, cache (off with ``--no-cache`` or
    ``--check``), check, policy overrides and hybrid config."""
    from repro.runner import ResultCache, executing

    cache = None if args.no_cache or args.check else ResultCache()
    return executing(jobs=args.jobs, cache=cache, check=args.check,
                     config=_policy_overrides(args),
                     hybrid=_hybrid_setup(args))


def _run_simulation(args, tracer=None, metrics_interval_ns=None):
    from dataclasses import replace

    from repro.systems.cluster import ClusterSimulation

    config, overrides = SYSTEMS[args.system], _policy_overrides(args)
    if overrides:
        config = replace(config, **overrides)
    app = _resolve_app(args.app)
    check = None
    if args.check:
        from repro.check import CheckContext

        check = CheckContext(strict=True)
    sim = ClusterSimulation(config, app, rps_per_server=args.rps,
                            n_servers=args.servers, duration_s=args.duration,
                            seed=args.seed, arrivals=_resolve_arrivals(args),
                            tracer=tracer,
                            metrics_interval_ns=metrics_interval_ns,
                            check=check, dc=_dc_setup(args),
                            hybrid=_hybrid_setup(args))
    schedule, resilience = _fault_setup(args, sim)
    if schedule or resilience is not None:
        sim.install_faults(schedule, resilience)
        if schedule and not args.json:
            print(schedule.describe())
    result = sim.run()
    if check is not None:
        print(f"check      : {check.stats.checks} invariant checks, "
              f"{len(check.violations)} violations", file=sys.stderr)
    return result


def _print_summary(result, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return
    s = result.summary
    print(f"system     : {result.system}")
    print(f"app        : {result.app}")
    print(f"load       : {result.rps_per_server:.0f} RPS/server x "
          f"{result.n_servers} servers")
    print(f"completed  : {result.completed} (rejected {result.rejected})")
    print(f"mean       : {s.mean / 1e3:.1f} us")
    print(f"P50 / P99  : {s.p50 / 1e3:.1f} / {s.p99 / 1e3:.1f} us")
    print(f"tail/avg   : {s.tail_to_average:.2f}")
    stats = result.stats
    if "faults" in stats:
        fs = stats["faults"]
        print(f"failed     : {result.failed} "
              f"(availability {result.availability:.4f}, "
              f"goodput {result.goodput_rps:.0f} RPS)")
        print(f"resilience : {int(fs['rpc_timeouts'])} timeouts, "
              f"{int(fs['rpc_retries'])} retries, "
              f"{int(fs['rpc_hedges'])} hedges, "
              f"{int(fs['blackholed'])} blackholed, "
              f"{int(fs['icn_dropped'])}/{int(fs['nic_dropped'])} "
              f"icn/nic drops")
        inj = fs["injected"]
        if inj:
            kinds = ", ".join(f"{k}={v}"
                              for k, v in sorted(inj["by_kind"].items()))
            print(f"injected   : {inj['injected']}/{inj['scheduled']} events"
                  + (f" ({kinds})" if kinds else ""))
    if "hybrid" in stats:
        hs = stats["hybrid"]
        committed = ", ".join(hs["services_committed"]) or "-"
        at = (f" @{hs['committed_at_ns'] / 1e6:.1f} ms"
              if hs["committed_at_ns"] is not None else "")
        print(f"hybrid     : state={hs['state']}{at}, "
              f"committed=[{committed}], "
              f"{hs['roots_elided']} roots / {hs['calls_elided']} calls "
              f"elided (~{hs['events_elided']} events), "
              f"{hs['aborts']} aborts")
    if "dc" in stats:
        dcs = stats["dc"]
        extra = ""
        if dcs.get("scale_events") is not None:
            extra = (f", {dcs['scale_ups']} scale-ups / "
                     f"{dcs['scale_downs']} scale-downs")
        print(f"dc         : lb={dcs['lb']} routed={dcs['routed']}, "
              f"{dcs['proxied']} proxied RPCs{extra}")
        print(f"pooled p99 : {dcs['pooled']['p99'] / 1e3:.1f} us over "
              f"{dcs['pooled']['count']} pooled samples")
        from repro.experiments.common import format_table

        rows = [[e["server"], e["routed"], e["answered"], e["completed"]]
                + [f"{e[k] / 1e3:.1f}" if k in e else "-"
                   for k in ("p50_ns", "p99_ns")]
                for e in dcs["per_server"]]
        print("\nper-server routing (lb=" + dcs["lb"]
              + (f", replication={dcs['replication']}"
                 if dcs["replication"] else "") + "):")
        print(format_table(
            ["server", "routed", "answered", "completed", "p50 us",
             "p99 us"], rows))
        if dcs.get("spills") is not None:
            print(f"affinity spills: {dcs['spills']}")
        for ev in dcs.get("scale_events", []):
            print(f"  t={ev['time_ns'] / 1e6:7.2f} ms  {ev['action']:5s} "
                  f"server {ev['server']} (mean util "
                  f"{ev['mean_util']:.2f})")
    bd = result.breakdown()
    if bd is not None:
        from repro.telemetry import format_breakdown

        print(format_breakdown(bd))


def cmd_simulate(args) -> None:
    """Run one cluster simulation and print its summary."""
    _print_summary(_run_simulation(args), args.json)


def cmd_trace(args) -> None:
    """One traced run: Chrome trace export + span-derived breakdown."""
    if args.autoscale and args.metrics_interval_us > 0:
        # The autoscaler tick and the gauge sampler each re-arm while
        # the other is pending, so the event queue never drains.
        raise SystemExit("trace: --autoscale never finishes while gauges "
                         "are sampled; add --metrics-interval-us 0")
    from repro.telemetry import Tracer, write_chrome_trace, write_spans_csv

    tracer = Tracer()
    interval = args.metrics_interval_us * 1000.0 \
        if args.metrics_interval_us > 0 else None
    result = _run_simulation(args, tracer=tracer,
                             metrics_interval_ns=interval)
    n_events = write_chrome_trace(tracer, args.out)
    if args.csv_out:
        write_spans_csv(tracer, args.csv_out)
    if args.json:
        _print_summary(result, True)
        return
    print(f"wrote {args.out}: {n_events} spans, "
          f"{len(tracer.requests)} requests "
          f"(open in https://ui.perfetto.dev)")
    if args.csv_out:
        print(f"wrote {args.csv_out}")
    _print_summary(result, False)


def cmd_profile(args) -> None:
    """Profile one simulation under cProfile and print the hot functions.

    The simulated run is the one ``repro simulate`` would do (same
    seeds, same event order — cProfile only adds interpreter overhead,
    it never perturbs virtual time).  Prints a table of the hottest
    functions sorted by ``--sort``; ``--out`` additionally dumps the
    raw pstats data for offline digging (``python -m pstats FILE`` or
    snakeviz).  docs/PERFORMANCE.md walks through reading the output.
    """
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    result = _run_simulation(args)
    prof.disable()
    if args.out:
        prof.dump_stats(args.out)
    # With --json keep stdout machine-readable: table goes to stderr.
    stream = sys.stderr if args.json else sys.stdout
    stats = pstats.Stats(prof, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    if args.out:
        print(f"profile    : wrote {args.out}", file=stream)
    _print_summary(result, args.json)


def cmd_sweep(args) -> None:
    """Run a custom (systems x apps x loads x seeds) grid.

    Points run through :mod:`repro.runner`: ``--jobs N`` fans them over
    worker processes, completed points land in the on-disk result cache
    (unless ``--no-cache``), and per-point progress goes to stderr so
    stdout stays a clean table (or JSON with ``--json``).
    """
    from repro.experiments.common import format_table
    from repro.runner import SweepPoint, run_points

    configs = [_resolve_system(name.strip())
               for name in args.systems.split(",")]
    apps = [_resolve_app(name.strip()) for name in args.apps.split(",")]
    loads = [float(x) for x in args.loads.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    arrivals, dc = _resolve_arrivals(args), _dc_setup(args)
    # Seed-, load-, app-, then config-major: the classic serial
    # harness's loop order, which the printed table follows.
    points = [SweepPoint(config=config, app=app, rps=rps,
                         n_servers=args.servers, duration_s=args.duration,
                         seed=seed, arrivals=arrivals, dc=dc)
              for seed in seeds for rps in loads for app in apps
              for config in configs]
    width = len(str(len(points)))

    def progress(event: dict) -> None:
        source = (f"worker {event['worker']}, {event['seconds']:.1f}s"
                  if event["source"] == "run" else event["source"])
        print(f"  [{event['index'] + 1:>{width}}/{event['total']}] "
              f"{event['label']:36s} ({source})",
              file=sys.stderr, flush=True)

    with _executing(args) as ctx:
        results = run_points(points, progress=progress, memo=False)
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2,
                         sort_keys=True))
    else:
        rows = [[p.config.name, p.app.name, f"{p.rps:g}", p.seed,
                 f"{r.mean_ns / 1e3:.1f}", f"{r.p99_ns / 1e3:.1f}",
                 f"{r.summary.p999 / 1e3:.1f}",
                 f"{r.summary.tail_to_average:.2f}",
                 r.completed, r.rejected]
                for p, r in zip(points, results)]
        print(format_table(
            ["system", "app", "rps", "seed", "mean us", "p99 us",
             "p999 us", "tail/avg", "completed", "rejected"], rows))
    if ctx.cache is not None:
        s = ctx.cache.stats()
        print(f"cache: {s['hits']} hits, {s['misses']} misses "
              f"({s['dir']})", file=sys.stderr)


def cmd_experiment(args) -> None:
    """Regenerate one paper figure (or, with ``all``, every table).

    Every id runs inside one :func:`_executing` scope, which carries
    the jobs, cache, check, policy and hybrid flags to every sweep
    point the figure builds.
    """
    import importlib

    if args.resume and args.id != "all":
        raise SystemExit(f"--resume is only supported by all, "
                         f"not {args.id}")
    with _executing(args):
        if args.id == "all":
            from repro.experiments import run_all

            run_all.main(quick=args.quick,
                         resume=args.resume and not args.check)
        else:
            module = {fig_id: name for fig_id, name, __ in FIGURES}[args.id]
            importlib.import_module(
                f"repro.experiments.{module}").main(quick=args.quick)


def cmd_validate(args) -> None:
    """Property-based invariant validation (see :mod:`repro.check`).

    Draws ``--trials`` randomized simulations (system, app, load,
    arrival process, optional random fault schedule — all from
    ``--seed``), runs each under the sanitizer, and shrinks any failing
    trial to a minimal reproducible configuration.  Exits 1 if any
    trial violates an invariant.
    """
    from repro.check.harness import fuzz, shrink

    total = args.trials

    def progress(i: int, trial, check) -> None:
        status = "ok" if check.ok else f"{len(check.violations)} VIOLATIONS"
        print(f"  [{i + 1:>3}/{total}] {trial.describe():72s} {status}",
              file=sys.stderr, flush=True)

    failures = fuzz(trials=args.trials, seed=args.seed,
                    fault_fraction=args.fault_fraction, progress=progress)
    if not failures:
        print(f"validate: {args.trials} trials, 0 violations "
              f"(seed {args.seed})")
        return
    print(f"validate: {len(failures)}/{args.trials} trials FAILED "
          f"(seed {args.seed})")
    for trial, check in failures:
        print(f"\ntrial {trial.describe()}:")
        for v in check.violations[:20]:
            print(f"  {v}")
        if len(check.violations) > 20:
            print(f"  ... and {len(check.violations) - 20} more")
        if not args.no_shrink:
            small = shrink(trial)
            print(f"  shrunk to: {small.describe()}")
            print("  reproduce: run_trial(<that trial>) in "
                  "repro.check.harness")
    raise SystemExit(1)


def cmd_list(args) -> None:
    """List the available systems, apps and experiments."""
    print("systems:")
    for key, cfg in SYSTEMS.items():
        print(f"  {key:15s} {cfg.n_cores} cores, {cfg.topology}, "
              f"{cfg.cs.name} scheduling")
    print("\napps:")
    for name, app in DEATHSTAR_APPS.items():
        print(f"  {name:10s} root={app.root}, "
              f"{app.mean_rpc_count():.0f} RPCs/request")
    print(f"  + synthetic: {', '.join(SYNTHETIC_DISTRIBUTIONS)}")
    print("\narrival processes (repro.workloads.arrival):")
    print(f"  --arrivals : {', '.join(ARRIVAL_NAMES)}")
    print("  --trace-in FILE|sample  (CSV/JSON trace replay)")
    from repro.sched import DISPATCH_NAMES, POLICY_NAMES, STEAL_NAMES

    print("\nscheduling policies (repro.sched):")
    print(f"  --dispatch : {', '.join(DISPATCH_NAMES)}")
    print(f"  --rq-policy: {', '.join(POLICY_NAMES)}")
    print(f"  --steal    : off, {', '.join(STEAL_NAMES)}")
    print("  --core-bypass")
    from repro.dc import LB_NAMES

    print("\ndatacenter tier (repro.dc):")
    print(f"  --lb       : {', '.join(LB_NAMES)}")
    print("  --placement K / --autoscale / --min-servers N")
    print("\nhybrid fast path (repro.hybrid):")
    print("  --hybrid / --hybrid-tol T  (0 = byte-identical to detailed)")
    print("\nexperiments:", ", ".join(EXPERIMENTS))


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="uManycore reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(p) -> None:
        """Cluster size, horizon, arrivals and output format: shared by
        the run commands and ``sweep``."""
        p.add_argument("--servers", type=int, default=2)
        p.add_argument("--duration", type=float, default=0.03,
                       help="simulated seconds (per point on sweep)")
        p.add_argument("--arrivals", choices=ARRIVAL_NAMES,
                       default="poisson",
                       help="arrival process (rate profile; default "
                            "poisson)")
        p.add_argument("--trace-in", dest="trace_in", metavar="FILE",
                       default=None,
                       help="replay arrivals from a CSV/JSON trace "
                            "('sample' = the bundled Alibaba-marginal "
                            "trace); overrides --arrivals")
        p.add_argument("--json", action="store_true",
                       help="print the results as JSON")

    def add_exec_args(p) -> None:
        """How sweep points execute: shared by ``sweep`` and
        ``experiment``."""
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default 1; results are "
                            "identical for any N)")
        p.add_argument("--no-cache", action="store_true",
                       help="skip the on-disk result cache")
        p.add_argument("--check", action="store_true",
                       help="run every simulation point under the "
                            "invariant sanitizer (implies --no-cache; "
                            "violations abort)")

    def add_policy_args(p) -> None:
        from repro.sched import DISPATCH_NAMES, POLICY_NAMES, STEAL_NAMES

        g = p.add_argument_group(
            "scheduling", "pluggable policy layer (repro.sched); the "
                          "defaults reproduce the paper's hardware")
        g.add_argument("--dispatch", choices=DISPATCH_NAMES, default=None,
                       help="NIC-to-village dispatch policy (default rr)")
        g.add_argument("--rq-policy", dest="rq_policy",
                       choices=POLICY_NAMES, default=None,
                       help="intra-village dequeue order (default fcfs)")
        g.add_argument("--steal", choices=("off",) + STEAL_NAMES,
                       default=None,
                       help="inter-village work stealing: off or a "
                            "victim-selection policy (default off)")
        g.add_argument("--core-bypass", action="store_true",
                       help="nanoPU-style fast path: arrivals land "
                            "straight on an idle core when possible")

    def add_dc_args(p) -> None:
        from repro.dc import LB_NAMES

        g = p.add_argument_group(
            "datacenter", "front-end LB / placement / autoscaling "
                          "(repro.dc); any of these switches the dc "
                          "tier on")
        g.add_argument("--lb", choices=LB_NAMES, default=None,
                       help="front-end load-balancing policy "
                            "(default rr once the tier is on)")
        g.add_argument("--lb-latency-us", dest="lb_latency_us",
                       type=float, default=0.0,
                       help="one-way LB-to-server routing latency")
        g.add_argument("--placement", type=int, default=None, metavar="K",
                       help="replicate each non-root service on K "
                            "servers (leaf RPCs proxy cross-server; "
                            "0 = every service everywhere)")
        g.add_argument("--autoscale", action="store_true",
                       help="reactive utilization-driven server "
                            "add/drain")
        g.add_argument("--min-servers", dest="min_servers", type=int,
                       default=1, metavar="N",
                       help="autoscale floor (default 1)")

    def add_hybrid_args(p) -> None:
        g = p.add_argument_group(
            "hybrid", "analytic steady-state fast path (repro.hybrid); "
                      "detailed simulation until convergence, then "
                      "calibrated empirical models answer completions, "
                      "guarded by drift/fault predicates")
        g.add_argument("--hybrid", action="store_true",
                       help="arm the fast path (off = fully detailed)")
        g.add_argument("--hybrid-tol", dest="hybrid_tol", type=float,
                       default=0.2, metavar="T",
                       help="steady-state tolerance (relative; 0 never "
                            "converges, i.e. byte-identical to "
                            "detailed; default 0.2)")

    def add_fault_args(p) -> None:
        g = p.add_argument_group(
            "faults", "deterministic fault injection (repro.faults); any "
                      "of these arms the timeout/retry resilience layer")
        g.add_argument("--fail-village", type=int, action="append",
                       default=[], metavar="V",
                       help="fail village V (repeatable)")
        g.add_argument("--fail-link", action="append", default=[],
                       metavar="U,V",
                       help="fail the ICN link between nodes U and V, "
                            "e.g. 'leaf0:0,spine0:0' (repeatable)")
        g.add_argument("--fail-nic", action="append", default=[],
                       metavar="V:lnic|rnic",
                       help="fail village V's local or remote NIC")
        g.add_argument("--degrade-village", action="append", default=[],
                       metavar="V:FACTOR",
                       help="gray failure: run village V FACTORx slower")
        g.add_argument("--fault-at-ms", type=float, default=0.0,
                       help="when the explicit faults strike (sim ms)")
        g.add_argument("--recover-at-ms", type=float, default=None,
                       help="when they recover (default: never)")
        g.add_argument("--fault-server", type=int, default=-1,
                       metavar="S",
                       help="server the explicit faults hit (-1 = all)")
        g.add_argument("--fault-rate", type=float, default=0.0,
                       help="also draw a random schedule at this many "
                            "failures/s over the whole inventory "
                            "(default 0: none)")
        g.add_argument("--detection-us", type=float, default=100.0,
                       help="ServiceMap health-check detection lag")
        g.add_argument("--timeout-us", type=float, default=None,
                       help="per-attempt RPC timeout (default 2000)")
        g.add_argument("--retries", type=int, default=3,
                       help="max RPC retries after the first attempt")
        g.add_argument("--hedge-us", type=float, default=0.0,
                       help="send a hedged duplicate RPC after this "
                            "delay (0 disables hedging)")

    def add_run_args(p) -> None:
        """The one run description of ``simulate``, ``trace`` and
        ``profile``."""
        p.add_argument("--system", choices=sorted(SYSTEMS), required=True)
        p.add_argument("--app", default="Text")
        p.add_argument("--rps", type=float, default=15_000)
        p.add_argument("--seed", type=int, default=1)
        add_point_args(p)
        p.add_argument("--check", action="store_true",
                       help="run under the invariant sanitizer "
                            "(repro.check); any violation aborts the run")
        add_policy_args(p)
        add_dc_args(p)
        add_hybrid_args(p)
        add_fault_args(p)

    sim = sub.add_parser(
        "simulate", help="run one cluster simulation; the summary reports "
                         "every opt-in layer the flags switch on")
    add_run_args(sim)
    sim.set_defaults(func=cmd_simulate)

    tr = sub.add_parser(
        "trace", help="run one traced simulation and export the spans")
    add_run_args(tr)
    tr.add_argument("--out", required=True, metavar="FILE",
                    help="Chrome trace-event JSON output path "
                         "(Perfetto / chrome://tracing)")
    tr.add_argument("--csv-out", metavar="FILE", default=None,
                    help="also dump the flat span table as CSV")
    tr.add_argument("--metrics-interval-us", type=float, default=10.0,
                    help="gauge sampling period in simulated us "
                         "(0 disables sampling; --autoscale needs 0)")
    tr.set_defaults(func=cmd_trace)

    prf = sub.add_parser(
        "profile",
        help="profile one simulation under cProfile (hot-function table)")
    add_run_args(prf)
    prf.add_argument("--top", type=int, default=25, metavar="N",
                     help="rows of the hot-function table (default 25)")
    prf.add_argument("--sort", choices=("tottime", "cumtime", "calls"),
                     default="tottime",
                     help="stat to rank functions by (default tottime: "
                          "self time, the optimization signal)")
    prf.add_argument("--out", metavar="FILE", default=None,
                     help="also dump raw pstats data for offline "
                          "analysis (python -m pstats FILE)")
    prf.set_defaults(func=cmd_profile)

    swp = sub.add_parser(
        "sweep", help="run a custom simulation grid, in parallel and "
                      "cached (repro.runner)")
    swp.add_argument("--systems", default="umanycore,scaleout,serverclass",
                     help="comma-separated system list "
                          f"(from {', '.join(sorted(SYSTEMS))})")
    swp.add_argument("--apps", default="Text",
                     help="comma-separated app list (DeathStarBench "
                          "request types or synthetic distributions)")
    swp.add_argument("--loads", default="5000,10000,15000",
                     help="comma-separated RPS-per-server levels")
    swp.add_argument("--seeds", default="1",
                     help="comma-separated seeds (one run per seed)")
    add_point_args(swp)
    add_exec_args(swp)
    add_policy_args(swp)
    add_dc_args(swp)
    add_hybrid_args(swp)
    swp.set_defaults(func=cmd_sweep)

    exp = sub.add_parser(
        "experiment",
        help="regenerate a paper figure table ('all' runs every one)")
    exp.add_argument("id", choices=EXPERIMENTS)
    add_exec_args(exp)
    exp.add_argument("--quick", action="store_true",
                     help="reduced scales — smoke-test the figure "
                          "(fixed-scale figures run their one scale)")
    exp.add_argument("--resume", action="store_true",
                     help="'all' only: skip sections a previous run with "
                          "the same settings and code completed (needs "
                          "the cache; ignored with --check)")
    add_policy_args(exp)
    add_hybrid_args(exp)
    exp.set_defaults(func=cmd_experiment)

    val = sub.add_parser(
        "validate",
        help="property-based invariant validation (repro.check): fuzz "
             "randomized workload/fault/seed trials and shrink any "
             "failure to a minimal reproducible one")
    val.add_argument("--trials", type=int, default=25, metavar="N",
                     help="number of randomized trials (default 25)")
    val.add_argument("--seed", type=int, default=0,
                     help="master seed of the trial generator; the same "
                          "seed always draws the same trials")
    val.add_argument("--fault-fraction", type=float, default=0.5,
                     help="fraction of trials that inject a random "
                          "fault schedule (default 0.5)")
    val.add_argument("--no-shrink", action="store_true",
                     help="report failures without minimizing them")
    val.set_defaults(func=cmd_validate)

    lst = sub.add_parser("list", help="list systems, apps, experiments")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """CLI entry point: parse ``argv`` and dispatch."""
    args = build_parser().parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
