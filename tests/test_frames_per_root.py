"""Guard on the interpreter cost of one simulated request.

A run's host time is mostly Python frames on the handlers that fire per
message, per segment and per dispatch.  This test counts, with cProfile,
every call into a function whose code lives in the ``repro`` package
during one ``steady_hot``-shaped run, divided by the root requests
offered.  The count is deterministic for a given interpreter: a change
that puts a helper call back on the per-message path moves it at once,
while host-time measurements would need many repeated runs to see it.

Measured on CPython 3.11: 721.5 calls per root before the healthy-path
helpers were inlined, 534.0 after.
"""

import cProfile
import os
import pstats
from dataclasses import replace

import repro
from repro.systems.cluster import ClusterSimulation
from repro.systems.configs import UMANYCORE
from repro.workloads.deathstar import social_network_app

#: Most ``repro`` calls one root request may cost on the run below.
CEILING = 560.0


def repro_calls_per_root() -> float:
    sim = ClusterSimulation(replace(UMANYCORE, n_cores=128, n_clusters=8),
                            social_network_app("Text"),
                            rps_per_server=60_000.0, n_servers=1,
                            duration_s=0.02, seed=11)
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = sim.run()
    finally:
        prof.disable()
    package = os.path.dirname(os.path.realpath(repro.__file__)) + os.sep
    calls = sum(ncalls for (path, __, __), (__, ncalls, *__)
                in pstats.Stats(prof).stats.items()
                if os.path.realpath(path).startswith(package))
    return calls / result.offered


def test_repro_calls_per_root_stay_under_ceiling():
    per_root = repro_calls_per_root()
    assert per_root <= CEILING, (
        f"{per_root:.1f} repro calls per root request > {CEILING} "
        f"(profile the run to find the helper that came back)")
