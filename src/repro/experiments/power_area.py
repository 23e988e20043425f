"""Section 5 / 6.8 power & area numbers.

Paper: per core + cache share: 10.225 W ServerClass, 0.396 W ScaleOut,
0.408 W uManycore; areas 547.2 mm2 (uManycore) vs 176.1 mm2 (40-core
ServerClass); uManycore 2.9 % larger than ScaleOut; iso-power ServerClass
= 40 cores, iso-area = 128 cores at 3.2x the power.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import format_table
from repro.power import iso_area_cores, iso_power_cores, system_budget
from repro.power.budget import per_core_power_w
from repro.systems.configs import SCALEOUT, SERVERCLASS, SERVERCLASS_128, \
    UMANYCORE


def run() -> Dict[str, Dict[str, float]]:
    """Compute per-system power and area budgets."""
    out = {}
    for cfg in (UMANYCORE, SCALEOUT, SERVERCLASS, SERVERCLASS_128):
        b = system_budget(cfg)
        out[cfg.name] = {
            "area_mm2": b.area_mm2,
            "power_w": b.power_w,
            "per_core_w": per_core_power_w(cfg),
        }
    out["iso"] = {
        "iso_power_cores": iso_power_cores(UMANYCORE, SERVERCLASS),
        "iso_area_cores": iso_area_cores(UMANYCORE, SERVERCLASS),
    }
    return out


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    paper_per_core = {"uManycore": 0.408, "ScaleOut": 0.396,
                      "ServerClass": 10.225, "ServerClass-128": 10.225}
    rows = []
    for name in ("uManycore", "ScaleOut", "ServerClass", "ServerClass-128"):
        r = results[name]
        rows.append([name, f"{r['area_mm2']:.1f}", f"{r['power_w']:.1f}",
                     f"{r['per_core_w']:.3f}",
                     f"{paper_per_core[name]:.3f}"])
    print("Power & area budgets (10 nm)")
    print(format_table(["system", "area mm2", "power W", "W/core",
                        "paper W/core"], rows))
    um, so = results["uManycore"], results["ScaleOut"]
    print(f"\nuManycore/ScaleOut area: {um['area_mm2']/so['area_mm2']:.3f} "
          f"(paper 1.029)")
    print(f"iso-power ServerClass cores: {results['iso']['iso_power_cores']} "
          f"(paper 40)")
    print(f"iso-area ServerClass cores: {results['iso']['iso_area_cores']} "
          f"(paper 128)")
