"""Figure 8: handler-handler and handler-init footprint sharing.

Paper: 78-99 % of a handler's pages/cache-lines (data and instructions)
are common with another handler of the same instance, and with the
instance's initialization footprint.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.experiments.common import format_table
from repro.mem.footprint import FootprintModel, sharing

BARS = ("d-Page", "d-Line", "i-Page", "i-Line")


def run(n_handlers: int = 20, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Mean common fraction per bar, for both comparisons."""
    model = FootprintModel(np.random.default_rng(seed))
    init = model.init_footprint()
    handlers = [model.handler_footprint() for __ in range(n_handlers)]
    hh = [sharing(handlers[i], handlers[i + 1])
          for i in range(n_handlers - 1)]
    hi = [sharing(h, init) for h in handlers]

    def mean_bars(reports):
        return {bar: float(np.mean([r.as_dict()[bar] for r in reports]))
                for bar in BARS}

    return {"Handler-Handler": mean_bars(hh), "Handler-Init": mean_bars(hi)}


def main(quick: bool = False) -> None:
    """Print this figure's tables to stdout (one fixed scale: ``quick``
    is ignored)."""
    results = run()
    rows = [[group] + [f"{results[group][bar]:.3f}" for bar in BARS]
            for group in results]
    print("Figure 8: common fraction of a handler's memory footprint")
    print(format_table(["comparison"] + list(BARS), rows))
    print("\npaper: 78-99% common across all eight bars")
