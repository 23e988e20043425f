"""Shared fixtures/helpers for the per-figure benchmarks.

Each benchmark regenerates (a reduced-scale version of) one paper figure
or table and asserts its headline *shape*; pytest-benchmark reports the
time to regenerate it.  Full-scale regeneration is done by
``python -m repro experiment <id>`` (ids in ``repro.experiments.FIGURES``).
"""

import pytest

from repro.experiments.common import Settings


@pytest.fixture(scope="session")
def quick_settings() -> Settings:
    """Reduced-scale settings so every benchmark finishes in seconds."""
    return Settings(n_servers=1, duration_s=0.02, seed=1)
