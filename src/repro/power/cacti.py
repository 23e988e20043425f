"""SRAM area/energy model (the CACTI stand-in).

Areas and energies are computed at 32 nm (CACTI's native node in the
paper's flow) and scaled with :mod:`repro.power.scaling`.
"""

from __future__ import annotations

from repro.power.scaling import scale_area, scale_power

MB = 1024 * 1024

# 32 nm SRAM characteristics (6T cell + array overheads).
_MM2_PER_MB_32 = 2.1
_LEAK_W_PER_MB_32 = 0.25
_READ_PJ_PER_ACCESS_64B_32 = 18.0


def sram_area_mm2(size_bytes: float, tech_nm: int = 32,
                  overhead: float = 1.25) -> float:
    """Array area including peripheral overhead (decoders, sense amps)."""
    if size_bytes < 0:
        raise ValueError("size must be non-negative")
    base = size_bytes / MB * _MM2_PER_MB_32 * overhead
    return scale_area(base, 32, tech_nm)


def sram_leakage_w(size_bytes: float, tech_nm: int = 32) -> float:
    """Static leakage of the array."""
    base = size_bytes / MB * _LEAK_W_PER_MB_32
    return scale_power(base, 32, tech_nm)


def sram_read_energy_pj(size_bytes: float, assoc: int = 8,
                        tech_nm: int = 32) -> float:
    """Energy of one 64 B read; grows with capacity (longer wires) and
    associativity (parallel way reads)."""
    if assoc < 1:
        raise ValueError("assoc must be >= 1")
    size_factor = (size_bytes / (64 * 1024)) ** 0.35
    base = _READ_PJ_PER_ACCESS_64B_32 * size_factor * (1 + 0.06 * (assoc - 1))
    return scale_power(base, 32, tech_nm)
