"""Experiment runners: one module per paper figure/table.

Every module exposes ``run(...)`` returning structured results and one
entry, ``main(quick: bool = False)``, that prints the paper-style
table.  ``quick`` picks the reduced scale of ``repro experiment
--quick``; figures with one fixed scale ignore it.  :data:`FIGURES` is
the one list of figures: ``repro experiment <id>`` runs one entry and
``repro experiment all`` (:mod:`repro.experiments.run_all`) runs them
section by section.  This module holds only strings, so the CLI can
read the table without importing a figure.
"""

#: ``(id, module, run_all section title)`` per figure, in ``run_all``
#: order.  Consecutive ids with one title print as one section (Figures
#: 14/16/17 share a matrix); a ``None`` title keeps a figure out of
#: ``all``.
FIGURES = (
    ("fig01", "fig01_microarch", "Figure 1"),
    ("fig02", "fig02_rps_cdf", "Figure 2"),
    ("fig03", "fig03_queues", "Figure 3"),
    ("fig04", "fig04_cpu_util", "Figure 4"),
    ("fig05", "fig05_rpc_count", "Figure 5"),
    ("fig06", "fig06_context_switch", "Figure 6"),
    ("fig07", "fig07_icn_contention", "Figure 7"),
    ("fig08", "fig08_footprint", "Figure 8"),
    ("fig09", "fig09_hit_rates", "Figure 9"),
    ("fig14", "fig14_tail_latency", "Figures 14/16/17"),
    ("fig16", "fig16_avg_latency", "Figures 14/16/17"),
    ("fig17", "fig17_tail_to_avg", "Figures 14/16/17"),
    ("fig15", "fig15_breakdown", "Figure 15"),
    ("fig18", "fig18_throughput", "Figure 18"),
    ("fig19", "fig19_sensitivity", "Figure 19"),
    ("fig20", "fig20_synthetic", "Figure 20"),
    ("sec68", "sec68_iso_area", "Section 6.8"),
    ("power", "power_area", "Power & area"),
    # Appended last so earlier sections' output stays a stable prefix.
    ("figS", "figS_policies", "Figure S (policies)"),
    ("figD", "figD_datacenter", "Figure D (datacenter)"),
    ("figH", "figH_hybrid", "Figure H (hybrid)"),
    ("figW", "figW_scenarios", "Figure W (scenarios)"),
    ("figF", "figF_faults", None),
)
