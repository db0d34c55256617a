"""Experiment harness: regenerate every figure of the paper.

Each figure has a driver returning structured data and a printer that
reads the driver's payload (the dict ``--out`` saves) and emits the same
rows/series the paper reports:

* Figure 1 / Figure 2 — :mod:`repro.experiments.fig_sweep`
  (throughput and latency vs traffic generation rate, fault-free),
* Figure 3 — :mod:`repro.experiments.fig_vc_usage`
  (per-VC utilization at 5% faults),
* Figures 4 / 5 — :mod:`repro.experiments.fig_faults`
  (normalized throughput / latency vs fault percentage at full load),
* Figure 6 — :mod:`repro.experiments.fig_fring`
  (traffic-load split between f-ring nodes and the rest),
* the Section 3-4 VC budget table — :mod:`repro.experiments.budgets_table`.

Run them from the command line::

    python -m repro.experiments fig1 --profile quick
    python -m repro.experiments all --profile paper --out results/
    python -m repro.experiments report --out results/  # print them again
"""

from repro.experiments.profiles import PAPER_PROFILE, QUICK_PROFILE, SMOKE_PROFILE, Profile

__all__ = ["PAPER_PROFILE", "QUICK_PROFILE", "SMOKE_PROFILE", "Profile"]
