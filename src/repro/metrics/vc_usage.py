"""Per-virtual-channel utilization (the paper's Figure 3).

The engine counts, for every VC index, how many (network channel, cycle)
slots held that VC busy during the measurement window.  Figure 3 plots
"average usage of virtual channels per node" as a percentage per VC
index; we normalize busy-slot counts by the number of directed network
channels and measured cycles.

Since the :mod:`repro.obs` telemetry subsystem, the engine's occupancy
sweep feeds two views from **one pass**: the per-VC-index ``vc_busy``
aggregate (this figure) and the per-role counters
(``engine.vc_busy.{class,adaptive,escape,ring}``) in an attached
:class:`~repro.obs.telemetry.TelemetryRegistry`.  Simulation and
observation therefore agree by construction;
:func:`reconcile_vc_usage` asserts it.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.routing.budgets import ROLE_NAMES, VcBudget
from repro.topology.mesh import Mesh2D

if TYPE_CHECKING:  # pragma: no cover - the engine imports this package
    from repro.simulator.engine import SimulationResult


def vc_usage_percent(result: SimulationResult) -> list[float]:
    """Average busy percentage of each VC index across network channels.

    ``usage[v]`` is the mean over all directed mesh channels of the
    fraction of measured cycles VC ``v`` was busy, as a percentage.
    Requires the run to have been collected with
    ``collect_vc_stats=True``.
    """
    if not any(result.vc_busy) and result.delivered:
        raise ValueError(
            "vc_busy is empty; run the simulation with collect_vc_stats=True"
        )
    cfg = result.config
    mesh = Mesh2D(cfg.width, cfg.height)
    denom = mesh.n_channels * result.measured_cycles
    if denom == 0:
        return [float("nan")] * cfg.vcs_per_channel
    return [100.0 * busy / denom for busy in result.vc_busy]


def vc_busy_by_role(result: SimulationResult, budget: VcBudget) -> dict[str, int]:
    """Figure 3's ``vc_busy`` slots rolled up by VC role.

    ``budget`` is the algorithm's :class:`~repro.routing.budgets.VcBudget`
    (``algorithm.budget`` after ``prepare``); keys are
    :data:`~repro.routing.budgets.ROLE_NAMES`.
    """
    if len(budget.role_of) != len(result.vc_busy):
        raise ValueError(
            f"budget covers {len(budget.role_of)} VCs but the run recorded "
            f"{len(result.vc_busy)}"
        )
    rollup = dict.fromkeys(ROLE_NAMES, 0)
    for vc, busy in enumerate(result.vc_busy):
        rollup[ROLE_NAMES[budget.role_of[vc]]] += busy
    return rollup


def telemetry_busy_by_role(registry) -> dict[str, int]:
    """The engine's per-role occupancy counters from a telemetry registry."""
    return {
        name: registry.value(f"engine.vc_busy.{name}") for name in ROLE_NAMES
    }


def reconcile_vc_usage(
    result: SimulationResult, registry, budget: VcBudget
) -> dict[str, int]:
    """Check that telemetry and Figure 3 counted the same occupancy.

    Returns the per-role busy-slot rollup when the telemetry counters
    match ``result.vc_busy`` exactly; raises :class:`ValueError` with
    both views otherwise.  Requires the run to have been executed with
    the registry attached **and** ``collect_vc_stats=True``.
    """
    from_result = vc_busy_by_role(result, budget)
    from_telemetry = telemetry_busy_by_role(registry)
    if from_result != from_telemetry:
        raise ValueError(
            "telemetry and vc_busy disagree: "
            f"result={from_result} telemetry={from_telemetry}"
        )
    return from_result


def usage_imbalance(usage: Sequence[float]) -> float:
    """Coefficient of variation of the per-VC usage.

    A large value means the algorithm loads a few VCs heavily (the
    paper's "unbalanced use of the virtual channels", e.g. PHop); values
    near 0 mean the free-choice algorithms' flat profiles.
    """
    vals = [u for u in usage if u == u]  # drop NaN
    if not vals:
        return float("nan")
    m = sum(vals) / len(vals)
    if m == 0:
        return 0.0
    var = sum((v - m) ** 2 for v in vals) / len(vals)
    return var**0.5 / m
