"""Steady-state convergence analysis over windowed latency series.

Two classic output-analysis tools, applied to the engine's windowed
``Series`` telemetry (``engine.series.latency.sum`` /
``engine.series.messages.delivered``):

* **MSER warm-up truncation** (:func:`mser_truncation`) — the Marginal
  Standard Error Rule picks the truncation point *d* minimizing the
  width-proxy ``SSE(d) / (n - d)^2`` over the retained batch means.
  Applied to fixed-width window means this is the windowed analogue of
  MSER-5 batching: the window width plays the role of the batch size.
* **Batch-means confidence intervals** (:func:`batch_means_ci`,
  re-exported from :mod:`repro.metrics.confidence`) — a two-sided 95%
  CI over the batch means, using the exact Student-t quantile for up to
  30 batches and the normal quantile beyond.

:func:`analyze_profile` combines the two into a per-profile verdict on
whether the configured ``warmup`` is adequate, surfaced by ``python -m
repro.obs converge``; the engine's ``cycles_mode="auto"`` early stop
takes the same :func:`batch_means_ci` from the metrics layer.

Everything here is pure arithmetic over the deterministic simulation —
same profile, same seed, same verdict, on every machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from repro.metrics.confidence import batch_means_ci, t_critical

__all__ = [
    "ConvergeVerdict",
    "analyze_profile",
    "batch_means_ci",
    "mser_truncation",
    "render_verdicts",
    "t_critical",
]

def mser_truncation(values: list[float], *, max_frac: float = 0.5) -> int:
    """MSER truncation index over a sequence of batch means.

    Returns the number of leading batches to discard: the *d* in
    ``[0, floor(n * max_frac)]`` minimizing ``SSE(d) / (n - d)^2`` where
    ``SSE(d)`` is the sum of squared deviations of the retained values
    from their mean.  Ties keep the smallest *d* (discard less).  The
    ``max_frac`` cap is the standard guard against the statistic's
    degenerate tail (tiny retained samples look spuriously stable).
    """
    n = len(values)
    if n == 0:
        return 0
    d_max = int(n * max_frac)
    best_d = 0
    best_stat = math.inf
    # Suffix sums let every candidate d evaluate in O(1).
    total = sum(values)
    total_sq = sum(v * v for v in values)
    dropped = 0.0
    dropped_sq = 0.0
    for d in range(d_max + 1):
        kept = n - d
        s = total - dropped
        sq = total_sq - dropped_sq
        sse = sq - s * s / kept
        stat = sse / (kept * kept)
        if stat < best_stat:
            best_stat = stat
            best_d = d
        if d < n:
            v = values[d]
            dropped += v
            dropped_sq += v * v
    return best_d


# ----------------------------------------------------------------------
# Per-profile adequacy verdicts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvergeVerdict:
    """The convergence analysis of one profile's latency series."""

    profile: str
    algorithm: str
    load: float
    window: int
    n_windows: int
    #: MSER-recommended truncation in cycles (a window multiple).
    recommended_warmup: int
    configured_warmup: int
    #: Post-truncation mean latency and 95% CI half-width.
    latency_mean: float
    ci_half_width: float

    @property
    def adequate(self) -> bool:
        """True when the configured warmup covers the MSER truncation."""
        return self.configured_warmup >= self.recommended_warmup

    @property
    def ci_rel(self) -> float:
        """CI half-width relative to the mean (NaN when undefined)."""
        if not self.latency_mean or math.isnan(self.latency_mean):
            return float("nan")
        return self.ci_half_width / self.latency_mean


def window_latency_means(source) -> tuple[int, list[float]]:
    """Per-window mean latency from a registry or series snapshot.

    *source* is a :class:`~repro.obs.telemetry.TelemetryRegistry` or a
    (series-only or full) snapshot dict.  Returns ``(window,
    means)``; windows that delivered nothing yield NaN.
    """
    from repro.obs.telemetry import series_snapshot

    series = series_snapshot(source)
    try:
        lat = series["engine.series.latency.sum"]
        cnt = series["engine.series.messages.delivered"]
    except KeyError:
        raise ValueError(
            "snapshot has no latency series (was telemetry attached?)"
        ) from None
    sums = lat["values"]
    counts = cnt["values"]
    means = [
        s / c if c else float("nan")
        for s, c in zip(sums, counts)
    ]
    # A latency window with no matching count window would be a merge
    # bug; trailing count-only windows (deliveries without latency) are
    # impossible because both are published together.
    means.extend(float("nan") for _ in range(len(counts) - len(means)))
    return lat["window"], means


def analyze_profile(
    profile,
    *,
    algorithm: str = "nhop",
    load: float | None = None,
    seed: int = 2007,
) -> ConvergeVerdict:
    """Run one instrumented simulation and judge the profile's warmup.

    The run uses the profile's config with ``warmup=0`` (the analysis
    needs the transient that warmup would discard), ``cycles_mode=
    "fixed"`` (the full series, no early stop) and drain recovery, at a
    sub-saturation *load* (default: the profile's 4th sweep point, or
    the 2nd-to-last when the sweep is shorter — a comfortably stable
    operating point on every shipped profile; MSER on a saturated,
    drifting series recommends ever-larger truncations by design).
    """
    from repro.obs.bench import RunPlan, instrumented_run
    from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry

    if load is None:
        loads = profile.sweep_loads
        load = loads[min(3, max(len(loads) - 2, 0))]
    plan = RunPlan(algorithm, partial(
        profile.config.with_,
        warmup=0,
        cycles_mode="fixed",
        on_deadlock="drain",
        injection_rate=profile.rate(load),
        seed=seed,
    ))
    registry = TelemetryRegistry()
    instrumented_run(plan, EngineTelemetry(registry))

    window, means = window_latency_means(registry)
    # NaN windows (nothing delivered yet) can only lead the series at
    # sane loads; MSER treats them as part of the transient.
    first_live = next(
        (i for i, m in enumerate(means) if not math.isnan(m)), len(means)
    )
    live = means[first_live:]
    d = mser_truncation(live) if live else 0
    recommended = (first_live + d) * window
    mean, half = batch_means_ci(live[d:])
    return ConvergeVerdict(
        profile=profile.name,
        algorithm=algorithm,
        load=load,
        window=window,
        n_windows=len(means),
        recommended_warmup=recommended,
        configured_warmup=profile.config.warmup,
        latency_mean=mean,
        ci_half_width=half,
    )


def render_verdicts(verdicts: list[ConvergeVerdict]) -> str:
    """A human-readable adequacy table for ``obs converge``."""
    lines = [
        f"{'profile':<12} {'alg':<6} {'load':>5} {'window':>7} "
        f"{'warmup':>7} {'recommend':>9} {'latency':>9} {'ci±%':>6}  verdict"
    ]
    for v in verdicts:
        rel = v.ci_rel * 100
        lines.append(
            f"{v.profile:<12} {v.algorithm:<6} {v.load:>5.2f} "
            f"{v.window:>7} {v.configured_warmup:>7} "
            f"{v.recommended_warmup:>9} {v.latency_mean:>9.1f} "
            f"{rel:>5.1f}%  "
            + ("adequate" if v.adequate else "INADEQUATE")
        )
    return "\n".join(lines)
