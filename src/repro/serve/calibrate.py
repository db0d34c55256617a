"""Calibrate the analytical latency model against a campaign grid.

The M/G/1-style :class:`~repro.analysis.latency_model.
AnalyticalLatencyModel` is first-order: right shape, biased level (its
docstring documents the optimism near saturation).  Tier 3 of the
serving resolver closes that gap with a single per-algorithm
multiplicative **correction factor** fitted by least squares over the
campaign's *fault-free* grid points below the model's saturation rate:

    c_alg = argmin_c Σ (c · model(rate) − sim(rate))²
          = Σ model·sim / Σ model²

A scalar per algorithm is deliberate — it cannot overfit a handful of
grid points, and it preserves the model's rate-shape so the calibrated
curve stays monotone where the model is.  The fit residual (max
relative error of the calibrated model on its own fitting points)
becomes the CI the resolver reports for tier-3 answers: the honest
statement is "model answers are good to about the fit residual", not a
sampling CI.

A calibration is never persisted.  The resolver derives it when it fits
its state, from the very :class:`~repro.serve.surrogate.GridSurrogate`
and model it serves with — the fit costs well under a millisecond once
those exist — so it always describes the grid being served.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.latency_model import AnalyticalLatencyModel
from repro.campaigns.db import CampaignDB
from repro.serve.surrogate import GridSurrogate, SurrogateError
from repro.topology.mesh import Mesh2D

__all__ = [
    "Calibration",
    "CalibrationError",
    "effective_vcs",
    "fit",
    "model_for",
    "predict",
]


class CalibrationError(RuntimeError):
    """The grid cannot support a calibration (no usable points)."""


def effective_vcs(vcs_per_channel: int) -> int:
    """Effective adaptive VCs per direction for the analytical model.

    The paper's budgets reserve 4 VCs per physical channel for escape
    and class duties; the rest form the adaptive free pool a header can
    actually compete for (e.g. 24 per channel -> 20 effective, the
    model docstring's canonical value).  Floored at 1 for tiny test
    budgets.
    """
    return max(1, vcs_per_channel - 4)


@dataclass(frozen=True)
class Calibration:
    """Fitted per-algorithm correction of the analytical model."""

    campaign: str
    #: algorithm -> multiplicative correction factor.
    factors: dict[str, float]
    #: max relative error of the calibrated model on its fitting points.
    residual_rel: float
    #: (algorithm, rate) pairs the fit used, for provenance.
    fitted_points: tuple[tuple[str, float], ...]


def model_for(db: CampaignDB) -> AnalyticalLatencyModel:
    """The analytical model matching a campaign's configuration.

    Construction walks the whole channel-load map (tens to hundreds of
    milliseconds), so a resolver builds it once and hands it to both
    :func:`fit` and :func:`predict`.
    """
    cfg = db.spec.config
    return AnalyticalLatencyModel(
        Mesh2D(cfg.width, cfg.height),
        cfg.message_length,
        vcs_per_direction=effective_vcs(cfg.vcs_per_channel),
    )


def fit(
    surrogate: GridSurrogate, model: AnalyticalLatencyModel
) -> Calibration:
    """Fit per-algorithm correction factors over the fault-free grid.

    Uses every fault-free latency grid point of *surrogate* where both
    the simulation mean and the raw *model* prediction are finite and
    positive.  An algorithm with no usable point gets factor 1.0
    (uncorrected) — the resolver still serves it, with the global
    residual as its CI.
    """
    factors: dict[str, float] = {}
    residual = 0.0
    fitted: list[tuple[str, float]] = []
    for alg in surrogate.algorithms:
        points = []
        try:
            series = surrogate.series(alg, 0, "latency")
        except SurrogateError:
            # All fault-free cells for this algorithm are holes: the
            # surrogate fitted no series at all.  Same outcome as a
            # series with no usable point — an uncorrected factor.
            series = ()
        for p in series:
            predicted = model.predict(p.rate).latency
            if (
                math.isfinite(p.mean)
                and p.mean > 0
                and math.isfinite(predicted)
                and predicted > 0
            ):
                points.append((p.rate, predicted, p.mean))
        if not points:
            factors[alg] = 1.0
            continue
        num = sum(m * s for _, m, s in points)
        den = sum(m * m for _, m, _ in points)
        c = num / den
        factors[alg] = c
        for rate, m, s in points:
            residual = max(residual, abs(c * m - s) / s)
            fitted.append((alg, rate))
    if not fitted:
        raise CalibrationError(
            f"campaign {surrogate.name!r} has no usable fault-free latency "
            "grid point below model saturation; cannot calibrate"
        )
    return Calibration(
        campaign=surrogate.name,
        factors=factors,
        residual_rel=residual,
        fitted_points=tuple(fitted),
    )


def predict(
    calibration: Calibration,
    model: AnalyticalLatencyModel,
    algorithm: str,
    rate: float,
) -> tuple[float, float, dict]:
    """``(value, ci, detail)`` of the calibrated *model* at *rate*.

    ``ci`` is ``residual_rel * value`` — the fit residual expressed in
    cycles, the honest "about this good" band for tier-3 answers.
    Raises :class:`CalibrationError` when the model itself saturates at
    *rate* (a calibrated infinity is still an infinity).
    """
    if algorithm not in calibration.factors:
        raise CalibrationError(
            f"calibration for campaign {calibration.campaign!r} covers "
            f"{sorted(calibration.factors)}, not {algorithm!r}"
        )
    prediction = model.predict(rate)
    if prediction.saturated:
        raise CalibrationError(
            f"the analytical model saturates at rate {rate:g} "
            f"(bound {model.saturation_rate():.6g}); no finite answer"
        )
    factor = calibration.factors[algorithm]
    value = factor * prediction.latency
    return value, calibration.residual_rel * value, {
        "kind": "calibrated-model",
        "factor": factor,
        "raw_model_latency": prediction.latency,
        "saturation_rate": model.saturation_rate(),
        "residual_rel": calibration.residual_rel,
    }
