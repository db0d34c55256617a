"""Grid surrogates: interpolate campaign arrays instead of simulating.

A :class:`GridSurrogate` is fitted once over a dense
:class:`~repro.campaigns.query.CampaignArray` and answers *"what is
metric M for algorithm A with F faulty routers at load rate R?"* by
piecewise-linear interpolation **in the injection rate only**, per
(algorithm, fault count) series — the one axis the paper sweeps
continuously.  Fault sets and repeats are pooled into one sample set
per grid point, whose mean and 95% CI half-width come from
:func:`repro.metrics.confidence.batch_means_ci` — the same Student-t
machinery the campaign query layer reduces with, so a surrogate answer
at a grid rate equals the campaign's own reduction.

Honesty rules (the serving tier contract, docs/serving.md):

* **No extrapolation.**  A rate outside ``[min(rates), max(rates)]`` of
  the fitted series raises :class:`HullError` — the resolver then falls
  through to the calibrated analytical model or a bounded simulation.
* **Conservative confidence.**  An interpolated value reports the
  *larger* of the two bracketing grid points' CI half-widths; the
  surrogate never claims tighter confidence than its data.
* **No silent holes.**  A grid point with zero finite samples is not
  part of the fitted series; interpolating across it raises
  :class:`HullError` naming the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.campaigns.query import CampaignArray
from repro.metrics.confidence import batch_means_ci

__all__ = [
    "GridPoint",
    "GridSurrogate",
    "HullError",
    "SurrogateError",
    "fault_counts_of",
]


class SurrogateError(ValueError):
    """A query the surrogate cannot serve (unknown coordinate, no data)."""


class HullError(SurrogateError):
    """Refusal to extrapolate beyond the fitted grid hull."""


def fault_counts_of(array: CampaignArray) -> dict[str, int]:
    """``fault_case`` label -> fault count (``"f5/s1"`` -> ``5``).

    The labels are produced by
    :func:`repro.campaigns.spec.fault_case_label`; parsing them back is
    the inverse the whole query layer already relies on being stable.
    """
    counts = {}
    for label in array.coords["fault_case"]:
        head = label.split("/", 1)[0]
        if not head.startswith("f"):
            raise SurrogateError(f"unparseable fault_case label {label!r}")
        counts[label] = int(head[1:])
    return counts


@dataclass(frozen=True)
class GridPoint:
    """One fitted point: pooled samples of a (algorithm, n_faults, rate)."""

    rate: float
    mean: float
    ci: float  #: 95% half-width over pooled samples (NaN below 2 samples)
    n_samples: int


class GridSurrogate:
    """Piecewise-linear rate interpolation over a campaign array.

    Parameters
    ----------
    array:
        A dense :class:`~repro.campaigns.query.CampaignArray` (holes
        from ``allow_missing=True`` are tolerated and simply drop out
        of the pooled samples).
    metrics:
        Metrics to fit; defaults to every metric block the array holds.
    """

    def __init__(
        self, array: CampaignArray, metrics: tuple[str, ...] | None = None
    ) -> None:
        self.name = array.name
        self.metrics = tuple(metrics) if metrics is not None else tuple(
            sorted(array.values)
        )
        unknown = sorted(set(self.metrics) - set(array.values))
        if unknown:
            raise SurrogateError(
                f"array {array.name!r} holds no metric(s) {unknown}"
            )
        fault_counts = fault_counts_of(array)
        self.fault_counts = tuple(sorted(set(fault_counts.values())))
        self.algorithms = tuple(array.coords["algorithm"])
        #: (algorithm, n_faults, metric) -> rate-sorted tuple of GridPoint.
        self._series: dict[tuple[str, int, str], tuple[GridPoint, ...]] = {}
        rates = array.coords["rate"]
        for ia, alg in enumerate(self.algorithms):
            for metric in self.metrics:
                block = array.values[metric][ia]
                per_count: dict[int, list[GridPoint]] = {
                    n: [] for n in self.fault_counts
                }
                for ir, rate in enumerate(rates):
                    pooled: dict[int, list[float]] = {
                        n: [] for n in self.fault_counts
                    }
                    for ic, label in enumerate(array.coords["fault_case"]):
                        samples = [
                            v for v in block[ir][ic] if not math.isnan(v)
                        ]
                        pooled[fault_counts[label]].extend(samples)
                    for n, samples in sorted(pooled.items()):
                        if not samples:
                            continue  # hole: this point is not fitted
                        mean, ci = batch_means_ci(samples)
                        per_count[n].append(
                            GridPoint(float(rate), mean, ci, len(samples))
                        )
                for n, points in sorted(per_count.items()):
                    if points:
                        self._series[(alg, n, metric)] = tuple(
                            sorted(points, key=lambda p: p.rate)
                        )

    # ------------------------------------------------------------------
    def series(
        self, algorithm: str, n_faults: int, metric: str
    ) -> tuple[GridPoint, ...]:
        """The fitted rate series for one (algorithm, fault count, metric)."""
        try:
            return self._series[(algorithm, n_faults, metric)]
        except KeyError:
            known_algs = ", ".join(self.algorithms)
            raise SurrogateError(
                f"no fitted series for algorithm={algorithm!r} "
                f"n_faults={n_faults} metric={metric!r} (campaign "
                f"{self.name!r} covers algorithms [{known_algs}], "
                f"fault counts {list(self.fault_counts)}, metrics "
                f"{list(self.metrics)})"
            ) from None

    def hull(self, algorithm: str, n_faults: int, metric: str) -> tuple[float, float]:
        """``(min_rate, max_rate)`` of the fitted series."""
        points = self.series(algorithm, n_faults, metric)
        return points[0].rate, points[-1].rate

    def grid_point(
        self, algorithm: str, n_faults: int, rate: float, metric: str
    ) -> GridPoint | None:
        """The exact fitted point at *rate*, or ``None`` if off-grid."""
        for point in self.series(algorithm, n_faults, metric):
            if point.rate == rate:
                return point
        return None

    # ------------------------------------------------------------------
    def predict(
        self, algorithm: str, n_faults: int, rate: float, metric: str
    ) -> tuple[float, float, dict]:
        """``(value, ci, detail)`` at *rate*, interpolating if off-grid.

        Raises :class:`HullError` outside the fitted hull and
        :class:`SurrogateError` for coordinates the grid never covered.
        """
        points = self.series(algorithm, n_faults, metric)
        lo, hi = points[0].rate, points[-1].rate
        if not lo <= rate <= hi:  # also true of NaN
            raise HullError(
                f"rate {rate:g} is outside the fitted hull [{lo:g}, "
                f"{hi:g}] for algorithm={algorithm!r} n_faults="
                f"{n_faults}; the surrogate refuses to extrapolate"
            )
        for point in points:
            if point.rate == rate:
                return point.mean, point.ci, {
                    "kind": "grid-point",
                    "rate": point.rate,
                    "n_samples": point.n_samples,
                }
        # Bracket and lerp: points are rate-sorted and rate is interior.
        upper = next(i for i, p in enumerate(points) if p.rate > rate)
        a, b = points[upper - 1], points[upper]
        t = (rate - a.rate) / (b.rate - a.rate)
        value = a.mean + t * (b.mean - a.mean)
        # Conservative CI: NaN (unknown) if either bracket is unknown,
        # else the wider of the two.
        if math.isnan(a.ci) or math.isnan(b.ci):
            ci = float("nan")
        else:
            ci = max(a.ci, b.ci)
        return value, ci, {
            "kind": "interpolated",
            "bracket": [a.rate, b.rate],
            "t": t,
            "n_samples": a.n_samples + b.n_samples,
        }

    # ------------------------------------------------------------------
    def cross_validate(
        self, metric: str, *, algorithms: tuple[str, ...] | None = None
    ) -> list[dict]:
        """Held-out-point cross-validation of the interpolation.

        For every *interior* grid point of every fitted series, refit
        without it (trivial for a piecewise-linear surrogate: its
        neighbors bracket it) and predict the held-out rate.  Returns
        one row per held-out point with the absolute and relative error
        against the point's own pooled mean — the honesty evidence the
        surrogate test suite asserts bounds on.
        """
        rows = []
        for alg in algorithms or self.algorithms:
            for n in self.fault_counts:
                key = (alg, n, metric)
                points = self._series.get(key)
                if points is None or len(points) < 3:
                    continue
                for i in range(1, len(points) - 1):
                    held = points[i]
                    a, b = points[i - 1], points[i + 1]
                    t = (held.rate - a.rate) / (b.rate - a.rate)
                    predicted = a.mean + t * (b.mean - a.mean)
                    err = abs(predicted - held.mean)
                    rows.append({
                        "algorithm": alg,
                        "n_faults": n,
                        "metric": metric,
                        "rate": held.rate,
                        "actual": held.mean,
                        "predicted": predicted,
                        "abs_error": err,
                        "rel_error": (
                            err / abs(held.mean) if held.mean else math.inf
                        ),
                    })
        return rows
