"""Batch-means confidence intervals (pure arithmetic, stdlib only).

The one CI rule the project uses: a two-sided 95% interval over batch
means, exact Student-t quantile up to 30 degrees of freedom and the
normal quantile beyond.  It lives in the metrics layer so the engine's
``cycles_mode="auto"`` early stop, the campaign query reductions, the
serving tier and ``obs converge`` all import it from here, so the
simulator never imports the observability layer.
"""

from __future__ import annotations

import math

__all__ = ["batch_means_ci", "t_critical"]

#: Two-sided 95% Student-t critical values for df = 1..30; beyond that
#: the normal quantile (1.96) is within half a percent.
_T_95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
    2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
    2.048, 2.045, 2.042,
)


def t_critical(df: int) -> float:
    """Two-sided 95% Student-t critical value for *df* degrees of freedom."""
    if df < 1:
        raise ValueError("t_critical needs df >= 1")
    return _T_95[df - 1] if df <= len(_T_95) else 1.96


def batch_means_ci(means: list[float]) -> tuple[float, float]:
    """Mean and 95% CI half-width of a set of batch means.

    Returns ``(mean, half_width)``; the half-width is NaN below two
    batches (no variance estimate exists).
    """
    k = len(means)
    if k == 0:
        return float("nan"), float("nan")
    mean = sum(means) / k
    if k < 2:
        return mean, float("nan")
    var = sum((m - mean) ** 2 for m in means) / (k - 1)
    half = t_critical(k - 1) * math.sqrt(var / k)
    return mean, half
