"""Convergence analysis: MSER truncation, batch-means CIs, verdicts.

The statistics are pure arithmetic, so they get exact-value unit tests;
:func:`analyze_profile` runs the deterministic engine, so its contract
is bit-for-bit repeatability plus an adequacy verdict for the shipped
profiles (the claim `obs converge` prints in CI).
"""

import math

import pytest

from repro.experiments.profiles import SMOKE_PROFILE, get_profile
from repro.metrics.confidence import batch_means_ci, t_critical
from repro.obs.converge import (
    analyze_profile,
    mser_truncation,
    render_verdicts,
    window_latency_means,
)
from repro.obs.telemetry import TelemetryRegistry


# ----------------------------------------------------------------------
# Student-t critical values
# ----------------------------------------------------------------------
def test_t_critical_table_and_tail():
    assert t_critical(1) == pytest.approx(12.706)
    assert t_critical(30) == pytest.approx(2.042)
    assert t_critical(31) == 1.96
    assert t_critical(10_000) == 1.96
    with pytest.raises(ValueError):
        t_critical(0)


def test_t_critical_is_monotone_decreasing():
    values = [t_critical(df) for df in range(1, 32)]
    assert values == sorted(values, reverse=True)


# ----------------------------------------------------------------------
# Batch-means CI
# ----------------------------------------------------------------------
def test_batch_means_ci_exact():
    # Batch means [1, 2, 3]: mean 2, sample variance 1, so the
    # half-width is t(2) * sqrt(1/3).
    mean, half = batch_means_ci([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert half == pytest.approx(4.303 * math.sqrt(1 / 3))


def test_batch_means_ci_zero_variance():
    mean, half = batch_means_ci([5.0] * 8)
    assert mean == 5.0 and half == 0.0


def test_batch_means_ci_degenerate_sizes():
    mean, half = batch_means_ci([])
    assert math.isnan(mean) and math.isnan(half)
    mean, half = batch_means_ci([7.0])
    assert mean == 7.0 and math.isnan(half)


# ----------------------------------------------------------------------
# MSER truncation
# ----------------------------------------------------------------------
def test_mser_keeps_stationary_series():
    assert mser_truncation([10.0] * 20) == 0
    assert mser_truncation([]) == 0


def test_mser_discards_inflated_transient():
    values = [100.0, 60.0] + [10.0] * 18
    assert mser_truncation(values) == 2


def test_mser_ties_keep_smallest_d():
    # Both d=0 and d=1 retain a constant tail (SSE 0 either way after
    # the first point is also 5.0): smallest d wins.
    assert mser_truncation([5.0, 5.0, 5.0, 5.0]) == 0


def test_mser_respects_max_frac_cap():
    # A strictly drifting series keeps "improving" with larger d; the
    # cap stops the degenerate tail.
    values = [float(100 - i) for i in range(20)]
    assert mser_truncation(values) <= 10
    assert mser_truncation(values, max_frac=0.2) <= 4


# ----------------------------------------------------------------------
# Window means from telemetry
# ----------------------------------------------------------------------
def _latency_registry() -> TelemetryRegistry:
    reg = TelemetryRegistry()
    lat = reg.series("engine.series.latency.sum", 10)
    cnt = reg.series("engine.series.messages.delivered", 10)
    lat.add(5, 40)
    cnt.add(5, 2)
    cnt.add(25, 0)  # extend counts; window 1 and 2 deliver nothing
    return reg


def test_window_latency_means():
    window, means = window_latency_means(_latency_registry())
    assert window == 10
    assert means[0] == 20.0
    assert all(math.isnan(m) for m in means[1:])
    assert len(means) == 3


def test_window_latency_means_requires_latency_series():
    reg = TelemetryRegistry()
    reg.series("engine.series.flits.ejected", 10).add(1)
    with pytest.raises(ValueError, match="latency"):
        window_latency_means(reg)


# ----------------------------------------------------------------------
# Profile verdicts
# ----------------------------------------------------------------------
def test_analyze_profile_is_deterministic():
    a = analyze_profile(SMOKE_PROFILE, seed=99)
    b = analyze_profile(SMOKE_PROFILE, seed=99)
    assert a == b
    assert a.profile == "smoke"
    assert a.window == SMOKE_PROFILE.config.resolved_window
    assert a.n_windows * a.window >= SMOKE_PROFILE.config.cycles
    assert a.recommended_warmup % a.window == 0


def test_shipped_smoke_profile_warmup_is_adequate():
    verdict = analyze_profile(SMOKE_PROFILE)
    assert verdict.adequate
    assert verdict.configured_warmup == SMOKE_PROFILE.config.warmup
    assert verdict.latency_mean > 0
    assert verdict.ci_rel < 1.0  # a sane sub-saturation operating point


def test_auto_twin_shares_the_fixed_profiles_verdict_inputs():
    # The +auto twin differs only in cycles_mode/ci_rel_tol, which
    # analyze_profile overrides anyway — verdicts must agree.
    fixed = analyze_profile(get_profile("smoke"))
    auto = analyze_profile(get_profile("smoke+auto"))
    assert auto.recommended_warmup == fixed.recommended_warmup
    assert auto.latency_mean == fixed.latency_mean


def test_render_verdicts_table():
    verdict = analyze_profile(SMOKE_PROFILE)
    out = render_verdicts([verdict])
    assert "profile" in out.splitlines()[0]
    assert "smoke" in out
    assert ("adequate" in out) or ("INADEQUATE" in out)
