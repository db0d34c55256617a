"""Grid surrogate (`repro.serve.surrogate`): fitting, interpolation,
hull refusal, and held-out honesty bounds."""

import math

import pytest

from repro.campaigns.query import metric_names, query
from repro.obs.converge import batch_means_ci
from repro.serve.surrogate import (
    GridSurrogate,
    HullError,
    SurrogateError,
    fault_counts_of,
)


@pytest.fixture(scope="module")
def array(serve_campaign):
    return query(serve_campaign, metrics=metric_names())


@pytest.fixture(scope="module")
def surrogate(array):
    return GridSurrogate(array)


class TestFitting:
    def test_coordinates_fitted(self, surrogate):
        assert surrogate.algorithms == ("nhop", "duato-nbc")
        assert surrogate.fault_counts == (0, 2)
        assert set(surrogate.metrics) == set(metric_names())

    def test_fault_case_labels_parse(self, array):
        assert fault_counts_of(array) == {"f0/s0": 0, "f2/s0": 2}

    def test_series_rate_sorted_with_pooled_samples(self, surrogate):
        points = surrogate.series("nhop", 0, "latency")
        assert [p.rate for p in points] == [0.005, 0.01, 0.02, 0.03]
        # fault-free: 1 fault set x 2 repeats pooled per grid point
        assert all(p.n_samples == 2 for p in points)

    def test_grid_point_matches_campaign_reduction(self, array, surrogate):
        """A surrogate grid point equals batch_means_ci over the cell."""
        samples = array.sel(
            "latency", algorithm="nhop", rate=0.01, fault_case="f0/s0"
        )
        mean, ci = batch_means_ci(list(samples))
        point = surrogate.grid_point("nhop", 0, 0.01, "latency")
        assert point.mean == pytest.approx(mean)
        assert point.ci == pytest.approx(ci)

    def test_unknown_coordinates_refused(self, surrogate):
        with pytest.raises(SurrogateError, match="no fitted series"):
            surrogate.series("west-first", 0, "latency")
        with pytest.raises(SurrogateError, match="no fitted series"):
            surrogate.series("nhop", 7, "latency")

    def test_unknown_metric_refused(self, array):
        with pytest.raises(SurrogateError, match="no metric"):
            GridSurrogate(array, metrics=("latency", "flux"))


class TestPrediction:
    def test_on_grid_returns_grid_point_detail(self, surrogate):
        value, ci, detail = surrogate.predict("nhop", 0, 0.01, "latency")
        point = surrogate.grid_point("nhop", 0, 0.01, "latency")
        assert value == point.mean and ci == point.ci
        assert detail["kind"] == "grid-point"

    def test_interpolation_brackets_and_lerps(self, surrogate):
        a = surrogate.grid_point("nhop", 0, 0.01, "latency")
        b = surrogate.grid_point("nhop", 0, 0.02, "latency")
        value, ci, detail = surrogate.predict("nhop", 0, 0.015, "latency")
        assert value == pytest.approx((a.mean + b.mean) / 2.0)
        assert detail["kind"] == "interpolated"
        assert detail["bracket"] == [0.01, 0.02]

    def test_interpolated_ci_is_conservative(self, surrogate):
        a = surrogate.grid_point("nhop", 0, 0.01, "latency")
        b = surrogate.grid_point("nhop", 0, 0.02, "latency")
        _, ci, _ = surrogate.predict("nhop", 0, 0.015, "latency")
        assert ci == max(a.ci, b.ci)

    def test_hull_refusal_below_and_above(self, surrogate):
        with pytest.raises(HullError, match="refuses to extrapolate"):
            surrogate.predict("nhop", 0, 0.001, "latency")
        with pytest.raises(HullError, match="refuses to extrapolate"):
            surrogate.predict("nhop", 0, 0.5, "latency")

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_rate_is_a_hull_refusal(self, surrogate, rate):
        # NaN compares false with both bounds; the hull check must still
        # refuse it (the bracket search below it assumes an interior rate).
        with pytest.raises(HullError, match="refuses to extrapolate"):
            surrogate.predict("nhop", 0, rate, "latency")

    def test_hull_bounds_reported(self, surrogate):
        assert surrogate.hull("nhop", 0, "latency") == (0.005, 0.03)


class TestHoles:
    def test_nan_holes_drop_out_of_pooled_samples(self, array):
        """A repeat hole shrinks the sample pool; the point survives."""
        values = [
            [[[float("nan"), 8.0]], [[7.0, 9.0]]],
        ]
        from repro.campaigns.query import CampaignArray

        holey = CampaignArray(
            "holey",
            {
                "algorithm": ("a",),
                "rate": (0.01, 0.02),
                "fault_case": ("f0/s0",),
                "repeat": (0, 1),
            },
            {"latency": values},
        )
        s = GridSurrogate(holey)
        points = s.series("a", 0, "latency")
        assert [p.n_samples for p in points] == [1, 2]
        assert points[0].mean == 8.0
        assert math.isnan(points[0].ci)  # single sample: honest NaN

    def test_fully_empty_point_is_not_fitted(self):
        from repro.campaigns.query import CampaignArray

        nan = float("nan")
        holey = CampaignArray(
            "holey",
            {
                "algorithm": ("a",),
                "rate": (0.01, 0.02, 0.03),
                "fault_case": ("f0/s0",),
                "repeat": (0,),
            },
            {"latency": [[[[nan]], [[5.0]], [[6.0]]]]},
        )
        s = GridSurrogate(holey)
        assert [p.rate for p in s.series("a", 0, "latency")] == [0.02, 0.03]
        with pytest.raises(HullError):
            s.predict("a", 0, 0.015, "latency")  # below surviving hull


class TestHonesty:
    def test_cross_validation_error_bounded(self, surrogate):
        """Held-out interior grid points reinterpolate within 15%.

        The grid spans the flat low-load region of the latency curve,
        where piecewise-linear interpolation should be accurate; a
        blow-up here means the surrogate is dishonest about curvature.
        """
        rows = surrogate.cross_validate("latency")
        assert rows, "expected interior points to validate"
        worst = max(r["rel_error"] for r in rows)
        assert worst < 0.15, f"held-out error {worst:.3f} out of bounds"

    def test_cross_validation_rows_name_their_point(self, surrogate):
        rows = surrogate.cross_validate(
            "latency", algorithms=("nhop",)
        )
        assert {r["algorithm"] for r in rows} == {"nhop"}
        assert all(r["rate"] in (0.01, 0.02) for r in rows)
