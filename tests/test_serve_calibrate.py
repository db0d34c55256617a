"""Model calibration (`repro.serve.calibrate`): per-algorithm factors,
derived from the grid being served — never persisted."""

from collections import Counter

import pytest

from repro.campaigns.db import CampaignDB
from repro.campaigns.query import query
from repro.campaigns.shard import merge_shards, run_campaign, run_shard
from repro.campaigns.spec import CampaignSpec
from repro.serve import calibrate
from repro.serve import resolver as resolver_module
from repro.serve.calibrate import CalibrationError, effective_vcs
from repro.serve.resolver import Resolver
from repro.serve.surrogate import GridSurrogate
from repro.simulator.config import SimConfig


@pytest.fixture(scope="module")
def surrogate(serve_campaign):
    return GridSurrogate(
        query(serve_campaign, metrics=("latency",)), metrics=("latency",)
    )


@pytest.fixture(scope="module")
def model(serve_campaign):
    return calibrate.model_for(serve_campaign)


@pytest.fixture(scope="module")
def calibration(surrogate, model):
    return calibrate.fit(surrogate, model)


class TestFit:
    def test_factor_per_algorithm(self, serve_campaign, calibration):
        assert set(calibration.factors) == set(
            serve_campaign.spec.algorithms
        )
        for factor in calibration.factors.values():
            assert 0.1 < factor < 10.0  # sane multiplicative correction

    def test_residual_covers_fitting_points(
        self, calibration, surrogate, model
    ):
        """Every fitted point lies within the reported residual band."""
        for alg, rate in calibration.fitted_points:
            sim = surrogate.grid_point(alg, 0, rate, "latency").mean
            predicted = (
                calibration.factors[alg] * model.predict(rate).latency
            )
            assert abs(predicted - sim) / sim <= (
                calibration.residual_rel + 1e-12
            )

    def test_effective_vcs_reserves_escape_budget(self):
        assert effective_vcs(24) == 20
        assert effective_vcs(4) == 1  # floored, never zero

    def test_predict_refuses_saturation(self, calibration, model):
        with pytest.raises(CalibrationError, match="saturates"):
            calibrate.predict(
                calibration, model, "nhop", model.saturation_rate() * 2
            )

    def test_predict_unknown_algorithm(self, calibration, model):
        with pytest.raises(CalibrationError, match="covers"):
            calibrate.predict(calibration, model, "west-first", 0.01)

    def test_predict_ci_is_residual_band(self, calibration, model):
        value, ci, detail = calibrate.predict(
            calibration, model, "nhop", 0.001
        )
        assert ci == pytest.approx(calibration.residual_rel * value)
        assert detail["kind"] == "calibrated-model"


def _nhop_campaign(root) -> CampaignDB:
    """A saved, unrun four-rate fault-free nhop campaign on a 6x6 mesh."""
    spec = CampaignSpec(
        name="calibrate-grid",
        algorithms=("nhop",),
        config=SimConfig(
            width=6, vcs_per_channel=24, message_length=4,
            cycles=300, warmup=100,
        ),
        rates=(0.002, 0.005, 0.01, 0.02),
        seed=3,
    )
    db = CampaignDB(spec, root)
    db.save()
    return db


class TestDerivedFromServedGrid:
    def test_fresh_resolver_fits_the_completed_grid(self, tmp_path):
        """A calibration taken while half the grid was stored leaves
        nothing behind: once the campaign completes, a new resolver fits
        every grid point."""
        db = _nhop_campaign(tmp_path / "c")
        half = [c for c in db.missing_coords() if c["rate"] < 0.01]
        run_shard(db.spec, half, tmp_path / "shard")
        merge_shards(db, [tmp_path / "shard"])
        partial = Resolver(db).calibration()
        assert len(partial.fitted_points) == 2

        run_campaign(db)
        reopened = CampaignDB.open(db.root)
        served = Resolver(reopened).calibration()
        full = calibrate.fit(
            GridSurrogate(query(reopened)), calibrate.model_for(reopened)
        )
        assert len(full.fitted_points) == 4
        assert served.factors == full.factors != partial.factors
        assert served.residual_rel == full.residual_rel
        assert served.fitted_points == full.fitted_points
        assert sorted(p.name for p in db.root.iterdir()) == [
            "campaign.json", "events.jsonl", "store",
        ]

    def test_fit_queries_once_and_builds_one_model(
        self, tmp_path, monkeypatch
    ):
        db = _nhop_campaign(tmp_path / "c")
        run_campaign(db)
        calls: Counter = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            resolver_module, "query", counted("query", resolver_module.query)
        )
        monkeypatch.setattr(
            calibrate, "model_for", counted("model_for", calibrate.model_for)
        )
        Resolver(CampaignDB.open(db.root)).fit()
        assert calls == {"query": 1, "model_for": 1}


class TestDegenerateGrids:
    def test_all_holes_raise(self, model):
        from repro.campaigns.query import CampaignArray

        nan = float("nan")
        empty = CampaignArray(
            "empty",
            {
                "algorithm": ("nhop", "duato-nbc"),
                "rate": (0.01,),
                "fault_case": ("f0/s0",),
                "repeat": (0,),
            },
            {"latency": [[[[nan]]], [[[nan]]]]},
        )
        with pytest.raises(CalibrationError, match="no usable"):
            calibrate.fit(GridSurrogate(empty), model)
