"""Tiered resolver (`repro.serve.resolver`): the end-to-end serving
contract — provenance tiers, zero engine work for grid answers,
surrogate accuracy against fresh simulation, telemetry."""

import math

import pytest

from repro.core.evaluator import ENGINE_VERSION, Evaluator
from repro.obs.telemetry import TelemetryRegistry
from repro.serve.resolver import (
    Query,
    Resolver,
    TIERS,
    UnresolvedQueryError,
)


@pytest.fixture()
def resolver(serve_campaign):
    return Resolver(serve_campaign)


class TestQueryValidation:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="non-negative"):
            Query("nhop", -0.01)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            Query("nhop", rate)

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            Query("nhop", 0.01, metric="flux")


class TestTierCascade:
    """The acceptance demo: grid -> surrogate -> model, no engine work."""

    def test_on_grid_answers_from_store_without_engine(self, resolver):
        answer = resolver.resolve(Query("nhop", 0.01))
        assert answer.tier == "store"
        assert resolver.simulations_run == 0

    def test_faulty_grid_point_also_store(self, resolver):
        answer = resolver.resolve(Query("duato-nbc", 0.02, n_faults=2))
        assert answer.tier == "store"
        assert resolver.simulations_run == 0

    def test_in_hull_off_grid_answers_from_surrogate(self, resolver):
        answer = resolver.resolve(Query("nhop", 0.015))
        assert answer.tier == "surrogate"
        assert resolver.simulations_run == 0

    def test_below_hull_falls_to_calibrated_model(self, resolver):
        answer = resolver.resolve(Query("nhop", 0.001))
        assert answer.tier == "model"
        assert resolver.simulations_run == 0
        assert math.isfinite(answer.ci)

    def test_every_answer_reports_the_contract(self, resolver):
        """tier/ci/engine_version on every response, whatever the tier."""
        for q in (
            Query("nhop", 0.01),
            Query("nhop", 0.015),
            Query("nhop", 0.001),
            Query("duato-nbc", 0.015, metric="throughput", n_faults=2),
        ):
            answer = resolver.resolve(q)
            assert answer.tier in TIERS
            assert answer.engine_version == ENGINE_VERSION
            assert math.isfinite(answer.value)
            assert isinstance(answer.ci, float)
            assert answer.n_samples >= 1
            payload = answer.to_dict()
            assert set(payload) >= {
                "value", "ci", "tier", "engine_version",
            }

    def test_surrogate_within_5pct_of_fresh_simulation(
        self, serve_campaign, resolver
    ):
        """Off-grid-but-in-hull answers track a real simulation.

        The fresh runs use the campaign's own sampling scheme (same
        derived seeds per repeat) at a rate the grid never simulated.
        """
        rate = 0.0075  # between the 0.005 and 0.01 grid lines
        answer = resolver.resolve(Query("nhop", rate))
        assert answer.tier == "surrogate"
        spec = serve_campaign.spec
        evaluator = Evaluator(spec.config, seed=spec.seed)
        case = evaluator.fault_case(0, 1)
        fresh = [
            evaluator.run_single(
                "nhop", case.patterns[0],
                injection_rate=rate, set_index=repeat,
            ).avg_latency
            for repeat in range(spec.repeats)
        ]
        fresh_mean = sum(fresh) / len(fresh)
        assert answer.value == pytest.approx(fresh_mean, rel=0.05)

    def test_unresolved_lists_every_refusal(self, resolver):
        with pytest.raises(UnresolvedQueryError) as err:
            resolver.resolve(Query("nhop", 0.9, metric="throughput"))
        assert set(err.value.refusals) == set(TIERS)

    def test_model_tier_refuses_non_latency(self, resolver):
        """Off-hull throughput has no model tier -> unresolved."""
        with pytest.raises(UnresolvedQueryError) as err:
            resolver.resolve(Query("nhop", 0.001, metric="throughput"))
        assert "latency only" in err.value.refusals["model"]


class TestSimulationTier:
    def test_disabled_by_default(self, resolver):
        with pytest.raises(UnresolvedQueryError) as err:
            resolver.resolve(Query("nhop", 0.9, metric="throughput"))
        assert "simulate=True" in err.value.refusals["simulation"]

    def test_bounded_simulation_lands_in_store(self, serve_campaign):
        r = Resolver(serve_campaign, simulate=True)
        q = Query("nhop", 0.9, metric="throughput")
        first = r.resolve(q)
        assert first.tier == "simulation"
        assert first.n_samples == serve_campaign.spec.repeats
        ran = r.simulations_run
        assert ran == serve_campaign.spec.repeats
        # identical question again: served from the store, no new runs
        second = r.resolve(q)
        assert second.value == first.value
        assert r.simulations_run == ran

    def test_cascade_in_two_steps_is_the_same_walk(self, serve_campaign):
        """What the HTTP server does: ``begin`` on its loop, ``run_engine``
        elsewhere, ``finish`` back on the loop."""
        registry = TelemetryRegistry()
        r = Resolver(serve_campaign, simulate=True, telemetry=registry)
        cheap = r.begin(Query("nhop", 0.015))
        assert cheap.answer.tier == "surrogate"  # nothing owed
        q = Query("nhop", 0.9, metric="throughput")
        owed = r.begin(q)
        assert owed.answer is None
        assert set(owed.refusals) == {"store", "surrogate", "model"}
        assert registry.value("serve.tier.simulation") == 0
        answer = r.finish(owed, r.run_engine(q))
        assert answer.tier == "simulation"
        assert answer.value == r.resolve(q).value
        assert registry.value("serve.queries") == 3
        assert registry.value("serve.tier.simulation") == 2

    def test_engine_errors_surface_from_finish(self, serve_campaign):
        r = Resolver(serve_campaign, simulate=True)
        q = Query("no-such-algorithm", 0.01)
        run = r.run_engine(q)  # never raises: the error rides in the run
        assert run.error is not None
        with pytest.raises(type(run.error)):
            r.finish(r.begin(q), run)

    def test_fit_leaves_nothing_lazy(self, serve_campaign):
        r = Resolver(serve_campaign)
        r.fit()
        fitted = (r._surrogate, r._calibration, r._model)
        assert None not in fitted
        r.resolve(Query("nhop", 0.002))  # model tier
        after = (r._surrogate, r._calibration, r._model)
        assert all(a is b for a, b in zip(after, fitted))

    def test_simulation_uses_auto_cycles(self, serve_campaign):
        r = Resolver(serve_campaign, simulate=True)
        answer = r.resolve(Query("duato-nbc", 0.9, metric="throughput"))
        assert answer.detail["cycles_mode"] == "auto"


class TestTelemetry:
    def test_counters_and_latency_histograms(self, serve_campaign):
        registry = TelemetryRegistry()
        r = Resolver(serve_campaign, telemetry=registry)
        r.resolve(Query("nhop", 0.01))
        r.resolve(Query("nhop", 0.015))
        r.resolve(Query("nhop", 0.015))
        with pytest.raises(UnresolvedQueryError):
            r.resolve(Query("nhop", 0.9, metric="throughput"))
        assert registry.value("serve.queries") == 4
        assert registry.value("serve.tier.store") == 1
        assert registry.value("serve.tier.surrogate") == 2
        assert registry.value("serve.unresolved") == 1
        hist = registry.histogram("serve.latency_us")
        assert hist.total == 3  # unresolved queries record no latency
        per_tier = registry.histogram("serve.latency_us.surrogate")
        assert per_tier.total == 2
