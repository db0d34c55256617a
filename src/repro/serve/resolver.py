"""The tiered query resolver: store → surrogate → model → simulation.

Every answer carries an explicit provenance + confidence contract,
``{value, ci, tier, engine_version}``:

tier ``"store"``
    The query names an exact grid point of the campaign and **every**
    declared sample of that point (all fault sets × repeats) is in the
    store.  The answer is the pooled mean with a Student-t 95% CI from
    :func:`repro.metrics.confidence.batch_means_ci` — identical to the
    campaign query layer's own reduction.  No engine work.
tier ``"surrogate"``
    The query is off-grid but inside the fitted hull: piecewise-linear
    interpolation per (algorithm, fault count) with the conservative CI
    of :class:`~repro.serve.surrogate.GridSurrogate`.  No engine work.
tier ``"model"``
    Outside the hull (or the grid has holes there): the calibrated
    M/G/1 model (:mod:`repro.serve.calibrate`), latency-only and
    fault-free-only, with the fit residual as the confidence band.  The
    calibration is derived from the surrogate's own fault-free latency
    series when the resolver fits, never read from disk, so it always
    describes the grid being served.
tier ``"simulation"``
    Opt-in (``simulate=True``): a bounded fresh simulation through
    :class:`~repro.store.cache.CachedEvaluator` with a per-run
    ``cycles_mode="auto"`` override, so the run stops at statistical
    convergence and the result lands in the store — the same question
    again is a cache hit, not a second simulation.

A query no tier can serve raises :class:`UnresolvedQueryError` listing
each tier's refusal reason; the resolver never invents an answer.

The resolver is observable with the engine's own tooling: pass a
:class:`~repro.obs.telemetry.TelemetryRegistry` and it maintains
per-tier hit counters (``serve.tier.<tier>``) and wall-latency
histograms (``serve.latency_us`` overall plus per tier).  Pass a
:class:`~repro.obs.spans.Trace` to :meth:`Resolver.resolve` and the
cascade additionally records one ``tier.<name>`` span per attempted
tier (attr ``outcome`` says ``answered`` or ``refused``) with an
``engine.run`` child span around any bounded-simulation fallback — the
serve half of the cross-layer trace (:mod:`repro.obs.spans`).

The cascade runs in two steps so a server can keep the cheap part on
its event loop: :meth:`Resolver.begin` walks store → surrogate → model
(microseconds, no engine work) and owns every piece of mutable resolver
state; only when those refuse *and* simulation is enabled does
:meth:`Resolver.run_engine` — pure engine work, safe on a worker
thread — run, with :meth:`Resolver.finish` recording its spans and
telemetry back on the owning thread.  :meth:`Resolver.resolve` is
exactly those steps in sequence.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.campaigns.db import CampaignDB
from repro.campaigns.query import extract_metric, metric_names, query
from repro.campaigns.spec import cell_set_index
from repro.core.evaluator import ENGINE_VERSION
from repro.experiments.parallel import Cell, run_store_first
from repro.metrics.confidence import batch_means_ci
from repro.obs.profile import clock
from repro.obs.telemetry import TelemetryRegistry
from repro.serve import calibrate
from repro.serve.surrogate import GridSurrogate, SurrogateError
from repro.store.cache import CachedEvaluator

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

__all__ = [
    "Answer",
    "Query",
    "Resolver",
    "TIERS",
    "UnresolvedQueryError",
]

#: Resolution order; also the fixed vocabulary of ``Answer.tier``.
TIERS = ("store", "surrogate", "model", "simulation")

#: Microsecond buckets of the serving-latency histograms.
LATENCY_BOUNDS = (
    100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000,
    1_000_000, 3_000_000, 10_000_000, 30_000_000,
)


@dataclass(frozen=True)
class Query:
    """One performance question: a metric at a point of the config space."""

    algorithm: str
    rate: float
    metric: str = "latency"
    n_faults: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        if self.n_faults < 0:
            raise ValueError("n_faults must be non-negative")
        if self.metric not in metric_names():
            raise ValueError(
                f"unknown metric {self.metric!r}; choose from "
                f"{list(metric_names())}"
            )

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "rate": self.rate,
            "metric": self.metric,
            "n_faults": self.n_faults,
        }


@dataclass(frozen=True)
class Answer:
    """A served value with its provenance + confidence contract."""

    value: float
    ci: float  #: 95% half-width; NaN when honestly unknown
    tier: str
    engine_version: int
    n_samples: int
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe form: NaN confidence serializes as ``null``."""
        return {
            "value": self.value,
            "ci": None if math.isnan(self.ci) else self.ci,
            "tier": self.tier,
            "engine_version": self.engine_version,
            "n_samples": self.n_samples,
            "detail": self.detail,
        }


class UnresolvedQueryError(LookupError):
    """No tier could serve the query; refusal reasons per tier."""

    def __init__(self, query: Query, refusals: dict[str, str]) -> None:
        self.query = query
        self.refusals = refusals
        lines = "; ".join(f"{t}: {r}" for t, r in refusals.items())
        super().__init__(
            f"no tier can answer {query.to_dict()} ({lines})"
        )


class Resolution:
    """One query part-way through the cascade (see :meth:`Resolver.begin`)."""

    __slots__ = (
        "started", "trace", "refusals", "answer", "engine_started",
    )

    def __init__(self, started: float, trace) -> None:
        self.started = started
        self.trace = trace
        self.refusals: dict[str, str] = {}
        self.answer: Answer | None = None
        self.engine_started = 0.0


class EngineRun:
    """What :meth:`Resolver.run_engine` measured, or the error it hit."""

    __slots__ = ("started", "ended", "samples", "cycles", "cache", "error")

    def __init__(self, started: float) -> None:
        self.started = self.ended = started
        self.samples: list[float] = []
        self.cycles = 0
        self.cache: dict = {}
        self.error: Exception | None = None


def _sample_run(evaluator, q: Query, n_sets: int) -> Callable:
    """The simulation tier's setup: ``run(fault_set, repeat) -> (value,
    cycles)``, one declared sample of *q* on *evaluator*, stopped at
    statistical convergence (``cycles_mode="auto"``)."""
    patterns = evaluator.fault_case(q.n_faults, n_sets).patterns

    def run(fault_set: int, repeat: int) -> tuple[float, int]:
        result = evaluator.run_single(
            q.algorithm,
            patterns[fault_set],
            injection_rate=q.rate,
            set_index=cell_set_index(
                {"fault_set": fault_set, "repeat": repeat}
            ),
            cycles_mode="auto",
        )
        return (
            extract_metric(result, q.metric),
            int(extract_metric(result, "simulated_cycles")),
        )

    return run


class Resolver:
    """Answer queries against one campaign through the tier cascade.

    Parameters
    ----------
    db:
        The campaign whose grid (and store) backs the answers.
    simulate:
        Enable tier 4 — bounded fresh simulations through a
        :class:`~repro.store.cache.CachedEvaluator` with
        ``cycles_mode="auto"``.  Off by default: a serving process
        should opt into paying engine time.
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetryRegistry` for
        per-tier counters and latency histograms.
    """

    def __init__(
        self,
        db: CampaignDB,
        *,
        simulate: bool = False,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        self.db = db
        self.simulate = simulate
        self.telemetry = telemetry
        self._surrogate: GridSurrogate | None = None
        self._calibration: (
            calibrate.Calibration | calibrate.CalibrationError | None
        ) = None
        self._model = None  # lazy AnalyticalLatencyModel (costly to build)
        self._evaluator: CachedEvaluator | None = None

    # ------------------------------------------------------------------
    # Lazy fitted state
    # ------------------------------------------------------------------
    def surrogate(self) -> GridSurrogate:
        """The grid surrogate, fitted on first use (holes tolerated)."""
        if self._surrogate is None:
            array = query(
                self.db, metrics=metric_names(), allow_missing=True
            )
            self._surrogate = GridSurrogate(array)
        return self._surrogate

    def calibration(self) -> calibrate.Calibration:
        """The model calibration, fitted on first use from this
        resolver's own surrogate and model — the grid it serves.

        A campaign that cannot be calibrated is remembered as such: the
        fit is attempted once, later calls re-raise its refusal.
        """
        fitted = self._calibration
        if fitted is None:
            try:
                fitted = calibrate.fit(
                    self.surrogate(), self._analytical_model()
                )
            except calibrate.CalibrationError as exc:
                fitted = exc
            self._calibration = fitted
        if isinstance(fitted, calibrate.CalibrationError):
            raise calibrate.CalibrationError(str(fitted))
        return fitted

    def fit(self) -> None:
        """Fit the lazy state now — surrogate, model, calibration — so no
        later :meth:`begin` pays for it (a server calls this before it
        accepts; the event loop never fits)."""
        try:
            self.calibration()
        except calibrate.CalibrationError:
            pass  # remembered; the model tier refuses with it

    def _analytical_model(self):
        if self._model is None:
            self._model = calibrate.model_for(self.db)
        return self._model

    def _cached_evaluator(self) -> CachedEvaluator:
        if self._evaluator is None:
            self._evaluator = CachedEvaluator(
                self.db.spec.config,
                seed=self.db.spec.seed,
                store=self.db.store,
            )
        return self._evaluator

    @property
    def simulations_run(self) -> int:
        """Engine invocations this resolver has caused (cache hits: 0)."""
        if self._evaluator is None:
            return 0
        return self._evaluator.stats.misses

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------
    def _try_store(self, q: Query) -> Answer:
        spec = self.db.spec
        if q.rate not in spec.rates:
            raise SurrogateError(f"rate {q.rate:g} is not a grid rate")
        point = self.surrogate().grid_point(
            q.algorithm, q.n_faults, q.rate, q.metric
        )
        expected = (spec.fault_sets if q.n_faults else 1) * spec.repeats
        if point is None or point.n_samples < expected:
            have = 0 if point is None else point.n_samples
            raise SurrogateError(
                f"grid point incomplete in the store "
                f"({have}/{expected} samples)"
            )
        return Answer(
            value=point.mean,
            ci=point.ci,
            tier="store",
            engine_version=ENGINE_VERSION,
            n_samples=point.n_samples,
            detail={"kind": "grid-point", "rate": point.rate},
        )

    def _try_surrogate(self, q: Query) -> Answer:
        value, ci, detail = self.surrogate().predict(
            q.algorithm, q.n_faults, q.rate, q.metric
        )
        return Answer(
            value=value,
            ci=ci,
            tier="surrogate",
            engine_version=ENGINE_VERSION,
            n_samples=int(detail.get("n_samples", 0)),
            detail=detail,
        )

    def _try_model(self, q: Query) -> Answer:
        if q.metric != "latency":
            raise calibrate.CalibrationError(
                f"the analytical model predicts latency only, "
                f"not {q.metric!r}"
            )
        if q.n_faults != 0:
            raise calibrate.CalibrationError(
                "the analytical model covers the fault-free mesh only"
            )
        calibration = self.calibration()
        value, ci, detail = calibrate.predict(
            calibration, self._analytical_model(), q.algorithm, q.rate
        )
        return Answer(
            value=value,
            ci=ci,
            tier="model",
            engine_version=ENGINE_VERSION,
            n_samples=len(
                [1 for alg, _ in calibration.fitted_points if alg == q.algorithm]
            ),
            detail=detail,
        )

    # ------------------------------------------------------------------
    # The cascade: begin (tiers 1-3) -> run_engine -> finish (tier 4)
    # ------------------------------------------------------------------
    def begin(self, q: Query, *, trace=None) -> Resolution:
        """Walk the tiers that need no engine work: store, surrogate, model.

        Returns a :class:`Resolution` whose ``answer`` is set when one of
        them served *q*.  With ``answer`` still ``None`` the simulation
        tier is enabled and owed: pass :meth:`run_engine`'s result to
        :meth:`finish`.  With simulation disabled an unserved query
        raises :class:`UnresolvedQueryError` here.  Call on the thread
        that owns this resolver (its counters, telemetry and spans).
        """
        res = Resolution(clock(), trace)
        if self.telemetry is not None:
            self.telemetry.counter("serve.queries").inc()
        tiers = (
            ("store", self._try_store),
            ("surrogate", self._try_surrogate),
            ("model", self._try_model),
        )
        for tier, attempt in tiers:
            span = (
                trace.span(f"tier.{tier}")
                if trace is not None
                else nullcontext()
            )
            with span as tier_trace:
                try:
                    answer = attempt(q)
                except (SurrogateError, calibrate.CalibrationError) as exc:
                    res.refusals[tier] = str(exc)
                    if tier_trace is not None:
                        tier_trace.attrs["outcome"] = "refused"
                    continue
                if tier_trace is not None:
                    tier_trace.attrs["outcome"] = "answered"
            self._observe(res, tier)
            res.answer = answer
            return res
        res.engine_started = clock()  # tier.simulation opens here
        if self.simulate:
            return res
        res.refusals["simulation"] = (
            "simulation fallback disabled (pass simulate=True)"
        )
        if trace is not None:
            trace.record(
                "tier.simulation", start=res.engine_started, end=clock(),
                outcome="refused",
            )
        if self.telemetry is not None:
            self.telemetry.counter("serve.unresolved").inc()
        raise UnresolvedQueryError(q, res.refusals)

    def run_engine(self, q: Query, workers: int | Pool = 1) -> EngineRun:
        """The simulation tier's engine work: every declared sample of *q*
        (fault sets × repeats), one :class:`~repro.experiments.parallel.
        Cell` each, through the :class:`~repro.store.cache.CachedEvaluator`.

        *workers* says where: ``1`` runs every sample here; a running
        pool (a server's) gets one job per sample the store lacks, after
        the samples it holds were answered here
        (:func:`~repro.experiments.parallel.run_store_first`).  Samples
        come home in declaration order, so the answer, the cache
        counters and the rows stored are the same either way.

        Touches no telemetry, span or fitted state, so it may run on a
        worker thread (one at a time: the evaluator is not shared).  An
        exception is carried in the result for :meth:`finish` to raise
        on the owning thread.
        """
        run = EngineRun(clock())
        try:
            spec = self.db.spec
            evaluator = self._cached_evaluator()
            n_sets = spec.fault_sets if q.n_faults else 1
            cells = [
                Cell(f"{fault_set}/{repeat}", (fault_set, repeat))
                for fault_set in range(n_sets)
                for repeat in range(spec.repeats)
            ]
            done = run_store_first(
                cells, workers, setup=(_sample_run, q, n_sets),
                evaluator=evaluator,
            )
            for cell in cells:
                run.samples += done[cell.id]["value"]
                run.cycles += done[cell.id]["cycles"]
            run.cache = evaluator.stats.as_dict()
        except Exception as exc:
            run.error = exc
        run.ended = clock()
        return run

    def finish(self, res: Resolution, run: EngineRun) -> Answer:
        """Close the simulation tier of *res* over a finished *run*:
        its ``engine.run`` / ``tier.simulation`` spans, the answer, the
        telemetry.  Raises what the engine raised, spans recorded."""
        trace = res.trace
        if trace is not None:
            engine_attrs: dict = {}
            tier_attrs: dict = {}
            if run.error is None:
                engine_attrs = {"n_runs": len(run.samples), "cycles": run.cycles}
                tier_attrs = {"outcome": "answered"}
            trace.child("tier.simulation").record(
                "engine.run", start=run.started, end=run.ended, **engine_attrs
            )
            trace.record(
                "tier.simulation", start=res.engine_started, end=clock(),
                **tier_attrs,
            )
        if run.error is not None:
            raise run.error
        mean, ci = batch_means_ci(run.samples)
        res.answer = Answer(
            value=mean,
            ci=ci,
            tier="simulation",
            engine_version=ENGINE_VERSION,
            n_samples=len(run.samples),
            detail={
                "kind": "bounded-simulation",
                "cycles_mode": "auto",
                "cache": run.cache,
            },
        )
        self._observe(res, "simulation")
        return res.answer

    def resolve(self, q: Query, *, trace=None) -> Answer:
        """Serve *q* from the cheapest tier able to answer it.

        With *trace* (a :class:`~repro.obs.spans.Trace`), every
        attempted tier records a ``tier.<name>`` span under it; the
        simulation tier nests an ``engine.run`` span inside its own.
        """
        res = self.begin(q, trace=trace)
        if res.answer is None:
            return self.finish(res, self.run_engine(q))
        return res.answer

    def _observe(self, res: Resolution, tier: str) -> None:
        if self.telemetry is None:
            return
        elapsed_us = int((clock() - res.started) * 1e6)
        self.telemetry.counter(f"serve.tier.{tier}").inc()
        self.telemetry.histogram(
            "serve.latency_us", LATENCY_BOUNDS
        ).observe(elapsed_us)
        self.telemetry.histogram(
            f"serve.latency_us.{tier}", LATENCY_BOUNDS
        ).observe(elapsed_us)
