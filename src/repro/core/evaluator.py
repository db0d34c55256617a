"""The :class:`Evaluator`: run algorithms over fault cases and rate sweeps.

This is the orchestration layer every figure driver and example uses.  It
encodes the study's methodology:

* **Deadlock policy** (:func:`deadlock_policy`): fault-free runs of
  provably deadlock-free algorithms use the raise-oracle; everything else
  uses drain-recovery (see DESIGN.md §3.7 for why faulty runs need it).
* **Fault-set averaging**: a faulty configuration is simulated over
  several independently drawn block-fault patterns and averaged, exactly
  as the paper does (10 sets for Figures 4-5).
* **Reproducibility**: every run's seed derives deterministically from
  the evaluator seed, the algorithm name, the fault-set index and the
  injection rate.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.faults.generator import generate_block_fault_pattern
from repro.faults.pattern import FaultPattern
from repro.metrics.aggregate import AggregateResult, aggregate
from repro.routing.base import RoutingAlgorithm
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig

# ENGINE_VERSION is re-exported here: layers above the evaluator (the
# serving layer, per lint rule REP015) must not import repro.simulator
# directly, yet still stamp engine_version into their contracts.
from repro.simulator.engine import ENGINE_VERSION, Simulation, SimulationResult
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import TrafficPattern


def deadlock_policy(algorithm: RoutingAlgorithm, faults: FaultPattern) -> str:
    """The watchdog action for a run (DESIGN.md §3.7).

    Fault-free + provably deadlock-free scheme -> ``"raise"`` (the
    watchdog is then a correctness oracle).  Otherwise drain-recovery.
    """
    if algorithm.deadlock_free and faults.n_faulty == 0:
        return "raise"
    return "drain"


@dataclass(frozen=True)
class FaultCase:
    """A named fault scenario: either explicit patterns or a random draw."""

    label: str
    n_faults: int
    patterns: tuple[FaultPattern, ...]

    @property
    def fault_percent(self) -> float:
        if not self.patterns:
            return 0.0
        return 100.0 * self.n_faults / self.patterns[0].mesh.n_nodes


class Evaluator:
    """Runs the comparative study on one mesh configuration.

    Parameters
    ----------
    base_config:
        Template :class:`SimConfig`; per-run fields (seed, injection
        rate, deadlock action) are overridden by the evaluator.
    seed:
        Master seed for fault-pattern draws and per-run seeds.
    pattern_factory:
        Zero-argument callable producing a fresh
        :class:`~repro.traffic.patterns.TrafficPattern` per run
        (default: uniform traffic).
    instrument:
        Optional callable invoked with every :class:`Simulation` just
        before ``run()`` — the observability hook (attach a telemetry
        registry or tracer; see
        :class:`repro.obs.telemetry.Instrument`).  Instrumentation
        covers **executed** runs only: a :class:`~repro.store.cache.
        CachedEvaluator` cache hit never constructs a Simulation.
    """

    def __init__(
        self,
        base_config: SimConfig,
        *,
        seed: int = 2007,
        pattern_factory=None,
        instrument=None,
    ) -> None:
        self.base_config = base_config
        self.seed = seed
        self.mesh = Mesh2D(base_config.width, base_config.height)
        self.pattern_factory = pattern_factory
        self.instrument = instrument

    # ------------------------------------------------------------------
    # Fault cases
    # ------------------------------------------------------------------
    def fault_case(self, n_faults: int, n_sets: int, label: str | None = None) -> FaultCase:
        """Draw *n_sets* independent block-fault patterns of *n_faults* nodes."""
        if n_faults == 0:
            return FaultCase(
                label=label or "0%",
                n_faults=0,
                patterns=(FaultPattern.fault_free(self.mesh),),
            )
        rng = random.Random(f"{self.seed}/faults/{n_faults}")
        patterns = tuple(
            generate_block_fault_pattern(self.mesh, n_faults, rng)
            for _ in range(n_sets)
        )
        pct = 100.0 * n_faults / self.mesh.n_nodes
        return FaultCase(
            label=label or f"{pct:g}%", n_faults=n_faults, patterns=patterns
        )

    @staticmethod
    def explicit_case(label: str, patterns: Sequence[FaultPattern]) -> FaultCase:
        """Wrap explicit fault patterns (e.g. the Figure 6 layout)."""
        patterns = tuple(patterns)
        if not patterns:
            raise ValueError("a fault case needs at least one pattern")
        return FaultCase(
            label=label, n_faults=patterns[0].n_faulty, patterns=patterns
        )

    # ------------------------------------------------------------------
    # Single runs
    # ------------------------------------------------------------------
    def _run_seed(self, algorithm: str, set_index: int, rate: float) -> int:
        key = f"{self.seed}/{algorithm}/{set_index}/{rate:.9f}"
        return random.Random(key).getrandbits(32)

    def _prepare_run(
        self,
        algorithm: str,
        faults: FaultPattern,
        *,
        injection_rate: float | None = None,
        set_index: int = 0,
        **overrides,
    ) -> tuple[RoutingAlgorithm, SimConfig]:
        """Resolve the algorithm and the fully-specified per-run config.

        The returned config carries everything that determines the run
        (rate, derived seed, deadlock action, collection flags), which is
        what :class:`repro.store.CachedEvaluator` hashes into a run key.
        """
        alg = make_algorithm(algorithm)
        rate = (
            injection_rate
            if injection_rate is not None
            else self.base_config.injection_rate
        )
        cfg = self.base_config.with_(
            injection_rate=rate,
            seed=self._run_seed(algorithm, set_index, rate),
            on_deadlock=deadlock_policy(alg, faults),
            **overrides,
        )
        return alg, cfg

    def prepare_run(
        self,
        algorithm: str,
        faults: FaultPattern,
        *,
        injection_rate: float | None = None,
        set_index: int = 0,
        **overrides,
    ) -> tuple[RoutingAlgorithm, SimConfig]:
        """Public form of :meth:`_prepare_run` — same resolution, no run.

        Campaign planning (:class:`repro.campaigns.db.CampaignDB`) uses
        this to compute store run keys for cells without simulating
        them: the returned config is byte-for-byte the one
        :class:`repro.store.CachedEvaluator` would hash.
        """
        return self._prepare_run(
            algorithm,
            faults,
            injection_rate=injection_rate,
            set_index=set_index,
            **overrides,
        )

    def _execute(
        self, alg: RoutingAlgorithm, cfg: SimConfig, faults: FaultPattern
    ) -> SimulationResult:
        """Actually simulate one prepared run."""
        pattern: TrafficPattern | None = (
            self.pattern_factory() if self.pattern_factory else None
        )
        sim = Simulation(cfg, alg, faults=faults, pattern=pattern)
        if self.instrument is not None:
            self.instrument(sim)
        return sim.run()

    def run_single(
        self,
        algorithm: str,
        faults: FaultPattern,
        *,
        injection_rate: float | None = None,
        set_index: int = 0,
        **overrides,
    ) -> SimulationResult:
        """One simulation of *algorithm* on one fault pattern."""
        alg, cfg = self._prepare_run(
            algorithm,
            faults,
            injection_rate=injection_rate,
            set_index=set_index,
            **overrides,
        )
        return self._execute(alg, cfg, faults)

    # ------------------------------------------------------------------
    # Grids
    # ------------------------------------------------------------------
    def run_case(
        self,
        algorithm: str,
        case: FaultCase,
        *,
        injection_rate: float | None = None,
        **overrides,
    ) -> AggregateResult:
        """Average *algorithm* over all fault sets of *case*."""
        results = [
            self.run_single(
                algorithm,
                faults,
                injection_rate=injection_rate,
                set_index=i,
                **overrides,
            )
            for i, faults in enumerate(case.patterns)
        ]
        return aggregate(results)

    def rate_sweep(
        self,
        algorithm: str,
        rates: Iterable[float],
        case: FaultCase | None = None,
        **overrides,
    ) -> list[AggregateResult]:
        """Sweep injection rates for one algorithm (one point per rate)."""
        if case is None:
            case = self.fault_case(0, 1)
        return [
            self.run_case(algorithm, case, injection_rate=r, **overrides)
            for r in rates
        ]
