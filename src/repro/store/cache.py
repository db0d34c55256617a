"""Get-or-run caching on top of the :class:`~repro.core.evaluator.Evaluator`.

:class:`CachedEvaluator` is a drop-in Evaluator whose ``run_single``
first looks the fully-specified run up in a :class:`ResultStore` and only
simulates on a miss.  Because the run key covers the exact per-run config
(rate, derived seed, deadlock action, collection flags), the fault
pattern, the algorithm and the engine version, a hit returns a result
that is field-for-field identical to what the simulation would produce —
figure drivers, ablations and campaigns can all share one store.

Caching is bypassed (not silently mis-keyed) when the evaluator uses a
custom ``pattern_factory`` without a ``traffic_label``: an arbitrary
traffic object cannot be hashed into the key, so those runs always
execute.  Pass a stable ``traffic_label`` to opt such workloads in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from repro.core.evaluator import Evaluator
from repro.faults.pattern import FaultPattern
from repro.simulator.config import SimConfig
from repro.simulator.engine import ENGINE_VERSION, SimulationResult
from repro.store.backend import ResultStore
from repro.store.keys import algorithm_token, run_key
from repro.util.serialization import result_from_dict, result_to_dict

__all__ = ["CacheStats", "CachedEvaluator", "get_or_run", "make_evaluator"]


@dataclass
class CacheStats:
    """Counters of one :class:`CachedEvaluator`'s cache traffic."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Runs executed without consulting the store (an unlabeled custom
    #: traffic pattern made the run unkeyable).
    bypassed: int = 0

    @property
    def runs(self) -> int:
        return self.hits + self.misses + self.bypassed

    def as_dict(self) -> dict:
        return asdict(self)


def get_or_run(
    store: ResultStore,
    key: str,
    token: str,
    execute: Callable[[], SimulationResult],
    stats: CacheStats,
) -> SimulationResult:
    """The one cache-through path: the stored result under *key*, or
    *execute*'s, stored under *key* before it is returned.

    *token* is the :func:`~repro.store.keys.algorithm_token` the key was
    derived from; it and the engine version are the row's index fields.
    *stats* counts the hit, or the miss and whether the put wrote a row.
    """
    cached = store.get(key)
    if cached is not None:
        stats.hits += 1
        return result_from_dict(cached)
    stats.misses += 1
    result = execute()
    if store.put(
        key, result_to_dict(result), engine_version=ENGINE_VERSION, algorithm=token
    ):
        stats.puts += 1
    return result


class CachedEvaluator(Evaluator):
    """An :class:`Evaluator` with get-or-run semantics over a store.

    Parameters
    ----------
    store:
        A :class:`ResultStore`, a store directory path, or ``None`` for
        the default directory (``$REPRO_STORE_DIR`` / ``.repro-store``).
        (The uncached path is :func:`make_evaluator` with no store.)
    traffic_label:
        Stable label of the traffic workload for the run key.  Defaults
        to ``"uniform"`` when no ``pattern_factory`` is set; required to
        enable caching when one is.
    """

    def __init__(
        self,
        base_config: SimConfig,
        *,
        seed: int = 2007,
        pattern_factory=None,
        instrument=None,
        store: ResultStore | Path | str | None = None,
        traffic_label: str | None = None,
    ) -> None:
        super().__init__(
            base_config,
            seed=seed,
            pattern_factory=pattern_factory,
            instrument=instrument,
        )
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        if traffic_label is None and pattern_factory is None:
            traffic_label = "uniform"
        self.traffic_label = traffic_label
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def run_single(
        self,
        algorithm: str,
        faults: FaultPattern,
        *,
        injection_rate: float | None = None,
        set_index: int = 0,
        **overrides,
    ) -> SimulationResult:
        alg, cfg = self.prepare_run(
            algorithm,
            faults,
            injection_rate=injection_rate,
            set_index=set_index,
            **overrides,
        )
        if self.traffic_label is None:
            self.stats.bypassed += 1
            return self._execute(alg, cfg, faults)
        token = algorithm_token(algorithm)
        return get_or_run(
            self.store,
            run_key(cfg, token, faults, traffic=self.traffic_label),
            token,
            lambda: self._execute(alg, cfg, faults),
            self.stats,
        )


def make_evaluator(
    base_config: SimConfig,
    *,
    seed: int = 2007,
    pattern_factory=None,
    instrument=None,
    store: ResultStore | Path | str | None = None,
    **cache_kwargs,
) -> Evaluator:
    """A plain Evaluator, or a cached one when *store* is given.

    This is the single switch the experiment drivers use: ``store=None``
    preserves the original uncached behavior exactly.  ``instrument``
    (see :class:`~repro.core.evaluator.Evaluator`) observes executed
    runs only — cache hits skip the simulation entirely.
    """
    if store is None:
        return Evaluator(
            base_config,
            seed=seed,
            pattern_factory=pattern_factory,
            instrument=instrument,
        )
    return CachedEvaluator(
        base_config,
        seed=seed,
        pattern_factory=pattern_factory,
        instrument=instrument,
        store=store,
        **cache_kwargs,
    )
