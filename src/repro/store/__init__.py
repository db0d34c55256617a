"""Content-addressed simulation result store with parallel-safe caching.

Every execution path — the figure drivers, the ablations, the campaign
executor — routes its simulations through one persistent store keyed by a
canonical digest of everything that determines a run's output.  A second
regeneration of any figure therefore performs zero simulations, and a
campaign reuses cells a figure sweep already produced.

* :mod:`repro.store.keys` — canonical run keys
  (SHA-256 over config x algorithm x faults x rate x seed x engine
  version);
* :mod:`repro.store.backend` — crash-safe JSONL + index backend that
  concurrent ``multiprocessing`` workers can share;
* :mod:`repro.store.cache` — :class:`CachedEvaluator` with get-or-run
  semantics and hit/miss counters;
* :mod:`repro.store.cli` — the ``store ls/stats/gc/export`` verbs of
  ``python -m repro.experiments``.
"""

from repro.store.backend import (
    DEFAULT_STORE_DIR,
    STORE_DIR_ENV,
    ResultStore,
    default_store_dir,
    store_dir_of,
)
from repro.store.cache import CachedEvaluator, CacheStats, make_evaluator
from repro.store.keys import (
    ENGINE_VERSION,
    algorithm_token,
    canonical_json,
    run_key,
    run_key_payload,
)

__all__ = [
    "CacheStats",
    "CachedEvaluator",
    "DEFAULT_STORE_DIR",
    "ENGINE_VERSION",
    "ResultStore",
    "STORE_DIR_ENV",
    "algorithm_token",
    "canonical_json",
    "default_store_dir",
    "make_evaluator",
    "run_key",
    "run_key_payload",
    "store_dir_of",
]
