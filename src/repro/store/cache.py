"""Get-or-run caching on top of the :class:`~repro.core.evaluator.Evaluator`.

:class:`CachedEvaluator` is a drop-in Evaluator whose ``run_single``
first looks the fully-specified run up in a :class:`ResultStore` and only
simulates on a miss.  Because the run key covers the exact per-run config
(rate, derived seed, deadlock action, collection flags), the fault
pattern, the algorithm and the engine version, a hit returns a result
that is field-for-field identical to what the simulation would produce —
figure drivers, ablations and campaigns can all share one store.

Every cached run is uniform traffic, and is keyed as such: a custom
traffic pattern cannot be hashed into a key, so only the plain
:class:`~repro.core.evaluator.Evaluator` takes one.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.evaluator import Evaluator
from repro.faults.pattern import FaultPattern
from repro.simulator.config import SimConfig
from repro.simulator.engine import SimulationResult
from repro.store.backend import ResultStore, fcntl
from repro.store.keys import algorithm_token, run_key
from repro.util.serialization import result_from_dict, result_to_dict

if TYPE_CHECKING:
    from repro.obs.telemetry import TelemetryRegistry

__all__ = [
    "CacheStats",
    "CachedEvaluator",
    "HeldRows",
    "fold_held",
    "fold_orphans",
    "get_or_run",
    "holding",
    "make_evaluator",
]


@dataclass
class CacheStats:
    """Counters of one :class:`CachedEvaluator`'s cache traffic."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class HeldRows:
    """A store as a pool worker sees it: the parent process writes it.

    Lookups read *store*, then *held*, the worker's private store; a put
    the store lacks goes to *held* (unsynced — it only has to outlive
    the worker's process) for the parent to append with
    :func:`fold_held`.  The worker's rows reach the disk as they are
    simulated, so a cell that raises or is interrupted keeps them.
    """

    def __init__(
        self, store: ResultStore | Path | str, held: Path | str
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.held = ResultStore(held, fsync=False)

    def get(self, key: str) -> dict | None:
        payload = self.store.get(key)
        return self.held.get(key) if payload is None else payload

    def put(self, key: str, payload: dict, *, algorithm: str = "") -> bool:
        return key not in self.store and self.held.put(
            key, payload, algorithm=algorithm
        )


def _lock(path: Path, *, wait: bool) -> int | None:
    """A descriptor of directory *path* holding an exclusive ``flock``,
    or ``None``: *path* is gone, the platform has no ``flock``, or
    another descriptor holds the lock and *wait* is false."""
    if fcntl is None:
        return None
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB))
    except BlockingIOError:
        os.close(fd)
        return None
    return fd


@contextmanager
def holding(store: ResultStore) -> Iterator[Path]:
    """A fresh directory under the store's ``held/`` for one pooling
    run, the parent of its cells' :class:`HeldRows` directories, locked
    (``flock``) while the block runs and removed when it exits.

    The lock is the run's liveness: :func:`fold_orphans` folds only a
    directory whose lock nobody holds, so a run that died is recognised
    even when the kernel has since handed its pid to another process.
    """
    root = store.root / "held"
    root.mkdir(exist_ok=True)
    while True:
        run = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}.", dir=root))
        fd = _lock(run, wait=True)
        if run.is_dir():
            break
        # Folded as an orphan between its creation and its lock.
        if fd is not None:
            os.close(fd)
    try:
        yield run
    finally:
        shutil.rmtree(run, ignore_errors=True)
        if fd is not None:
            os.close(fd)


def fold_held(store: ResultStore, held: Path) -> int:
    """Append the rows held in *held* to *store*, in the order they were
    put, then remove *held*; returns the rows written."""
    written = 0
    if held.is_dir():
        for row in ResultStore(held, fsync=False).rows():
            written += store.put(
                row["key"], row["payload"],
                engine_version=row["engine_version"],
                algorithm=row.get("algorithm", ""),
            )
    shutil.rmtree(held, ignore_errors=True)
    return written


def fold_orphans(store: ResultStore) -> int:
    """Fold in the rows held for a run that died before it folded them
    (killed outright: one that raises folds its own) — every directory
    under ``held/`` whose :func:`holding` lock nobody holds, its cells in
    declaration order; returns the rows written.  A live run's directory,
    in this process or another, is left alone (and, without ``flock``,
    every directory)."""
    root = store.root / "held"
    if not root.is_dir():
        return 0
    written = 0
    for run in sorted(root.iterdir()):
        fd = _lock(run, wait=False) if run.is_dir() else None
        if fd is None:
            continue
        try:
            cells = [cell for cell in run.iterdir() if cell.name.isdigit()]
            for cell in sorted(cells, key=lambda cell: int(cell.name)):
                written += fold_held(store, cell)
            written += fold_held(store, run)
        finally:
            os.close(fd)
    return written


def get_or_run(
    store: ResultStore | HeldRows,
    key: str,
    token: str,
    execute: Callable[[], SimulationResult],
    stats: CacheStats,
) -> SimulationResult:
    """The one cache-through path: the stored result under *key*, or
    *execute*'s, stored under *key* before it is returned.

    *token* is the :func:`~repro.store.keys.algorithm_token` the key was
    derived from; it and the engine version (the store's default,
    :data:`~repro.simulator.engine.ENGINE_VERSION`) are the row's index
    fields.  *stats* counts the hit, or the miss and whether the put
    wrote (or, through :class:`HeldRows`, held) a row.
    """
    cached = store.get(key)
    if cached is not None:
        stats.hits += 1
        return result_from_dict(cached)
    stats.misses += 1
    result = execute()
    if store.put(key, result_to_dict(result), algorithm=token):
        stats.puts += 1
    return result


class CachedEvaluator(Evaluator):
    """An :class:`Evaluator` with get-or-run semantics over a store.

    Parameters
    ----------
    store:
        A :class:`ResultStore`, a :class:`HeldRows` view of one, a store
        directory path, or ``None`` for the default directory
        (``$REPRO_STORE_DIR`` / ``.repro-store``).  (The uncached path is
        :func:`make_evaluator` with no store.)
    telemetry:
        As for :class:`~repro.core.evaluator.Evaluator`: attached to
        executed runs only (a hit constructs no simulation).
    """

    def __init__(
        self,
        base_config: SimConfig,
        *,
        seed: int = 2007,
        telemetry: TelemetryRegistry | None = None,
        store: ResultStore | HeldRows | Path | str | None = None,
    ) -> None:
        super().__init__(base_config, seed=seed, telemetry=telemetry)
        self.store = (
            store if isinstance(store, (ResultStore, HeldRows))
            else ResultStore(store)
        )
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
        token = algorithm_token(algorithm)
        return get_or_run(
            self.store,
            run_key(cfg, token, faults),
            token,
            lambda: self._execute(alg, cfg, faults),
            self.stats,
        )


def make_evaluator(
    base_config: SimConfig,
    *,
    seed: int = 2007,
    telemetry: TelemetryRegistry | None = None,
    store: ResultStore | HeldRows | Path | str | None = None,
) -> Evaluator:
    """A plain Evaluator, or a cached one when *store* is given.

    This is the single switch the experiment drivers use: ``store=None``
    preserves the original uncached behavior exactly.  *telemetry* (see
    :class:`~repro.core.evaluator.Evaluator`) observes executed runs
    only — cache hits skip the simulation entirely.
    """
    if store is None:
        return Evaluator(base_config, seed=seed, telemetry=telemetry)
    return CachedEvaluator(
        base_config, seed=seed, telemetry=telemetry, store=store
    )
