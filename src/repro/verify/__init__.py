"""Static analysis for the routing layer (:mod:`repro.verify`).

Three independent layers:

* :mod:`repro.verify.cdg` — a **routing model checker**: exhaustively
  enumerates the channel-dependency graph implied by
  :meth:`~repro.routing.base.RoutingAlgorithm.candidate_tiers` over all
  reachable ``(node, message-state)`` pairs on a small mesh and checks
  Duato's condition (the extended CDG restricted to the escape layer must
  be acyclic, and every routing decision must supply an escape channel).
* :mod:`repro.verify.lint` — an AST linter enforcing project invariants
  (import boundaries, seeded RNG use, tier-shape annotations, explicit
  ``name``/``deadlock_free`` declarations, no mutable default args,
  determinism/concurrency discipline, hot-path ``__slots__``).
* :mod:`repro.verify.drift` — the **ENGINE_VERSION drift gate**: a
  normalized-AST digest over the engine's semantic surface pinned in
  ``tools/engine_semantics.lock``, so semantics cannot change without a
  version bump (and stale cached results cannot be served silently).

Run them from the command line::

    python -m repro.verify check --all      # model-check every algorithm
    python -m repro.verify lint             # lint src/repro
    python -m repro.verify cdg --algorithm duato --pattern center-block
    python -m repro.verify drift --require  # ENGINE_VERSION gate
"""

from __future__ import annotations

from repro.verify.cdg import (
    CdgChecker,
    CdgReport,
    RingCycleAnalysis,
    RingPremise,
    Violation,
    analyze_ring_cycle,
    check_algorithm,
    project_wait_cycle,
)
from repro.verify.corpus import CORPUS_NAMES, corpus_pattern, default_corpus
from repro.verify.drift import (
    DriftReport,
    compute_state,
    read_lock,
    run_gate,
    write_lock,
)
from repro.verify.lint import Finding, RULES, lint_paths, lint_source

__all__ = [
    "CdgChecker",
    "CdgReport",
    "RingCycleAnalysis",
    "RingPremise",
    "Violation",
    "analyze_ring_cycle",
    "check_algorithm",
    "project_wait_cycle",
    "CORPUS_NAMES",
    "corpus_pattern",
    "default_corpus",
    "DriftReport",
    "compute_state",
    "read_lock",
    "run_gate",
    "write_lock",
    "Finding",
    "RULES",
    "lint_paths",
    "lint_source",
]
