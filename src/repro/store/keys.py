"""Canonical run keys: one stable digest per simulation cell.

A *run key* identifies everything that determines a simulation's output:

* the full :class:`~repro.simulator.config.SimConfig` (with the
  injection rate and seed lifted out as explicit top-level fields),
* the algorithm (registry name, plus any instance parameters for
  ad-hoc algorithm objects — see :func:`algorithm_token`),
* the exact fault pattern (mesh dimensions + sorted faulty nodes),
* the traffic pattern label,
* the engine behavior version
  (:data:`~repro.simulator.engine.ENGINE_VERSION`).

The payload is serialized with :func:`canonical_json` — sorted keys, no
whitespace — and hashed with SHA-256, so the key is independent of dict
insertion order and identical across processes and Python versions.
Bumping ``ENGINE_VERSION`` changes every key, which is how stale cached
results self-invalidate after a behavior-changing engine edit.
"""

from __future__ import annotations

import hashlib
import json

from repro.faults.pattern import FaultPattern
from repro.simulator.config import SimConfig
from repro.simulator.engine import ENGINE_VERSION
from repro.util.serialization import config_to_dict, pattern_to_dict

__all__ = [
    "ENGINE_VERSION",
    "algorithm_token",
    "canonical_json",
    "content_digest",
    "run_key",
    "run_key_payload",
]


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, minimal separators, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_digest(payload, length: int = 64) -> str:
    """The first *length* hex digits of SHA-256 over ``canonical_json``.

    The project's one "canonical rows -> digest" reduction: run keys,
    store/telemetry/span proof-of-equality digests, the drift lock and
    the bench workload keys all go through here (lint rule REP008).
    """
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()[:length]


def algorithm_token(algorithm) -> str:
    """A stable text token for an algorithm name or instance.

    Registry names pass through unchanged.  For algorithm *objects*
    (e.g. a ``FullyAdaptive`` with a non-default misroute cap, as the
    ablations build), the token is the registry name plus every public
    scalar instance attribute, so differently parameterized instances
    never share a key.
    """
    if isinstance(algorithm, str):
        return algorithm
    name = getattr(algorithm, "name", type(algorithm).__name__)
    params = {
        k: v
        for k, v in vars(algorithm).items()
        if not k.startswith("_") and isinstance(v, (bool, int, float, str))
    }
    if not params:
        return name
    inner = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return f"{name}[{inner}]"


def run_key_payload(
    config: SimConfig,
    algorithm,
    faults: FaultPattern,
    *,
    engine_version: int | None = None,
) -> dict:
    """The JSON-safe dict a run key digests (useful for debugging).

    ``engine_version`` is resolved at call time (not bound as a default)
    so a bumped :data:`ENGINE_VERSION` takes effect everywhere at once.
    Every stored run is uniform traffic, recorded as such.
    """
    if engine_version is None:
        engine_version = ENGINE_VERSION
    cfg = config_to_dict(config)
    # Lift the per-run fields out of the config block so the key schema
    # matches how callers think about a cell: config x rate x seed.
    rate = cfg.pop("injection_rate")
    seed = cfg.pop("seed")
    return {
        "kind": "run-key",
        "engine_version": engine_version,
        "algorithm": algorithm_token(algorithm),
        "config": cfg,
        "faults": pattern_to_dict(faults),
        "rate": rate,
        "seed": seed,
        "traffic": "uniform",
    }


def run_key(
    config: SimConfig,
    algorithm,
    faults: FaultPattern,
    *,
    engine_version: int | None = None,
) -> str:
    """SHA-256 hex digest identifying one simulation cell."""
    return content_digest(
        run_key_payload(
            config, algorithm, faults, engine_version=engine_version
        )
    )
