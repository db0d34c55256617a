"""JSON-safe serialization of experiment inputs.

Results JSON alone cannot reproduce a run — the fault layout and the
exact configuration matter.  These helpers round-trip
:class:`~repro.simulator.config.SimConfig` and
:class:`~repro.faults.pattern.FaultPattern` through plain dicts so a
manifest can be stored next to every results file.
"""

from __future__ import annotations

from dataclasses import fields

from repro.faults.pattern import FaultPattern
from repro.simulator.config import SimConfig
from repro.simulator.engine import SimulationResult
from repro.topology.mesh import Mesh2D

_SCHEMA_VERSION = 1

#: Every :class:`SimConfig` field, in declaration order.  They are flat
#: scalars, so :func:`config_to_dict` reads them directly: a run key is
#: computed per planned and per executed cell, and the recursive,
#: deep-copying ``dataclasses.asdict`` was two-thirds of its cost.
_CONFIG_FIELDS = tuple(f.name for f in fields(SimConfig))

#: Scalar counter fields of :class:`SimulationResult`; the config and the
#: per-VC/per-node/per-message lists are handled explicitly.
_RESULT_LISTS = ("vc_busy", "node_load", "latency_samples")
_RESULT_SCALARS = tuple(
    f.name
    for f in fields(SimulationResult)
    if f.name != "config" and f.name not in _RESULT_LISTS
)


def config_to_dict(config: SimConfig) -> dict:
    """Plain-dict form of a :class:`SimConfig` (JSON-safe)."""
    payload = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    payload["schema"] = _SCHEMA_VERSION
    payload["kind"] = "sim-config"
    return payload


def config_from_dict(payload: dict) -> SimConfig:
    """Rebuild a :class:`SimConfig` written by :func:`config_to_dict`."""
    if payload.get("kind") != "sim-config":
        raise ValueError("payload is not a sim-config")
    if payload.get("schema") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported sim-config schema {payload.get('schema')!r}")
    fields = {k: v for k, v in payload.items() if k not in ("schema", "kind")}
    return SimConfig(**fields)


def pattern_to_dict(pattern: FaultPattern) -> dict:
    """Plain-dict form of a fault pattern (mesh dims + faulty nodes)."""
    return {
        "kind": "fault-pattern",
        "schema": _SCHEMA_VERSION,
        "width": pattern.mesh.width,
        "height": pattern.mesh.height,
        "faulty": sorted(pattern.faulty),
    }


def pattern_from_dict(payload: dict) -> FaultPattern:
    """Rebuild a fault pattern written by :func:`pattern_to_dict`.

    Validation (block model, connectivity) re-runs on load, so a
    hand-edited payload cannot smuggle in an unsupported layout.
    """
    if payload.get("kind") != "fault-pattern":
        raise ValueError("payload is not a fault-pattern")
    if payload.get("schema") != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported fault-pattern schema {payload.get('schema')!r}"
        )
    mesh = Mesh2D(payload["width"], payload["height"])
    return FaultPattern(mesh, frozenset(payload["faulty"]))


def result_to_dict(result: SimulationResult) -> dict:
    """Plain-dict form of a :class:`SimulationResult` (JSON-safe).

    Every stored field round-trips exactly — counters and latency sums
    are ints, the stat lists are lists of ints — so a result rebuilt by
    :func:`result_from_dict` is equal to the original field for field
    (derived properties like ``throughput`` follow).
    """
    payload = {
        "kind": "sim-result",
        "schema": _SCHEMA_VERSION,
        "config": config_to_dict(result.config),
    }
    for name in _RESULT_SCALARS:
        payload[name] = getattr(result, name)
    for name in _RESULT_LISTS:
        payload[name] = list(getattr(result, name))
    return payload


def result_from_dict(payload: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` written by :func:`result_to_dict`."""
    if payload.get("kind") != "sim-result":
        raise ValueError("payload is not a sim-result")
    if payload.get("schema") != _SCHEMA_VERSION:
        raise ValueError(
            f"unsupported sim-result schema {payload.get('schema')!r}"
        )
    kwargs = {name: payload[name] for name in _RESULT_SCALARS}
    kwargs.update({name: list(payload[name]) for name in _RESULT_LISTS})
    return SimulationResult(config=config_from_dict(payload["config"]), **kwargs)
