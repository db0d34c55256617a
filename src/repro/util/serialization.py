"""JSON-safe serialization of experiment inputs.

Results JSON alone cannot reproduce a run — the fault layout and the
exact configuration matter.  These helpers round-trip
:class:`~repro.simulator.config.SimConfig` and
:class:`~repro.faults.pattern.FaultPattern` through plain dicts so a
manifest can be stored next to every results file.
"""

from __future__ import annotations

from dataclasses import fields
from operator import itemgetter
from types import SimpleNamespace

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
#: The :class:`SimulationResult` fields after ``(algorithm, config)``,
#: in declaration order, read from a payload in one call: positional
#: construction is a quarter of the cost of building keyword arguments.
_AFTER_CONFIG = itemgetter(*(f.name for f in fields(SimulationResult)[2:]))


def _check(payload: dict, kind: str) -> None:
    """Refuse a *payload* that is not a current-schema *kind*."""
    if payload.get("kind") != kind:
        raise ValueError(f"payload is not a {kind}")
    if payload.get("schema") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported {kind} schema {payload.get('schema')!r}")


def config_to_dict(config: SimConfig) -> dict:
    """Plain-dict form of a :class:`SimConfig` (JSON-safe)."""
    payload = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    payload["schema"] = _SCHEMA_VERSION
    payload["kind"] = "sim-config"
    return payload


def config_from_dict(payload: dict) -> SimConfig:
    """Rebuild a :class:`SimConfig` written by :func:`config_to_dict`."""
    _check(payload, "sim-config")
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
    _check(payload, "fault-pattern")
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
    _check(payload, "sim-result")
    kwargs = {name: payload[name] for name in _RESULT_SCALARS}
    kwargs.update({name: list(payload[name]) for name in _RESULT_LISTS})
    return SimulationResult(config=config_from_dict(payload["config"]), **kwargs)


def stored_result(payload: dict) -> SimulationResult:
    """A :class:`SimulationResult` over a stored payload, for reading.

    Like :func:`result_from_dict` (kind and schema checked, every derived
    metric the class's own property), but nothing is copied or
    validated: the lists are the payload's own, and ``config`` is the
    stored config's fields as attributes, not a :class:`SimConfig`.
    """
    _check(payload, "sim-result")
    _check(payload["config"], "sim-config")
    return SimulationResult(
        payload["algorithm"],
        SimpleNamespace(**payload["config"]),
        *_AFTER_CONFIG(payload),
    )
