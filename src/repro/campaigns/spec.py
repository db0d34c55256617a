"""Declarative campaign specs and the cell vocabulary they induce.

A *campaign* is the cross product of algorithms × injection rates ×
fault cases × repeats over one :class:`~repro.simulator.config.SimConfig`.
:class:`CampaignSpec` is the JSON-safe description of that space; every
other piece of :mod:`repro.campaigns` — the :class:`~repro.campaigns.db.
CampaignDB` key table, the shard executor, the query arrays — derives
from a spec deterministically, so two hosts holding the same spec agree
on every cell without exchanging anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluator import Evaluator
from repro.simulator.config import SimConfig
from repro.util.serialization import config_from_dict, config_to_dict

__all__ = [
    "CampaignSpec",
    "cell_id",
    "cell_set_index",
    "draw_cases",
    "execute_cell",
    "fault_case_label",
]

_SCHEMA_VERSION = 1

#: Coordinate fields of one campaign cell, in canonical order.
CELL_FIELDS = ("algorithm", "rate", "n_faults", "fault_set", "repeat")


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a simulation campaign."""

    name: str
    algorithms: tuple[str, ...]
    config: SimConfig
    rates: tuple[float, ...]
    fault_counts: tuple[int, ...] = (0,)
    fault_sets: int = 1
    repeats: int = 1
    seed: int = 2007

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign needs a name")
        if not self.algorithms:
            raise ValueError("campaign needs at least one algorithm")
        if not self.rates:
            raise ValueError("campaign needs at least one injection rate")
        if self.fault_sets < 1 or self.repeats < 1:
            raise ValueError("fault_sets and repeats must be positive")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": "campaign-spec",
            "schema": _SCHEMA_VERSION,
            "name": self.name,
            "algorithms": list(self.algorithms),
            "config": config_to_dict(self.config),
            "rates": list(self.rates),
            "fault_counts": list(self.fault_counts),
            "fault_sets": self.fault_sets,
            "repeats": self.repeats,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> CampaignSpec:
        if payload.get("kind") != "campaign-spec":
            raise ValueError("payload is not a campaign-spec")
        if payload.get("schema") != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported campaign schema {payload.get('schema')!r}"
            )
        return cls(
            name=payload["name"],
            algorithms=tuple(payload["algorithms"]),
            config=config_from_dict(payload["config"]),
            rates=tuple(payload["rates"]),
            fault_counts=tuple(payload.get("fault_counts", (0,))),
            fault_sets=payload.get("fault_sets", 1),
            repeats=payload.get("repeats", 1),
            seed=payload.get("seed", 2007),
        )

    # ------------------------------------------------------------------
    def job_keys(self) -> list[dict]:
        """All grid cells, as order-stable JSON-safe key dicts."""
        keys = []
        for alg in self.algorithms:
            for rate in self.rates:
                for n_faults in self.fault_counts:
                    n_sets = self.fault_sets if n_faults else 1
                    for set_idx in range(n_sets):
                        for repeat in range(self.repeats):
                            keys.append(
                                {
                                    "algorithm": alg,
                                    "rate": rate,
                                    "n_faults": n_faults,
                                    "fault_set": set_idx,
                                    "repeat": repeat,
                                }
                            )
        return keys

    @property
    def n_jobs(self) -> int:
        return len(self.job_keys())

    def fault_cases(self) -> list[tuple[int, int]]:
        """The ``(n_faults, fault_set)`` pairs of the declared space,
        in cell order — the ``fault_case`` axis of the query arrays."""
        return [
            (n, s)
            for n in self.fault_counts
            for s in range(self.fault_sets if n else 1)
        ]


def cell_id(key: dict) -> str:
    """Human-readable stable id of one cell (manifest, span and plan id)."""
    return (
        f"{key['algorithm']}/r{key['rate']:.9f}/f{key['n_faults']}"
        f"/s{key['fault_set']}/x{key['repeat']}"
    )


def fault_case_label(n_faults: int, fault_set: int) -> str:
    """The ``fault_case`` coordinate label of a cell (``f5/s1``)."""
    return f"f{n_faults}/s{fault_set}"


def draw_cases(evaluator: Evaluator, spec: CampaignSpec) -> dict:
    """The campaign's fault cases (deterministic in the spec seed).

    Workers redraw the same cases locally: ``Evaluator.fault_case``
    seeds its RNG from the evaluator seed and the fault count only, so
    every process (and every *host*) agrees on the patterns without
    shipping them around.
    """
    return {
        n: evaluator.fault_case(n, spec.fault_sets if n else 1)
        for n in spec.fault_counts
    }


def cell_set_index(key: dict) -> int:
    """The evaluator ``set_index`` of one cell — it seeds the run and so
    is part of the store key; planning and execution both derive it here."""
    return key["fault_set"] * 1000 + key["repeat"]


def execute_cell(evaluator: Evaluator, cases: dict, key: dict):
    """Run one grid cell; returns its ``SimulationResult``."""
    return evaluator.run_single(
        key["algorithm"],
        cases[key["n_faults"]].patterns[key["fault_set"]],
        injection_rate=key["rate"],
        set_index=cell_set_index(key),
    )
