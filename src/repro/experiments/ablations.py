"""Ablation studies over the design choices the paper singles out.

Each study isolates one knob the paper discusses qualitatively and
measures it:

* ``vc_count``      — "the amount of saturation throughput is affected by
  the number of virtual channels" (Section 5): throughput/latency vs
  VCs per physical channel.
* ``bonus_cards``   — the Section 4 modification: PHop vs Pbc and NHop vs
  Nbc under identical budgets.
* ``misroute_limit`` — Fully-Adaptive's misroute bound (the paper fixes
  it at 10): sweep the cap.
* ``buffer_depth``  — flit buffer depth per VC (a knob the paper leaves
  implicit).
* ``message_length`` — 32/64/100-flit messages, "commonly considered in
  the literature" (Section 5).
* ``mesh_size``     — radix scaling (the hop-based budgets grow with the
  diameter).

All studies run fault-free at a configurable offered load and return
plain row dicts so the CLI can render them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.experiments.ascii_plot import table
from repro.faults.pattern import FaultPattern
from repro.routing.freeform import FullyAdaptive
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.store.backend import ResultStore
from repro.store.cache import CacheStats, get_or_run
from repro.store.keys import algorithm_token, run_key
from repro.topology.mesh import Mesh2D


@dataclass
class AblationResult:
    """Rows of one ablation study."""

    study: str
    knob: str
    rows: list[dict] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "experiment": f"ablation-{self.study}",
            "knob": self.knob,
            "rows": self.rows,
        }


def print_ablation(payload: dict) -> str:
    """One study's rows as a table."""
    study = payload["experiment"].removeprefix("ablation-")
    rows = payload["rows"]
    if not rows:
        return f"Ablation {study}: no rows"
    headers = list(rows[0])
    body = [[row[h] for h in headers] for row in rows]
    return table(headers, body, title=f"Ablation: {study} (knob: {payload['knob']})")


def _run(cfg: SimConfig, algorithm, store: ResultStore | None = None) -> dict:
    """One fault-free ablation cell, optionally through the result store.

    The cache token of an algorithm *instance* (e.g. Fully-Adaptive with
    a non-default misroute cap) includes its public scalar attributes, so
    differently parameterized instances never collide; it is computed
    before the simulation runs, while only constructor-set state exists.
    """
    token = algorithm_token(algorithm)
    alg = make_algorithm(algorithm) if isinstance(algorithm, str) else algorithm

    def execute():
        return Simulation(cfg, alg).run()

    if store is None:
        r = execute()
    else:
        faults = FaultPattern.fault_free(Mesh2D(cfg.width, cfg.height))
        r = get_or_run(
            store, run_key(cfg, token, faults), token, execute, CacheStats()
        )
    return {
        "throughput": round(r.throughput, 4),
        "latency": round(r.avg_latency, 1) if r.delivered else float("nan"),
        "delivered": r.delivered,
    }


def _base_config(load: float, **overrides) -> SimConfig:
    defaults = dict(
        width=10,
        vcs_per_channel=24,
        message_length=16,
        cycles=4_000,
        warmup=1_000,
        seed=31,
        on_deadlock="drain",
    )
    defaults.update(overrides)
    cfg = SimConfig(**defaults)
    return cfg.with_(injection_rate=load / cfg.message_length)


def vc_count_ablation(
    load: float = 0.5,
    algorithms: tuple[str, ...] = ("nhop", "duato-nbc", "minimal-adaptive"),
    vc_counts: tuple[int, ...] = (15, 18, 24, 32),
    store: ResultStore | None = None,
    **overrides,
) -> AblationResult:
    """Throughput/latency vs VCs per physical channel.

    The floor of 15 comes from the 10x10 hop budgets (NHop needs
    10 classes + 4 ring + 1).
    """
    result = AblationResult("vc-count", "vcs_per_channel")
    for v in vc_counts:
        for alg in algorithms:
            cfg = _base_config(load, vcs_per_channel=v, **overrides)
            try:
                row = _run(cfg, alg, store)
            except Exception as exc:  # budget too small for this scheme
                row = {"throughput": float("nan"), "latency": float("nan"),
                       "delivered": 0, "note": type(exc).__name__}
            result.rows.append({"vcs": v, "algorithm": alg, **row})
    return result


def bonus_card_ablation(
    load: float = 0.5, store: ResultStore | None = None, **overrides
) -> AblationResult:
    """PHop vs Pbc and NHop vs Nbc at identical hardware budgets."""
    result = AblationResult("bonus-cards", "cards on/off")
    for base, carded in (("phop", "pbc"), ("nhop", "nbc")):
        cfg = _base_config(load, **overrides)
        r_base = _run(cfg, base, store)
        r_card = _run(cfg, carded, store)
        gain = (
            100.0 * (r_card["throughput"] / r_base["throughput"] - 1.0)
            if r_base["throughput"]
            else float("nan")
        )
        result.rows.append(
            {
                "pair": f"{base}->{carded}",
                "thr_base": r_base["throughput"],
                "thr_cards": r_card["throughput"],
                "thr_gain_%": round(gain, 1),
                "lat_base": r_base["latency"],
                "lat_cards": r_card["latency"],
            }
        )
    return result


def misroute_limit_ablation(
    load: float = 0.5,
    limits: tuple[int, ...] = (0, 2, 10, 50),
    store: ResultStore | None = None,
    **overrides,
) -> AblationResult:
    """Fully-Adaptive with different misroute caps (the paper uses 10)."""
    result = AblationResult("misroute-limit", "max_misroutes")
    for limit in limits:
        alg = FullyAdaptive()
        alg.max_misroutes = limit
        cfg = _base_config(load, **overrides)
        row = _run(cfg, alg, store)
        result.rows.append({"max_misroutes": limit, **row})
    return result


#: The studies that sweep one ``SimConfig`` field for one algorithm:
#: study -> (field, knob label, row column, values keyword, default
#: values, default algorithm).
_SINGLE_KNOB = {
    # Flit-buffer depth per VC.
    "buffer-depth": (
        "buffer_depth", "buffer_depth", "depth", "depths", (1, 2, 4, 8), "duato-nbc",
    ),
    # The literature's common message lengths (32/64/100 flits).
    "message-length": (
        "message_length", "message_length", "length", "lengths", (32, 64, 100), "nhop",
    ),
    # Radix scaling; the hop budgets grow with the diameter.
    "mesh-size": ("width", "width=height", "radix", "radices", (6, 8, 10, 12), "nhop"),
}


def _single_knob_ablation(
    study: str, load: float = 0.5, store: ResultStore | None = None, **overrides
) -> AblationResult:
    """One :data:`_SINGLE_KNOB` study; its values keyword (``depths`` /
    ``lengths`` / ``radices``) and ``algorithm`` replace the declared
    defaults, any other keyword overrides the base config."""
    config_field, knob, column, values_kw, values, algorithm = _SINGLE_KNOB[study]
    values = overrides.pop(values_kw, values)
    algorithm = overrides.pop("algorithm", algorithm)
    result = AblationResult(study, knob)
    for value in values:
        cfg = _base_config(load, **{config_field: value}, **overrides)
        result.rows.append({column: value, **_run(cfg, algorithm, store)})
    return result


buffer_depth_ablation = partial(_single_knob_ablation, "buffer-depth")
message_length_ablation = partial(_single_knob_ablation, "message-length")
mesh_size_ablation = partial(_single_knob_ablation, "mesh-size")

ABLATIONS = {
    "vc-count": vc_count_ablation,
    "bonus-cards": bonus_card_ablation,
    "misroute-limit": misroute_limit_ablation,
    "buffer-depth": buffer_depth_ablation,
    "message-length": message_length_ablation,
    "mesh-size": mesh_size_ablation,
}


def run_ablation(name: str, *, store=None, **kwargs) -> AblationResult:
    """Run an ablation study by name.

    *store* (a :class:`~repro.store.ResultStore` or directory) routes
    every cell through the shared result cache.
    """
    try:
        fn = ABLATIONS[name]
    except KeyError:
        known = ", ".join(sorted(ABLATIONS))
        raise ValueError(f"unknown ablation {name!r}; known: {known}") from None
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    return fn(store=store, **kwargs)
