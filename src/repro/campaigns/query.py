"""Query a completed campaign as dense labeled result arrays.

The query layer turns the campaign store back into analysis-ready
data: a :class:`CampaignArray` is a dense array over the declared space
with dims ``(algorithm, rate, fault_case, repeat)`` and one nested-list
value block per metric (``latency``, ``network_latency``,
``throughput``, ``simulated_cycles``, ``delivered``, ``dropped`` and its
two parts ``dropped_deadlock`` / ``dropped_livelock``, ``avg_hops``).
The store reads the campaign's rows in one batched pass
(:meth:`~repro.store.ResultStore.get_rows`), decoding each row once,
and every metric is computed over the stored payload
(:func:`~repro.util.serialization.stored_result`) by the same
:class:`~repro.simulator.engine.SimulationResult` property code a run
reports through — no :class:`~repro.simulator.config.SimConfig` is
built — so a queried latency is exactly the ``avg_latency`` the
simulation reported.

Reduction over the repeat axis (:meth:`CampaignArray.reduce`) reuses
the Student-t machinery from :mod:`repro.metrics.confidence` to report
``mean ± 95% CI half-width`` per (algorithm, rate, fault_case) point —
the error bars the paper's figures need.

Export: :meth:`to_json` (self-describing dims/coords/values) and
:meth:`to_csv` (long format, one row per cell).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from repro.campaigns.db import CampaignDB
from repro.campaigns.spec import fault_case_label
from repro.metrics.confidence import batch_means_ci
from repro.util.serialization import stored_result

__all__ = [
    "CampaignArray",
    "MissingCellsError",
    "METRICS",
    "extract_metric",
    "metric_names",
    "query",
]

_SCHEMA_VERSION = 1

#: metric name -> extractor over a reconstructed SimulationResult.
_EXTRACTORS = {
    "latency": lambda r: r.avg_latency,
    "network_latency": lambda r: r.avg_network_latency,
    "throughput": lambda r: r.throughput,
    "simulated_cycles": lambda r: float(
        r.measured_cycles + r.config.warmup
    ),
    "delivered": lambda r: float(r.delivered),
    "dropped": lambda r: float(r.dropped_deadlock + r.dropped_livelock),
    "dropped_deadlock": lambda r: float(r.dropped_deadlock),
    "dropped_livelock": lambda r: float(r.dropped_livelock),
    "avg_hops": lambda r: r.avg_hops,
}

#: Default metric set of :func:`query`.
METRICS = ("latency", "throughput", "simulated_cycles")


def metric_names() -> tuple[str, ...]:
    """Every metric the query layer can extract, sorted."""
    return tuple(sorted(_EXTRACTORS))


def extract_metric(result, metric: str) -> float:
    """One metric of a (reconstructed) SimulationResult.

    The exact extractors the dense arrays use, exposed so other
    consumers (the serving layer's simulation fallback) report values
    identical to what :func:`query` would surface for the same run.
    """
    try:
        extractor = _EXTRACTORS[metric]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(_EXTRACTORS)}"
        ) from None
    return float(extractor(result))

DIMS = ("algorithm", "rate", "fault_case", "repeat")


class MissingCellsError(RuntimeError):
    """Raised when querying a campaign whose space is not fully stored."""

    def __init__(self, missing_ids: list[str]) -> None:
        self.missing_ids = missing_ids
        preview = ", ".join(missing_ids[:5])
        if len(missing_ids) > 5:
            preview += f", … ({len(missing_ids) - 5} more)"
        super().__init__(
            f"{len(missing_ids)} cell(s) missing from the store: {preview}. "
            "Run the campaign to completion or query(allow_missing=True)."
        )


class CampaignArray:
    """Dense labeled values over the declared campaign space.

    Attributes
    ----------
    dims:
        ``("algorithm", "rate", "fault_case", "repeat")`` — fixed.
    coords:
        dim name -> tuple of coordinate labels, in spec order.
    values:
        metric name -> nested lists indexed ``[algorithm][rate]
        [fault_case][repeat]``; missing cells hold ``NaN`` (only
        possible via ``query(allow_missing=True)``).
    """

    def __init__(
        self,
        name: str,
        coords: dict[str, tuple],
        values: dict[str, list],
    ) -> None:
        self.name = name
        self.dims = DIMS
        self.coords = coords
        self.values = values

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(self.coords[d]) for d in self.dims)

    def sel(self, metric: str, **labels) -> object:
        """Value(s) at exact coordinate labels, e.g. ``sel("latency",
        algorithm="nhop", rate=0.01, fault_case="f5/s0", repeat=0)``.

        Partially-specified selections return the remaining nested
        lists (outer dims must be given before inner ones).
        """
        block = self.values[metric]
        for dim in self.dims:
            if dim not in labels:
                break
            block = block[self.coords[dim].index(labels[dim])]
        return block

    # ------------------------------------------------------------------
    def reduce(self, metric: str) -> dict:
        """Mean and 95% CI half-width over the repeat axis.

        Returns ``{"dims": (algorithm, rate, fault_case), "coords":
        {...}, "mean": [...], "ci95": [...]}``; NaN repeats are dropped
        before reduction and the half-width is NaN below two surviving
        repeats (see :func:`repro.metrics.confidence.batch_means_ci`).
        """
        mean_block, ci_block = [], []
        for a_block in self.values[metric]:
            mean_rates, ci_rates = [], []
            for r_block in a_block:
                mean_cases, ci_cases = [], []
                for repeats in r_block:
                    finite = [v for v in repeats if not math.isnan(v)]
                    mean, half = batch_means_ci(finite)
                    mean_cases.append(mean)
                    ci_cases.append(half)
                mean_rates.append(mean_cases)
                ci_rates.append(ci_cases)
            mean_block.append(mean_rates)
            ci_block.append(ci_rates)
        return {
            "dims": self.dims[:3],
            "coords": {d: self.coords[d] for d in self.dims[:3]},
            "mean": mean_block,
            "ci95": ci_block,
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "kind": "campaign-array",
            "schema": _SCHEMA_VERSION,
            "name": self.name,
            "dims": list(self.dims),
            "coords": {d: list(v) for d, v in self.coords.items()},
            "values": self.values,
        }

    def to_json(self, path: Path | str | None = None) -> str:
        """Self-describing JSON (``NaN`` serialized as ``null``)."""

        def _nullify(x):
            if isinstance(x, list):
                return [_nullify(v) for v in x]
            return None if isinstance(x, float) and math.isnan(x) else x

        payload = self.to_dict()
        payload["values"] = {
            m: _nullify(v) for m, v in payload["values"].items()
        }
        text = json.dumps(payload, indent=2)
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_csv(self, path: Path | str | None = None) -> str:
        """Long format: one row per cell, one column per metric."""
        import io

        sink = io.StringIO()
        metrics = sorted(self.values)
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(list(self.dims) + metrics)
        coords = self.coords
        for ia, alg in enumerate(coords["algorithm"]):
            for ir, rate in enumerate(coords["rate"]):
                for ic, case in enumerate(coords["fault_case"]):
                    for ip, rep in enumerate(coords["repeat"]):
                        row = [alg, rate, case, rep]
                        for m in metrics:
                            v = self.values[m][ia][ir][ic][ip]
                            row.append("" if math.isnan(v) else v)
                        writer.writerow(row)
        text = sink.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text


def query(
    db: CampaignDB,
    *,
    metrics: tuple[str, ...] = METRICS,
    allow_missing: bool = False,
) -> CampaignArray:
    """The campaign's stored results as one dense :class:`CampaignArray`.

    Every cell of the declared space is looked up by its canonical run
    key.  A gap raises :class:`MissingCellsError` (listing the missing
    cell ids) unless *allow_missing*, which leaves ``NaN`` holes —
    consistent with the planner, the same key diff decides both.
    """
    unknown = sorted(set(metrics) - set(_EXTRACTORS))
    if unknown:
        raise ValueError(
            f"unknown metric(s) {unknown}; choose from "
            f"{sorted(_EXTRACTORS)}"
        )
    spec = db.spec
    coords = {
        "algorithm": tuple(spec.algorithms),
        "rate": tuple(spec.rates),
        "fault_case": tuple(
            fault_case_label(n, s) for n, s in spec.fault_cases()
        ),
        "repeat": tuple(range(spec.repeats)),
    }
    case_index = {c: i for i, c in enumerate(coords["fault_case"])}
    shape = tuple(len(coords[d]) for d in DIMS)
    values = {
        m: [
            [
                [[float("nan")] * shape[3] for _ in range(shape[2])]
                for _ in range(shape[1])
            ]
            for _ in range(shape[0])
        ]
        for m in metrics
    }
    alg_index = {a: i for i, a in enumerate(coords["algorithm"])}
    rate_index = {r: i for i, r in enumerate(coords["rate"])}
    missing = []
    cells = db.cells()
    stored = db.store.get_rows(cell["key"] for cell in cells)
    for cell in cells:
        row = stored.get(cell["key"])
        if row is None:
            missing.append(cell["id"])
            continue
        result = stored_result(row["payload"])
        ia = alg_index[cell["algorithm"]]
        ir = rate_index[cell["rate"]]
        ic = case_index[cell["fault_case"]]
        ip = cell["repeat"]
        for m in metrics:
            values[m][ia][ir][ic][ip] = float(_EXTRACTORS[m](result))
    if missing and not allow_missing:
        raise MissingCellsError(missing)
    return CampaignArray(spec.name, coords, values)
