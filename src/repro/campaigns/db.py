"""The campaign database: declared space → canonical store run keys.

A :class:`CampaignDB` pins a :class:`~repro.campaigns.spec.CampaignSpec`
to a directory and records the campaign's *full declared space* as a
table of canonical run keys — the same SHA-256 keys
:class:`~repro.store.CachedEvaluator` computes before every simulation
(config + algorithm + fault pattern + rate + derived seed +
``ENGINE_VERSION``, via :mod:`repro.store.keys`).  Because planning and
execution share one key function, *"which runs are missing?"* is a pure
set difference against the store index: no heuristics, no timestamps,
no re-simulation.

Layout under the campaign root::

    campaign.json   spec + cell/key table (atomic rewrite)
    store/          default ResultStore holding the completed runs
    events.jsonl    run manifest segments, one per run

Resume semantics: :meth:`CampaignDB.plan` re-derives the key table from
the spec (recomputing it if ``ENGINE_VERSION`` moved, which invalidates
every key by construction) and diffs it against ``store.keys()``.  A
cell is *done* iff its exact key is stored — a changed config, seed or
engine version yields different keys and therefore a fresh plan.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.campaigns.spec import (
    CELL_FIELDS,
    CampaignSpec,
    cell_id,
    cell_set_index,
    draw_cases,
    fault_case_label,
)
from repro.cli import Refused
from repro.core.evaluator import Evaluator
from repro.simulator.engine import ENGINE_VERSION
from repro.store.backend import ResultStore, atomic_write
from repro.store.keys import algorithm_token, content_digest, run_key

__all__ = ["CampaignDB", "CampaignPlan", "refuse_malformed", "store_digest"]

_SCHEMA_VERSION = 1


@contextmanager
def refuse_malformed(path: Path):
    """Re-raise what a malformed JSON file raises inside the block as a
    :class:`~repro.cli.Refused` (a :class:`ValueError`) reading
    ``<path>: <reason>`` (``<path>: missing field '<name>'`` for a
    missing key), so every verb that reads a spec or ``campaign.json``
    fails closed with the same line.  A missing file stays a
    :class:`FileNotFoundError`."""
    try:
        yield
    except KeyError as exc:
        raise Refused(f"{path}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise Refused(f"{path}: {exc}") from None


def store_digest(store: ResultStore) -> str:
    """Content digest of a store: sha256 over its key-sorted rows.

    Two stores holding the same results — however the rows were
    produced, in whatever order — digest identically, because
    :meth:`ResultStore.rows` deduplicates and every row is canonical
    JSON.  This is the proof-of-equality primitive for the campaign
    executor.
    """
    rows = sorted(store.rows(), key=lambda row: row["key"])
    return content_digest(rows)


@dataclass(frozen=True)
class CampaignPlan:
    """The result of diffing the declared space against the store."""

    cells: tuple[dict, ...]  #: full declared space, in spec order
    missing: tuple[dict, ...]  #: cells whose run key is not stored

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def done(self) -> int:
        return self.total - len(self.missing)

    def to_dict(self) -> dict:
        return {
            "kind": "campaign-plan",
            "schema": _SCHEMA_VERSION,
            "total": self.total,
            "done": self.done,
            "missing": [dict(c) for c in self.missing],
        }


class CampaignDB:
    """A campaign bound to a directory, its store, and its key table.

    Parameters
    ----------
    spec:
        The declared parameter space.
    root:
        Campaign directory (created if missing).
    store:
        Override the result store; defaults to ``<root>/store``.  A
        shared store lets several campaigns (and the figure drivers)
        dedup work, at the cost of a bigger index to diff against.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        root: Path | str,
        *,
        store: ResultStore | Path | str | None = None,
    ) -> None:
        self.spec = spec
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "campaign.json"
        self.events_path = self.root / "events.jsonl"
        # Only bench/workloads.py uses this, until the benchmark drops shards.
        self.shards_root = self.root / "shards"
        if store is None:
            store = self.root / "store"
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self._cells: tuple[dict, ...] | None = None

    # ------------------------------------------------------------------
    # Key table
    # ------------------------------------------------------------------
    def cells(self) -> tuple[dict, ...]:
        """The declared space as ``{coords..., id, key}`` records.

        Computing a cell's key prepares (but never executes) the run:
        :meth:`Evaluator.prepare_run` resolves the exact per-run config
        — derived seed, deadlock policy, injection rate — and
        :func:`repro.store.keys.run_key` hashes it with the cell's fault
        pattern and the engine version.  This is byte-for-byte the key
        :class:`~repro.store.CachedEvaluator` uses at execution time,
        which is the whole point: plan and run can never disagree.
        """
        if self._cells is None:
            evaluator = Evaluator(self.spec.config, seed=self.spec.seed)
            cases = draw_cases(evaluator, self.spec)
            records = []
            for coords in self.spec.job_keys():
                faults = cases[coords["n_faults"]].patterns[
                    coords["fault_set"]
                ]
                _, cfg = evaluator.prepare_run(
                    coords["algorithm"],
                    faults,
                    injection_rate=coords["rate"],
                    set_index=cell_set_index(coords),
                )
                records.append(
                    {
                        **coords,
                        "id": cell_id(coords),
                        "fault_case": fault_case_label(
                            coords["n_faults"], coords["fault_set"]
                        ),
                        "key": run_key(
                            cfg, algorithm_token(coords["algorithm"]), faults
                        ),
                    }
                )
            self._cells = tuple(records)
        return self._cells

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self) -> Path:
        """Write ``campaign.json`` (atomic temp + replace)."""
        location = {"store": str(self.store.root)}
        if not self.store.root.is_absolute():
            # As given means relative to *this* process's cwd.  A later
            # opener is only sure to name the campaign directory, so the
            # same location is also recorded relative to that.
            location["store_from_root"] = os.path.relpath(
                self.store.root, self.root
            )
        payload = {
            "kind": "campaign-db",
            "schema": _SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "spec": self.spec.to_dict(),
            **location,
            "cells": [dict(c) for c in self.cells()],
        }
        atomic_write(self.path, json.dumps(payload, indent=2))
        return self.path

    @classmethod
    def open(
        cls,
        root: Path | str,
        *,
        store: ResultStore | Path | str | None = None,
    ) -> CampaignDB:
        """Reopen a saved campaign from its ``campaign.json``.

        A ``campaign.json`` that does not parse or validate is a
        :class:`ValueError` naming the file (see :func:`refuse_malformed`).

        The persisted key table is trusted only if it was computed by
        the current ``ENGINE_VERSION``; otherwise every key is stale by
        construction and the table is silently recomputed on first use.

        Without a *store* override the campaign reopens on its recorded
        store, wherever the caller's cwd is: a relative location is
        resolved against *root* (``store_from_root``; a file written
        before that field existed falls back to the path as given).  A
        recorded store that is not there is a :class:`FileNotFoundError`
        and nothing is created — an empty store in its place would plan
        every cell as missing and re-run the campaign.
        """
        root = Path(root)
        path = root / "campaign.json"
        with refuse_malformed(path):
            payload = json.loads(path.read_text())
            if payload.get("kind") != "campaign-db":
                raise ValueError("not a campaign-db directory")
            if payload.get("schema") != _SCHEMA_VERSION:
                raise ValueError(
                    f"unsupported campaign-db schema {payload.get('schema')!r}"
                )
            spec = CampaignSpec.from_dict(payload["spec"])
            current = payload.get("engine_version") == ENGINE_VERSION
            cells = tuple(payload["cells"]) if current else None
        if store is None and payload.get("store"):
            from_root = payload.get("store_from_root")
            store = Path(
                os.path.normpath(root / from_root) if from_root
                else payload["store"]
            )
            if not store.is_dir():
                raise FileNotFoundError(f"{store}: recorded store not found")
        db = cls(spec, root, store=store)
        db._cells = cells
        return db

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self) -> CampaignPlan:
        """Diff the declared space against the store index.

        Exactness is the contract: a cell appears in ``missing`` iff its
        canonical run key is absent from the store — nothing else
        (mtimes, JSONL row counts, manifest events) is consulted.
        """
        cells = self.cells()
        stored = set(self.store.keys())
        missing = tuple(c for c in cells if c["key"] not in stored)
        return CampaignPlan(cells=cells, missing=missing)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Progress per algorithm/fault-case plus a linear ETA.

        The ETA extrapolates the mean per-cell wall seconds of the
        *latest* manifest segment in ``events.jsonl`` (each run appends
        its own segment, so resumed campaigns never mix stale timings
        into the estimate) over the missing cells, spread across that
        segment's ``workers`` (no more than there are missing cells).
        """
        plan = self.plan()
        missing_ids = {c["id"] for c in plan.missing}
        groups: dict[str, dict] = {}
        for c in plan.cells:
            for axis in (c["algorithm"], c["fault_case"]):
                g = groups.setdefault(axis, {"total": 0, "done": 0})
                g["total"] += 1
                g["done"] += c["id"] not in missing_ids
        eta = None
        workers, seconds = self._last_segment()
        if seconds and plan.missing:
            eta = sum(seconds) / len(seconds) * len(plan.missing) / min(
                workers, len(plan.missing)
            )
        return {
            "name": self.spec.name,
            "root": str(self.root),
            "store": str(self.store.root),
            "engine_version": ENGINE_VERSION,
            "total": plan.total,
            "done": plan.done,
            "missing": len(plan.missing),
            "groups": dict(sorted(groups.items())),
            "recent_cell_seconds": (
                sum(seconds) / len(seconds) if seconds else None
            ),
            "eta_seconds": eta,
        }

    def _last_segment(self) -> tuple[int, list[float]]:
        """``(workers, per-cell durations)`` of the last segment of
        ``events.jsonl``."""
        from repro.obs.manifest import read_manifest

        workers, seconds = 1, []
        if not self.events_path.exists():
            return workers, seconds
        for ev in read_manifest(self.events_path):
            if ev.get("event") == "run-start":
                # ETA must not mix resume segments
                workers, seconds = max(1, int(ev.get("workers", 1))), []
            elif ev.get("event") == "cell" and ev.get("phase") == "finish":
                seconds.append(float(ev.get("seconds", 0.0)))
        return workers, seconds

    # ------------------------------------------------------------------
    def missing_coords(self) -> list[dict]:
        """Coordinate dicts of the missing cells (executor input)."""
        return [
            {f: c[f] for f in CELL_FIELDS} for c in self.plan().missing
        ]
