"""The perf ledger: ``BENCH_*.json`` snapshots as a tracked trajectory.

``tools/perf_ledger.jsonl`` holds one condensed JSON line per ingested
bench payload (label, host, engine version, and per-workload rate
metrics + phase shares).  ``python -m repro.obs history`` renders the
per-workload time series with sparklines; ``--delta A B`` prints the
table between two labels; ``--gate CANDIDATE.json`` compares a fresh
``BENCH_*.json`` against the ledger baseline and names the regressed
workload, metric, *and* the phase whose wall-time share grew the most,
so a slow PR lands with attribution instead of a bare percentage (and a
fast one with the phases whose share fell).

Entries are deduplicated by label (re-ingesting a label replaces it)
and kept sorted by ``(created_unix, label)``, so the ledger is a merge-
friendly append-only file in spirit but idempotent to re-ingest.  The
condensed workload stanza keeps exactly the fields
:func:`repro.obs.bench.compare_payloads` reads, so every comparison
path (delta / gate) shares one implementation.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.bench import _RATE_METRICS, compare_payloads, host_warnings
from repro.obs.manifest import read_jsonl
from repro.obs.timeline import sparkline
from repro.store.backend import atomic_write

__all__ = [
    "DEFAULT_LEDGER",
    "LEDGER_SCHEMA",
    "gate_against_ledger",
    "ingest",
    "ledger_entry",
    "read_ledger",
    "render_history",
    "write_ledger",
]

LEDGER_SCHEMA = 1

#: Repo-root-relative home of the committed ledger.
DEFAULT_LEDGER = Path("tools/perf_ledger.jsonl")


# ----------------------------------------------------------------------
# Entries and file I/O
# ----------------------------------------------------------------------
def ledger_entry(payload: dict) -> dict:
    """Condense one ``BENCH_*.json`` payload into a ledger line.

    Keeps the identity fields, the per-workload rate metrics (plus
    ``key``, so stale specs stop gating, as :func:`~repro.obs.bench.
    compare_payloads` skips them), and
    the phase shares / per-instrument attached costs when present; drops
    raw samples and params — those
    stay in the committed ``BENCH_*.json`` files.
    """
    workloads = {}
    for name in sorted(payload.get("workloads", {})):
        metrics = payload["workloads"][name]
        entry = {"key": metrics.get("key"), "seconds": metrics.get("seconds")}
        for rate in _RATE_METRICS:
            if rate in metrics:
                entry[rate] = metrics[rate]
        if "peak_rss_kb" in metrics:
            entry["peak_rss_kb"] = metrics["peak_rss_kb"]
        for extra in ("phases", "attached"):
            if extra in metrics:
                entry[extra] = metrics[extra]
        workloads[name] = entry
    return {
        "kind": "perf-ledger-entry",
        "schema": LEDGER_SCHEMA,
        "label": payload.get("label", "?"),
        "created_unix": payload.get("created_unix", 0),
        "engine_version": payload.get("engine_version"),
        "host": payload.get("host", {}),
        "workloads": workloads,
    }


def read_ledger(path: Path | str) -> list[dict]:
    """Parse the ledger (torn final line tolerated, like manifests)."""
    path = Path(path)
    return read_jsonl(path) if path.exists() else []


def write_ledger(path: Path | str, entries: list[dict]) -> None:
    """Write *entries* sorted by ``(created_unix, label)``, atomically:
    a failed write leaves the previous ledger as it was."""
    ordered = sorted(
        entries, key=lambda e: (e.get("created_unix", 0), e.get("label", ""))
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(
        path, "".join(json.dumps(e, sort_keys=True) + "\n" for e in ordered)
    )


def ingest(
    payloads: list[dict], ledger_path: Path | str = DEFAULT_LEDGER
) -> tuple[int, int]:
    """Fold bench *payloads* into the ledger; ``(added, replaced)``.

    Idempotent: an already-ingested label is replaced by the newer
    payload rather than duplicated.
    """
    entries = read_ledger(ledger_path)
    by_label = {e.get("label"): e for e in entries}
    added = replaced = 0
    for payload in payloads:
        entry = ledger_entry(payload)
        if entry["label"] in by_label:
            replaced += 1
        else:
            added += 1
        by_label[entry["label"]] = entry
    write_ledger(ledger_path, list(by_label.values()))
    return added, replaced


# ----------------------------------------------------------------------
# Trajectory rendering
# ----------------------------------------------------------------------
def render_history(
    entries: list[dict],
    *,
    workload: str | None = None,
    metric: str | None = None,
) -> str:
    """The per-workload trajectory across ledger entries as ASCII."""
    if not entries:
        return "perf ledger is empty — ingest BENCH_*.json files first"
    ordered = sorted(
        entries, key=lambda e: (e.get("created_unix", 0), e.get("label", ""))
    )
    labels = [e.get("label", "?") for e in ordered]
    lines = [
        "perf ledger — "
        + ", ".join(
            f"{e.get('label', '?')} (engine v{e.get('engine_version', '?')})"
            for e in ordered
        )
    ]
    names = sorted({n for e in ordered for n in e.get("workloads", {})})
    widest_value = max(
        (
            len(f"{v:.0f}")
            for e in ordered
            for w in e.get("workloads", {}).values()
            for rate in _RATE_METRICS
            if (v := w.get(rate)) is not None
        ),
        default=1,
    )
    col = max([widest_value] + [len(label) for label in labels]) + 2
    header = f"{'workload':<26} {'metric':<18}" + "".join(
        f"{label:>{col}}" for label in labels
    )
    lines.append(header + "  trend")
    for name in names:
        if workload is not None and name != workload:
            continue
        for rate in _RATE_METRICS:
            if metric is not None and rate != metric:
                continue
            values = [
                e.get("workloads", {}).get(name, {}).get(rate)
                for e in ordered
            ]
            if not any(v is not None for v in values):
                continue
            cells = "".join(
                f"{v:>{col}.0f}" if v is not None else f"{'-':>{col}}"
                for v in values
            )
            present = [v for v in values if v is not None]
            trend = ""
            if len(present) >= 2 and present[-2]:
                delta = 100.0 * (present[-1] - present[-2]) / present[-2]
                trend = f"  ({delta:+.1f}% vs prev)"
            lines.append(
                f"{name:<26} {rate:<18}{cells}  "
                f"|{sparkline(values, missing='·')}|{trend}"
            )
    if len(lines) == 2:
        lines.append("(no matching workload/metric rows)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Gate with phase attribution
# ----------------------------------------------------------------------
def _phase_attribution(
    old_w: dict, new_w: dict, *, improved: bool = False
) -> str | None:
    """Name the phase whose wall-time share grew most, if recorded —
    or, for an *improved* row, every phase whose share fell by a point
    or more (largest fall first): the phases the saving came from."""
    old_p, new_p = old_w.get("phases"), new_w.get("phases")
    if not old_p or not new_p:
        return None
    shared = sorted(set(old_p) & set(new_p))
    if not shared:
        return None
    if improved:
        moved = sorted(
            (k for k in shared if old_p[k] - new_p[k] >= 0.01),
            key=lambda k: new_p[k] - old_p[k],
        )
    else:
        moved = [max(shared, key=lambda k: new_p[k] - old_p[k])]
    return ", ".join(
        f"phase {k}: share {100 * old_p[k]:.1f}% -> {100 * new_p[k]:.1f}%"
        for k in moved
    ) or "no phase's share fell by a point"


def gate_against_ledger(
    entries: list[dict],
    candidate: dict,
    *,
    baseline: str | None = None,
    max_regress: float = 0.15,
) -> tuple[list[dict], int, list[str]]:
    """Gate a fresh bench payload against a ledger baseline.

    Returns ``(rows, exit_code, messages)``: the ``compare_payloads``
    rows, its exit code (3 when the baseline label is missing), and
    human-readable messages — host-comparability warnings plus, for
    every regressed row, the workload, metric, delta, and the phase
    whose share grew the most (``(no phase data)`` for pre-profiler
    baselines, ledger labels pr3..pr5).  A row that *improved* by more
    than the same tolerance is named too, with the phases whose share
    fell, so a speed claim lands with the same attribution as a
    regression.
    """
    if baseline is not None:
        chosen = [e for e in entries if e.get("label") == baseline]
        if not chosen:
            have = ", ".join(sorted(e.get("label", "?") for e in entries))
            return [], 3, [
                f"baseline label {baseline!r} not in ledger (have: {have})"
            ]
        base = chosen[-1]
    else:
        if not entries:
            return [], 3, ["perf ledger is empty — nothing to gate against"]
        base = max(
            entries,
            key=lambda e: (e.get("created_unix", 0), e.get("label", "")),
        )
    messages = [
        f"gating against ledger entry {base.get('label', '?')!r} "
        f"(engine v{base.get('engine_version', '?')}) -> candidate "
        f"{candidate.get('label', '?')!r} "
        f"(engine v{candidate.get('engine_version', '?')})"
    ]
    messages.extend(host_warnings(base, candidate))
    rows, code = compare_payloads(base, candidate, max_regress=max_regress)
    base_w = base.get("workloads", {})
    cand_w = candidate.get("workloads", {})
    for row in rows:
        improved = row.get("delta_pct", 0.0) > 100.0 * max_regress
        if row["status"] != "REGRESSED" and not improved:
            continue
        attribution = _phase_attribution(
            base_w.get(row["workload"], {}), cand_w.get(row["workload"], {}),
            improved=improved,
        ) or "(no phase data)"
        messages.append(
            f"{'IMPROVED' if improved else 'REGRESSED'}: workload "
            f"{row['workload']}, metric {row['metric']}, "
            f"{row['delta_pct']:+.1f}% — {attribution}"
        )
    return rows, code, messages
