"""Observability for the simulation engine.

All opt-in and zero-cost when unused.  Every engine instrument is an
observer subscribed with ``Simulation.attach`` to the fixed event set
in :data:`repro.simulator.engine.EVENTS`:

* :mod:`repro.obs.telemetry` — counters, histograms and series, each
  a plain sum, in a
  :class:`~repro.obs.telemetry.TelemetryRegistry`
  (``sim.attach(EngineTelemetry(registry))``).
* :mod:`repro.obs.trace_export` — message-lifecycle traces (from an
  attached :class:`~repro.simulator.trace.Tracer`) exported as
  Chrome-trace JSON or JSONL, with deterministic 1-in-N sampling.
* :mod:`repro.obs.bench` — a headless pinned-workload perf harness
  (``python -m repro.obs bench``) writing ``BENCH_<label>.json``
  trajectories.
* :mod:`repro.obs.profile` — the engine phase profiler
  (``sim.attach(PhaseProfiler())``; ``python -m repro.obs profile``):
  per-phase wall-time shares and activity attribution, bit-identical
  to a detached run.  Also home of the project's sanctioned monotonic
  timer ``clock`` (lint rule REP016).
* :mod:`repro.obs.history` — the perf ledger
  (``tools/perf_ledger.jsonl``; ``python -m repro.obs history``):
  committed ``BENCH_*.json`` files as a per-workload time series with
  a phase-attributing regression gate (``history --gate``).
* :mod:`repro.obs.spans` — cross-layer trace spans (``python -m
  repro.obs spans``): clock-stamped, outside the simulator only,
  deterministic ids, explicit context propagation,
  partition-independent merge + digest.
* :mod:`repro.obs.blame` — per-message latency blame
  (``sim.attach(BlameRecorder())``; ``python -m repro.obs blame``):
  decomposes each delivered message's latency into source-queue /
  header-blocked / route-compute / f-ring-detour / data-pipeline
  cycles, reconciled exactly against telemetry.

See ``docs/observability.md`` for the counter catalog and workflows.

The package re-exports lazily (PEP 562): a name is imported from its
submodule on first access, so ``from repro.obs.profile import clock`` in
a CLI that only reads a store does not load the bench harness, the
ledger or the exporters.
"""

from importlib import import_module


#: submodule -> the names this package re-exports from it.
_EXPORTS = {
    "blame": (
        "COMPONENTS", "BlameRecorder", "aggregate_blame", "blame_cell",
        "blame_csv", "blame_payload", "reconcile_blame",
        "render_blame_report", "top_slow", "write_blame_json",
    ),
    "bench": (
        "WORKLOADS", "Workload", "bench_key", "compare_payloads",
        "host_warnings", "parse_regress", "run_suite", "write_bench_file",
    ),
    "history": (
        "gate_against_ledger", "ingest", "ledger_entry", "read_ledger",
        "render_history", "write_ledger",
    ),
    "heatmap": (
        "heatmap_csv", "node_surface", "render_node_heatmap", "surface_split",
    ),
    "manifest": (
        "ManifestWriter", "read_manifest", "render_report",
        "summarize_manifest",
    ),
    "profile": ("PHASE_NAMES", "PhaseProfiler", "clock", "render_profile"),
    "telemetry": (
        "Counter", "EngineTelemetry", "Histogram", "LabeledCounter",
        "Series", "TelemetryRegistry", "series_snapshot",
    ),
    "spans": (
        "SpanRecorder", "Trace", "make_span", "make_span_id",
        "merge_spans", "read_spans_jsonl",
        "render_waterfall", "spans_from_manifest", "spans_merge_digest",
        "trace_id_from", "write_spans_jsonl",
    ),
    "trace_export": (
        "chrome_trace", "jsonl_lines", "lifecycle_tracer",
        "spans_chrome_trace", "write_chrome_trace", "write_jsonl",
        "write_spans_trace", "write_trace",
    ),
}
_SUBMODULE_OF = {
    name: submodule for submodule, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_SUBMODULE_OF)


def __getattr__(name: str):
    submodule = _SUBMODULE_OF.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
