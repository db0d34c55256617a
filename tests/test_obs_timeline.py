"""Windowed Series telemetry and the `obs timeline` surface.

The load-bearing guarantees:

* **Reconciliation** — window-summed series equal the engine's
  run-cumulative counters and `SimulationResult` aggregates exactly,
  fault-free and faulty (the series are fed from the same publish
  sites, so any drift is a bug).
* **Merge** — worker-shard and disjoint-segment merges both reduce to
  element-wise summation; merged values match a sequential registry.
"""

import json
import math
import random

import pytest

from repro.faults.generator import generate_block_fault_pattern
from repro.obs.telemetry import (
    EngineTelemetry,
    Series,
    TelemetryRegistry,
    series_snapshot,
)
from repro.obs.timeline import (
    LATENCY_MEAN_ROW,
    load_series,
    render_timeline,
    sparkline,
    timeline_csv,
    timeline_jsonl_lines,
    timeline_rows,
)
from repro.routing.budgets import ROLE_NAMES
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D


def _config(**overrides) -> SimConfig:
    base = dict(
        width=10,
        vcs_per_channel=24,
        message_length=8,
        injection_rate=0.02,
        cycles=1000,
        warmup=0,
        seed=11,
        on_deadlock="drain",
        collect_vc_stats=True,
        cycles_window=100,
    )
    base.update(overrides)
    return SimConfig(**base)


# ----------------------------------------------------------------------
# Series instrument
# ----------------------------------------------------------------------
def test_series_add_and_windows():
    s = Series("x", 10)
    s.add(3)
    s.add(9, 2)
    s.add(25)
    assert s.values == [3, 0, 1]
    assert s.value == 4


def test_series_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        Series("x", 0)


def test_series_snapshot_shape():
    s = Series("x", 10)
    s.add(5, 2)
    assert s.snapshot() == {
        "type": "series",
        "window": 10,
        "values": [2],
    }


def test_series_merge_sums_elementwise():
    a, b = Series("x", 10), Series("x", 10)
    a.add(5, 2)
    b.add(5, 3)
    b.add(15)
    a.merge(b.snapshot())
    assert a.values == [5, 1]


def test_series_merge_extends_for_disjoint_segments():
    a, b = Series("x", 10), Series("x", 10)
    a.add(5)  # windows [1]
    b.add(35, 4)  # windows [0, 0, 0, 4]
    a.merge(b.snapshot())
    assert a.values == [1, 0, 0, 4]


def test_series_merge_rejects_window_mismatch():
    a, b = Series("x", 10), Series("x", 20)
    with pytest.raises(ValueError, match="window"):
        a.merge(b.snapshot())


def test_registry_series_accessor():
    reg = TelemetryRegistry()
    s = reg.series("a", 10)
    assert reg.series("a", 10) is s
    with pytest.raises(ValueError, match="window"):
        reg.series("a", 20)
    with pytest.raises(TypeError):
        reg.counter("a")


def test_series_snapshot_filters_to_series():
    reg = TelemetryRegistry()
    reg.counter("c").inc(1)
    reg.series("s", 10).add(5)
    only = series_snapshot(reg)
    assert set(only) == {"s"}
    # Also filters plain snapshot dicts (e.g. loaded from disk).
    assert set(series_snapshot(reg.snapshot())) == {"s"}


def test_registry_merge_creates_series():
    parent = TelemetryRegistry()
    child = TelemetryRegistry()
    child.series("s", 10).add(15, 3)
    parent.merge(json.loads(json.dumps(child.snapshot())))
    assert parent.value("s") == 3
    assert parent.get("s").window == 10


# ----------------------------------------------------------------------
# Reconciliation with counters and SimulationResult aggregates
# ----------------------------------------------------------------------
def _instrumented_run(config, n_faults=0, seed=4):
    mesh = Mesh2D(config.width, config.height)
    if n_faults:
        faults = generate_block_fault_pattern(
            mesh, n_faults, random.Random(seed)
        )
    else:
        faults = None
    reg = TelemetryRegistry()
    sim = Simulation(config, make_algorithm("duato-nbc"), faults=faults)
    sim.attach(EngineTelemetry(reg))
    return sim.run(), reg


def _assert_series_reconcile(result, reg):
    pairs = (
        ("engine.series.flits.ejected", "engine.flits.ejected"),
        ("engine.series.messages.delivered", "engine.messages.delivered"),
        (
            "engine.series.headers.blocked_cycles",
            "engine.headers.blocked_cycles",
        ),
    )
    for series_name, counter_name in pairs:
        assert reg.value(series_name) == reg.value(counter_name)
    assert reg.value("engine.series.flits.ejected") == result.delivered_flits
    assert reg.value("engine.series.messages.delivered") == result.delivered
    assert reg.value("engine.series.latency.sum") == result.latency_sum
    for role in ROLE_NAMES:
        assert reg.value(f"engine.series.vc_busy.{role}") == reg.value(
            f"engine.vc_busy.{role}"
        )
    busy = sum(reg.value(f"engine.series.vc_busy.{r}") for r in ROLE_NAMES)
    assert busy == sum(result.vc_busy)


def test_series_reconcile_fault_free_10x10():
    result, reg = _instrumented_run(_config())
    assert result.delivered > 0
    _assert_series_reconcile(result, reg)


def test_series_reconcile_5pct_faults_10x10():
    # 5 faulty nodes on the 10x10 mesh = the paper's 5% case.
    result, reg = _instrumented_run(_config(seed=7), n_faults=5)
    assert result.delivered > 0
    _assert_series_reconcile(result, reg)


def test_attaching_series_never_perturbs_results():
    plain = Simulation(_config(), make_algorithm("duato-nbc")).run()
    observed, _ = _instrumented_run(_config())
    assert observed.generated == plain.generated
    assert observed.delivered == plain.delivered
    assert observed.latency_sum == plain.latency_sum
    assert observed.vc_busy == plain.vc_busy


def test_worker_merged_series_match_sequential():
    """Two shards merged == one registry observing both runs."""
    cfg_a = _config(width=6, cycles=600, seed=21)
    cfg_b = _config(width=6, cycles=600, seed=22)
    sequential = TelemetryRegistry()
    for cfg in (cfg_a, cfg_b):
        sim = Simulation(cfg, make_algorithm("duato-nbc"))
        sim.attach(EngineTelemetry(sequential))
        sim.run()
    parent = TelemetryRegistry()
    for cfg in (cfg_a, cfg_b):
        shard = TelemetryRegistry()
        sim = Simulation(cfg, make_algorithm("duato-nbc"))
        sim.attach(EngineTelemetry(shard))
        sim.run()
        parent.merge(shard.snapshot())
    seq = series_snapshot(sequential)
    par = series_snapshot(parent)
    assert set(seq) == set(par)
    for name in seq:
        assert par[name]["values"] == seq[name]["values"], name


# ----------------------------------------------------------------------
# timeline rows / render / export
# ----------------------------------------------------------------------
def _small_registry() -> TelemetryRegistry:
    reg = TelemetryRegistry()
    lat = reg.series("engine.series.latency.sum", 10)
    cnt = reg.series("engine.series.messages.delivered", 10)
    ej = reg.series("engine.series.flits.ejected", 10)
    for cycle, latency in ((5, 20), (15, 30), (16, 50)):
        lat.add(cycle, latency)
        cnt.add(cycle)
        ej.add(cycle, 4)
    ej.add(35, 4)  # a window with deliveries absent -> NaN latency.mean
    return reg


def test_timeline_rows_derive_latency_mean():
    window, rows = timeline_rows(_small_registry())
    assert window == 10
    assert rows["latency.sum"] == [20, 80, 0, 0]
    assert rows["messages.delivered"] == [1, 2, 0, 0]
    mean = rows[LATENCY_MEAN_ROW]
    assert mean[0] == 20 and mean[1] == 40
    assert math.isnan(mean[2]) and math.isnan(mean[3])


def test_timeline_rows_reject_empty_and_mixed_windows():
    with pytest.raises(ValueError, match="no series"):
        timeline_rows(TelemetryRegistry())
    reg = TelemetryRegistry()
    reg.series("a", 10).add(1)
    reg.series("b", 20).add(1)
    with pytest.raises(ValueError, match="mixed"):
        timeline_rows(reg)


def test_sparkline_scaling_and_nan():
    assert sparkline([0, 4, 8]) == " ▄█"
    assert sparkline([float("nan"), 8]) == ".█"
    assert sparkline([0, 0]) == "  "


def test_render_timeline_mentions_every_row():
    out = render_timeline(_small_registry())
    assert "4 windows x 10 cycles" in out
    for row in ("latency.sum", "messages.delivered", LATENCY_MEAN_ROW):
        assert row in out
    assert "saturation onset" in out
    assert render_timeline(
        _small_registry(), annotate=False
    ).count("saturation") == 0


def test_timeline_csv_and_jsonl_align():
    csv = timeline_csv(_small_registry())
    header, first = csv.splitlines()[:2]
    assert header.startswith("window_start,")
    assert first.startswith("0,")
    lines = timeline_jsonl_lines(_small_registry())
    records = [json.loads(line) for line in lines]
    assert [r["window_start"] for r in records] == [0, 10, 20, 30]
    assert records[2][LATENCY_MEAN_ROW] is None  # NaN -> null


# ----------------------------------------------------------------------
# Loading from disk
# ----------------------------------------------------------------------
def test_load_series_from_manifest_jsonl(tmp_path):
    series = series_snapshot(_small_registry())
    path = tmp_path / "events.jsonl"
    events = [
        {"event": "run-start", "label": "x"},
        {"event": "run-finish", "status": "ok"},  # older, no series
        {"event": "run-finish", "status": "ok", "telemetry_series": series},
    ]
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    assert load_series(path) == series
    window, rows = timeline_rows(load_series(path))
    assert window == 10 and "latency.sum" in rows


def test_load_series_from_snapshot_json(tmp_path):
    reg = _small_registry()
    reg.counter("engine.noise").inc(1)  # must be filtered out
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(reg.snapshot()))
    loaded = load_series(path)
    assert set(loaded) == set(series_snapshot(reg))


def test_load_series_manifest_without_series_raises(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps({"event": "run-finish"}) + "\n")
    with pytest.raises(ValueError, match="telemetry_series"):
        load_series(path)


# ----------------------------------------------------------------------
# Saturation-onset annotation
# ----------------------------------------------------------------------
def test_series_onset_detects_knee():
    from repro.metrics.saturation import series_onset

    flat = [20.0] * 5
    onset = series_onset(50, flat + [200.0, 400.0])
    assert onset is not None
    assert onset.rate == 5 * 50  # start cycle of the first hot window
    assert series_onset(50, flat) is None


def test_series_onset_skips_leading_nan_windows():
    from repro.metrics.saturation import series_onset

    nan = float("nan")
    onset = series_onset(50, [nan, nan, 20.0, 21.0, 20.0, 300.0])
    assert onset is not None and onset.rate == 5 * 50
