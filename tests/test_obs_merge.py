"""Snapshot/merge semantics of the telemetry registry, and the
workers=N determinism guarantee the distribution protocol rests on.

Equality caveat (by design): ``last_cycle`` watermarks are *not* part of
the guarantee.  A sequential registry keeps the chronologically-last
update per instrument while a parent merging worker snapshots takes the
max, so only the **values** are compared — see ``values_view``.
"""

import json

import pytest

from repro.campaigns import CampaignDB, CampaignSpec, run_campaign
from repro.experiments.fig_sweep import run_sweep
from repro.experiments.profiles import SMOKE_PROFILE
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    LabeledCounter,
    TelemetryRegistry,
)
from repro.simulator.config import SimConfig


def values_view(registry: TelemetryRegistry) -> dict:
    """Order-independent comparison view: no gauges, no last_cycle."""
    return {
        name: {k: v for k, v in payload.items() if k != "last_cycle"}
        for name, payload in registry.snapshot().items()
        if payload["type"] != "gauge"
    }


# ----------------------------------------------------------------------
# Instrument-level merge
# ----------------------------------------------------------------------
def test_counter_merge_sums():
    a, b = Counter("x"), Counter("x")
    a.inc(5, 3)
    b.inc(9, 4)
    a.merge(b.snapshot())
    assert a.value == 7
    assert a.last_cycle == 9


def test_gauge_merge_takes_latest_cycle():
    a, b = Gauge("x"), Gauge("x")
    a.set(10, 111)
    b.set(4, 999)
    a.merge(b.snapshot())
    assert (a.value, a.last_cycle) == (111, 10)  # kept its later stamp


def test_gauge_merge_tie_takes_larger_value():
    a, b = Gauge("x"), Gauge("x")
    a.set(10, 3)
    b.set(10, 8)
    a.merge(b.snapshot())
    assert a.value == 8


def test_histogram_merge_bucketwise():
    a = Histogram("lat", bounds=(10, 100))
    b = Histogram("lat", bounds=(10, 100))
    a.observe(1, 5)
    b.observe(1, 50)
    b.observe(1, 500)
    a.merge(b.snapshot())
    assert a.total == 3
    assert a.counts == [1, 1, 1]


def test_histogram_merge_rejects_different_bounds():
    a = Histogram("lat", bounds=(10, 100))
    b = Histogram("lat", bounds=(10, 200))
    with pytest.raises(ValueError, match="bounds"):
        a.merge(b.snapshot())


def test_labeled_counter_basic():
    c = LabeledCounter("hops", 4)
    c.inc(1, 2)
    c.inc(3, 2, 5)
    c.inc(3, 0)
    assert c.values == [1, 0, 6, 0]
    assert c.value == 7
    snap = c.snapshot()
    assert snap["type"] == "labeled_counter"
    assert snap["values"] == [1, 0, 6, 0]


def test_labeled_counter_merge_slotwise():
    a, b = LabeledCounter("hops", 3), LabeledCounter("hops", 3)
    a.inc(1, 0)
    b.inc(2, 0, 2)
    b.inc(2, 2)
    a.merge(b.snapshot())
    assert a.values == [3, 0, 1]


def test_labeled_counter_merge_rejects_size_mismatch():
    a, b = LabeledCounter("hops", 3), LabeledCounter("hops", 4)
    with pytest.raises(ValueError, match="labels"):
        a.merge(b.snapshot())


# ----------------------------------------------------------------------
# Registry-level merge
# ----------------------------------------------------------------------
def _filled_registry(seed_cycle: int) -> TelemetryRegistry:
    r = TelemetryRegistry()
    r.counter("c").inc(seed_cycle, 2)
    r.gauge("g").set(seed_cycle, seed_cycle * 10)
    r.histogram("h", bounds=(10,)).observe(seed_cycle, seed_cycle)
    r.labeled_counter("lc", 3).inc(seed_cycle, seed_cycle % 3)
    return r


def test_registry_merge_creates_missing_instruments():
    parent = TelemetryRegistry()
    parent.merge(_filled_registry(5))
    assert parent.value("c") == 2
    assert parent.value("lc") == 1


def test_registry_merge_accepts_json_roundtripped_snapshot():
    parent = _filled_registry(1)
    snapshot = json.loads(json.dumps(_filled_registry(5).snapshot()))
    parent.merge(snapshot)
    assert parent.value("c") == 4
    assert parent.value("g") == 50  # cycle 5 beats cycle 1


def test_registry_merge_order_independent_values():
    ab = _filled_registry(1)
    ab.merge(_filled_registry(5))
    ba = _filled_registry(5)
    ba.merge(_filled_registry(1))
    assert values_view(ab) == values_view(ba)


def test_registry_merge_type_conflict_raises():
    parent = TelemetryRegistry()
    parent.counter("x")
    other = TelemetryRegistry()
    other.gauge("x")
    with pytest.raises(TypeError):
        parent.merge(other)


def test_digest_tracks_values():
    a, b = _filled_registry(3), _filled_registry(3)
    assert a.digest() == b.digest()
    b.counter("c").inc(9)
    assert a.digest() != b.digest()


def test_instrument_pool_safety():
    telemetry_only = Instrument(telemetry=TelemetryRegistry())
    assert isinstance(telemetry_only, Instrument)
    assert telemetry_only.pool_safe
    traced = Instrument(
        telemetry=TelemetryRegistry(), tracer=lambda *a: None
    )
    assert not traced.pool_safe


# ----------------------------------------------------------------------
# Distribution determinism: merged worker snapshots == sequential
# ----------------------------------------------------------------------
class TestWorkersMatchSequential:
    def test_fig_sweep_pool_merges_to_sequential_values(self):
        algs = ("nhop", "phop")
        seq_reg, par_reg = TelemetryRegistry(), TelemetryRegistry()
        seq = run_sweep(
            SMOKE_PROFILE, algs, workers=1,
            instrument=Instrument(telemetry=seq_reg),
        )
        par = run_sweep(
            SMOKE_PROFILE, algs, workers=2,
            instrument=Instrument(telemetry=par_reg),
        )
        assert par.throughput == seq.throughput
        assert par.latency == seq.latency
        assert values_view(par_reg) == values_view(seq_reg)
        assert par_reg.value("engine.node_flit_hops") > 0

    def test_campaign_workers4_merges_to_sequential_values(self, tmp_path):
        # The issue's acceptance case: a faulty 10x10 grid, 4 shards.
        spec = CampaignSpec(
            name="merge-determinism",
            algorithms=("nhop", "duato-nbc"),
            config=SimConfig(
                width=10, vcs_per_channel=24, message_length=4,
                cycles=400, warmup=100,
            ),
            rates=(0.02,),
            fault_counts=(10,),
            fault_sets=2,
        )
        assert spec.n_jobs == 4
        seq = run_campaign(
            CampaignDB(spec, tmp_path / "seq"), shards=1, telemetry=True
        )
        par = run_campaign(
            CampaignDB(spec, tmp_path / "par"), shards=4, telemetry=True
        )
        assert seq["executed"] == par["executed"] == 4
        assert par["store_digest"] == seq["store_digest"]
        # merge_digest is the order-independent values view, hashed.
        assert par["telemetry_digest"] == seq["telemetry_digest"] is not None
        # The faulty layout exercises the ring counters too.
        shard = tmp_path / "par" / "shards" / "shard-00" / "telemetry.json"
        assert any(
            name.startswith("engine.fring.")
            for name in json.loads(shard.read_text())
        )
