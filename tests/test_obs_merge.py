"""Snapshot/merge semantics of the telemetry registry, and the
workers=N determinism guarantee the distribution protocol rests on:
every instrument is a plain sum, so merged snapshots equal sequential
ones exactly.
"""

import json

import pytest

from repro.campaigns import CampaignDB, CampaignSpec, run_campaign
from repro.experiments.fig_sweep import run_sweep
from repro.experiments.profiles import SMOKE_PROFILE
from repro.obs.manifest import read_manifest
from repro.obs.telemetry import (
    Counter,
    Histogram,
    LabeledCounter,
    TelemetryRegistry,
)
from repro.simulator.config import SimConfig


# ----------------------------------------------------------------------
# Instrument-level merge
# ----------------------------------------------------------------------
def test_counter_merge_sums():
    a, b = Counter("x"), Counter("x")
    a.inc(3)
    b.inc(4)
    a.merge(b.snapshot())
    assert a.value == 7


def test_histogram_merge_bucketwise():
    a = Histogram("lat", bounds=(10, 100))
    b = Histogram("lat", bounds=(10, 100))
    a.observe(5)
    b.observe(50)
    b.observe(500)
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
    c.inc(2)
    c.inc(2, 5)
    c.inc(0)
    assert c.values == [1, 0, 6, 0]
    assert c.value == 7
    snap = c.snapshot()
    assert snap["type"] == "labeled_counter"
    assert snap["values"] == [1, 0, 6, 0]


def test_labeled_counter_merge_slotwise():
    a, b = LabeledCounter("hops", 3), LabeledCounter("hops", 3)
    a.inc(0)
    b.inc(0, 2)
    b.inc(2)
    a.merge(b.snapshot())
    assert a.values == [3, 0, 1]


def test_labeled_counter_merge_rejects_size_mismatch():
    a, b = LabeledCounter("hops", 3), LabeledCounter("hops", 4)
    with pytest.raises(ValueError, match="labels"):
        a.merge(b.snapshot())


# ----------------------------------------------------------------------
# Registry-level merge
# ----------------------------------------------------------------------
def _filled_registry(seed: int) -> TelemetryRegistry:
    r = TelemetryRegistry()
    r.counter("c").inc(2)
    r.histogram("h", bounds=(10,)).observe(seed)
    r.labeled_counter("lc", 3).inc(seed % 3)
    r.series("s", 4).add(seed)
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
    assert parent.get("h").counts == [2, 0]


def test_registry_merge_order_independent_values():
    ab = _filled_registry(1)
    ab.merge(_filled_registry(5))
    ba = _filled_registry(5)
    ba.merge(_filled_registry(1))
    assert ab.snapshot() == ba.snapshot()


def test_registry_merge_type_conflict_raises():
    parent = TelemetryRegistry()
    parent.counter("x")
    other = TelemetryRegistry()
    other.histogram("x")
    with pytest.raises(TypeError):
        parent.merge(other)


def test_digest_tracks_values():
    a, b = _filled_registry(3), _filled_registry(3)
    assert a.merge_digest() == b.merge_digest()
    b.counter("c").inc()
    assert a.merge_digest() != b.merge_digest()


# ----------------------------------------------------------------------
# Distribution determinism: merged worker snapshots == sequential
# ----------------------------------------------------------------------
class TestWorkersMatchSequential:
    def test_fig_sweep_pool_merges_to_sequential_values(self):
        # phop's saturated run ends with more flits in flight than nhop's:
        # a "latest value" instrument would keep nhop's in process and
        # phop's pooled.
        algs = ("phop", "nhop")
        seq_reg, par_reg = TelemetryRegistry(), TelemetryRegistry()
        seq = run_sweep(
            SMOKE_PROFILE, algs, workers=1,
            telemetry=seq_reg,
        )
        par = run_sweep(
            SMOKE_PROFILE, algs, workers=2,
            telemetry=par_reg,
        )
        assert par.throughput == seq.throughput
        assert par.latency == seq.latency
        assert par_reg.snapshot() == seq_reg.snapshot()
        assert par_reg.value("engine.node_flit_hops") > 0

    def test_campaign_workers4_merges_to_sequential_values(self, tmp_path):
        # A faulty 10x10 grid, in process and over 4 pool workers.
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
            CampaignDB(spec, tmp_path / "seq"), workers=1, telemetry=True
        )
        par = run_campaign(
            CampaignDB(spec, tmp_path / "par"), workers=4, telemetry=True
        )
        assert seq["executed"] == par["executed"] == 4
        assert par["store_digest"] == seq["store_digest"]
        # merge_digest hashes the snapshot, which is a sum of sums.
        assert par["telemetry_digest"] == seq["telemetry_digest"] is not None
        # The faulty layout exercises the rings too: the pooled run's
        # merged telemetry shows ring VCs busy.
        finish = read_manifest(tmp_path / "par" / "events.jsonl")[-1]
        assert finish["event"] == "run-finish"
        assert any(
            finish["telemetry_series"]["engine.series.vc_busy.ring"]["values"]
        )
