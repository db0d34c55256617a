"""Shard-and-merge executor (`repro.campaigns.shard`): the sequential
run is the reference; the sharded run must reproduce it exactly —
bit-identical store contents, equal query arrays, equal merged
telemetry digests (satellite proof-of-equality for PR 6)."""

import filecmp

import pytest

from repro.campaigns.db import CampaignDB
from repro.campaigns.query import query
from repro.campaigns.shard import (
    merge_shards,
    partition_cells,
    run_campaign,
    run_shard,
)
from repro.campaigns.spec import CampaignSpec
from repro.obs.manifest import read_manifest
from repro.obs.spans import merge_spans, spans_from_manifest, spans_merge_digest
from repro.obs.telemetry import TelemetryRegistry
from repro.simulator.config import SimConfig


def faulty_spec(**overrides) -> CampaignSpec:
    """A faulty 8x8 campaign, small enough to simulate in-test."""
    fields = dict(
        name="shard-eq",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(
            width=8, vcs_per_channel=24, message_length=4,
            cycles=300, warmup=100,
        ),
        rates=(0.01, 0.02),
        fault_counts=(0, 3),
        fault_sets=2,
        repeats=1,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestPartition:
    def test_round_robin_deterministic(self):
        cells = [{"i": i} for i in range(7)]
        parts = partition_cells(cells, 3)
        assert parts == [
            [{"i": 0}, {"i": 3}, {"i": 6}],
            [{"i": 1}, {"i": 4}],
            [{"i": 2}, {"i": 5}],
        ]

    def test_keeps_empty_shards(self):
        parts = partition_cells([{"i": 0}], 3)
        assert parts == [[{"i": 0}], [], []]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            partition_cells([], 0)


class TestShardEquality:
    """The acceptance case: 1 shard vs 3 shards, same campaign."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("shard-eq")
        spec = faulty_spec()
        seq_db = CampaignDB(spec, tmp / "sequential")
        seq = run_campaign(seq_db, telemetry=True)
        sharded_db = CampaignDB(spec, tmp / "sharded")
        sharded = run_campaign(sharded_db, shards=3, telemetry=True)
        return tmp, seq_db, seq, sharded_db, sharded

    def test_all_cells_executed(self, runs):
        _, seq_db, seq, sharded_db, sharded = runs
        assert seq["executed"] == seq_db.spec.n_jobs == 12
        assert sharded["merged_rows"] == 12
        assert not seq_db.plan().missing
        assert not sharded_db.plan().missing

    def test_store_contents_bit_identical(self, runs):
        tmp, seq_db, seq, sharded_db, sharded = runs
        assert seq["store_digest"] == sharded["store_digest"]
        seq_db.store.export(tmp / "seq.jsonl")
        sharded_db.store.export(tmp / "sharded.jsonl")
        assert filecmp.cmp(
            tmp / "seq.jsonl", tmp / "sharded.jsonl", shallow=False
        )

    def test_query_arrays_identical(self, runs):
        _, seq_db, _, sharded_db, _ = runs
        a = query(seq_db)
        b = query(sharded_db)
        assert a.coords == b.coords
        assert a.values == b.values

    def test_merged_telemetry_digest_matches_sequential(self, runs):
        _, _, seq, _, sharded = runs
        assert seq["telemetry_digest"] is not None
        assert seq["telemetry_digest"] == sharded["telemetry_digest"]

    def test_merged_span_digest_matches_sequential(self, runs):
        """Cell spans land in shard manifests, merge back into the
        campaign manifest, and digest identically to a sequential run
        (span ids are position-derived, so sharding cannot move them)."""
        _, seq_db, seq, sharded_db, sharded = runs
        assert seq["span_digest"] is not None
        assert seq["span_digest"] == sharded["span_digest"]
        for db in (seq_db, sharded_db):
            spans = spans_from_manifest(list(read_manifest(db.events_path)))
            assert spans_merge_digest(merge_spans(spans)) == seq["span_digest"]
            names = {s["name"] for s in spans}
            assert names == {"campaign", "cell"}
            assert sum(1 for s in spans if s["name"] == "cell") == 12

    def test_shard_layout_on_disk(self, runs):
        _, _, _, sharded_db, _ = runs
        roots = sorted(sharded_db.shards_root.iterdir())
        assert [p.name for p in roots] == [
            "shard-00", "shard-01", "shard-02",
        ]
        for root in roots:
            assert (root / "store" / "rows.jsonl").exists()
            assert (root / "events.jsonl").exists()
            assert (root / "telemetry.json").exists()


class TestRunShard:
    def test_shard_is_self_contained(self, tmp_path):
        spec = faulty_spec(
            rates=(0.01,), fault_counts=(0,), fault_sets=1
        )
        db = CampaignDB(spec, tmp_path / "c")
        coords = db.missing_coords()[:1]
        summary = run_shard(
            spec, coords, tmp_path / "s0", with_telemetry=True
        )
        assert summary["executed"] == summary["store_rows"] == 1
        assert summary["cells"][0]["cycles"] > 0
        # Nothing leaked into the campaign store.
        assert len(db.store) == 0

    def test_merge_is_idempotent(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0")
        first = merge_shards(db, [tmp_path / "s0"])
        again = merge_shards(db, [tmp_path / "s0"])
        assert first["merged_rows"] == 2
        assert again["merged_rows"] == 0  # dedup by key
        assert first["store_digest"] == again["store_digest"]

    def test_merge_refuses_a_root_without_a_store(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0")
        typo = tmp_path / "s-typo"
        with pytest.raises(ValueError, match="s-typo: not a shard directory"):
            merge_shards(db, [tmp_path / "s0", typo])
        # Fails closed: nothing created, merged or logged — not even
        # from the valid shard listed first.
        assert not typo.exists()
        assert len(db.store) == 0
        assert not db.events_path.exists()

    def test_merge_without_registry_skips_telemetry(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0",
                  with_telemetry=True)
        merge = merge_shards(db, [tmp_path / "s0"], registry=None)
        assert merge["telemetry_digest"] is None

    def test_merge_registry_sees_shard_snapshots(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0",
                  with_telemetry=True)
        registry = TelemetryRegistry()
        merge = merge_shards(db, [tmp_path / "s0"], registry=registry)
        assert merge["telemetry_digest"] == registry.merge_digest()
        assert registry.merge_view()  # non-empty: engine counters merged


class TestResume:
    def test_second_run_executes_nothing(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        first = run_campaign(db)
        second = run_campaign(db)
        assert first["executed"] == 2
        assert second["executed"] == 0
        assert second["already_done"] == 2
        assert first["store_digest"] == second["store_digest"]

    def test_sharded_resume_after_partial_sequential(self, tmp_path):
        """Finish a half-done campaign with shards; result still exact."""
        spec = faulty_spec(rates=(0.01, 0.02), fault_counts=(0,),
                           fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        # Complete half the cells sequentially via a throwaway campaign
        # sharing the store.
        half = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        run_campaign(CampaignDB(half, tmp_path / "h", store=db.store))
        plan = db.plan()
        assert plan.done == 2 and len(plan.missing) == 2
        summary = run_campaign(db, shards=2)
        assert summary["executed"] == 2
        assert not db.plan().missing
