"""Query layer (`repro.campaigns.query`): dense labeled arrays over a
campaign, CI reduction, and CSV/JSON export."""

import csv
import io
import json
import math

import pytest

from repro.campaigns.db import CampaignDB
from repro.campaigns.query import (
    DIMS,
    METRICS,
    CampaignArray,
    MissingCellsError,
    query,
)
from repro.campaigns.shard import run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.simulator.config import SimConfig


@pytest.fixture(scope="module")
def completed(tmp_path_factory):
    """A small completed campaign with a repeat axis (2 repeats)."""
    spec = CampaignSpec(
        name="query-test",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(
            width=6, vcs_per_channel=24, message_length=4,
            cycles=300, warmup=100,
        ),
        rates=(0.01, 0.02),
        fault_counts=(0, 2),
        fault_sets=1,
        repeats=2,
    )
    db = CampaignDB(spec, tmp_path_factory.mktemp("query") / "c")
    run_campaign(db)
    return db


class TestDenseCoverage:
    def test_shape_covers_declared_space(self, completed):
        arr = query(completed)
        assert arr.dims == DIMS
        assert arr.shape == (2, 2, 2, 2)
        assert arr.coords["algorithm"] == ("nhop", "duato-nbc")
        assert arr.coords["rate"] == (0.01, 0.02)
        assert arr.coords["fault_case"] == ("f0/s0", "f2/s0")
        assert arr.coords["repeat"] == (0, 1)
        assert set(arr.values) == set(METRICS)

    def test_every_cell_is_finite(self, completed):
        arr = query(completed)
        for metric in METRICS:
            flat = [
                v
                for a in arr.values[metric]
                for r in a for c in r for v in c
            ]
            assert len(flat) == 16
            assert all(math.isfinite(v) for v in flat)

    def test_values_match_store_payloads(self, completed):
        from repro.util.serialization import result_from_dict

        arr = query(completed)
        cell = completed.cells()[0]
        result = result_from_dict(completed.store.get(cell["key"]))
        got = arr.sel(
            "latency",
            algorithm=cell["algorithm"],
            rate=cell["rate"],
            fault_case=cell["fault_case"],
            repeat=cell["repeat"],
        )
        assert got == pytest.approx(result.avg_latency)

    def test_partial_sel_returns_nested_block(self, completed):
        arr = query(completed)
        block = arr.sel("throughput", algorithm="nhop")
        assert len(block) == 2 and len(block[0]) == 2

    def test_metric_selection(self, completed):
        arr = query(completed, metrics=("avg_hops", "delivered"))
        assert set(arr.values) == {"avg_hops", "delivered"}

    def test_dropped_sums_deadlock_and_livelock_drops(self, tmp_path):
        """A short deadlock timeout at heavy load drains messages: the
        ``dropped`` metric (Figs. 4/5) is both drop counters, per cell."""
        from repro.util.serialization import result_from_dict

        spec = CampaignSpec(
            name="dropping",
            algorithms=("nhop",),
            config=SimConfig(
                width=6, vcs_per_channel=24, message_length=16,
                cycles=600, warmup=100, on_deadlock="drain",
                deadlock_timeout=40,
            ),
            rates=(0.1,),
            fault_counts=(5,),
        )
        db = CampaignDB(spec, tmp_path)
        run_campaign(db)
        (cell,) = db.cells()
        result = result_from_dict(db.store.get(cell["key"]))
        dropped = query(db, metrics=("dropped",)).values["dropped"]
        assert dropped == [[[[
            float(result.dropped_deadlock + result.dropped_livelock)
        ]]]]
        assert dropped[0][0][0][0] > 0

    def test_dropped_is_the_sum_of_its_split_cell_by_cell(self, tmp_path):
        """A faulty 4-cell campaign tight enough to drain both ways: the
        watchdog (short timeout) and the hop cap (``max_hops_factor``)."""
        spec = CampaignSpec(
            name="drop-split",
            algorithms=("nhop", "fully-adaptive"),
            config=SimConfig(
                width=6, vcs_per_channel=24, message_length=16,
                cycles=600, warmup=100, on_deadlock="drain",
                deadlock_timeout=40, max_hops_factor=1,
            ),
            rates=(0.05, 0.1),
            fault_counts=(5,),
        )
        db = CampaignDB(spec, tmp_path)
        run_campaign(db)
        split = ("dropped", "dropped_deadlock", "dropped_livelock")
        arr = query(db, metrics=split)
        cells = [
            tuple(arr.sel(m, algorithm=c["algorithm"], rate=c["rate"],
                          fault_case=c["fault_case"], repeat=c["repeat"])
                  for m in split)
            for c in db.cells()
        ]
        assert len(cells) == 4
        for dropped, deadlock, livelock in cells:
            assert dropped == deadlock + livelock
        assert sum(d for _, d, _ in cells) > 0
        assert sum(l for _, _, l in cells) > 0

    def test_unknown_metric_rejected(self, completed):
        with pytest.raises(ValueError, match="unknown metric"):
            query(completed, metrics=("latency", "flux"))


class TestMissingCells:
    def test_incomplete_campaign_raises_with_ids(self, tmp_path):
        spec = CampaignSpec(
            name="gap",
            algorithms=("nhop",),
            config=SimConfig(
                width=6, vcs_per_channel=24, message_length=4,
                cycles=200, warmup=50,
            ),
            rates=(0.01, 0.02),
        )
        db = CampaignDB(spec, tmp_path / "c")
        with pytest.raises(MissingCellsError) as err:
            query(db)
        assert sorted(err.value.missing_ids) == sorted(
            c["id"] for c in db.cells()
        )

    def test_allow_missing_yields_nan_holes(self, tmp_path):
        spec = CampaignSpec(
            name="gap",
            algorithms=("nhop",),
            config=SimConfig(
                width=6, vcs_per_channel=24, message_length=4,
                cycles=200, warmup=50,
            ),
            rates=(0.01, 0.02),
        )
        db = CampaignDB(spec, tmp_path / "c")
        arr = query(db, allow_missing=True)
        assert arr.shape == (1, 2, 1, 1)
        assert all(
            math.isnan(arr.values["latency"][0][ir][0][0])
            for ir in range(2)
        )


class TestReduce:
    def test_reduce_drops_repeat_axis(self, completed):
        red = query(completed).reduce("latency")
        assert red["dims"] == DIMS[:3]
        assert len(red["mean"]) == 2
        assert len(red["mean"][0]) == 2
        assert len(red["mean"][0][0]) == 2
        for a in red["mean"]:
            for r in a:
                for v in r:
                    assert math.isfinite(v)

    def test_reduce_mean_matches_hand_average(self, completed):
        arr = query(completed)
        red = arr.reduce("latency")
        repeats = arr.values["latency"][0][0][0]
        assert red["mean"][0][0][0] == pytest.approx(
            sum(repeats) / len(repeats)
        )

    def test_ci_single_repeat_is_nan(self):
        arr = CampaignArray(
            "mini",
            {
                "algorithm": ("a",), "rate": (0.01,),
                "fault_case": ("f0/s0",), "repeat": (0,),
            },
            {"latency": [[[[5.0]]]]},
        )
        red = arr.reduce("latency")
        assert red["mean"][0][0][0] == 5.0
        assert math.isnan(red["ci95"][0][0][0])


class TestExport:
    def test_csv_long_format(self, completed, tmp_path):
        arr = query(completed)
        text = arr.to_csv(tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_text() == text
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(DIMS) + sorted(METRICS)
        assert len(rows) == 1 + 16
        assert rows[1][0] == "nhop"

    def test_csv_blank_for_nan(self):
        arr = CampaignArray(
            "mini",
            {
                "algorithm": ("a",), "rate": (0.01,),
                "fault_case": ("f0/s0",), "repeat": (0,),
            },
            {"latency": [[[[float("nan")]]]]},
        )
        rows = list(csv.reader(io.StringIO(arr.to_csv())))
        assert rows[1][-1] == ""

    def test_json_roundtrip_nan_as_null(self, completed, tmp_path):
        arr = query(completed)
        arr.values["latency"][0][0][0][0] = float("nan")
        text = arr.to_json(tmp_path / "out.json")
        payload = json.loads(text)  # strict JSON: would fail on NaN
        assert payload["kind"] == "campaign-array"
        assert payload["dims"] == list(DIMS)
        assert payload["values"]["latency"][0][0][0][0] is None
        assert payload["values"]["latency"][0][0][0][1] is not None
