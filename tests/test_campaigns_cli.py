"""Campaign CLI (`python -m repro.campaigns ...`) and the
`repro.experiments campaigns` passthrough."""

import json

import pytest

from repro.campaigns.cli import main
from repro.campaigns.db import CampaignDB
from repro.campaigns.spec import CampaignSpec
from repro.simulator.config import SimConfig


@pytest.fixture()
def spec_file(tmp_path):
    spec = CampaignSpec(
        name="cli-test",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(
            width=6, vcs_per_channel=24, message_length=4,
            cycles=300, warmup=100,
        ),
        rates=(0.01, 0.02),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_plan_binds_spec_and_lists_missing_keys(
        self, tmp_path, spec_file, capsys
    ):
        root = tmp_path / "c"
        code, out, _ = run_cli(
            capsys, "plan", root, "--spec", spec_file
        )
        assert code == 0
        assert "campaign 'cli-test': 0/4 cells stored, 4 missing" in out
        db = CampaignDB.open(root)  # --spec saved campaign.json
        for cell in db.cells():
            assert cell["key"] in out and cell["id"] in out

    def test_plan_json(self, tmp_path, spec_file, capsys):
        code, out, _ = run_cli(
            capsys, "plan", tmp_path / "c", "--spec", spec_file, "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "campaign-plan"
        assert payload["total"] == 4 and payload["done"] == 0

    def test_unbound_root_is_an_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "plan", tmp_path / "nowhere")
        assert code == 2
        assert "error:" in err


class TestRunStatusQuery:
    @pytest.fixture()
    def bound(self, tmp_path, spec_file, capsys):
        root = tmp_path / "c"
        run_cli(capsys, "plan", root, "--spec", spec_file)
        return root

    def test_full_lifecycle(self, bound, tmp_path, capsys):
        code, out, err = run_cli(capsys, "run", bound)
        assert code == 0
        summary = json.loads(out)
        assert summary["executed"] == 4
        assert "[cli-test]" in err  # per-cell progress on stderr

        code, out, _ = run_cli(capsys, "status", bound)
        assert code == 0
        assert "4/4 cells (100.0%)" in out
        assert "complete" in out
        assert "[####################]" in out

        code, out, _ = run_cli(capsys, "query", bound)
        assert code == 0
        header, *rows = out.splitlines()
        assert header.startswith("algorithm,rate,fault_case,repeat,")
        assert len(rows) == 4

    def test_run_quiet_and_resume(self, bound, capsys):
        code, _, err = run_cli(capsys, "run", bound, "--quiet")
        assert code == 0 and err == ""
        code, out, _ = run_cli(capsys, "run", bound, "--quiet")
        assert code == 0
        assert json.loads(out)["executed"] == 0

    def test_status_json_groups_and_eta(self, bound, capsys):
        run_cli(capsys, "run", bound, "--quiet")
        code, out, _ = run_cli(capsys, "status", bound, "--json")
        assert code == 0
        status = json.loads(out)
        assert status["missing"] == 0
        assert set(status["groups"]) == {"nhop", "duato-nbc", "f0/s0"}
        assert status["recent_cell_seconds"] > 0

    def test_status_eta_line_when_partially_done(
        self, tmp_path, spec_file, capsys
    ):
        root = tmp_path / "c"
        run_cli(capsys, "plan", root, "--spec", spec_file)
        # Complete half the space via a narrower campaign on one store.
        narrow = CampaignSpec.from_dict(
            json.loads(spec_file.read_text())
        )
        narrow = CampaignSpec(
            **{**narrow.__dict__, "rates": (0.01,), "name": "half"}
        )
        half_root = tmp_path / "half"
        half_spec = tmp_path / "half.json"
        half_spec.write_text(json.dumps(narrow.to_dict()))
        run_cli(
            capsys, "run", half_root, "--spec", half_spec,
            "--store", root / "store", "--quiet",
        )
        # The wider campaign has no manifest segment of its own yet.
        code, out, _ = run_cli(capsys, "status", root)
        assert code == 0
        assert "2/4 cells (50.0%)" in out
        assert "ETA: n/a" in out

    def test_query_incomplete_exits_2(self, bound, capsys):
        code, _, err = run_cli(capsys, "query", bound)
        assert code == 2
        assert "missing from the store" in err

    def test_query_allow_missing_and_exports(
        self, bound, tmp_path, capsys
    ):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "query", bound, "--allow-missing",
            "--csv", csv_path, "--json", json_path,
        )
        assert code == 0
        assert csv_path.exists() and json_path.exists()
        assert f"wrote {csv_path}" in out
        payload = json.loads(json_path.read_text())
        assert payload["values"]["latency"][0][0][0][0] is None

    def test_query_reduce(self, bound, capsys):
        run_cli(capsys, "run", bound, "--quiet")
        code, out, _ = run_cli(
            capsys, "query", bound, "--reduce", "--metrics", "latency"
        )
        assert code == 0
        red = json.loads(out)
        assert red["latency"]["dims"] == ["algorithm", "rate", "fault_case"]


class TestPooledRun:
    def test_run_workers_matches_in_process(self, tmp_path, spec_file, capsys):
        summaries = []
        for workers in ("1", "2"):
            root = tmp_path / f"w{workers}"
            code, out, _ = run_cli(
                capsys, "run", root, "--spec", spec_file,
                "--workers", workers, "--telemetry", "--quiet",
            )
            assert code == 0
            summaries.append(json.loads(out))
        seq, pooled = summaries
        assert seq["workers"] == 1 and pooled["workers"] == 2
        assert seq["executed"] == pooled["executed"] == 4
        for digest in ("store_digest", "telemetry_digest", "span_digest"):
            assert seq[digest] == pooled[digest] is not None
        assert (tmp_path / "w1" / "store" / "rows.jsonl").read_bytes() == (
            tmp_path / "w2" / "store" / "rows.jsonl"
        ).read_bytes()
        assert not (tmp_path / "w2" / "shards").exists()


def _without(payload: dict, field: str) -> dict:
    return {k: v for k, v in payload.items() if k != field}


class TestHostileInput:
    """Every malformed input exits 2 with ``error: <file>: <reason>`` —
    never a traceback."""

    @pytest.mark.parametrize("mangle, reason", [
        pytest.param(
            lambda text: text[: len(text) // 2], "line 1 column",
            id="truncated",
        ),
        pytest.param(
            lambda text: "[1, 2]", "object has no attribute", id="not-an-object"
        ),
        pytest.param(
            lambda text: json.dumps(_without(json.loads(text), "config")),
            "missing field 'config'", id="no-config",
        ),
        pytest.param(
            lambda text: json.dumps({**json.loads(text), "kind": "other"}),
            "payload is not a campaign-spec", id="wrong-kind",
        ),
        pytest.param(
            lambda text: json.dumps({**json.loads(text), "rates": []}),
            "at least one injection rate", id="empty-rates",
        ),
        pytest.param(
            lambda text: json.dumps({
                **json.loads(text),
                "config": {**json.loads(text)["config"], "bogus": 1},
            }),
            "unexpected keyword argument 'bogus'", id="unknown-config-field",
        ),
    ])
    def test_malformed_spec(self, tmp_path, spec_file, capsys, mangle, reason):
        spec_file.write_text(mangle(spec_file.read_text()))
        root = tmp_path / "c"
        code, out, err = run_cli(capsys, "plan", root, "--spec", spec_file)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {spec_file}: ") and reason in err
        assert "Traceback" not in err
        assert not root.exists()  # nothing bound

    @pytest.mark.parametrize("mangle, reason", [
        pytest.param(
            lambda text: text[: len(text) // 2], "column", id="truncated"
        ),
        pytest.param(lambda text: "", "Expecting value", id="empty"),
        pytest.param(
            lambda text: json.dumps({**json.loads(text), "kind": "other"}),
            "not a campaign-db directory", id="wrong-kind",
        ),
        pytest.param(
            lambda text: json.dumps(_without(json.loads(text), "spec")),
            "missing field 'spec'", id="no-spec",
        ),
    ])
    @pytest.mark.parametrize("verb", ["plan", "run", "status", "query"])
    def test_damaged_campaign_json(
        self, tmp_path, spec_file, capsys, verb, mangle, reason
    ):
        root = tmp_path / "c"
        run_cli(capsys, "plan", root, "--spec", spec_file)
        path = root / "campaign.json"
        path.write_text(mangle(path.read_text()))
        code, out, err = run_cli(capsys, verb, root)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and reason in err

    @pytest.mark.parametrize("verb", ["plan", "run", "status", "query"])
    def test_recorded_store_gone(self, tmp_path, spec_file, capsys, verb):
        root = tmp_path / "c"
        run_cli(capsys, "plan", root, "--spec", spec_file)
        (root / "store").rename(tmp_path / "moved")
        code, out, err = run_cli(capsys, verb, root)
        assert code == 2 and out == ""
        assert err == f"error: {root / 'store'}: recorded store not found\n"
        assert not (root / "store").exists()  # nothing created
        code, out, _ = run_cli(
            capsys, "plan", root, "--store", tmp_path / "moved"
        )
        assert code == 0 and "0/4 cells stored" in out

    @pytest.mark.parametrize("workers", ["0", "-3", "two"])
    def test_worker_count_below_one_is_a_usage_error(
        self, tmp_path, spec_file, capsys, workers
    ):
        root = tmp_path / "c"
        code, out, err = run_cli(
            capsys, "run", root, "--spec", spec_file, "--workers", workers
        )
        assert code == 2 and out == ""
        assert err.startswith("error: argument --workers")
        assert not root.exists()  # refused before anything ran


class TestEntryPoints:
    def test_module_entry_point(self, tmp_path, spec_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.campaigns", "plan",
                str(tmp_path / "c"), "--spec", str(spec_file), "--json",
            ],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total"] == 4

    def test_experiments_cli_passthrough(self, tmp_path, spec_file, capsys):
        from repro.experiments.cli import main as experiments_main

        code = experiments_main(
            [
                "campaigns", "plan", str(tmp_path / "c"),
                "--spec", str(spec_file), "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total"] == 4

    @pytest.mark.parametrize("argv, reason", [
        (["campaign"], "unknown verb 'campaign'"),
        (["fig1", "--spec", "s.json"], "unrecognized arguments: --spec"),
    ])
    def test_experiments_cli_has_no_campaign_verb(self, capsys, argv, reason):
        """``campaigns run DIR --spec FILE`` is the one spelling."""
        from repro.experiments.cli import main as experiments_main

        assert experiments_main(argv) == 2
        assert reason in capsys.readouterr().err
