"""Serving CLI (`python -m repro.serve` + the `experiments serve`
passthrough): verbs, exit codes, output shapes."""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest
from conftest import build_serve_campaign

from repro.cli import usable_cpus
from repro.core.evaluator import ENGINE_VERSION
from repro.serve.cli import main


@pytest.fixture()
def root(serve_campaign):
    return str(serve_campaign.root)


class TestQueryVerb:
    def test_on_grid_human_line(self, root, capsys):
        rc = main(["query", root, "--algorithm", "nhop", "--rate", "0.01"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "latency" in out
        assert "tier=store" in out
        assert f"engine=v{ENGINE_VERSION}" in out

    def test_json_answer_carries_the_contract(self, root, capsys):
        rc = main([
            "query", root, "--algorithm", "nhop", "--rate", "0.015",
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"]["rate"] == 0.015
        answer = payload["answer"]
        assert answer["tier"] == "surrogate"
        assert answer["engine_version"] == ENGINE_VERSION
        assert {"value", "ci", "tier", "n_samples"} <= set(answer)

    def test_faulty_metric_query(self, root, capsys):
        rc = main([
            "query", root, "--algorithm", "duato-nbc", "--rate", "0.02",
            "--metric", "throughput", "--n-faults", "2",
        ])
        assert rc == 0
        assert "throughput" in capsys.readouterr().out

    def test_unresolved_exits_3_naming_refusals(self, root, capsys):
        rc = main([
            "query", root, "--algorithm", "nhop", "--rate", "0.9",
            "--metric", "throughput",
        ])
        err = capsys.readouterr().err
        assert rc == 3
        assert "unresolved" in err
        assert "simulation" in err  # refusals are spelled out per tier

    def test_bad_input_exits_2(self, root, capsys):
        rc = main([
            "query", root, "--algorithm", "nhop", "--rate", "-1",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_rate_exits_2(self, root, capsys, rate):
        rc = main([
            "query", root, "--algorithm", "nhop", "--rate", rate,
        ])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_missing_campaign_exits_2(self, tmp_path, capsys):
        rc = main([
            "query", str(tmp_path / "nope"),
            "--algorithm", "nhop", "--rate", "0.01",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestReliabilityVerb:
    def test_human_line(self, capsys):
        rc = main([
            "reliability", "--width", "10", "--failure-rate", "0.05",
            "--trials", "200", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "10x10 mesh" in out
        assert "P(connected)=" in out
        assert "trials=200 seed=7" in out

    def test_json_is_seed_reproducible(self, capsys):
        argv = [
            "reliability", "--width", "10", "--failure-rate", "0.05",
            "--trials", "200", "--seed", "7", "--json",
        ]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["ci_low"] <= first["p_connected"] <= first["ci_high"]

    def test_bad_rate_exits_2(self, capsys):
        rc = main([
            "reliability", "--width", "6", "--failure-rate", "1.5",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestDamagedCampaign:
    """Every verb that opens a campaign refuses a broken one the same
    way: exit 2, one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("argv, damaged", [
        pytest.param(
            ["serve", "query", "{root}", "--algorithm", "nhop",
             "--rate", "0.01"],
            True, id="serve-query",
        ),
        pytest.param(
            ["serve", "api", "{root}", "--port", "0"], True, id="serve-api"
        ),
        pytest.param(
            ["campaigns", "status", "{root}"], True, id="campaigns-status"
        ),
        pytest.param(
            ["campaigns", "query", "{root}", "--metrics", "bogus"],
            False, id="campaigns-query-unknown-metric",
        ),
    ])
    def test_refused_with_exit_2(self, serve_campaign, tmp_path, argv, damaged):
        root = tmp_path / "c"
        shutil.copytree(serve_campaign.root, root)
        if damaged:
            path = root / "campaign.json"
            text = path.read_text()
            path.write_text(text[: len(text) // 2])
        package, *rest = argv
        proc = subprocess.run(
            [sys.executable, "-m", f"repro.{package}",
             *(str(root) if a == "{root}" else a for a in rest)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def _banner_port(log: Path, server: subprocess.Popen) -> int:
    """The port a starting ``serve api`` names on stderr."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and server.poll() is None:
        match = re.search(r"on http://[^:]+:(\d+)", log.read_text())
        if match:
            return int(match.group(1))
        time.sleep(0.05)
    raise AssertionError(f"the server did not start: {log.read_text()}")


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="reads a process's children"
)
class TestApiVerb:
    def test_sigterm_stops_the_server_and_every_pool_worker(self, tmp_path):
        root = build_serve_campaign(tmp_path / "c").root
        log = tmp_path / "serve.log"
        with open(log, "w") as sink:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "api", str(root),
                 "--port", "0", "--simulate"],
                stdout=sink, stderr=sink, stdin=subprocess.DEVNULL,
            )
        try:
            port = _banner_port(log, server)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/query?algorithm=nhop&rate=0.05"
                "&metric=throughput", timeout=60,
            ) as reply:
                answer = json.loads(reply.read())["answer"]
            assert answer["tier"] == "simulation"
            assert answer["detail"]["cache"]["misses"] == 2
            workers = [
                int(pid)
                for children in Path(f"/proc/{server.pid}/task").glob(
                    "*/children")
                for pid in children.read_text().split()
            ]
            assert len(workers) == usable_cpus()
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=10) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert [pid for pid in workers if Path(f"/proc/{pid}").exists()] == []
        assert "Traceback" not in log.read_text()


class TestExperimentsPassthrough:
    def test_serve_verb_reaches_the_serving_cli(self, root, capsys):
        from repro.experiments.cli import main as experiments_main

        rc = experiments_main([
            "serve", "query", root, "--algorithm", "nhop",
            "--rate", "0.01",
        ])
        assert rc == 0
        assert "tier=store" in capsys.readouterr().out
