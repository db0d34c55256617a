"""CLI tests for ``python -m repro.verify`` and the experiments verb."""

import json

import pytest

from repro.verify.cli import main


class TestCheckVerb:
    def test_single_safe_algorithm_passes(self, capsys):
        rc = main(["check", "--algorithm", "duato", "--pattern", "fault-free"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_unsafe_algorithm_needs_counterexample(self, capsys):
        # fully-adaptive is declared deadlock_free=False; finding its
        # cycle *is* the pass condition (negative oracle).
        rc = main(["check", "--algorithm", "fully-adaptive", "--pattern", "fault-free"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "counterexample" in out

    def test_json_payload_shape(self, capsys):
        rc = main([
            "check", "--algorithm", "ecube", "--pattern", "corner-block", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        report = payload["algorithms"]["ecube"]["reports"][0]
        assert report["pattern"] == "corner-block"
        assert report["status"] == "ok"

    def test_no_selection_is_usage_error(self, capsys):
        assert main(["check"]) == 2

    def test_workers_matches_serial(self, capsys):
        """A pooled check returns the exact per-case reports of a serial
        one (order included: jobs are regrouped deterministically)."""
        argv = [
            "check", "--algorithm", "ecube", "--algorithm", "duato",
            "--pattern", "fault-free", "--pattern", "corner-block",
            "--json",
        ]
        rc_serial = main(argv)
        serial = json.loads(capsys.readouterr().out)
        rc_pooled = main(argv + ["--workers", "2"])
        pooled = json.loads(capsys.readouterr().out)
        assert rc_serial == rc_pooled == 0
        # elapsed differs between processes; everything else must match.
        for payload in (serial, pooled):
            for alg in payload["algorithms"].values():
                for report in alg["reports"]:
                    report.pop("elapsed", None)
        assert pooled == serial


    def test_pooled_check_reports_each_case_on_stderr(self, capsys):
        """``--workers 2`` prints one progress line per case on stderr,
        in case order, and the stdout of an in-process check."""
        argv = [
            "check", "--algorithm", "ecube", "--algorithm", "duato",
            "--pattern", "fault-free", "--pattern", "corner-block",
        ]
        assert main(argv + ["--workers", "1"]) == 0
        serial = capsys.readouterr()
        assert main(argv + ["--workers", "2"]) == 0
        pooled = capsys.readouterr()
        assert pooled.out == serial.out and serial.err == ""
        assert pooled.err.splitlines() == [
            "[check] ecube: done", "[check] ecube: done",
            "[check] duato: done", "[check] duato: done",
        ]


class TestLintVerb:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src/repro"]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("def f(a=[]):\n    pass\n")
        assert main(["lint", str(f)]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("def f(a=[]):\n    pass\n")
        main(["lint", str(f), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "REP001"

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main(["lint", str(tmp_path / "nope")]) == 2


class TestStateOverflowExit:
    """A case whose exploration overflows has no answer: exit 3 when
    nothing failed, 1 when something did."""

    @pytest.fixture
    def tiny_budget(self, monkeypatch):
        from functools import partial

        import repro.verify.cli as cli

        monkeypatch.setattr(cli, "CdgChecker", partial(cli.CdgChecker, max_states=50))

    def test_check_exits_3_on_unknown(self, tiny_budget, capsys):
        rc = main(["check", "--algorithm", "phop", "--pattern", "center-block"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "UNKNOWN  phop" in out and "unknown" in out

    def test_check_json_marks_unknown(self, tiny_budget, capsys):
        rc = main([
            "check", "--algorithm", "phop", "--pattern", "center-block", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 3 and payload["ok"] is False
        verdict = payload["algorithms"]["phop"]
        assert verdict["verdict"] == "unknown" and verdict["passed"] is False

    def test_a_failure_still_exits_1(self, tiny_budget, capsys, monkeypatch):
        import repro.verify.cli as cli
        from repro.verify.cdg import Violation

        real = cli._check_job

        def job(case):  # nhop's case also breaks an invariant
            name, pname, report = real(case)
            if name == "nhop":
                report.violations.append(Violation("tier-shape", 0, 0, 1, "x"))
            return name, pname, report

        monkeypatch.setattr(cli, "_check_job", job)
        rc = main([
            "check", "--algorithm", "phop", "--algorithm", "nhop",
            "--pattern", "center-block",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "UNKNOWN  phop" in out and "FAIL  nhop" in out

    def test_cdg_exits_3_on_unknown(self, tiny_budget, capsys):
        rc = main(["cdg", "--algorithm", "phop", "--pattern", "center-block"])
        assert rc == 3
        assert "unknown" in capsys.readouterr().out


class TestCdgVerb:
    def test_dumps_cycle_for_unsafe_algorithm(self, capsys):
        rc = main([
            "cdg", "--algorithm", "fully-adaptive", "--pattern", "fault-free",
        ])
        out = capsys.readouterr().out
        assert rc == 1  # a pure cycle is a failing status for cdg
        assert "cycle:" in out

    def test_json_includes_edges_on_request(self, capsys):
        rc = main([
            "cdg", "--algorithm", "ecube", "--pattern", "fault-free",
            "--json", "--edges",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["status"] == "ok"
        assert payload["cdg_edges"], "fault-free e-cube still has CDG edges"
        (a, b) = payload["cdg_edges"][0]
        assert len(a) == 3 and len(b) == 3


class TestDriftVerb:
    def test_advisory_default_lock_is_clean(self, capsys):
        """The committed lock must match the tree (the CI gate)."""
        rc = main(["drift"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok" in out

    def test_pin_then_require_round_trip(self, tmp_path, capsys):
        lock = tmp_path / "lock.json"
        assert main(["drift", "--pin", "--lock", str(lock)]) == 0
        assert lock.exists()
        assert main(["drift", "--require", "--lock", str(lock)]) == 0

    def test_unpinned_require_fails_and_self_pins(self, tmp_path, capsys):
        lock = tmp_path / "lock.json"
        rc = main(["drift", "--require", "--lock", str(lock)])
        out = capsys.readouterr().out
        assert rc == 1
        assert lock.exists(), "self-pin writes the lock artifact"
        assert "unpinned" in out

    def test_stale_lock_fails_require(self, tmp_path, capsys):
        from repro.verify.drift import compute_state, write_lock

        state = dict(compute_state())
        state["digest"] = "0" * 64
        state["files"] = dict(state["files"])
        first = sorted(state["files"])[0]
        state["files"][first] = "0" * 64
        lock = tmp_path / "lock.json"
        write_lock(state, lock)
        rc = main(["drift", "--require", "--lock", str(lock)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_json_payload_shape(self, tmp_path, capsys):
        lock = tmp_path / "lock.json"
        main(["drift", "--pin", "--lock", str(lock)])
        capsys.readouterr()
        rc = main(["drift", "--require", "--lock", str(lock), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["exit"] == 0
        report = payload["report"]
        assert report["status"] == "ok"
        assert report["locked_version"] == report["current_version"]


class TestBrokenPipeTolerance:
    """`verify ... | head` must exit 0, matching the campaigns CLI.

    Run in a subprocess: the handler redirects the process's stdout fd
    to devnull, which would destroy pytest's capture if run in-process.
    """

    def _run(self, child_source: str) -> int:
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        return subprocess.run(
            [sys.executable, "-c", child_source], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode

    def _raising(self, module: str, argv: list[str]) -> int:
        """``module.main(argv)`` with every verb raising BrokenPipeError."""
        return self._run(
            "import dataclasses\n"
            f"import {module} as cli\n"
            "def raiser(args):\n"
            "    raise BrokenPipeError\n"
            "cli.VERBS = tuple(dataclasses.replace(v, run=raiser)\n"
            "                  for v in cli.VERBS)\n"
            f"raise SystemExit(cli.main({argv!r}))\n"
        )

    def test_verify_cli_swallows_broken_pipe(self):
        assert self._raising("repro.verify.cli", ["lint"]) == 0

    def test_store_cli_swallows_broken_pipe(self, tmp_path):
        assert self._raising(
            "repro.store.cli", ["ls", "--store", str(tmp_path)]
        ) == 0

    def test_obs_cli_swallows_broken_pipe(self):
        assert self._raising("repro.obs.cli", ["history"]) == 0


class TestExperimentsPassthrough:
    def test_verify_verb_reaches_cli(self, capsys):
        from repro.experiments.cli import main as experiments_main

        rc = experiments_main(["verify", "lint", "src/repro"])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out
