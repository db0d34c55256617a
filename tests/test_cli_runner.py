"""The one command-line runner (:mod:`repro.cli`) behind all six front
ends, driven the way a shell drives it: a fresh interpreter per command
line.  Hostile input is one ``error:`` line and exit 2, never a
traceback; a reader that closes stdout early costs nothing but output."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
REPO = SRC.parent

SPEC = {
    "kind": "campaign-spec", "schema": 1, "name": "runner",
    "algorithms": ["nhop", "duato-nbc"],
    "config": {"kind": "sim-config", "schema": 1, "width": 6,
               "vcs_per_channel": 24, "message_length": 4,
               "cycles": 300, "warmup": 100},
    "rates": [0.01, 0.02], "seed": 2007,
}


def front_end(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``python -m repro.<argv[0]> argv[1:]`` from the repository root."""
    return subprocess.run(
        [sys.executable, "-m", f"repro.{argv[0]}", *argv[1:]],
        cwd=REPO, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)}, **kwargs,
    )


@pytest.fixture()
def paths(tmp_path) -> dict[str, str]:
    """``{FILE}`` a regular file, ``{MISSING}`` a path that does not exist."""
    regular = tmp_path / "regular"
    regular.write_text("not a directory\n")
    return {"{FILE}": str(regular), "{MISSING}": str(tmp_path / "nope")}


HOSTILE = {
    "experiments-unknown-algorithm": [
        "experiments", "fig1", "--profile", "smoke", "--algorithms", "bogus"],
    "experiments-unknown-algorithm-pooled": [
        "experiments", "fig1", "--profile", "smoke", "--algorithms", "bogus",
        "--workers", "2"],
    "verify-check-unknown-algorithm": [
        "verify", "check", "--algorithm", "bogus"],
    "verify-cdg-mesh-too-small": [
        "verify", "cdg", "--algorithm", "nhop", "--width", "0"],
    "store-on-a-regular-file": [
        "experiments", "store", "ls", "--store", "{FILE}"],
    "campaigns-status-missing-dir": ["campaigns", "status", "{MISSING}"],
    "serve-query-missing-dir": [
        "serve", "query", "{MISSING}", "--algorithm", "nhop", "--rate",
        "0.01"],
    "obs-unknown-algorithm": ["obs", "smoke", "--algorithm", "bogus"],
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_is_one_error_line(case, paths):
    argv = [paths.get(arg, arg) for arg in HOSTILE[case]]
    proc = front_end(argv, capture_output=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert lines[0][len("error: "):].strip()


def test_an_error_out_of_a_running_verb_keeps_its_traceback():
    """Only a refusal is turned into a line: anything else a verb raises
    is a bug and surfaces as one."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import dataclasses\n"
         "import repro.verify.cli as cli\n"
         "def boom(args):\n"
         "    raise RuntimeError('boom')\n"
         "cli.VERBS = tuple(dataclasses.replace(v, run=boom)\n"
         "                  for v in cli.VERBS)\n"
         "raise SystemExit(cli.main(['lint']))\n"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "RuntimeError: boom" in proc.stderr


#: One long read-only output per front end.
PIPED = {
    "experiments": ["experiments", "budgets", "--quiet"],
    "campaigns": ["campaigns", "plan", "{CAMPAIGN}"],
    "serve": ["serve", "reliability", "--width", "4", "--failure-rate",
              "0.1", "--trials", "10", "--json"],
    "verify": ["verify", "cdg", "--algorithm", "ecube", "--edges"],
    "store": ["experiments", "store", "ls", "--store", "{STORE}"],
    "obs": ["obs", "history"],
}


@pytest.mark.parametrize("name", sorted(PIPED))
def test_closed_stdout_exits_quietly(name, tmp_path):
    """``... | head -0``: stdout is a pipe whose reader has already gone."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    campaign = tmp_path / "c"
    planned = front_end(["campaigns", "plan", str(campaign), "--spec",
                         str(spec)], capture_output=True)
    assert planned.returncode == 0, planned.stderr
    fill = {"{CAMPAIGN}": str(campaign), "{STORE}": str(tmp_path / "store")}
    argv = [fill.get(arg, arg) for arg in PIPED[name]]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = front_end(argv, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
