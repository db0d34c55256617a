"""``python -m repro.obs``: every verb replayed against what the parent
commit printed, the flag surface pinned verb by verb, and the table the
verbs are declared in checked against its listing and its docs.

``tests/data/obs_cli_golden.json`` was recorded on the commit *before*
``obs/cli.py`` became a verb table (``PYTHONPATH=<that commit>/src python
tests/test_obs_cli.py`` rewrites it from whatever ``repro`` is on the
path); ``tests/data/obs_cli_manifest.jsonl`` is that commit's ``fig1
--profile smoke --algorithms nhop duato-nbc --telemetry --manifest``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.obs.cli import main as obs_main

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "obs_cli_golden.json"
MANIFEST = DATA / "obs_cli_manifest.jsonl"
REPO = DATA.parent.parent

VERB_NAMES = (
    "bench", "smoke", "report", "heatmap", "timeline",
    "converge", "profile", "history", "spans", "blame",
)


def bench_payload(label: str, created: int, rate: float, switch: float) -> dict:
    """A two-workload ``BENCH_<label>.json``: one engine row with phase
    shares (``switch_traverse`` at *switch*), one ops row."""
    return {
        "kind": "bench", "schema": 1, "label": label,
        "created_unix": created, "engine_version": 2, "repeats": 1,
        "host": {"platform": "golden", "python": "3.11.0", "machine": "x"},
        "workloads": {
            "engine_w": {
                "key": "k-engine", "seconds": 1000 / rate, "cycles": 1000,
                "cycles_per_sec": rate, "flit_hops_per_sec": 40 * rate,
                "phases": {"route": 0.9 - switch, "switch_traverse": switch,
                           "inject": 0.1},
            },
            "ops_w": {"key": "k-ops", "seconds": 0.02, "ops": 1,
                      "ops_per_sec": 50.0},
        },
    }


PAYLOADS = {
    "BENCH_base.json": bench_payload("base", 100, 4000.0, 0.5),
    "BENCH_same.json": bench_payload("same", 200, 3900.0, 0.5),
    "BENCH_slow.json": bench_payload("slow", 300, 2000.0, 0.7),
    "BENCH_fast.json": bench_payload("fast", 400, 8000.0, 0.3),
}

_INGEST = ["history", "BENCH_base.json", "BENCH_same.json", "BENCH_slow.json",
           "BENCH_fast.json", "--ledger", "ledger.jsonl"]

#: name -> the command lines one case runs in order, in a fresh
#: directory holding ``manifest.jsonl`` and the four ``PAYLOADS``.
CASES: dict[str, list[list[str]]] = {
    "smoke": [["smoke", "--cycles", "300"]],
    "smoke-trace": [["smoke", "--cycles", "300", "--algorithm", "nhop",
                     "--faults", "0", "--trace-out", "trace.jsonl",
                     "--trace-sample", "4"]],
    "heatmap-fig6": [["heatmap", "--fig6", "--cycles", "300",
                      "--csv", "out/load.csv"]],
    "heatmap-blocked": [["heatmap", "--cycles", "300", "--metric",
                         "blocked", "--faults", "0", "--rate", "0.05"]],
    "timeline-fresh": [["timeline", "--cycles", "300", "--csv",
                        "out/t.csv", "--jsonl", "out/t.jsonl"]],
    "timeline-manifest": [["timeline", "manifest.jsonl", "--no-annotate"]],
    "timeline-missing": [["timeline", "nope.jsonl"]],
    "report": [["report", "manifest.jsonl"]],
    "report-missing": [["report", "nope.jsonl"]],
    "spans": [["spans", "manifest.jsonl", "--digest", "--out",
               "spans.jsonl"]],
    "spans-none": [["spans", "manifest.jsonl", "--trace", "nope"]],
    "history": [_INGEST,
                ["history", "--ledger", "ledger.jsonl", "--workload",
                 "engine_w", "--metric", "cycles_per_sec"]],
    "history-delta": [_INGEST,
                      ["history", "--ledger", "ledger.jsonl", "--delta",
                       "base", "slow"],
                      ["history", "--ledger", "ledger.jsonl", "--delta",
                       "base", "nope"]],
    "history-gate": [_INGEST,
                     ["history", "--ledger", "ledger.jsonl", "--gate",
                      "BENCH_slow.json", "--baseline", "base"],
                     ["history", "--ledger", "ledger.jsonl", "--gate",
                      "BENCH_same.json"],
                     ["history", "--ledger", "ledger.jsonl", "--gate",
                      "BENCH_same.json", "--baseline", "nope"]],
    "converge": [["converge", "--profile", "smoke"]],
    "profile-workload": [["profile", "--workload", "engine_moderate",
                          "--json", "p.json"]],
    "profile-profile": [["profile", "--profile", "smoke", "--faults", "3",
                         "--seed", "11", "--no-selfcheck"]],
    "profile-both": [["profile", "--profile", "smoke", "--workload",
                      "engine_moderate"]],
    "blame": [["blame", "--top", "3", "--csv", "out/b.csv", "--json",
               "out/b.json"]],
    "unknown-verb": [["frobnicate"]],
}

_PHASE_ROW = re.compile(r"^  (\w+) +[\d.]+% +[\d.]+ +(\d+) +[\d.]+ *#*$")
_MEASURED = re.compile(r"(cycles, )[\d.]+( s measured)")


def mask_wall_time(text: str) -> str:
    """``obs profile``'s table with its wall-time columns struck: each
    phase row keeps name and call count (rows sorted — the table orders
    by seconds), the header loses its total."""
    lines, rows = [], []
    for line in text.splitlines():
        row = _PHASE_ROW.match(line)
        if row:
            rows.append(f"  {row[1]} calls={row[2]}")
            continue
        lines.extend(sorted(rows))
        rows.clear()
        lines.append(_MEASURED.sub(r"\1<t>\2", line))
    return "\n".join(lines + sorted(rows))


def run_case(commands: list[list[str]], workdir: Path) -> list[dict]:
    """Run *commands* through ``obs.cli.main`` inside *workdir*."""
    shutil.copy(MANIFEST, workdir / "manifest.jsonl")
    for name, payload in PAYLOADS.items():
        (workdir / name).write_text(json.dumps(payload))
    results = []
    before = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = obs_main(list(argv))
            results.append({
                "argv": argv, "code": code,
                "stdout": mask_wall_time(out.getvalue()),
                "stderr": err.getvalue(),
            })
    finally:
        os.chdir(before)
    return results


class _Captured(Exception):
    pass


def verb_flags(verb: str) -> dict:
    """The argument surface ``obs <verb>`` parses: program name plus one
    row per flag (spelling, destination, default, type, arity, choices).
    Help text is not part of it."""
    seen: dict = {}

    def grab(parser, args=None, namespace=None):
        seen["prog"] = parser.prog
        seen["flags"] = sorted(
            [
                "/".join(a.option_strings) or a.dest, a.dest,
                repr(a.default), getattr(a.type, "__name__", None),
                a.nargs, a.required, a.const,
                sorted(a.choices) if a.choices else None,
            ]
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        )
        raise _Captured

    original = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = grab
    try:
        with pytest.raises(_Captured):
            obs_main([verb])
    finally:
        argparse.ArgumentParser.parse_args = original
    return seen


def record() -> dict:
    golden: dict = {"cases": {}, "flags": {}}
    for name, commands in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            golden["cases"][name] = run_case(commands, Path(tmp))
    for verb in VERB_NAMES:
        golden["flags"][verb] = verb_flags(verb)
    return golden


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case_and_verb(golden):
    assert sorted(golden["cases"]) == sorted(CASES)
    assert sorted(golden["flags"]) == sorted(VERB_NAMES)
    replayed = {argv[0] for commands in CASES.values() for argv in commands}
    assert replayed >= set(VERB_NAMES) - {"bench"}  # bench prints timings


@pytest.mark.parametrize("name", sorted(CASES))
def test_verb_replays_as_on_the_parent(name, golden, tmp_path):
    assert run_case(CASES[name], tmp_path) == golden["cases"][name]


@pytest.mark.parametrize("verb", VERB_NAMES)
def test_flag_surface_is_the_parents(verb, golden):
    expected = json.loads(json.dumps(verb_flags(verb)))  # tuples -> lists
    assert expected == golden["flags"][verb]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _verbs():
    from repro.obs.cli import VERBS

    return VERBS


def test_table_declares_the_ten_verbs():
    assert sorted(v.name for v in _verbs()) == sorted(VERB_NAMES)


@pytest.mark.parametrize("verb", VERB_NAMES)
def test_every_verb_answers_help(verb, capsys):
    with pytest.raises(SystemExit) as exit_:
        obs_main([verb, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: repro-obs {verb}")
    row = next(v for v in _verbs() if v.name == verb)
    assert " ".join(row.help.split()) in " ".join(out.split())


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"]])
def test_bare_invocation_lists_the_table(argv, capsys):
    assert obs_main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    for verb in _verbs():
        listed = [ln for ln in lines if ln.split()[:1] == [verb.name]]
        assert len(listed) == 1, verb.name
        assert verb.help in listed[0]


def test_docs_have_a_row_per_verb():
    """``docs/observability.md`` §The verbs: name | help | attaches |
    exports, one row per ``VERBS`` row, help verbatim."""
    text = (REPO / "docs" / "observability.md").read_text()
    section = text.split("\n## The verbs\n", 1)[1].split("\n## ", 1)[0]
    rows = {
        cells[0].strip("`"): cells
        for line in section.splitlines()
        if line.startswith("| `")
        for cells in [[c.strip() for c in line.strip("|").split("|")]]
    }
    assert sorted(rows) == sorted(v.name for v in _verbs())
    for verb in _verbs():
        assert len(rows[verb.name]) == 4, verb.name
        assert rows[verb.name][1].replace("`", "") == verb.help, verb.name


# ----------------------------------------------------------------------
# What the one main handles for every verb
# ----------------------------------------------------------------------
HOSTILE = [
    ["smoke", "--vcs", "0"],
    ["heatmap", "--algorithm", "nope", "--cycles", "10"],
    ["timeline", "--faults", "500", "--cycles", "10"],
    ["smoke", "--algorithm", "nhop", "--vcs", "4", "--cycles", "10"],
    ["profile", "--profile", "smoke", "--faults", "500"],
]


@pytest.mark.parametrize("argv", HOSTILE, ids=" ".join)
def test_hostile_sim_flags_fail_closed(argv, capsys):
    assert obs_main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0][7:]


#: The verbs that read a JSONL file, each pointed at ``FILE``.
JSONL_READERS = {
    "report": ["report", "FILE"],
    "spans": ["spans", "FILE"],
    "timeline": ["timeline", "FILE"],
    "history": ["history", "--ledger", "FILE"],
}


@pytest.mark.parametrize("verb", sorted(JSONL_READERS))
def test_one_reader_forgives_a_torn_tail_only(verb, tmp_path, capsys):
    """Every verb reads a JSONL file through the one reader: a crash-torn
    final line costs one warning, a corrupt complete line is refused
    naming its file:line."""
    complete = MANIFEST.read_text()
    n_lines = complete.count("\n")
    path = tmp_path / "run.jsonl"
    argv = [str(path) if arg == "FILE" else arg for arg in JSONL_READERS[verb]]

    path.write_text(complete + '{"event": "cell", "id": "tor')
    with pytest.warns(UserWarning) as caught:
        assert obs_main(argv) == 0
    assert [str(w.message) for w in caught] == [
        f"{path}:{n_lines + 1}: skipping torn final line (crash mid-append?)"
    ]

    path.write_text(complete + '{"event": "cell", "id": "tor\n')
    capsys.readouterr()
    assert obs_main(argv) == 2
    assert f"{path}:{n_lines + 1}: bad JSONL line" in capsys.readouterr().err


def test_closed_pipe_is_quiet():
    """``obs history | head -1`` with the reader gone: stdout is the
    write end of a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "history"],
            cwd=REPO, stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases, {len(VERB_NAMES)} verbs -> {GOLDEN}")
