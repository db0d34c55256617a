"""The CI lanes: a correctness check never rides in a non-blocking job.

A job with ``continue-on-error: true`` cannot fail a PR, and a step after
a failed one does not run, so a smoke placed behind the perf gate in the
perf lane checks nothing.  The non-blocking jobs a PR triggers hold only
the perf suite, the ledger gate, the trajectory render and the upload;
the smokes run in a blocking job.

``.github/workflows/ci.yml`` is read with the standard library (the
tier-1 lane has no YAML parser): jobs are the two-space keys under
``jobs:``, steps the ``- `` items of a job's ``steps:``.
"""

from __future__ import annotations

import re
from pathlib import Path

CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"

#: ``(module, verb)`` pairs a perf step may start.
PERF_COMMANDS = {("obs", "bench"), ("obs", "history")}
#: Actions a perf job may use.
PERF_ACTIONS = ("actions/checkout@", "actions/setup-python@",
                "actions/upload-artifact@")


def parse_jobs(text: str) -> dict[str, dict]:
    """``{job: {"keys": {key: value}, "steps": [{key: text}]}}``; a
    step's ``run: |`` block is its indented lines, joined."""
    jobs: dict[str, dict] = {}
    lines = text.split("\n")
    body = lines[lines.index("jobs:") + 1:]
    job = step = None
    block = None  # (step, key, indent) of the open ``key: |`` block
    for line in body:
        indent = len(line) - len(line.lstrip(" "))
        if block and (not line.strip() or indent > block[2]):
            block[0][block[1]] += line.strip() + "\n"
            continue
        block = None
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if indent == 2 and (m := re.fullmatch(r"  ([\w-]+):", line)):
            job = jobs[m[1]] = {"keys": {}, "steps": []}
            step = None
            continue
        item = re.fullmatch(r"( *)- (.*)", line)
        if item and len(item[1]) == 6:
            step = {}
            job["steps"].append(step)
            line, indent = " " * 8 + item[2], 8
        key = re.fullmatch(r" *([\w-]+):\s*(.*)", line)
        if not key:
            continue
        if indent == 4:
            job["keys"][key[1]] = key[2]
        elif indent == 8 and step is not None:
            step[key[1]] = "" if key[2] == "|" else key[2]
            if key[2] == "|":
                block = (step, key[1], indent)
    return jobs


def triggered_by_prs(job: dict) -> bool:
    condition = job["keys"].get("if")
    return condition is None or "pull_request" in condition


def non_perf_steps(job: dict) -> list[str]:
    """The steps of *job* that are not checkout, set-up, a dependency
    install, the perf suite, the ledger gate, the render or an upload."""
    found = []
    for step in job["steps"]:
        label = step.get("name") or step.get("uses", "?")
        if "uses" in step:
            if not step["uses"].startswith(PERF_ACTIONS):
                found.append(label)
            continue
        run = step.get("run", "")
        if run.startswith("python -m pip install"):
            continue
        commands = set(re.findall(r"python -m repro\.(\w+) (\w+)", run))
        starts = len(re.findall(r"\bpython3?\b", run))
        if not commands or not commands <= PERF_COMMANDS or starts != len(
            re.findall(r"python -m repro\.", run)
        ):
            found.append(label)
    return found


def test_non_blocking_pr_jobs_hold_only_perf_steps():
    jobs = parse_jobs(CI.read_text())
    lanes = {
        name: job for name, job in jobs.items()
        if job["keys"].get("continue-on-error") == "true"
        and triggered_by_prs(job)
    }
    assert "bench" in lanes
    assert {"Run pinned bench suite", "Render perf trajectory"} <= {
        step.get("name") for step in lanes["bench"]["steps"]
    }
    stray = {name: non_perf_steps(job) for name, job in lanes.items()}
    assert not any(stray.values()), (
        f"correctness steps in a non-blocking job: {stray}"
    )


def test_the_smokes_run_in_a_blocking_pr_job():
    jobs = parse_jobs(CI.read_text())
    for wanted in ("Phase profile", "Latency blame", "Campaign smoke",
                   "HTTP serve smoke"):
        (job,) = [
            job for job in jobs.values()
            if any(s.get("name", "").startswith(wanted)
                   for s in job["steps"])
        ]
        assert "continue-on-error" not in job["keys"], wanted
        assert triggered_by_prs(job), wanted


def test_a_smoke_in_the_perf_lane_is_named():
    perf = [
        {"uses": "actions/checkout@v4"},
        {"name": "Install dependencies",
         "run": "python -m pip install numpy"},
        {"name": "Run pinned bench suite",
         "run": "PYTHONPATH=src python -m repro.obs bench --label ci\n"},
    ]
    assert non_perf_steps({"keys": {}, "steps": perf}) == []
    smoke = {"name": "Serve smoke", "run": (
        "PYTHONPATH=src python -m repro.serve query c --rate 0.01\n"
    )}
    snippet = {"name": "Render perf trajectory", "run": (
        "PYTHONPATH=src python -m repro.obs history B.json\n"
        "python - <<'EOF'\nassert True\nEOF\n"
    )}
    for extra in (smoke, snippet):
        lane = {"keys": {}, "steps": [*perf, extra]}
        assert non_perf_steps(lane) == [extra["name"]]
