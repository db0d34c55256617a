"""Findings parity for the project-rule linter, pinned like the engine's
golden results: ``tests/data/lint_findings.json`` holds every
``(rule, path, line, col, message)`` the linter reported — in order —
when the pins were taken, over three corpora:

* **snippets** — every source string ``tests/test_verify_lint.py`` hands
  to ``lint_source`` (recorded by running those tests against a
  recording ``lint_source``; the sources are stored in the JSON, so the
  replay does not depend on that module),
* **corpus** — ``tests/data/lint_corpus/``, a mutation corpus with a
  violating and a clean file per reference-table row (see its README),
* **tree** — ``src/repro`` itself (clean: the CI gate).

The pins were taken at the commit *before* REP002/003/006/015/016/017
became rows of one reference table, so they prove the table reports what
the six hand-written rules did: same findings, same text, same order.

Regenerate (only when a rule is added or changed on purpose, and review
the JSON diff)::

    PYTHONPATH=src:tests python -c "import test_verify_lint_parity as p; p.regenerate()"
"""

from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.verify import lint
from repro.verify.lint import RULES, lint_paths, lint_source

REPO = Path(__file__).resolve().parent.parent
PINS = REPO / "tests" / "data" / "lint_findings.json"
#: Relative on purpose: a finding's path is the path as given, so the
#: replay runs from the repo root (``monkeypatch.chdir``).
CORPUS = Path("tests/data/lint_corpus")
TREE = Path("src/repro")

#: The rules the reference table declares.
REFERENCE_RULES = ("REP002", "REP003", "REP006", "REP015", "REP016", "REP017")

#: Lints the whole of ``engine.py`` as one snippet; ``tree`` already
#: covers the real file.
_NOT_A_SNIPPET = {"test_the_engine_still_holds_a_seeded_default_rng"}


def _rows(findings) -> list[list]:
    return [[f.rule, f.path, f.line, f.col, f.message] for f in findings]


def _recorded_snippets() -> list[dict]:
    """``(source, path, select)`` of every ``lint_source`` call the rule
    tests make, first occurrence order, fixture-free tests only."""
    import test_verify_lint as rule_tests

    calls: list[dict] = []

    def recording(source, path="<string>", select=None):
        call = {"path": path, "select": sorted(select or ()), "source": source}
        if call not in calls:
            calls.append(call)
        return lint_source(source, path=path, select=select)

    original = rule_tests.lint_source
    rule_tests.lint_source = recording
    try:
        for cls in vars(rule_tests).values():
            if not (inspect.isclass(cls) and cls.__name__.startswith("Test")):
                continue
            for name, method in vars(cls).items():
                if (
                    name.startswith("test_")
                    and name not in _NOT_A_SNIPPET
                    and list(inspect.signature(method).parameters) == ["self"]
                ):
                    method(cls())
    finally:
        rule_tests.lint_source = original
    return calls


def regenerate() -> None:  # pragma: no cover - maintenance helper
    import os

    os.chdir(REPO)
    pins = {
        "snippets": [
            {**call, "findings": _rows(lint_source(
                call["source"], path=call["path"],
                select=set(call["select"]) or None,
            ))}
            for call in _recorded_snippets()
        ],
        "corpus": _rows(lint_paths([CORPUS])),
        "tree": _rows(lint_paths([TREE])),
    }
    PINS.write_text(_dump(pins))
    print({name: len(rows) for name, rows in pins.items()})


def _dump(pins: dict) -> str:  # pragma: no cover - maintenance helper
    """One finding (or snippet) per line, so a re-pin diffs by finding."""
    blocks = [
        f' "{name}": [\n'
        + ",\n".join("  " + json.dumps(row, sort_keys=True) for row in rows)
        + ("\n ]" if rows else " ]")
        for name, rows in sorted(pins.items())
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def reference_table_markdown() -> str:
    """``REFERENCE_ROWS`` as the table ``docs/verify.md`` quotes."""

    def cell(items) -> str:
        return ", ".join(f"`{item}`" for item in items) or "—"

    lines = [
        "| rule | in modules under | except under | reads | of | names "
        "| `TYPE_CHECKING` imports |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in lint.REFERENCE_ROWS:
        if row.deny is not None:
            names = "only " + cell(sorted(row.deny))
        else:
            names = "all but " + cell(sorted(row.allow)) if row.allow else "any"
        lines.append(
            f"| {row.code} | {cell(row.scope) if row.scope else 'everywhere'} "
            f"| {cell(row.exempt)} | {cell(row.kinds)} | {cell(row.modules)} "
            f"| {names} | {'skipped' if row.runtime_only else 'count'} |"
        )
    return "\n".join(lines)


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.fixture
def repo_root(monkeypatch):
    monkeypatch.chdir(REPO)


class TestFindingsParity:
    def test_snippets_replay_exactly(self, pins):
        assert len(pins["snippets"]) > 100
        for pin in pins["snippets"]:
            got = lint_source(
                pin["source"], path=pin["path"],
                select=set(pin["select"]) or None,
            )
            assert _rows(got) == pin["findings"], (pin["path"], pin["source"])

    def test_pins_cover_every_snippet_of_the_rule_tests(self, pins):
        """A lint test added without re-pinning is caught here."""
        pinned = [
            {k: pin[k] for k in ("path", "select", "source")}
            for pin in pins["snippets"]
        ]
        assert _recorded_snippets() == pinned

    def test_mutation_corpus_replays_exactly(self, pins, repo_root):
        got = _rows(lint_paths([CORPUS]))
        assert got == pins["corpus"]
        # Every reference rule both fires and stays silent somewhere.
        fired = {row[0] for row in got}
        assert set(REFERENCE_RULES) <= fired
        dirty = {row[1] for row in got}
        clean = {p.as_posix() for p in CORPUS.rglob("*.py")} - dirty
        assert len(clean) >= 10

    def test_select_partitions_the_corpus_findings(self, pins, repo_root):
        """``--select REPxxx`` is a filter, not another code path."""
        for rule_id in RULES:
            got = _rows(lint_paths([CORPUS], select={rule_id}))
            assert got == [r for r in pins["corpus"] if r[0] == rule_id], rule_id

    def test_source_tree_replays_exactly(self, pins, repo_root):
        assert _rows(lint_paths([TREE])) == pins["tree"] == []


class TestKnownDivergences:
    """Where the table is known *not* to report what the six functions
    did — three degenerate inputs a differential fuzz of the two linters
    found (14k generated modules, 15k findings, no other mismatch)."""

    def test_timer_home_named_twice_in_one_import_is_reported_twice(self):
        # The old REP016 reported the statement once, whatever it named.
        src = "import repro.obs.profile, repro.obs.profile as profile\n"
        got = lint_source(src, path="src/repro/simulator/x.py", select={"REP016"})
        assert len(got) == 2

    def test_a_guard_in_the_else_of_a_guard_is_still_a_guard(self):
        # The old walk never tested an ``if`` it reached through the
        # ``else`` of a TYPE_CHECKING ``if``, and flagged this import.
        src = (
            "if TYPE_CHECKING:\n    pass\n"
            "else:\n    if TYPE_CHECKING:\n        import repro.store\n"
        )
        assert lint_source(src, path="src/repro/routing/x.py") == []

    def test_a_path_under_two_boundaries_gets_both(self):
        # The old REP003 stopped at the first scope its path matched.
        src = "import repro.store\nimport repro.faults\n"
        got = lint_source(src, path="src/repro/routing/repro/topology/x.py")
        assert [f.line for f in got] == [1, 2]


class TestCatalogueCompleteness:
    DOC = REPO / "docs" / "verify.md"

    def test_every_rule_is_summarised_and_documented(self):
        documented = set(re.findall(r"^\| (REP\d{3}) \|", self.DOC.read_text(), re.M))
        for rule_id, (scope, summary, impl) in RULES.items():
            assert re.fullmatch(r"REP\d{3}", rule_id)
            assert scope in ("module", "project") and summary.strip()
            assert callable(impl)
            assert rule_id in documented, f"{rule_id} missing from docs/verify.md"
        assert documented - set(RULES) == {"REP000"}  # the parse failure

    def test_every_reference_row_belongs_to_a_catalogued_rule(self):
        rows = lint.REFERENCE_ROWS
        assert {row.code for row in rows} == set(REFERENCE_RULES)
        assert {row.code for row in rows} <= set(RULES)

    def test_the_documented_reference_table_is_the_code(self):
        assert reference_table_markdown() in self.DOC.read_text()
