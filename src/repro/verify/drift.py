"""ENGINE_VERSION drift gate: normalized-AST semantics lock.

Every store key, campaign key table and cached figure trusts the
``ENGINE_VERSION`` contract (``src/repro/simulator/engine.py``): *any*
change that can alter the statistics a run produces must bump it, or
stale cached results are served as current.  Nothing enforced that
statically — this module does.

It computes a **normalized AST digest** over the engine's semantic
surface (``simulator/``, ``routing/``, ``faults/``, ``traffic/``,
``topology/`` under ``src/repro``): each file is parsed, docstrings are
dropped, and the bare ``ENGINE_VERSION = <n>`` assignment is excluded
(it is the version label itself, not semantics), so comments, layout,
formatting and documentation edits never move the digest while any
executable change does.  The digest is pinned together with the
``ENGINE_VERSION`` it was taken at in ``tools/engine_semantics.lock``.

Gate semantics (mirroring ``tools/mypy_gate.py``):

* digest == lock, version == lock — **ok**;
* digest moved, version unchanged — **drift**: semantics changed without
  a bump; the gate fails and lists the changed files;
* version bumped, digest unchanged — **bumped-unchanged**: a gratuitous
  bump (it invalidates every cached result for nothing); warned, not
  failed;
* both moved — **bumped**: the legitimate flow, but the lock is now
  stale; re-pin (``python -m repro.verify drift --pin``) in the same
  commit so the next change gates against the new baseline.  Enforcing
  mode fails until the re-pinned lock is committed;
* lock missing — **unpinned**: advisory prints the state; enforcing
  mode self-pins, uploads-by-artifact, and fails (commit the written
  lock to arm the gate).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.store.backend import atomic_write
from repro.store.keys import content_digest

__all__ = [
    "SEMANTIC_DIRS",
    "DriftReport",
    "compute_state",
    "default_lock_path",
    "normalized_dump",
    "read_lock",
    "run_gate",
    "write_lock",
]

#: Packages (under ``src/repro``) whose code determines run statistics.
SEMANTIC_DIRS = ("simulator", "routing", "faults", "traffic", "topology")

_LOCK_KIND = "engine-semantics-lock"
_SCHEMA = 1

#: Version-label assignment excluded from the digest (see module doc).
_VERSION_NAME = "ENGINE_VERSION"


def default_lock_path() -> Path:
    """``tools/engine_semantics.lock`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "tools" / "engine_semantics.lock"


def _default_root() -> Path:
    return Path(__file__).resolve().parents[1]  # src/repro


def _strip(tree: ast.Module) -> ast.Module:
    """Drop docstrings and the ENGINE_VERSION label from *tree*."""
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body.pop(0)
    tree.body = [
        stmt
        for stmt in tree.body
        if not (
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == _VERSION_NAME
                for t in stmt.targets
            )
        )
    ]
    return tree


def normalized_dump(source: str) -> str:
    """Formatting-free dump of *source*: parse, strip, ``ast.dump``."""
    tree = _strip(ast.parse(source))
    return ast.dump(tree, annotate_fields=False, include_attributes=False)


def compute_state(
    root: Path | None = None, engine_version: int | None = None
) -> dict:
    """The current semantic state: per-file digests + overall + version.

    *root* (default ``src/repro``) must contain the :data:`SEMANTIC_DIRS`
    packages; tests point it at a miniature tree.  *engine_version*
    defaults to the live :data:`~repro.simulator.engine.ENGINE_VERSION`.
    """
    if root is None:
        root = _default_root()
    if engine_version is None:
        from repro.simulator.engine import ENGINE_VERSION

        engine_version = ENGINE_VERSION
    files: dict[str, str] = {}
    for dirname in SEMANTIC_DIRS:
        base = root / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            files[rel] = content_digest(normalized_dump(path.read_text()))
    return {
        "engine_version": engine_version,
        "digest": content_digest(files),
        "files": files,
    }


def read_lock(path: Path | None = None) -> dict | None:
    """The pinned lock payload, or ``None`` while unpinned (missing)."""
    if path is None:
        path = default_lock_path()
    if not path.exists():
        return None
    payload = json.loads(path.read_text())
    if payload.get("kind") != _LOCK_KIND:
        raise ValueError(f"{path} is not an {_LOCK_KIND} file")
    return payload


def write_lock(state: dict, path: Path | None = None) -> Path:
    """Pin *state* (a :func:`compute_state` payload) to the lock file."""
    if path is None:
        path = default_lock_path()
    payload = {
        "kind": _LOCK_KIND,
        "schema": _SCHEMA,
        "engine_version": state["engine_version"],
        "digest": state["digest"],
        "files": state["files"],
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@dataclass(frozen=True)
class DriftReport:
    """Outcome of comparing the live state against the pinned lock."""

    #: ``ok`` | ``drift`` | ``bumped-unchanged`` | ``bumped`` | ``unpinned``
    status: str
    locked_version: int | None
    current_version: int
    changed: tuple[str, ...] = ()
    added: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()

    @property
    def moved(self) -> tuple[str, ...]:
        return tuple(sorted((*self.changed, *self.added, *self.removed)))

    def to_payload(self) -> dict:
        return {
            "status": self.status,
            "locked_version": self.locked_version,
            "current_version": self.current_version,
            "changed": list(self.changed),
            "added": list(self.added),
            "removed": list(self.removed),
        }


def compare(lock: dict | None, state: dict) -> DriftReport:
    """Classify the live *state* against the pinned *lock*."""
    version = state["engine_version"]
    if lock is None:
        return DriftReport("unpinned", None, version)
    old = lock["files"]
    new = state["files"]
    changed = tuple(sorted(f for f in old if f in new and old[f] != new[f]))
    added = tuple(sorted(f for f in new if f not in old))
    removed = tuple(sorted(f for f in old if f not in new))
    same_digest = lock["digest"] == state["digest"]
    same_version = lock["engine_version"] == version
    if same_digest and same_version:
        status = "ok"
    elif same_version:
        status = "drift"
    elif same_digest:
        status = "bumped-unchanged"
    else:
        status = "bumped"
    return DriftReport(
        status, lock["engine_version"], version, changed, added, removed
    )


def run_gate(
    state: dict,
    lock_path: Path | None = None,
    *,
    require: bool = False,
    pin: bool = False,
) -> tuple[int, list[str], DriftReport]:
    """The gate proper: ``(exit_code, printable lines, report)``.

    Pure apart from reading — and, for ``pin`` / the enforcing
    self-pin bootstrap, writing — *lock_path*, so tests drive it against
    temp trees without touching the repo lock.
    """
    if lock_path is None:
        lock_path = default_lock_path()
    report = compare(read_lock(lock_path), state)
    lines: list[str] = []
    version = state["engine_version"]

    if pin:
        if report.status == "bumped-unchanged":
            lines.append(
                f"drift-gate: WARNING - ENGINE_VERSION bumped "
                f"{report.locked_version} -> {version} with no semantic "
                "change (a gratuitous bump invalidates every cached result)"
            )
        write_lock(state, lock_path)
        lines.append(
            f"drift-gate: lock pinned at engine v{version} "
            f"({len(state['files'])} files, digest {state['digest'][:12]})"
        )
        return 0, lines, report

    if report.status == "unpinned":
        if require:
            write_lock(state, lock_path)
            lines.append(
                f"drift-gate: lock was unpinned; pinned engine "
                f"v{version} from this run"
            )
            lines.append(
                "drift-gate: FAIL - commit the written "
                "tools/engine_semantics.lock to arm the gate"
            )
            return 1, lines, report
        lines.append(
            f"drift-gate: ADVISORY (lock unpinned) - engine v{version}, "
            f"{len(state['files'])} files, digest {state['digest'][:12]}"
        )
        lines.append("drift-gate: pin with 'python -m repro.verify drift --pin'")
        return 0, lines, report

    if report.status == "ok":
        lines.append(
            f"drift-gate: ok (engine v{version}, "
            f"{len(state['files'])} files unchanged)"
        )
        return 0, lines, report

    if report.status == "bumped-unchanged":
        lines.append(
            f"drift-gate: WARNING - ENGINE_VERSION bumped "
            f"{report.locked_version} -> {version} with no semantic "
            "change (a gratuitous bump invalidates every cached result); "
            "re-pin to accept"
        )
        return 0, lines, report

    for f in report.moved:
        kind = (
            "changed" if f in report.changed
            else "added" if f in report.added
            else "removed"
        )
        lines.append(f"  {kind}: {f}")
    if report.status == "drift":
        lines.append(
            f"drift-gate: FAIL - {len(report.moved)} semantic file(s) "
            f"moved but ENGINE_VERSION is still {version}; bump it in "
            "src/repro/simulator/engine.py (cached results would go "
            "stale silently) and re-pin the lock"
        )
        return 1, lines, report

    # "bumped": semantics and version both moved — the correct flow, but
    # the lock must be re-pinned so the gate re-arms at the new baseline.
    lines.append(
        f"drift-gate: ENGINE_VERSION {report.locked_version} -> "
        f"{version} with {len(report.moved)} semantic file(s) moved; "
        "re-pin the lock ('python -m repro.verify drift --pin') to "
        "record the new baseline"
    )
    if require:
        lines.append("drift-gate: FAIL - commit the re-pinned lock")
        return 1, lines, report
    return 0, lines, report
