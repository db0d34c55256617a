"""Project-rule AST linter (:mod:`ast`-based, zero dependencies).

Rules encode invariants of *this* codebase that generic linters cannot
know.  Each rule has a stable id (``REPxxx``), a one-line summary, and a
check implemented against the parsed AST.  Two scopes exist:

* **module rules** run per file,
* **project rules** run once over the whole parsed file set (needed to
  resolve class hierarchies across modules).

Adding a rule: write a ``_rule_xxx`` function with the matching scope
signature and register it in :data:`RULES`.  See ``docs/verify.md`` for
the catalog and rationale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.obs.spans import CYCLE_SAFE_NAMES

#: Modules (path fragments, "/"-separated) where stdlib ``random``
#: module-level functions are tolerated: nowhere.  Seeded
#: ``random.Random`` instances are fine everywhere; *unseeded* draws are
#: additionally tolerated under these prefixes (the traffic layer owns
#: randomness and is always handed a seeded rng anyway).
_RANDOM_ALLOWED_PREFIXES = ("repro/traffic/",)

#: ``random`` attributes that are classes/constructors, not draws.
_RANDOM_SAFE_ATTRS = {"Random", "SystemRandom", "seed"}

#: Import-boundary catalog: a module whose path contains the key prefix
#: must not import any module starting with one of the value prefixes.
#: ``repro.routing`` stays a pure decision layer: it may see messages,
#: budgets, faults and topology, never the engine, experiments or store.
_IMPORT_BOUNDARIES: dict[str, tuple[str, ...]] = {
    "repro/routing/": (
        "repro.simulator.engine",
        "repro.experiments",
        "repro.store",
        "repro.metrics",
    ),
    "repro/topology/": (
        "repro.routing",
        "repro.simulator",
        "repro.faults",
        "repro.experiments",
    ),
    "repro/faults/": (
        "repro.simulator",
        "repro.routing",
        "repro.experiments",
    ),
    # The engine never imports the observability layer — observers
    # subscribe through Simulation.attach — and that holds for
    # function-level imports too (shared arithmetic lives in repro.metrics).
    "repro/simulator/": ("repro.obs",),
}

#: Carve-outs from the catalog above: the cycle-safe span constructors
#: may cross into the simulator, and REP017 polices exactly which names.
_IMPORT_BOUNDARY_EXEMPT: dict[str, tuple[str, ...]] = {
    "repro/simulator/": ("repro.obs.spans",),
}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)


@dataclass(frozen=True)
class Finding:
    """One lint violation."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_payload(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class _Module:
    path: str  # repo-relative, "/"-separated
    tree: ast.Module


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _iter_code_nodes(tree: ast.Module):
    """Walk the AST, skipping ``if TYPE_CHECKING:`` bodies (those imports
    never execute, so boundary rules must not fire on them)."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking_test(child.test):
                stack.extend(child.orelse)
                continue
            stack.append(child)
        yield node


def _is_type_checking_test(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _base_name(expr: ast.expr) -> str | None:
    """Terminal name of a base-class expression (``a.b.C`` -> ``C``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _annotation_text(expr: ast.expr | None) -> str:
    return "" if expr is None else ast.unparse(expr).replace(" ", "")


# ----------------------------------------------------------------------
# REP001 — mutable default arguments
# ----------------------------------------------------------------------
def _rule_mutable_defaults(mod: _Module) -> list[Finding]:
    found = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            ):
                found.append(Finding(
                    "REP001", mod.path, default.lineno, default.col_offset,
                    f"mutable default argument in {node.name}()",
                ))
    return found


# ----------------------------------------------------------------------
# REP002 — unseeded stdlib random outside the traffic layer
# ----------------------------------------------------------------------
def _rule_unseeded_random(mod: _Module) -> list[Finding]:
    if any(mod.path.find(p) >= 0 for p in _RANDOM_ALLOWED_PREFIXES):
        return []
    random_names: set[str] = set()
    found = []
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_names.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    if alias.name not in _RANDOM_SAFE_ATTRS:
                        found.append(Finding(
                            "REP002", mod.path, node.lineno, node.col_offset,
                            f"'from random import {alias.name}' pulls an "
                            "unseeded global-RNG function; pass a seeded "
                            "random.Random instead",
                        ))
    if random_names:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in random_names
                and node.attr not in _RANDOM_SAFE_ATTRS
            ):
                found.append(Finding(
                    "REP002", mod.path, node.lineno, node.col_offset,
                    f"random.{node.attr} draws from the unseeded global RNG; "
                    "use a seeded random.Random instance",
                ))
    return found


# ----------------------------------------------------------------------
# REP003 — layer import boundaries
# ----------------------------------------------------------------------
def _rule_import_boundaries(mod: _Module) -> list[Finding]:
    forbidden: tuple[str, ...] = ()
    exempt: tuple[str, ...] = ()
    for prefix, banned in _IMPORT_BOUNDARIES.items():
        if prefix in mod.path:
            forbidden = banned
            exempt = _IMPORT_BOUNDARY_EXEMPT.get(prefix, ())
            break
    if not forbidden:
        return []
    found = []
    for node in _iter_code_nodes(mod.tree):
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [node.module]
        for target in targets:
            if target in exempt:
                continue
            for banned in forbidden:
                if target == banned or target.startswith(banned + "."):
                    found.append(Finding(
                        "REP003", mod.path, node.lineno, node.col_offset,
                        f"layer boundary: modules under "
                        f"{mod.path.rsplit('/', 1)[0]}/ must not import "
                        f"{target}",
                    ))
    return found


# ----------------------------------------------------------------------
# REP004 — routing algorithms declare name and deadlock_free
# (project scope: the class hierarchy spans several modules)
# ----------------------------------------------------------------------
def _rule_algorithm_declarations(mods: list[_Module]) -> list[Finding]:
    classes: dict[str, tuple[_Module, ast.ClassDef]] = {}
    for mod in mods:
        if "repro/routing/" not in mod.path:
            continue
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (mod, node)

    def derives_from_algorithm(name: str, seen: frozenset[str]) -> bool:
        if name == "RoutingAlgorithm":
            return True
        entry = classes.get(name)
        if entry is None or name in seen:
            return False
        _, node = entry
        return any(
            base is not None and derives_from_algorithm(base, seen | {name})
            for base in map(_base_name, node.bases)
        )

    found = []
    for name, (mod, node) in classes.items():
        if name == "RoutingAlgorithm" or name.startswith("_"):
            continue  # the interface itself / private mixins
        if not derives_from_algorithm(name, frozenset()):
            continue
        declared = {
            target.id
            for stmt in node.body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets
            if isinstance(target, ast.Name)
        }
        declared |= {
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
        for attr in ("name", "deadlock_free"):
            if attr not in declared:
                found.append(Finding(
                    "REP004", mod.path, node.lineno, node.col_offset,
                    f"routing algorithm {name} must declare {attr!r} in its "
                    "class body (explicit, not inherited: the verifier and "
                    "the experiment defaults key on it)",
                ))
    return found


# ----------------------------------------------------------------------
# REP005 — tier-returning methods carry the Sequence[Tier] annotation
# ----------------------------------------------------------------------
def _rule_tier_annotations(mod: _Module) -> list[Finding]:
    if "repro/routing/" not in mod.path:
        return []
    found = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name not in ("tiers_for", "candidate_tiers"):
            continue
        annotation = _annotation_text(node.returns)
        if annotation not in ("Sequence[Tier]", "list[Tier]"):
            found.append(Finding(
                "REP005", mod.path, node.lineno, node.col_offset,
                f"{node.name}() must be annotated '-> Sequence[Tier]' (or "
                f"'-> list[Tier]'; found {annotation or 'no annotation'!r}); "
                "the tier shape is a checked engine contract",
            ))
    return found


# ----------------------------------------------------------------------
# REP006 — no wall-clock time in simulator hot paths
# ----------------------------------------------------------------------
#: Modules where wall-clock reads are forbidden: the cycle-driven engine
#: core and the telemetry layer it publishes into.  Simulation behavior
#: and observations must be functions of the cycle counter alone —
#: wall-clock reads there break determinism of anything derived from
#: them and hide real perf costs from the :mod:`repro.obs.bench`
#: harness, which times runs from the *outside*.
_WALLCLOCK_FORBIDDEN_PREFIXES = (
    "repro/simulator/",
    "repro/obs/telemetry",
)

#: ``time`` module attributes that read a clock.
_WALLCLOCK_ATTRS = {
    "time", "time_ns",
    "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
    "process_time", "process_time_ns",
    "clock_gettime", "clock_gettime_ns",
}


def _rule_no_wallclock(mod: _Module) -> list[Finding]:
    if not any(p in mod.path for p in _WALLCLOCK_FORBIDDEN_PREFIXES):
        return []
    time_names: set[str] = set()
    found = []
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_names.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_ATTRS:
                    found.append(Finding(
                        "REP006", mod.path, node.lineno, node.col_offset,
                        f"'from time import {alias.name}' in a simulator "
                        "hot-path module; the engine is cycle-driven — "
                        "stamp telemetry with the cycle counter, time runs "
                        "from outside (repro.obs.bench)",
                    ))
    if time_names:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in time_names
                and node.attr in _WALLCLOCK_ATTRS
            ):
                found.append(Finding(
                    "REP006", mod.path, node.lineno, node.col_offset,
                    f"time.{node.attr}() in a simulator hot-path module; "
                    "the engine is cycle-driven — stamp telemetry with the "
                    "cycle counter, time runs from outside (repro.obs.bench)",
                ))
    return found


# ----------------------------------------------------------------------
# REP007 — figure drivers stay profile-driven
# ----------------------------------------------------------------------
def _rule_figure_drivers(mod: _Module) -> list[Finding]:
    name = mod.path.rsplit("/", 1)[-1]
    if "repro/experiments/" not in mod.path or not name.startswith("fig_"):
        return []
    found = []
    for node in mod.tree.body:  # top-level functions only
        if not isinstance(node, ast.FunctionDef):
            continue
        if not node.name.startswith("run_"):
            continue
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if not params or params[0] != "profile":
            found.append(Finding(
                "REP007", mod.path, node.lineno, node.col_offset,
                f"figure driver {node.name}() must take 'profile' as its "
                "first parameter (drivers are parameterized by the "
                "registered profiles in repro.experiments.profiles, so "
                "every figure runs at quick/smoke/paper scale)",
            ))
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and _base_name(node.func) == "SimConfig"
        ):
            found.append(Finding(
                "REP007", mod.path, node.lineno, node.col_offset,
                "figure drivers must not construct SimConfig inline; the "
                "simulation scale belongs to the profile registry "
                "(repro.experiments.profiles), not to one figure",
            ))
    return found


# ----------------------------------------------------------------------
# REP008 — content digests go through content_digest / canonical_json
# ----------------------------------------------------------------------
#: The one module allowed to hash arbitrary bytes: it *defines* the
#: canonical serialization the rest of the project keys on.
_DIGEST_HOME = "repro/store/keys"

#: hashlib constructors whose output the store treats as a content key.
_DIGEST_FUNCS = {"sha256", "sha1", "md5"}


def _is_canonical_json_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and _base_name(expr.func) == "canonical_json"
    )


def _rule_canonical_digests(mod: _Module) -> list[Finding]:
    if _DIGEST_HOME in mod.path:
        return []
    # Local names bound to a canonical_json(...) result anywhere in the
    # module (``payload = canonical_json(...); sha256(payload.encode())``
    # is the common two-line idiom).
    canonical_names: set[str] = set()
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Assign)
            and _is_canonical_json_call(node.value)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    canonical_names.add(target.id)

    def digests_canonical_json(call: ast.Call) -> bool:
        if len(call.args) != 1 or call.keywords:
            return False
        arg = call.args[0]
        # Accept <canonical>.encode(...) where <canonical> is either the
        # canonical_json(...) call itself or a Name assigned from one.
        if (
            isinstance(arg, ast.Call)
            and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "encode"
        ):
            base = arg.func.value
            return _is_canonical_json_call(base) or (
                isinstance(base, ast.Name) and base.id in canonical_names
            )
        return False

    found = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "hashlib"
            and func.attr in _DIGEST_FUNCS
        ):
            name = f"hashlib.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in _DIGEST_FUNCS:
            name = func.id
        if name is None or digests_canonical_json(node):
            continue
        found.append(Finding(
            "REP008", mod.path, node.lineno, node.col_offset,
            f"{name}() outside repro.store.keys must digest "
            "canonical_json(...) — ad-hoc serialization silently forks "
            "the store's key space (dict order, float formatting); call "
            "repro.store.keys.content_digest(payload), which serializes "
            "and hashes in one step",
        ))
    return found


# ----------------------------------------------------------------------
# REP010 — campaign/store key material round-trips through
# repro.util.serialization canonical dicts
# ----------------------------------------------------------------------
#: Modules whose persisted JSON feeds (or sits next to) the store's key
#: space: ad-hoc serialization of a config here silently forks the keys.
_KEY_MATERIAL_SCOPES = (
    "repro/campaigns/",
    "repro/store/",
)

#: The sanctioned serialization homes themselves.
_KEY_MATERIAL_EXEMPT = ("repro/store/keys", "repro/util/serialization")

#: Config-ish terminal names whose direct json.dumps is suspect.
_CONFIG_NAMES = ("config", "cfg", "base_config")


def _config_like_arg(arg: ast.expr) -> str | None:
    """A description of *arg* if it is raw key material, else None."""
    if isinstance(arg, ast.Call):
        name = _base_name(arg.func)
        if name in ("asdict", "vars"):
            return f"{name}(...)"
        return None
    if isinstance(arg, ast.Attribute) and arg.attr == "__dict__":
        return "<x>.__dict__"
    name = None
    if isinstance(arg, ast.Name):
        name = arg.id
    elif isinstance(arg, ast.Attribute):
        name = arg.attr
    if name is not None and (
        name in _CONFIG_NAMES or name.endswith("_config")
    ):
        return name
    return None


def _rule_canonical_key_material(mod: _Module) -> list[Finding]:
    if not any(p in mod.path for p in _KEY_MATERIAL_SCOPES):
        return []
    if any(p in mod.path for p in _KEY_MATERIAL_EXEMPT):
        return []
    found = []
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
            and func.attr in ("dumps", "dump")
        ):
            continue
        suspect = _config_like_arg(node.args[0])
        if suspect is None:
            continue
        found.append(Finding(
            "REP010", mod.path, node.lineno, node.col_offset,
            f"json.{func.attr}({suspect}) serializes key material "
            "ad-hoc; campaign/store payloads must round-trip through "
            "repro.util.serialization (config_to_dict / pattern_to_dict) "
            "and hash via repro.store.keys.canonical_json so every writer "
            "agrees on one key space",
        ))
    return found


# ----------------------------------------------------------------------
# REP009 — the engine reaches observers only through its event tuples
# ----------------------------------------------------------------------
#: Registry accessors (instrument factories): instrument names belong
#: to the subscribing observer, never to the engine.
_TELEMETRY_ACCESSORS = {
    "counter", "gauge", "histogram", "labeled_counter", "series",
}


def _rule_observer_protocol(mod: _Module) -> list[Finding]:
    """REP009: simulator code publishes by iterating its event tuples.

    ``Simulation.attach`` is the only place an observer object is
    touched: it appends the observer's bound methods to the
    ``_on_<event>`` tuples.  Every publish site iterates one of those
    tuples (possibly hoisted into a local, or truth-tested first), so a
    detached run pays an empty-tuple test and the engine knows no
    instrument.  Flagged in ``repro.simulator``: registry accessor
    calls, an event tuple bound outside ``__init__``/``attach``, and an
    event tuple that is called, indexed or handed on instead of
    iterated.  (That the engine imports nothing from ``repro.obs`` — so
    cannot name an instrument — is REP003.)
    """
    if "repro/simulator/" not in mod.path:
        return []
    binders = {
        node
        for func in ast.walk(mod.tree)
        if isinstance(func, ast.FunctionDef)
        and func.name in ("__init__", "attach")
        for node in ast.walk(func)
    }
    misused = {
        child
        for parent in ast.walk(mod.tree)
        if isinstance(parent, (ast.Call, ast.Subscript, ast.Attribute))
        for child in ast.iter_child_nodes(parent)
    }
    found = []
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _TELEMETRY_ACCESSORS
        ):
            message = (
                f".{node.func.attr}(...) in the engine: instruments are "
                "resolved by the subscribing observer's bind(sim), the "
                "engine only publishes events"
            )
        elif not (isinstance(node, ast.Attribute) and node.attr.startswith("_on_")):
            continue
        elif isinstance(node.ctx, ast.Store) and node not in binders:
            message = f"event tuple {node.attr!r} bound outside __init__/attach"
        elif isinstance(node.ctx, ast.Load) and node in misused:
            message = (
                "event tuples are only iterated ('for publish in <tuple>: "
                "publish(...)'): do not call, index or pass one on"
            )
        else:
            continue
        found.append(Finding(
            "REP009", mod.path, node.lineno, node.col_offset, message
        ))
    return found


# ----------------------------------------------------------------------
# REP011 - seeded, instance-owned RNG in the engine/routing scope
# ----------------------------------------------------------------------
_RNG_CONSTRUCTORS = {"Random", "SystemRandom", "default_rng"}

#: ``np.random`` attributes that are not global-generator draws.
_NP_RANDOM_SAFE = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                   "PCG64", "RandomState"}

_REP011_SCOPE = ("repro/simulator/", "repro/routing/")


def _dotted(expr: ast.expr) -> str | None:
    """``a.b.c`` -> ``"a.b.c"`` (None for non-name chains)."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return ".".join(reversed(parts))


def _rule_engine_rng(mod: _Module) -> list[Finding]:
    """REP011: simulator/routing randomness is seeded and instance-owned.

    Replayability of every run key rests on all randomness flowing from
    ``SimConfig.seed``-derived streams (``engine.py``'s ``rng`` /
    ``_perm_rng``).  Three things break that silently: an RNG
    constructed without a seed (OS entropy), a module-level RNG stream
    (shared across runs and across pool workers), and draws from numpy's
    global generator.
    """
    if not any(prefix in mod.path for prefix in _REP011_SCOPE):
        return []
    found = []
    top_level_rng_lines = set()
    for stmt in mod.tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        value = getattr(stmt, "value", None)
        if (
            targets
            and isinstance(value, ast.Call)
            and (dotted := _dotted(value.func)) is not None
            and dotted.rsplit(".", 1)[-1] in _RNG_CONSTRUCTORS
        ):
            top_level_rng_lines.add(stmt.lineno)
            found.append(Finding(
                "REP011", mod.path, stmt.lineno, stmt.col_offset,
                "module-level RNG stream: one generator shared across "
                "runs (and pool workers) breaks per-run replayability — "
                "construct RNGs per Simulation from SimConfig.seed",
            ))
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        tail = dotted.rsplit(".", 1)[-1]
        if (
            tail in _RNG_CONSTRUCTORS
            and tail != "SystemRandom"
            and not node.args
            and not node.keywords
        ):
            found.append(Finding(
                "REP011", mod.path, node.lineno, node.col_offset,
                f"unseeded {tail}(): seeds from OS entropy, so the run "
                "is not reproducible — derive the seed from "
                "SimConfig.seed",
            ))
        elif tail == "SystemRandom" and node.lineno not in top_level_rng_lines:
            found.append(Finding(
                "REP011", mod.path, node.lineno, node.col_offset,
                "SystemRandom is unseedable by design and never "
                "reproducible — use random.Random(SimConfig.seed)",
            ))
        elif (
            dotted.startswith(("np.random.", "numpy.random."))
            and tail not in _NP_RANDOM_SAFE
        ):
            found.append(Finding(
                "REP011", mod.path, node.lineno, node.col_offset,
                f"np.random.{tail}(...) draws from numpy's global "
                "generator (process-wide state no seed in SimConfig "
                "controls) — draw from a default_rng(seed) instance",
            ))
    return found


# ----------------------------------------------------------------------
# REP012 - pool workers do not mutate module-level state
# ----------------------------------------------------------------------
_POOL_METHODS = {"map", "imap", "imap_unordered", "starmap", "map_async"}

_MUTATOR_METHODS = {"append", "extend", "add", "update", "setdefault",
                    "insert", "pop", "popitem", "remove", "discard",
                    "clear", "inc", "observe"}


def _worker_names(mods: list[_Module]) -> set[str]:
    """Terminal names of callables handed to ``parallel_map`` / pools,
    and of the figure jobs handed to ``run_per_algorithm`` (its one
    generic pool worker runs them, so they are worker bodies too)."""
    names: set[str] = set()
    for mod in mods:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dispatch = _base_name(func)
            if dispatch == "run_per_algorithm":
                # run_per_algorithm(profile, algorithms, job, ...)
                worker = node.args[2] if len(node.args) > 2 else next(
                    (kw.value for kw in node.keywords if kw.arg == "job"), None
                )
            elif node.args and (
                dispatch == "parallel_map"
                or (isinstance(func, ast.Attribute)
                    and func.attr in _POOL_METHODS)
            ):
                worker = node.args[0]
            else:
                continue
            target = _base_name(worker) if worker is not None else None
            if target is not None:
                names.add(target)
    return names


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    names.add(t.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _rule_pool_worker_purity(mods: list[_Module]) -> list[Finding]:
    """REP012: functions dispatched to process pools stay pure.

    A worker that mutates module-level state only mutates its *own*
    process copy: the parent never sees it, sequential and ``--workers
    N`` runs silently diverge, and the merged == sequential telemetry
    proof breaks.  Workers must return their results (telemetry flows
    through the snapshot/merge idiom).
    """
    workers = _worker_names(mods)
    if not workers:
        return []
    found = []
    for mod in mods:
        module_names = _module_level_names(mod.tree)
        for stmt in mod.tree.body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name not in workers:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Global):
                    found.append(Finding(
                        "REP012", mod.path, node.lineno, node.col_offset,
                        f"pool worker {stmt.name!r} declares "
                        f"'global {', '.join(node.names)}': the write "
                        "stays in the worker process and the parent "
                        "never sees it — return the value instead",
                    ))
                    continue
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for t in targets:
                    base = t
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if isinstance(base, ast.Name) and base.id in module_names:
                        found.append(Finding(
                            "REP012", mod.path, node.lineno, node.col_offset,
                            f"pool worker {stmt.name!r} writes into "
                            f"module-level {base.id!r}: per-process "
                            "state diverges from the sequential path — "
                            "return results and merge in the parent",
                        ))
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in module_names
                ):
                    found.append(Finding(
                        "REP012", mod.path, node.lineno, node.col_offset,
                        f"pool worker {stmt.name!r} calls "
                        f"{node.func.value.id}.{node.func.attr}(...) on "
                        "module-level state: the mutation is invisible "
                        "to the parent process — return results and "
                        "merge in the parent",
                    ))
    return found


# ----------------------------------------------------------------------
# REP013 - merge/digest reductions iterate in sorted-key order
# ----------------------------------------------------------------------
_REP013_SCOPE = ("repro/obs/", "repro/store/", "repro/campaigns/",
                 "repro/experiments/")

_DICT_VIEWS = {"items", "keys", "values"}


def _rule_sorted_reductions(mod: _Module) -> list[Finding]:
    """REP013: merge/digest code never iterates raw dict views.

    Merged snapshots, store digests and campaign proofs-of-equality all
    hash or fold dict contents; iterating insertion order makes the
    result depend on *which worker finished first*.  Inside any
    ``*merge*``/``*digest*`` function in the obs/store/campaigns/
    experiments layers, dict-view loops must be wrapped in
    ``sorted(...)``.
    """
    if not any(prefix in mod.path for prefix in _REP013_SCOPE):
        return []
    found = []
    for func in ast.walk(mod.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = func.name.lower()
        if "merge" not in name and "digest" not in name:
            continue
        iters = [n.iter for n in ast.walk(func) if isinstance(n, ast.For)]
        for comp in ast.walk(func):
            if isinstance(comp, (ast.ListComp, ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp)):
                iters.extend(g.iter for g in comp.generators)
        for it in iters:
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in _DICT_VIEWS
                and not it.args
                and not it.keywords
            ):
                found.append(Finding(
                    "REP013", mod.path, it.lineno, it.col_offset,
                    f"unsorted .{it.func.attr}() iteration in "
                    f"{func.name!r}: merge/digest order must not depend "
                    "on dict insertion order (worker completion order) "
                    "— wrap in sorted(...)",
                ))
    return found


# ----------------------------------------------------------------------
# REP014 - hot-path simulator classes declare __slots__
# ----------------------------------------------------------------------
def _has_dataclass_decorator(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _base_name(target) == "dataclass":
            return True
    return False


def _is_exception_class(node: ast.ClassDef) -> bool:
    return any(
        (name := _base_name(base)) is not None
        and (name.endswith(("Error", "Exception")) or name == "BaseException")
        for base in node.bases
    )


def _rule_simulator_slots(mod: _Module) -> list[Finding]:
    """REP014: ``repro.simulator`` classes declare ``__slots__``.

    The engine allocates VC/stream/message objects by the hundred
    thousand; per-instance ``__dict__`` costs both memory and attribute-
    lookup time on the hottest path in the tree, and the upcoming
    struct-of-arrays refactor depends on the attribute set being closed.
    Dataclasses (results/configs) and exceptions are exempt.
    """
    if "repro/simulator/" not in mod.path:
        return []
    found = []
    for node in mod.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _has_dataclass_decorator(node) or _is_exception_class(node):
            continue
        has_slots = any(
            (isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ))
            or (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            )
            for stmt in node.body
        )
        if not has_slots:
            found.append(Finding(
                "REP014", mod.path, node.lineno, node.col_offset,
                f"class {node.name!r} has no __slots__: simulator "
                "objects are allocated per-VC/per-flit on the hot path "
                "— declare the closed attribute set (dataclasses and "
                "exceptions are exempt)",
            ))
    return found


# ----------------------------------------------------------------------
# REP015 — the serving layer never touches the simulator directly
# ----------------------------------------------------------------------
def _rule_serve_boundary(mod: _Module) -> list[Finding]:
    """REP015: ``repro.serve`` must not import ``repro.simulator``.

    The serving layer sits *above* the evaluator: simulation happens
    only through :class:`repro.store.cache.CachedEvaluator`, so every
    served run is canonically keyed, cached in the store, and gets the
    deadlock-policy/seed-derivation treatment of
    :class:`repro.core.evaluator.Evaluator`.  A direct
    ``repro.simulator`` import would let answers bypass all three
    (``ENGINE_VERSION`` is re-exported by ``repro.core.evaluator`` for
    exactly this reason).
    """
    if "repro/serve/" not in mod.path:
        return []
    found = []
    for node in _iter_code_nodes(mod.tree):
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [node.module]
        for target in targets:
            if target == "repro.simulator" or target.startswith(
                "repro.simulator."
            ):
                found.append(Finding(
                    "REP015", mod.path, node.lineno, node.col_offset,
                    f"serving boundary: repro.serve must not import "
                    f"{target} — simulate only through "
                    "repro.core.evaluator / repro.store.cache so served "
                    "runs are keyed, cached, and policy-correct",
                ))
    return found


# ----------------------------------------------------------------------
# REP016 — monotonic timing goes through the sanctioned clock
# ----------------------------------------------------------------------
#: The one module allowed to name ``time.perf_counter``: it exports
#: ``clock`` for every other timing site.
_TIMER_HOME = "repro/obs/profile"

_TIMER_ATTRS = {"perf_counter", "perf_counter_ns"}


def _rule_sanctioned_timer(mod: _Module) -> list[Finding]:
    """REP016: ``time.perf_counter`` is named only in the timer home.

    :mod:`repro.obs.profile` exports ``clock`` (=``time.perf_counter``)
    as the project's single monotonic timer; bench, manifests, figure
    drivers, campaign shards, and the serving layer import it from
    there.  Keeping the raw name in one module makes every timing site
    greppable (``grep 'import clock'``) and stops the engine-facing
    no-wall-clock rule (REP006) eroding one ad-hoc ``import time`` at
    a time.  Inside REP006's forbidden scope even *importing* the
    timer home is flagged — the engine reports phase boundaries to an
    attached profiler; it never reads a clock itself.
    """
    if _TIMER_HOME in mod.path:
        return []
    found = []
    if any(p in mod.path for p in _WALLCLOCK_FORBIDDEN_PREFIXES):
        for node in _iter_code_nodes(mod.tree):
            targets: list[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                targets = [node.module]
            if any(t == "repro.obs.profile" for t in targets):
                found.append(Finding(
                    "REP016", mod.path, node.lineno, node.col_offset,
                    "importing repro.obs.profile from a no-wall-clock "
                    "module; the engine publishes phase_lap events to an "
                    "attached profiler and never reads the clock itself",
                ))
    time_names: set[str] = set()
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_names.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _TIMER_ATTRS:
                    found.append(Finding(
                        "REP016", mod.path, node.lineno, node.col_offset,
                        f"'from time import {alias.name}' outside the "
                        "sanctioned timer module; use 'from "
                        "repro.obs.profile import clock'",
                    ))
    if time_names:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in time_names
                and node.attr in _TIMER_ATTRS
            ):
                found.append(Finding(
                    "REP016", mod.path, node.lineno, node.col_offset,
                    f"time.{node.attr} outside the sanctioned timer "
                    "module; use 'from repro.obs.profile import clock'",
                ))
    return found


# ----------------------------------------------------------------------
# REP017 — trace spans respect engine time discipline
# ----------------------------------------------------------------------
#: The span module whose clock-reading surface must stay out of the
#: cycle-driven scope; only :data:`repro.obs.spans.CYCLE_SAFE_NAMES`
#: (pure id/constructor helpers) may cross the boundary.
_SPANS_MODULE = "repro.obs.spans"


def _rule_span_discipline(mod: _Module) -> list[Finding]:
    """REP017: spans stay cycle-safe in the engine.

    A no-wall-clock module (REP006 scope) may import from
    ``repro.obs.spans`` only the cycle-safe constructor names in
    ``CYCLE_SAFE_NAMES`` — everything else (``Trace.span``, ambient
    helpers, file IO) reads the sanctioned clock or does IO.
    """
    if not any(p in mod.path for p in _WALLCLOCK_FORBIDDEN_PREFIXES):
        return []
    found = []
    for node in _iter_code_nodes(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == _SPANS_MODULE or alias.name.startswith(
                    _SPANS_MODULE + "."
                ):
                    found.append(Finding(
                        "REP017", mod.path, node.lineno, node.col_offset,
                        f"'import {alias.name}' in a cycle-driven module "
                        "exposes the whole span API (clock-stamped "
                        "Trace.span, file IO); import only the cycle-safe "
                        f"names {', '.join(CYCLE_SAFE_NAMES)}",
                    ))
        elif isinstance(node, ast.ImportFrom) and node.module == _SPANS_MODULE:
            for alias in node.names:
                if alias.name not in CYCLE_SAFE_NAMES:
                    found.append(Finding(
                        "REP017", mod.path, node.lineno, node.col_offset,
                        f"'from {_SPANS_MODULE} import {alias.name}' in a "
                        "cycle-driven module; only the cycle-safe "
                        f"constructors ({', '.join(CYCLE_SAFE_NAMES)}) may "
                        "cross this boundary — wall-clock spans are "
                        "recorded outside the engine (REP006/REP016)",
                    ))

    return found


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
#: rule id -> (scope, summary, implementation).
RULES: dict[str, tuple[str, str, object]] = {
    "REP001": (
        "module",
        "no mutable default arguments",
        _rule_mutable_defaults,
    ),
    "REP002": (
        "module",
        "no unseeded stdlib-random draws outside repro.traffic",
        _rule_unseeded_random,
    ),
    "REP003": (
        "module",
        "layer import boundaries (routing/topology/faults stay pure; "
        "repro.simulator never imports repro.obs, even inside a function)",
        _rule_import_boundaries,
    ),
    "REP004": (
        "project",
        "routing algorithms declare name and deadlock_free explicitly",
        _rule_algorithm_declarations,
    ),
    "REP005": (
        "module",
        "tiers_for/candidate_tiers annotated '-> Sequence[Tier]' (or list[Tier])",
        _rule_tier_annotations,
    ),
    "REP006": (
        "module",
        "no wall-clock reads in repro.simulator / telemetry hot paths",
        _rule_no_wallclock,
    ),
    "REP007": (
        "module",
        "figure drivers are profile-driven (run_*(profile, ...), no "
        "inline SimConfig)",
        _rule_figure_drivers,
    ),
    "REP008": (
        "module",
        "content digests outside repro.store.keys go through "
        "content_digest / canonical_json (one key space, one "
        "serialization)",
        _rule_canonical_digests,
    ),
    "REP009": (
        "module",
        "repro.simulator reaches observers only by iterating its event "
        "tuples (no registry accessors; only attach binds them)",
        _rule_observer_protocol,
    ),
    "REP010": (
        "module",
        "campaign/store key material round-trips through "
        "repro.util.serialization canonical dicts (no ad-hoc "
        "json.dumps of configs)",
        _rule_canonical_key_material,
    ),
    "REP011": (
        "module",
        "simulator/routing randomness is seeded and instance-owned "
        "(no unseeded or module-level RNG, no numpy global draws)",
        _rule_engine_rng,
    ),
    "REP012": (
        "project",
        "pool workers (parallel_map / campaign shards) never mutate "
        "module-level state",
        _rule_pool_worker_purity,
    ),
    "REP013": (
        "module",
        "merge/digest reductions iterate dict views in sorted order",
        _rule_sorted_reductions,
    ),
    "REP014": (
        "module",
        "repro.simulator classes declare __slots__ (hot-path allocation)",
        _rule_simulator_slots,
    ),
    "REP015": (
        "module",
        "repro.serve never imports repro.simulator (simulate only via "
        "the cached evaluator)",
        _rule_serve_boundary,
    ),
    "REP016": (
        "module",
        "time.perf_counter only in repro.obs.profile (everyone else "
        "imports its clock); no-wall-clock modules may not import the "
        "timer home at all",
        _rule_sanctioned_timer,
    ),
    "REP017": (
        "module",
        "cycle-driven modules import only cycle-safe span constructors "
        "from repro.obs.spans",
        _rule_span_discipline,
    ),
}


def lint_modules(
    mods: list[_Module], select: set[str] | None = None
) -> list[Finding]:
    """Run the rule catalog over parsed modules."""
    findings: list[Finding] = []
    for rule_id, (scope, _summary, impl) in sorted(RULES.items()):
        if select is not None and rule_id not in select:
            continue
        if scope == "project":
            findings.extend(impl(mods))
        else:
            for mod in mods:
                findings.extend(impl(mod))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_paths(
    paths: list[Path], select: set[str] | None = None
) -> list[Finding]:
    """Lint every ``*.py`` file under *paths* (files or directories)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    mods = []
    findings = []
    for file in files:
        rel = file.as_posix()
        try:
            tree = ast.parse(file.read_text(), filename=str(file))
        except SyntaxError as exc:
            findings.append(Finding(
                "REP000", rel, exc.lineno or 0, exc.offset or 0,
                f"syntax error: {exc.msg}",
            ))
            continue
        mods.append(_Module(path=rel, tree=tree))
    return findings + lint_modules(mods, select)


def lint_source(
    source: str, path: str = "<string>", select: set[str] | None = None
) -> list[Finding]:
    """Lint a source string (unit tests / embedding)."""
    tree = ast.parse(source, filename=path)
    return lint_modules([_Module(path=path, tree=tree)], select)
