"""Project-rule AST linter (:mod:`ast`-based, zero dependencies).

Rules encode invariants of *this* codebase that generic linters cannot
know.  Each rule has a stable id (``REPxxx``) and a one-line summary in
:data:`RULES`, and is one of two kinds:

* **reference rules** ask one question — "inside *scope*, is *this
  module / this name* referenced outside *exempt*?" — and are declared,
  not written: rows of :data:`REFERENCE_ROWS`, read by one interpreter
  over the import and ``alias.attr`` records one pass per module
  collects.  The table is the layering diagram; adding a boundary is
  adding a row.
* **structural rules** need the shape of the code (signatures, class
  bodies, call arguments) and are ``_rule_xxx`` functions: **module
  rules** run per file, **project rules** run once over the whole
  parsed file set (needed to resolve class hierarchies across modules).

See ``docs/verify.md`` for the catalog, the row schema and rationale.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple


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
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


#: An AST node with a position (what a rule reports a violation at).
_Node = ast.stmt | ast.expr


class _Ref(NamedTuple):
    """One reference to another module, as :func:`_collect_refs` records it."""

    #: ``import`` (``import M``, one per alias) and ``from`` (``from M
    #: import ...``, one per statement) name the module itself; ``name``
    #: is one ``from M import n`` alias; ``attr`` is ``x.n`` where an
    #: ``import M [as x]`` anywhere in the file binds ``x``.
    kind: str
    module: str
    name: str
    node: _Node  # where a finding is reported
    guarded: bool  # under ``if TYPE_CHECKING:`` (never executes)


@dataclass(frozen=True)
class _Module:
    path: str  # repo-relative, "/"-separated
    tree: ast.Module

    @cached_property
    def refs(self) -> list[_Ref]:
        """The one pass over the tree that every reference rule reads."""
        return _collect_refs(self.tree)


#: What a module rule yields per violation, and what a project rule does.
_Hit = tuple[_Node, str]
_ProjectHit = tuple[_Module, _Node, str]
_ModuleRule = Callable[[_Module], Iterable[_Hit]]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _collect_refs(tree: ast.Module) -> list[_Ref]:
    """Import and ``alias.attr`` records of one module, in one walk.

    Aliases are tracked file-wide (an ``import time as t`` inside one
    function makes ``t.monotonic`` a read of ``time`` everywhere) and the
    import level is ignored (``from .time import x`` reads as ``time``):
    over-approximate on purpose, missing a read costs more than a waiver.
    """
    refs: list[_Ref] = []
    aliases: dict[str, set[str]] = {}
    attrs: list[tuple[str, ast.Attribute, bool]] = []
    stack: list[tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, guarded = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                refs.append(_Ref("import", alias.name, alias.name, node, guarded))
                aliases.setdefault(alias.asname or alias.name, set()).add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            refs.append(_Ref("from", node.module, node.module, node, guarded))
            for alias in node.names:
                refs.append(_Ref("name", node.module, alias.name, node, guarded))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attrs.append((node.value.id, node, guarded))
        guard_body: list[ast.stmt] = []
        if isinstance(node, ast.If) and _base_name(node.test) == "TYPE_CHECKING":
            guard_body = node.body
        for child in ast.iter_child_nodes(node):
            stack.append((child, guarded or child in guard_body))
    for local, read, in_guard in attrs:
        for module in sorted(aliases.get(local, ())):
            refs.append(_Ref("attr", module, read.attr, read, in_guard))
    return refs


def _base_name(expr: ast.expr) -> str | None:
    """Terminal name of a base-class expression (``a.b.C`` -> ``C``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


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


def _annotation_text(expr: ast.expr | None) -> str:
    return "" if expr is None else ast.unparse(expr).replace(" ", "")


def _assigned_names(body: list[ast.stmt]) -> set[str]:
    """Names bound by a plain or annotated assignment directly in *body*."""
    names: set[str] = set()
    for stmt in body:
        if isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


# ----------------------------------------------------------------------
# REP001 — mutable default arguments
# ----------------------------------------------------------------------
def _rule_mutable_defaults(mod: _Module) -> Iterator[_Hit]:
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
                yield default, f"mutable default argument in {node.name}()"


# ----------------------------------------------------------------------
# REP004 — routing algorithms declare name and deadlock_free
# (project scope: the class hierarchy spans several modules)
# ----------------------------------------------------------------------
def _rule_algorithm_declarations(mods: list[_Module]) -> Iterator[_ProjectHit]:
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

    for name, (mod, node) in classes.items():
        if name == "RoutingAlgorithm" or name.startswith("_"):
            continue  # the interface itself / private mixins
        if not derives_from_algorithm(name, frozenset()):
            continue
        declared = _assigned_names(node.body)
        for attr in ("name", "deadlock_free"):
            if attr not in declared:
                yield mod, node, (
                    f"routing algorithm {name} must declare {attr!r} in its "
                    "class body (explicit, not inherited: the verifier and "
                    "the experiment defaults key on it)"
                )


# ----------------------------------------------------------------------
# REP005 — tier-returning methods carry the Sequence[Tier] annotation
# ----------------------------------------------------------------------
def _rule_tier_annotations(mod: _Module) -> Iterator[_Hit]:
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name not in ("tiers_for", "candidate_tiers"):
            continue
        annotation = _annotation_text(node.returns)
        if annotation not in ("Sequence[Tier]", "list[Tier]"):
            yield node, (
                f"{node.name}() must be annotated '-> Sequence[Tier]' (or "
                f"'-> list[Tier]'; found {annotation or 'no annotation'!r}); "
                "the tier shape is a checked engine contract"
            )


# ----------------------------------------------------------------------
# REP007 — figure drivers stay profile-driven
# ----------------------------------------------------------------------
def _rule_figure_drivers(mod: _Module) -> Iterator[_Hit]:
    if not mod.path.rsplit("/", 1)[-1].startswith("fig_"):
        return
    for node in mod.tree.body:  # top-level functions only
        if not isinstance(node, ast.FunctionDef):
            continue
        if not node.name.startswith("run_"):
            continue
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if not params or params[0] != "profile":
            yield node, (
                f"figure driver {node.name}() must take 'profile' as its "
                "first parameter (drivers are parameterized by the "
                "registered profiles in repro.experiments.profiles, so "
                "every figure runs at quick/smoke/paper scale)"
            )
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Call) and _base_name(node.func) == "SimConfig":
            yield node, (
                "figure drivers must not construct SimConfig inline; the "
                "simulation scale belongs to the profile registry "
                "(repro.experiments.profiles), not to one figure"
            )


# ----------------------------------------------------------------------
# REP008 — content digests go through content_digest / canonical_json
# ----------------------------------------------------------------------
#: hashlib constructors whose output the store treats as a content key.
_DIGEST_FUNCS = {"sha256", "sha1", "md5"}


def _is_canonical_json_call(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Call)
        and _base_name(expr.func) == "canonical_json"
    )


def _rule_canonical_digests(mod: _Module) -> Iterator[_Hit]:
    # Local names bound to a canonical_json(...) result anywhere in the
    # module (``payload = canonical_json(...); sha256(payload.encode())``
    # is the common two-line idiom).
    canonical_names = _assigned_names([
        node for node in ast.walk(mod.tree)
        if isinstance(node, ast.Assign) and _is_canonical_json_call(node.value)
    ])

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

    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)  # hashlib.sha256(...) or a bare sha256(...)
        if name is None or name.removeprefix("hashlib.") not in _DIGEST_FUNCS:
            continue
        if digests_canonical_json(node):
            continue
        yield node, (
            f"{name}() outside repro.store.keys must digest "
            "canonical_json(...) — ad-hoc serialization silently forks "
            "the store's key space (dict order, float formatting); call "
            "repro.store.keys.content_digest(payload), which serializes "
            "and hashes in one step"
        )


# ----------------------------------------------------------------------
# REP010 — campaign/store key material round-trips through
# repro.util.serialization canonical dicts
# ----------------------------------------------------------------------
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
    name = _base_name(arg)
    if name is not None and (
        name in _CONFIG_NAMES or name.endswith("_config")
    ):
        return name
    return None


def _rule_canonical_key_material(mod: _Module) -> Iterator[_Hit]:
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        dump = _dotted(node.func)
        if dump not in ("json.dumps", "json.dump"):
            continue
        suspect = _config_like_arg(node.args[0])
        if suspect is None:
            continue
        yield node, (
            f"{dump}({suspect}) serializes key material "
            "ad-hoc; campaign/store payloads must round-trip through "
            "repro.util.serialization (config_to_dict / pattern_to_dict) "
            "and hash via repro.store.keys.canonical_json so every writer "
            "agrees on one key space"
        )


# ----------------------------------------------------------------------
# REP009 — the engine reaches observers only through its event tuples
# ----------------------------------------------------------------------
#: Registry accessors (instrument factories): instrument names belong
#: to the subscribing observer, never to the engine.
_TELEMETRY_ACCESSORS = {
    "counter", "gauge", "histogram", "labeled_counter", "series",
}


def _rule_observer_protocol(mod: _Module) -> Iterator[_Hit]:
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
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _TELEMETRY_ACCESSORS
        ):
            yield node, (
                f".{node.func.attr}(...) in the engine: instruments are "
                "resolved by the subscribing observer's bind(sim), the "
                "engine only publishes events"
            )
        elif not (isinstance(node, ast.Attribute) and node.attr.startswith("_on_")):
            continue
        elif isinstance(node.ctx, ast.Store) and node not in binders:
            yield node, f"event tuple {node.attr!r} bound outside __init__/attach"
        elif isinstance(node.ctx, ast.Load) and node in misused:
            yield node, (
                "event tuples are only iterated ('for publish in <tuple>: "
                "publish(...)'): do not call, index or pass one on"
            )


# ----------------------------------------------------------------------
# REP011 - seeded, instance-owned RNG in the engine/routing scope
# ----------------------------------------------------------------------
_RNG_CONSTRUCTORS = {"Random", "SystemRandom", "default_rng"}

#: ``np.random`` attributes that are not global-generator draws.
_NP_RANDOM_SAFE = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                   "PCG64", "RandomState"}


def _rule_engine_rng(mod: _Module) -> Iterator[_Hit]:
    """REP011: simulator/routing randomness is seeded and instance-owned.

    Replayability of every run key rests on all randomness flowing from
    ``SimConfig.seed``-derived streams (``engine.py``'s ``rng`` /
    ``_perm_rng``).  Three things break that silently: an RNG
    constructed without a seed (OS entropy), a module-level RNG stream
    (shared across runs and across pool workers), and draws from numpy's
    global generator.
    """
    top_level_rng_lines = set()
    for stmt in mod.tree.body:
        if (
            isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and isinstance(stmt.value, ast.Call)
            and (dotted := _dotted(stmt.value.func)) is not None
            and dotted.rsplit(".", 1)[-1] in _RNG_CONSTRUCTORS
        ):
            top_level_rng_lines.add(stmt.lineno)
            yield stmt, (
                "module-level RNG stream: one generator shared across "
                "runs (and pool workers) breaks per-run replayability — "
                "construct RNGs per Simulation from SimConfig.seed"
            )
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
            yield node, (
                f"unseeded {tail}(): seeds from OS entropy, so the run "
                "is not reproducible — derive the seed from SimConfig.seed"
            )
        elif tail == "SystemRandom" and node.lineno not in top_level_rng_lines:
            yield node, (
                "SystemRandom is unseedable by design and never "
                "reproducible — use random.Random(SimConfig.seed)"
            )
        elif (
            dotted.startswith(("np.random.", "numpy.random."))
            and tail not in _NP_RANDOM_SAFE
        ):
            yield node, (
                f"np.random.{tail}(...) draws from numpy's global "
                "generator (process-wide state no seed in SimConfig "
                "controls) — draw from a default_rng(seed) instance"
            )


# ----------------------------------------------------------------------
# REP012 - pool workers do not mutate module-level state
# ----------------------------------------------------------------------
_POOL_METHODS = {"map", "imap", "imap_unordered", "starmap", "map_async"}

_MUTATOR_METHODS = {"append", "extend", "add", "update", "setdefault",
                    "insert", "pop", "popitem", "remove", "discard",
                    "clear", "inc", "observe"}


def _worker_names(mods: list[_Module]) -> set[str]:
    """Terminal names of callables handed to ``parallel_map`` /
    ``iter_parallel`` / pools, of the figure jobs handed to
    ``run_per_algorithm`` and of the setups a ``run_cells(...,
    setup=(prepare, ...))`` call names (a pool worker runs them, so
    they are worker bodies too).  A job's point body is a closure
    inside it, checked with the job."""
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
            elif dispatch == "run_cells":
                # run_cells(cells, workers, setup=(prepare, *args), ...)
                setup = next(
                    (kw.value for kw in node.keywords if kw.arg == "setup"),
                    None,
                )
                worker = (
                    setup.elts[0]
                    if isinstance(setup, ast.Tuple) and setup.elts else None
                )
            elif node.args and (
                dispatch in ("parallel_map", "iter_parallel")
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


def _rule_pool_worker_purity(mods: list[_Module]) -> Iterator[_ProjectHit]:
    """REP012: functions dispatched to process pools stay pure.

    A worker that mutates module-level state only mutates its *own*
    process copy: the parent never sees it, sequential and ``--workers
    N`` runs silently diverge, and the merged == sequential telemetry
    proof breaks.  Workers must return their results (telemetry flows
    through the snapshot/merge idiom).
    """
    workers = _worker_names(mods)
    for mod in mods:
        module_names = _assigned_names(mod.tree.body)
        for stmt in mod.tree.body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name not in workers:
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Global):
                    yield mod, node, (
                        f"pool worker {stmt.name!r} declares "
                        f"'global {', '.join(node.names)}': the write "
                        "stays in the worker process and the parent "
                        "never sees it — return the value instead"
                    )
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
                        yield mod, node, (
                            f"pool worker {stmt.name!r} writes into "
                            f"module-level {base.id!r}: per-process "
                            "state diverges from the sequential path — "
                            "return results and merge in the parent"
                        )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in module_names
                ):
                    yield mod, node, (
                        f"pool worker {stmt.name!r} calls "
                        f"{node.func.value.id}.{node.func.attr}(...) on "
                        "module-level state: the mutation is invisible "
                        "to the parent process — return results and "
                        "merge in the parent"
                    )


# ----------------------------------------------------------------------
# REP013 - merge/digest reductions iterate in sorted-key order
# ----------------------------------------------------------------------
_DICT_VIEWS = {"items", "keys", "values"}


def _rule_sorted_reductions(mod: _Module) -> Iterator[_Hit]:
    """REP013: merge/digest code never iterates raw dict views.

    Merged snapshots, store digests and campaign proofs-of-equality all
    hash or fold dict contents; iterating insertion order makes the
    result depend on *which worker finished first*.  Inside any
    ``*merge*``/``*digest*`` function in the obs/store/campaigns/
    experiments layers, dict-view loops must be wrapped in
    ``sorted(...)``.
    """
    for func in ast.walk(mod.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = func.name.lower()
        if "merge" not in name and "digest" not in name:
            continue
        for it in (
            n.iter for n in ast.walk(func)
            if isinstance(n, (ast.For, ast.comprehension))
        ):
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in _DICT_VIEWS
                and not it.args
                and not it.keywords
            ):
                yield it, (
                    f"unsorted .{it.func.attr}() iteration in "
                    f"{func.name!r}: merge/digest order must not depend "
                    "on dict insertion order (worker completion order) "
                    "— wrap in sorted(...)"
                )


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


def _rule_simulator_slots(mod: _Module) -> Iterator[_Hit]:
    """REP014: ``repro.simulator`` classes declare ``__slots__``.

    The engine allocates VC/stream/message objects by the hundred
    thousand; per-instance ``__dict__`` costs both memory and attribute-
    lookup time on the hottest path in the tree, and the upcoming
    struct-of-arrays refactor depends on the attribute set being closed.
    Dataclasses (results/configs) and exceptions are exempt.
    """
    for node in mod.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if _has_dataclass_decorator(node) or _is_exception_class(node):
            continue
        if "__slots__" not in _assigned_names(node.body):
            yield node, (
                f"class {node.name!r} has no __slots__: simulator "
                "objects are allocated per-VC/per-flit on the hot path "
                "— declare the closed attribute set (dataclasses and "
                "exceptions are exempt)"
            )


# ----------------------------------------------------------------------
# Reference rules — REP002, REP003, REP006, REP015, REP016, REP017
# ----------------------------------------------------------------------
_STATEMENT = ("import", "from")  # the two kinds that name a module, not a name


@dataclass(frozen=True)
class _Row:
    """One reference rule: in a module whose path contains a *scope*
    fragment (any module when empty) and no *exempt* one, flag every
    :class:`_Ref` of one of *kinds* to one of *modules* whose name is in
    *deny* — or, with no *deny*, is not in *allow*.

    ``import``/``from`` refs match a module or anything under it, and
    *allow* then carves whole modules out; ``name``/``attr`` refs match
    the module exactly.  *runtime_only* rows skip ``if TYPE_CHECKING:``
    imports.  *message* is a ``str.format`` template over ``{module}``,
    ``{name}`` and ``{dir}`` (the linted file's directory).
    """

    code: str
    kinds: tuple[str, ...]
    modules: tuple[str, ...]
    message: str
    scope: tuple[str, ...] = ()
    exempt: tuple[str, ...] = ()
    deny: frozenset[str] | None = None
    allow: frozenset[str] = frozenset()
    runtime_only: bool = False

    def flags(self, ref: _Ref) -> bool:
        below = ref.kind in _STATEMENT  # those match M or anything under it
        return (
            ref.kind in self.kinds
            and not (self.runtime_only and ref.guarded)
            and any(
                ref.module == m or (below and ref.module.startswith(m + "."))
                for m in self.modules
            )
            and (ref.name not in self.allow if self.deny is None else ref.name in self.deny)
        )


#: Modules that never read a clock: the cycle-driven engine core and the
#: telemetry layer it publishes into.  Simulation behavior and
#: observations must be functions of the cycle counter alone — wall-clock
#: reads there break determinism of anything derived from them and hide
#: real perf costs from the :mod:`repro.obs.bench` harness, which times
#: runs from the *outside*.
_CYCLE_DRIVEN = ("repro/simulator/", "repro/obs/telemetry")

#: The one module allowed to name ``time.perf_counter``: it exports
#: ``clock`` for every other timing site, which keeps timing greppable
#: (``grep 'import clock'``) and stops REP006 eroding one ad-hoc
#: ``import time`` at a time.
_TIMER_HOME = ("repro/obs/profile",)
_TIMER_ATTRS = frozenset({"perf_counter", "perf_counter_ns"})

#: ``time`` module attributes that read a clock.
_WALLCLOCK_ATTRS = _TIMER_ATTRS | {
    "time", "time_ns", "monotonic", "monotonic_ns", "process_time",
    "process_time_ns", "clock_gettime", "clock_gettime_ns",
}

#: ``random`` attributes that are classes/constructors, not draws.
_RANDOM_SAFE_ATTRS = frozenset({"Random", "SystemRandom", "seed"})

_BOUNDARY = "layer boundary: modules under {dir}/ must not import {module}"
_HOT_PATH = (
    " in a simulator hot-path module; the engine is cycle-driven — stamp "
    "telemetry with the cycle counter, time runs from outside (repro.obs.bench)"
)
_USE_CLOCK = (
    " outside the sanctioned timer module; use 'from repro.obs.profile "
    "import clock'"
)

REFERENCE_ROWS: tuple[_Row, ...] = (
    # REP002 — seeded random.Random instances are fine everywhere; the
    # traffic layer owns randomness and is always handed a seeded rng.
    _Row(
        "REP002", ("name",), ("random",), exempt=("repro/traffic/",),
        allow=_RANDOM_SAFE_ATTRS,
        message="'from random import {name}' pulls an unseeded global-RNG "
        "function; pass a seeded random.Random instead",
    ),
    _Row(
        "REP002", ("attr",), ("random",), exempt=("repro/traffic/",),
        allow=_RANDOM_SAFE_ATTRS,
        message="random.{name} draws from the unseeded global RNG; use a "
        "seeded random.Random instance",
    ),
    # REP003 — repro.routing stays a pure decision layer: it may see
    # messages, budgets, faults and topology, never the engine,
    # experiments or store.
    _Row(
        "REP003", _STATEMENT, scope=("repro/routing/",), runtime_only=True,
        modules=("repro.simulator.engine", "repro.experiments", "repro.store",
                 "repro.metrics"),
        message=_BOUNDARY,
    ),
    # ... topology and faults are leaf layers.
    _Row(
        "REP003", _STATEMENT, scope=("repro/topology/",), runtime_only=True,
        modules=("repro.routing", "repro.simulator", "repro.faults",
                 "repro.experiments"),
        message=_BOUNDARY,
    ),
    _Row(
        "REP003", _STATEMENT, scope=("repro/faults/",), runtime_only=True,
        modules=("repro.simulator", "repro.routing", "repro.experiments"),
        message=_BOUNDARY,
    ),
    # ... and the engine never imports the observability layer — observers
    # subscribe through Simulation.attach — function-level imports
    # included (shared arithmetic lives in repro.metrics).
    _Row(
        "REP003", _STATEMENT, ("repro.obs",), scope=("repro/simulator/",),
        runtime_only=True, message=_BOUNDARY,
    ),
    _Row(
        "REP006", ("name",), ("time",), scope=_CYCLE_DRIVEN,
        deny=_WALLCLOCK_ATTRS, message="'from time import {name}'" + _HOT_PATH,
    ),
    _Row(
        "REP006", ("attr",), ("time",), scope=_CYCLE_DRIVEN,
        deny=_WALLCLOCK_ATTRS, message="time.{name}()" + _HOT_PATH,
    ),
    # REP015 — the serving layer sits *above* the evaluator, so every served
    # run is keyed, cached and gets its deadlock-policy/seed treatment
    # (repro.core.evaluator re-exports ENGINE_VERSION for exactly this).
    _Row(
        "REP015", _STATEMENT, ("repro.simulator",), scope=("repro/serve/",),
        runtime_only=True,
        message="serving boundary: repro.serve must not import {module} — "
        "simulate only through repro.core.evaluator / repro.store.cache so "
        "served runs are keyed, cached, and policy-correct",
    ),
    # REP016 — a cycle-driven module may not even *import* the timer home,
    # and nobody but the timer home names the raw timer.
    _Row(
        "REP016", _STATEMENT, ("repro.obs.profile",), scope=_CYCLE_DRIVEN,
        exempt=_TIMER_HOME, runtime_only=True,
        message="importing repro.obs.profile from a no-wall-clock module; "
        "the engine publishes phase_lap events to an attached profiler and "
        "never reads the clock itself",
    ),
    _Row(
        "REP016", ("name",), ("time",), exempt=_TIMER_HOME, deny=_TIMER_ATTRS,
        message="'from time import {name}'" + _USE_CLOCK,
    ),
    _Row(
        "REP016", ("attr",), ("time",), exempt=_TIMER_HOME, deny=_TIMER_ATTRS,
        message="time.{name}" + _USE_CLOCK,
    ),
    # REP017 — every span is clock-stamped, so no part of repro.obs.spans
    # belongs in a cycle-driven module.
    _Row(
        "REP017", _STATEMENT, ("repro.obs.spans",), scope=_CYCLE_DRIVEN,
        runtime_only=True,
        message="importing {module} from a cycle-driven module; spans are "
        "clock-stamped and recorded outside the engine (REP006/REP016)",
    ),
)


def _in_scope(path: str, scope: tuple[str, ...], exempt: tuple[str, ...]) -> bool:
    """Path fragments, not prefixes: ``repro/obs/telemetry`` scopes one file."""
    return (not scope or any(p in path for p in scope)) and not any(
        p in path for p in exempt
    )


def _within(
    scope: tuple[str, ...], rule: _ModuleRule, exempt: tuple[str, ...] = ()
) -> _ModuleRule:
    """A structural *rule*, run only on the modules in scope."""
    return lambda mod: rule(mod) if _in_scope(mod.path, scope, exempt) else ()


def _reference_rule(code: str) -> _ModuleRule:
    """The module rule that reads the table rows of one *code*."""
    rows = [row for row in REFERENCE_ROWS if row.code == code]

    def check(mod: _Module) -> Iterator[_Hit]:
        where = mod.path.rsplit("/", 1)[0]
        for row in rows:
            if _in_scope(mod.path, row.scope, row.exempt):
                for ref in mod.refs:
                    if row.flags(ref):
                        yield ref.node, row.message.format(
                            module=ref.module, name=ref.name, dir=where
                        )

    return check


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------
#: rule id -> (scope, summary, implementation).  A module rule yields
#: ``(node, message)`` per violation in one module, a project rule
#: ``(module, node, message)`` over the whole file set; the id, path and
#: position of each :class:`Finding` are filled in by :func:`lint_modules`.
RULES: dict[str, tuple[str, str, Callable[..., Iterable[tuple]]]] = {
    "REP001": (
        "module",
        "no mutable default arguments",
        _rule_mutable_defaults,
    ),
    "REP002": (
        "module",
        "no unseeded stdlib-random draws outside repro.traffic",
        _reference_rule("REP002"),
    ),
    "REP003": (
        "module",
        "layer import boundaries (routing/topology/faults stay pure; "
        "repro.simulator never imports repro.obs, even inside a function)",
        _reference_rule("REP003"),
    ),
    "REP004": (
        "project",
        "routing algorithms declare name and deadlock_free explicitly",
        _rule_algorithm_declarations,
    ),
    "REP005": (
        "module",
        "tiers_for/candidate_tiers annotated '-> Sequence[Tier]' (or list[Tier])",
        _within(("repro/routing/",), _rule_tier_annotations),
    ),
    "REP006": (
        "module",
        "no wall-clock reads in repro.simulator / telemetry hot paths",
        _reference_rule("REP006"),
    ),
    "REP007": (
        "module",
        "figure drivers are profile-driven (run_*(profile, ...), no "
        "inline SimConfig)",
        _within(("repro/experiments/",), _rule_figure_drivers),
    ),
    "REP008": (
        "module",
        "content digests outside repro.store.keys go through "
        "content_digest / canonical_json (one key space, one "
        "serialization)",
        # repro.store.keys *defines* the canonical serialization.
        _within((), _rule_canonical_digests, exempt=("repro/store/keys",)),
    ),
    "REP009": (
        "module",
        "repro.simulator reaches observers only by iterating its event "
        "tuples (no registry accessors; only attach binds them)",
        _within(("repro/simulator/",), _rule_observer_protocol),
    ),
    "REP010": (
        "module",
        "campaign/store key material round-trips through "
        "repro.util.serialization canonical dicts (no ad-hoc "
        "json.dumps of configs)",
        # Modules whose persisted JSON feeds (or sits next to) the store's
        # key space, minus the sanctioned serialization homes themselves.
        _within(
            ("repro/campaigns/", "repro/store/"), _rule_canonical_key_material,
            exempt=("repro/store/keys", "repro/util/serialization"),
        ),
    ),
    "REP011": (
        "module",
        "simulator/routing randomness is seeded and instance-owned "
        "(no unseeded or module-level RNG, no numpy global draws)",
        _within(("repro/simulator/", "repro/routing/"), _rule_engine_rng),
    ),
    "REP012": (
        "project",
        "pool workers (iter_parallel / run_cells setups) never mutate "
        "module-level state",
        _rule_pool_worker_purity,
    ),
    "REP013": (
        "module",
        "merge/digest reductions iterate dict views in sorted order",
        _within(
            ("repro/obs/", "repro/store/", "repro/campaigns/", "repro/experiments/"),
            _rule_sorted_reductions,
        ),
    ),
    "REP014": (
        "module",
        "repro.simulator classes declare __slots__ (hot-path allocation)",
        _within(("repro/simulator/",), _rule_simulator_slots),
    ),
    "REP015": (
        "module",
        "repro.serve never imports repro.simulator (simulate only via "
        "the cached evaluator)",
        _reference_rule("REP015"),
    ),
    "REP016": (
        "module",
        "time.perf_counter only in repro.obs.profile (everyone else "
        "imports its clock); no-wall-clock modules may not import the "
        "timer home at all",
        _reference_rule("REP016"),
    ),
    "REP017": (
        "module",
        "cycle-driven modules do not import repro.obs.spans",
        _reference_rule("REP017"),
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
        hits = impl(mods) if scope == "project" else (
            (mod, node, message) for mod in mods for node, message in impl(mod)
        )
        findings += [
            Finding(rule_id, mod.path, node.lineno, node.col_offset, message)
            for mod, node, message in hits
        ]
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
