"""AST-linter (`repro.verify.lint`) tests: one synthetic snippet per
rule, plus the repo-wide clean run the CI gate relies on."""

from pathlib import Path

from repro.verify.lint import RULES, lint_paths, lint_source

REPO = Path(__file__).resolve().parent.parent


def rules_of(findings):
    return {f.rule for f in findings}


class TestMutableDefaults:
    def test_flags_literal_and_constructor_defaults(self):
        src = (
            "def f(a=[]):\n    pass\n"
            "def g(b={}):\n    pass\n"
            "def h(c=list()):\n    pass\n"
        )
        findings = lint_source(src, select={"REP001"})
        assert len(findings) == 3
        assert rules_of(findings) == {"REP001"}

    def test_accepts_none_and_tuples(self):
        src = "def f(a=None, b=(), c=1):\n    pass\n"
        assert lint_source(src, select={"REP001"}) == []

    def test_flags_kwonly_defaults(self):
        src = "def f(*, a={}):\n    pass\n"
        assert len(lint_source(src, select={"REP001"})) == 1


class TestUnseededRandom:
    def test_flags_global_rng_draw(self):
        src = "import random\nx = random.randint(0, 5)\n"
        findings = lint_source(src, path="src/repro/simulator/x.py", select={"REP002"})
        assert rules_of(findings) == {"REP002"}

    def test_flags_from_import(self):
        src = "from random import shuffle\n"
        findings = lint_source(src, path="src/repro/simulator/x.py", select={"REP002"})
        assert rules_of(findings) == {"REP002"}

    def test_accepts_seeded_instances(self):
        src = "import random\nrng = random.Random(42)\ny = rng.random()\n"
        assert lint_source(src, path="src/repro/simulator/x.py", select={"REP002"}) == []

    def test_traffic_layer_is_exempt(self):
        src = "import random\nx = random.random()\n"
        assert lint_source(src, path="src/repro/traffic/x.py", select={"REP002"}) == []


class TestImportBoundaries:
    def test_routing_must_not_import_engine(self):
        src = "from repro.simulator.engine import Simulation\n"
        findings = lint_source(src, path="src/repro/routing/x.py", select={"REP003"})
        assert rules_of(findings) == {"REP003"}

    def test_routing_may_import_message(self):
        src = "from repro.simulator.message import Message\n"
        assert lint_source(src, path="src/repro/routing/x.py", select={"REP003"}) == []

    def test_type_checking_guard_is_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.simulator.engine import Simulation\n"
        )
        assert lint_source(src, path="src/repro/routing/x.py", select={"REP003"}) == []

    def test_topology_stays_leaf_layer(self):
        src = "import repro.routing.base\n"
        findings = lint_source(src, path="src/repro/topology/x.py", select={"REP003"})
        assert rules_of(findings) == {"REP003"}

    def test_simulator_function_level_obs_import_flagged(self):
        src = (
            "def _ci_converged(self):\n"
            "    from repro.obs.converge import batch_means_ci\n"
            "    return batch_means_ci([])\n"
        )
        findings = lint_source(src, path="src/repro/simulator/x.py", select={"REP003"})
        assert rules_of(findings) == {"REP003"}
        assert "repro.obs.converge" in findings[0].message

    def test_simulator_module_level_obs_import_flagged(self):
        src = "import repro.obs\n"
        findings = lint_source(src, path="src/repro/simulator/x.py", select={"REP003"})
        assert rules_of(findings) == {"REP003"}

    def test_simulator_may_import_metrics(self):
        src = (
            "from repro.metrics.confidence import batch_means_ci\n"
            "def attach(self):\n"
            "    from repro.routing.budgets import ROLE_RING\n"
        )
        assert lint_source(src, path="src/repro/simulator/x.py", select={"REP003"}) == []

    def test_simulator_span_constructor_import_flagged(self):
        # No repro.obs module is carved out of the engine's boundary.
        src = "from repro.obs.spans import make_span\n"
        findings = lint_source(src, path="src/repro/simulator/x.py", select={"REP003"})
        assert rules_of(findings) == {"REP003"}
        assert "repro.obs.spans" in findings[0].message


class TestAlgorithmDeclarations:
    def test_missing_declarations_flagged(self):
        src = (
            "class RoutingAlgorithm:\n    pass\n"
            "class Sneaky(RoutingAlgorithm):\n    pass\n"
        )
        findings = lint_source(src, path="src/repro/routing/x.py", select={"REP004"})
        assert len(findings) == 2  # name and deadlock_free
        assert rules_of(findings) == {"REP004"}

    def test_full_declarations_pass(self):
        src = (
            "class RoutingAlgorithm:\n    pass\n"
            "class Fine(RoutingAlgorithm):\n"
            "    name = 'fine'\n"
            "    deadlock_free = True\n"
        )
        assert lint_source(src, path="src/repro/routing/x.py", select={"REP004"}) == []

    def test_private_mixins_exempt(self):
        src = (
            "class RoutingAlgorithm:\n    pass\n"
            "class _Mixin(RoutingAlgorithm):\n    pass\n"
        )
        assert lint_source(src, path="src/repro/routing/x.py", select={"REP004"}) == []


class TestTierAnnotations:
    def test_wrong_return_annotation_flagged(self):
        src = "def candidate_tiers(self, msg, node) -> list:\n    return []\n"
        findings = lint_source(src, path="src/repro/routing/x.py", select={"REP005"})
        assert rules_of(findings) == {"REP005"}

    def test_exact_annotation_passes(self):
        src = (
            "def candidate_tiers(self, msg, node) -> list[Tier]:\n"
            "    return []\n"
        )
        assert lint_source(src, path="src/repro/routing/x.py", select={"REP005"}) == []

    def test_only_routing_layer_checked(self):
        src = "def candidate_tiers(self, msg, node):\n    return []\n"
        assert lint_source(src, path="src/repro/verify/x.py", select={"REP005"}) == []


class TestNoWallclock:
    def test_flags_time_calls_in_simulator(self):
        src = (
            "import time\n"
            "def step(self):\n"
            "    t0 = time.perf_counter()\n"
            "    now = time.time()\n"
        )
        findings = lint_source(
            src, path="src/repro/simulator/engine.py", select={"REP006"}
        )
        assert len(findings) == 2
        assert rules_of(findings) == {"REP006"}

    def test_flags_from_time_import(self):
        src = "from time import perf_counter\n"
        findings = lint_source(
            src, path="src/repro/obs/telemetry.py", select={"REP006"}
        )
        assert rules_of(findings) == {"REP006"}

    def test_aliased_import_still_flagged(self):
        src = "import time as clock\nx = clock.monotonic()\n"
        findings = lint_source(
            src, path="src/repro/simulator/trace.py", select={"REP006"}
        )
        assert rules_of(findings) == {"REP006"}

    def test_non_clock_time_attrs_allowed(self):
        src = "import time\nx = time.struct_time\n"
        assert lint_source(
            src, path="src/repro/simulator/engine.py", select={"REP006"}
        ) == []

    def test_wallclock_outside_hot_path_allowed(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(
            src, path="src/repro/obs/bench.py", select={"REP006"}
        ) == []


class TestFigureDrivers:
    def test_driver_without_profile_param_flagged(self):
        src = "def run_sweep(algorithms, seed=1):\n    pass\n"
        findings = lint_source(
            src, path="src/repro/experiments/fig_sweep.py", select={"REP007"}
        )
        assert rules_of(findings) == {"REP007"}

    def test_inline_simconfig_flagged(self):
        src = (
            "from repro.simulator.config import SimConfig\n"
            "def run_thing(profile):\n"
            "    cfg = SimConfig(width=10)\n"
        )
        findings = lint_source(
            src, path="src/repro/experiments/fig_thing.py", select={"REP007"}
        )
        assert rules_of(findings) == {"REP007"}

    def test_profile_first_driver_passes(self):
        src = "def run_sweep(profile, algorithms=None, *, seed=1):\n    pass\n"
        assert lint_source(
            src, path="src/repro/experiments/fig_sweep.py", select={"REP007"}
        ) == []

    def test_only_fig_modules_checked(self):
        src = (
            "from repro.simulator.config import SimConfig\n"
            "def run_custom():\n"
            "    return SimConfig(width=4)\n"
        )
        assert lint_source(
            src, path="src/repro/experiments/profiles.py", select={"REP007"}
        ) == []
        assert lint_source(
            src, path="src/repro/core/evaluator.py", select={"REP007"}
        ) == []


class TestCanonicalDigests:
    def test_flags_adhoc_hash(self):
        src = (
            "import hashlib, json\n"
            "def key(payload):\n"
            "    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()\n"
        )
        findings = lint_source(
            src, path="src/repro/store/cache.py", select={"REP008"}
        )
        assert rules_of(findings) == {"REP008"}

    def test_flags_bare_import_and_weak_hashes(self):
        src = (
            "from hashlib import md5, sha1\n"
            "def k(b):\n"
            "    return md5(b).hexdigest() + sha1(b).hexdigest()\n"
        )
        findings = lint_source(
            src, path="src/repro/obs/manifest.py", select={"REP008"}
        )
        assert len(findings) == 2
        assert rules_of(findings) == {"REP008"}

    def test_accepts_inline_canonical_json(self):
        src = (
            "import hashlib\n"
            "from repro.store.keys import canonical_json\n"
            "def digest(snapshot):\n"
            "    return hashlib.sha256(\n"
            "        canonical_json(snapshot).encode('utf-8')\n"
            "    ).hexdigest()[:16]\n"
        )
        assert lint_source(
            src, path="src/repro/obs/telemetry.py", select={"REP008"}
        ) == []

    def test_accepts_name_assigned_from_canonical_json(self):
        src = (
            "import hashlib\n"
            "from repro.store.keys import canonical_json\n"
            "def bench_key(name, params):\n"
            "    payload = canonical_json({'name': name, 'params': params})\n"
            "    return hashlib.sha256(payload.encode('utf-8')).hexdigest()\n"
        )
        assert lint_source(
            src, path="src/repro/obs/bench.py", select={"REP008"}
        ) == []

    def test_keys_module_is_exempt(self):
        src = (
            "import hashlib\n"
            "def raw(blob):\n"
            "    return hashlib.sha256(blob).hexdigest()\n"
        )
        assert lint_source(
            src, path="src/repro/store/keys.py", select={"REP008"}
        ) == []


class TestTelemetryHookIdiom:
    """REP009, the one rule that replaced the nullable-hook idiom: the
    engine reaches observers only by iterating its ``_on_<event>``
    tuples — no registry accessors, tuples bound only in
    ``__init__``/``attach`` and never called, indexed or passed on."""

    PATH = "src/repro/simulator/fake.py"

    def check(self, src):
        return lint_source(src, path=self.PATH, select={"REP009"})

    def test_accepts_iterating_event_tuple(self):
        src = (
            "class Sim:\n"
            "    def step(self, cycle, msg):\n"
            "        for publish in self._on_delivered:\n"
            "            publish(cycle, msg)\n"
        )
        assert self.check(src) == []

    def test_accepts_guarded_publish(self):
        src = (
            "class Sim:\n"
            "    def step(self, cycle, msg):\n"
            "        if self._on_granted:\n"
            "            role = self.role_of[msg.vc]\n"
            "            for publish in self._on_granted:\n"
            "                publish(cycle, msg, role)\n"
        )
        assert self.check(src) == []

    def test_accepts_compound_guard_and_nesting(self):
        src = (
            "class Sim:\n"
            "    def step(self, cycle, ok):\n"
            "        on_moved = self._on_flit_moved\n"
            "        if on_moved and ok:\n"
            "            if cycle > 0:\n"
            "                for publish in on_moved:\n"
            "                    publish(cycle)\n"
        )
        assert self.check(src) == []

    def test_accepts_early_return_guard_with_aliases(self):
        src = (
            "class Sim:\n"
            "    def _collect(self, cycle, busy):\n"
            "        on_sampled = self._on_vc_sampled\n"
            "        if not on_sampled:\n"
            "            return\n"
            "        for publish in on_sampled:\n"
            "            publish(cycle, busy)\n"
        )
        assert self.check(src) == []

    def test_accepts_binding_in_init_and_attach(self):
        src = (
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self._on_delivered = ()\n"
            "    def attach(self, observer):\n"
            "        self._on_delivered = self._on_delivered + (\n"
            "            observer.delivered,)\n"
        )
        assert self.check(src) == []

    def test_flags_event_tuple_bound_elsewhere(self):
        src = (
            "class Sim:\n"
            "    def reset(self):\n"
            "        self._on_delivered = ()\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP009"}
        assert "__init__/attach" in findings[0].message

    def test_flags_event_tuple_called_or_indexed(self):
        for use in ("self._on_delivered[0](cycle)",
                    "self._on_delivered.count(1)",
                    "notify(self._on_delivered)"):
            src = f"class Sim:\n    def step(self, cycle):\n        {use}\n"
            findings = self.check(src)
            assert rules_of(findings) == {"REP009"}, use
            assert "only iterated" in findings[0].message

    def test_flags_accessor_outside_attach(self):
        src = (
            "class Sim:\n"
            "    def step(self, cycle, registry):\n"
            "        registry.counter('x').inc(cycle)\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP009"}
        assert "bind(sim)" in findings[0].message

    def test_flags_accessor_even_in_attach(self):
        src = (
            "class Sim:\n"
            "    def attach(self, registry):\n"
            "        self.x = registry.series('engine.series.x', 64)\n"
        )
        assert rules_of(self.check(src)) == {"REP009"}

    def test_only_simulator_modules_are_checked(self):
        src = (
            "class X:\n"
            "    def bind(self, sim):\n"
            "        self.telemetry.counter('engine.x')\n"
            "        self._on_x = ()\n"
        )
        assert lint_source(
            src, path="src/repro/obs/telemetry.py", select={"REP009"}
        ) == []


class TestCanonicalKeyMaterial:
    """REP010: no ad-hoc json.dumps of configs in campaign/store scope."""

    def check(self, src, path="src/repro/campaigns/db.py"):
        return lint_source(src, path=path, select={"REP010"})

    def test_flags_asdict_dump(self):
        src = "import json\ns = json.dumps(asdict(cfg))\n"
        assert rules_of(self.check(src)) == {"REP010"}

    def test_flags_vars_and_dunder_dict(self):
        src = (
            "import json\n"
            "a = json.dumps(vars(config))\n"
            "b = json.dumps(spec.__dict__)\n"
        )
        assert len(self.check(src)) == 2

    def test_flags_config_named_values(self):
        src = (
            "import json\n"
            "a = json.dumps(config)\n"
            "b = json.dumps(self.base_config)\n"
            "json.dump(run_config, fh)\n"
        )
        assert len(self.check(src)) == 3

    def test_accepts_canonical_dict_payloads(self):
        src = (
            "import json\n"
            "payload = {'config': config_to_dict(cfg)}\n"
            "s = json.dumps(payload)\n"
            "t = json.dumps(spec.to_dict())\n"
        )
        assert self.check(src) == []

    def test_store_scope_is_checked(self):
        src = "import json\ns = json.dumps(asdict(cfg))\n"
        findings = self.check(src, path="src/repro/store/backend.py")
        assert rules_of(findings) == {"REP010"}

    def test_keys_and_serialization_are_exempt(self):
        src = "import json\ns = json.dumps(asdict(cfg))\n"
        assert self.check(src, path="src/repro/store/keys.py") == []
        assert self.check(
            src, path="src/repro/util/serialization.py"
        ) == []

    def test_other_layers_are_out_of_scope(self):
        src = "import json\ns = json.dumps(asdict(cfg))\n"
        assert self.check(src, path="src/repro/obs/bench.py") == []


class TestEngineRng:
    """REP011: simulator/routing randomness is seeded and instance-owned."""

    PATH = "src/repro/simulator/x.py"

    def check(self, src, path=PATH):
        return lint_source(src, path=path, select={"REP011"})

    def test_flags_module_level_rng_stream(self):
        src = "import random\nRNG = random.Random(42)\n"
        findings = self.check(src)
        assert rules_of(findings) == {"REP011"}
        assert "module-level RNG stream" in findings[0].message

    def test_flags_unseeded_constructor(self):
        src = (
            "import random\n"
            "class Sim:\n"
            "    def __init__(self):\n"
            "        self.rng = random.Random()\n"
        )
        findings = self.check(src)
        assert len(findings) == 1
        assert "unseeded" in findings[0].message

    def test_flags_system_random_anywhere(self):
        src = (
            "import random\n"
            "def pick(d):\n"
            "    return random.SystemRandom().choice(d)\n"
        )
        findings = self.check(src, path="src/repro/routing/x.py")
        assert rules_of(findings) == {"REP011"}
        assert "unseedable" in findings[0].message

    def test_flags_numpy_global_draws(self):
        src = (
            "import numpy as np\n"
            "def jitter(self):\n"
            "    return np.random.randint(0, 5)\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP011"}
        assert "global" in findings[0].message

    def test_accepts_seeded_instance_owned_rng(self):
        src = (
            "import random\n"
            "import numpy as np\n"
            "class Sim:\n"
            "    def __init__(self, seed):\n"
            "        self.rng = random.Random(seed)\n"
            "        self.gen = np.random.default_rng(seed)\n"
        )
        assert self.check(src) == []

    # The engine imports numpy inside ``Simulation.__init__``; the rule
    # reads call names, so it must judge the call the same however and
    # wherever the import is spelled.
    LOCAL_IMPORTS = {
        "import numpy as np": "np.random.default_rng",
        "import numpy": "numpy.random.default_rng",
        "from numpy.random import default_rng": "default_rng",
    }

    def local_import(self, imp, args):
        return (
            "class Sim:\n"
            "    def __init__(self, config):\n"
            f"        {imp}\n"
            "\n"
            f"        self._perm_rng = {self.LOCAL_IMPORTS[imp]}({args})\n"
        )

    def test_accepts_seeded_rng_behind_a_function_local_import(self):
        for imp in self.LOCAL_IMPORTS:
            src = self.local_import(imp, "config.seed ^ 0x5EED")
            assert self.check(src) == [], imp

    def test_flags_unseeded_rng_behind_a_function_local_import(self):
        for imp in self.LOCAL_IMPORTS:
            findings = self.check(self.local_import(imp, ""))
            assert len(findings) == 1, imp
            assert "unseeded" in findings[0].message

    def test_flags_global_draw_behind_a_function_local_import(self):
        src = (
            "def jitter(self):\n"
            "    import numpy as np\n"
            "\n"
            "    return np.random.randint(0, 5)\n"
        )
        findings = self.check(src)
        assert len(findings) == 1 and "global" in findings[0].message

    def test_the_engine_still_holds_a_seeded_default_rng(self):
        """The real file: exactly one ``default_rng`` call, seeded."""
        import ast

        import repro.simulator.engine as engine

        source = Path(engine.__file__).read_text()
        calls = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "default_rng"
        ]
        assert len(calls) == 1 and len(calls[0].args) == 1
        assert self.check(source, path="src/repro/simulator/engine.py") == []

    def test_other_layers_are_out_of_scope(self):
        src = "import random\nRNG = random.Random(42)\n"
        assert self.check(src, path="src/repro/obs/x.py") == []


class TestPoolWorkerPurity:
    """REP012: functions dispatched to process pools stay pure."""

    PATH = "src/repro/experiments/x.py"

    def check(self, src):
        return lint_source(src, path=self.PATH, select={"REP012"})

    def test_flags_mutator_call_on_module_state(self):
        src = (
            "RESULTS = []\n"
            "def work(item):\n"
            "    RESULTS.append(item)\n"
            "    return item\n"
            "def run(pool, items):\n"
            "    return pool.map(work, items)\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP012"}
        assert "RESULTS.append" in findings[0].message

    def test_flags_global_declaration(self):
        src = (
            "COUNT = 0\n"
            "def work(x):\n"
            "    global COUNT\n"
            "    COUNT += 1\n"
            "    return x\n"
            "def run(items):\n"
            "    return parallel_map(work, items)\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP012"}
        assert any("global COUNT" in f.message for f in findings)

    def test_flags_subscript_write_into_module_dict(self):
        src = (
            "CACHE = {}\n"
            "def work(x):\n"
            "    CACHE[x] = 1\n"
            "    return x\n"
            "def go(pool, xs):\n"
            "    return pool.imap_unordered(work, xs)\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP012"}

    def test_accepts_pure_worker(self):
        src = (
            "def work(x):\n"
            "    out = []\n"
            "    out.append(x)\n"
            "    return out\n"
            "def run(pool, xs):\n"
            "    return pool.map(work, xs)\n"
        )
        assert self.check(src) == []

    def test_flags_figure_job_handed_to_run_per_algorithm(self):
        # The one generic pool worker runs whatever job the driver
        # names, so the job (and the cell closure it returns) is a
        # worker body even though it never reaches parallel_map itself.
        src = (
            "SEEN = {}\n"
            "def sweep_job(evaluator, profile):\n"
            "    def cell(algorithm):\n"
            "        SEEN[algorithm] = True\n"
            "        return [], 0\n"
            "    return cell\n"
            "def run_sweep(profile, algorithms=None, **run):\n"
            "    return run_per_algorithm(\n"
            "        profile, algorithms, sweep_job, label='fig1/2', **run)\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP012"}
        assert "'sweep_job'" in findings[0].message
        assert self.check(src.replace("SEEN[algorithm] = True", "pass")) == []

    def test_flags_setup_handed_to_run_cells(self):
        # A pool worker prepares the setup a run_cells call names, so the
        # setup is a worker body although no pool call names it.
        src = (
            "DRAWN = []\n"
            "def prep(evaluator, spec):\n"
            "    global DRAWN\n"
            "    DRAWN = [spec]\n"
            "    return evaluator.run\n"
            "def run(cells, workers, spec):\n"
            "    return run_cells(cells, workers, setup=(prep, spec))\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP012"}
        assert all("'prep'" in f.message for f in findings)
        assert self.check(
            src.replace("    global DRAWN\n    DRAWN = [spec]\n", "")
        ) == []

    def test_non_workers_may_touch_module_state(self):
        # only callables actually handed to a pool are constrained
        src = (
            "RESULTS = []\n"
            "def helper(x):\n"
            "    RESULTS.append(x)\n"
        )
        assert self.check(src) == []


class TestSortedReductions:
    """REP013: merge/digest reductions iterate in sorted-key order."""

    PATH = "src/repro/obs/x.py"

    def check(self, src, path=PATH):
        return lint_source(src, path=path, select={"REP013"})

    def test_flags_for_loop_over_raw_items(self):
        src = (
            "def merge(a, b):\n"
            "    for k, v in b.items():\n"
            "        a[k] = v\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP013"}
        assert "sorted" in findings[0].message

    def test_flags_comprehension_over_raw_keys(self):
        src = (
            "def store_digest(rows):\n"
            "    return [k for k in rows.keys()]\n"
        )
        findings = self.check(src, path="src/repro/store/x.py")
        assert rules_of(findings) == {"REP013"}

    def test_accepts_sorted_iterations(self):
        src = (
            "def merge(a, b):\n"
            "    for k in sorted(b):\n"
            "        a[k] = b[k]\n"
            "    return {k: v for k, v in sorted(b.items())}\n"
        )
        assert self.check(src) == []

    def test_only_merge_and_digest_functions_checked(self):
        src = (
            "def collect(d):\n"
            "    for k, v in d.items():\n"
            "        pass\n"
        )
        assert self.check(src) == []

    def test_other_layers_are_out_of_scope(self):
        src = (
            "def merge(a, b):\n"
            "    for k, v in b.items():\n"
            "        a[k] = v\n"
        )
        assert self.check(src, path="src/repro/routing/x.py") == []


class TestSimulatorSlots:
    """REP014: hot-path simulator classes declare ``__slots__``."""

    PATH = "src/repro/simulator/x.py"

    def check(self, src, path=PATH):
        return lint_source(src, path=path, select={"REP014"})

    def test_flags_slotless_class(self):
        src = (
            "class VcState:\n"
            "    def __init__(self):\n"
            "        self.owner = None\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP014"}
        assert "__slots__" in findings[0].message

    def test_accepts_slotted_classes(self):
        src = (
            "class VcState:\n"
            "    __slots__ = ('owner',)\n"
            "class Stream:\n"
            "    __slots__: tuple = ('buf',)\n"
        )
        assert self.check(src) == []

    def test_dataclasses_are_exempt(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Result:\n"
            "    delivered: int = 0\n"
        )
        assert self.check(src) == []

    def test_exceptions_are_exempt(self):
        src = "class DrainTimeout(RuntimeError):\n    pass\n"
        assert self.check(src) == []

    def test_other_layers_are_out_of_scope(self):
        src = "class Plain:\n    pass\n"
        assert self.check(src, path="src/repro/obs/x.py") == []


class TestServeBoundary:
    """REP015: repro.serve never imports repro.simulator directly."""

    PATH = "src/repro/serve/x.py"

    def check(self, src, path=PATH):
        return lint_source(src, path=path, select={"REP015"})

    def test_flags_direct_simulator_import(self):
        findings = self.check("import repro.simulator\n")
        assert rules_of(findings) == {"REP015"}
        assert "repro.core.evaluator" in findings[0].message

    def test_flags_from_import_of_submodule(self):
        src = "from repro.simulator.engine import SimulationEngine\n"
        findings = self.check(src)
        assert rules_of(findings) == {"REP015"}

    def test_flags_from_simulator_import_name(self):
        src = "from repro.simulator import config\n"
        assert rules_of(self.check(src)) == {"REP015"}

    def test_accepts_the_sanctioned_routes(self):
        src = (
            "from repro.core.evaluator import ENGINE_VERSION, Evaluator\n"
            "from repro.store.cache import CachedEvaluator\n"
            "from repro.campaigns.db import CampaignDB\n"
        )
        assert self.check(src) == []

    def test_type_checking_imports_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.simulator.config import SimConfig\n"
        )
        assert self.check(src) == []

    def test_other_layers_are_out_of_scope(self):
        src = "import repro.simulator\n"
        assert self.check(src, path="src/repro/experiments/x.py") == []


class TestSanctionedTimer:
    """REP016: time.perf_counter only in repro.obs.profile."""

    def check(self, src, path="src/repro/experiments/x.py"):
        return lint_source(src, path=path, select={"REP016"})

    def test_flags_attribute_access(self):
        src = "import time\nt0 = time.perf_counter()\n"
        findings = self.check(src)
        assert rules_of(findings) == {"REP016"}
        assert "repro.obs.profile import clock" in findings[0].message

    def test_flags_perf_counter_ns_and_aliased_time(self):
        src = "import time as _t\nt0 = _t.perf_counter_ns()\n"
        assert rules_of(self.check(src)) == {"REP016"}

    def test_flags_from_time_import(self):
        src = "from time import perf_counter\n"
        assert rules_of(self.check(src)) == {"REP016"}

    def test_timer_home_is_exempt(self):
        src = "from time import perf_counter as clock\n"
        assert self.check(src, path="src/repro/obs/profile.py") == []

    def test_sanctioned_clock_import_is_clean(self):
        src = (
            "from repro.obs.profile import clock\n"
            "t0 = clock()\n"
        )
        assert self.check(src) == []

    def test_other_time_attrs_not_flagged(self):
        # time.time() for timestamps stays legal outside REP006 scope.
        src = "import time\ncreated = time.time()\n"
        assert self.check(src) == []

    def test_engine_scope_may_not_import_timer_home(self):
        src = "from repro.obs.profile import clock\n"
        findings = self.check(src, path="src/repro/simulator/engine.py")
        assert rules_of(findings) == {"REP016"}
        assert "phase_lap" in findings[0].message

    def test_engine_scope_clean_without_timer(self):
        src = "x = 1\n"
        assert self.check(src, path="src/repro/simulator/engine.py") == []


class TestSpanBlameDiscipline:
    """REP017: cycle-driven modules import nothing from repro.obs.spans.
    (Its former blame-hook half is REP009 now.)"""

    PATH = "src/repro/simulator/x.py"

    def check(self, src, path=PATH):
        return lint_source(src, path=path, select={"REP017"})

    def test_flags_whole_module_spans_import(self):
        src = "import repro.obs.spans\n"
        assert rules_of(self.check(src)) == {"REP017"}

    def test_flags_clock_coupled_from_import(self):
        src = "from repro.obs.spans import Trace\n"
        findings = self.check(src)
        assert rules_of(findings) == {"REP017"}
        assert "clock-stamped" in findings[0].message

    def test_flags_the_pure_constructors_too(self):
        src = (
            "from repro.obs.spans import make_span, make_span_id, "
            "trace_id_from\n"
        )
        findings = self.check(src)
        assert rules_of(findings) == {"REP017"} and len(findings) == 1
        telemetry = self.check(src, path="src/repro/obs/telemetry.py")
        assert rules_of(telemetry) == {"REP017"}

    def test_other_layers_are_out_of_scope(self):
        src = "from repro.obs.spans import Trace\n"
        assert self.check(src, path="src/repro/experiments/x.py") == []


class TestHarness:
    def test_catalog_is_documented(self):
        for rule_id, (scope, summary, impl) in RULES.items():
            assert rule_id.startswith("REP")
            assert scope in ("module", "project")
            assert summary
            assert callable(impl)

    def test_syntax_error_becomes_rep000(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([bad])
        assert rules_of(findings) == {"REP000"}

    def test_repo_source_tree_is_clean(self):
        """The CI gate: `python -m repro.verify lint` exits 0."""
        assert lint_paths([REPO / "src" / "repro"]) == []

    def test_findings_sorted_and_renderable(self):
        src = "def g(b={}):\n    pass\n\ndef f(a=[]):\n    pass\n"
        findings = lint_source(src, path="m.py")
        lines = [f.line for f in findings]
        assert lines == sorted(lines)
        assert all(f.render().startswith("m.py:") for f in findings)
