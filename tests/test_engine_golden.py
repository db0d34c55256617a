"""Golden bit-identity pins for the engine hot path.

Where ``test_golden_regression.py`` freezes five counters of four runs,
this file freezes *every* ``SimulationResult`` field (``class_caps``,
``vc_busy`` and ``node_load`` included) for all registered algorithms x
{fault-free, 3-fault} x 2 seeds on a loaded 6x6/24-VC mesh, as one
sha256 per canonical result row.  A third "tight" group (16 VCs, two
injection VCs, hop cap = diameter, drain recovery for everyone) adds the
paths 24 VCs rarely reach: VC-exhausted headers, misroute tiers, the
multi-stream injection draw, deadlock *and* livelock drains.

The pins were generated at the commit *before* the lazy-fabric /
bitmask-allocation / stamped-arbitration rewrite, so they prove that
rewrite kept the RNG draw structure and all accounting bit-identical at
``ENGINE_VERSION = 2``.

A fourth "loaded" group pins the regime where most headers wait and
most injection ports are stalled — the fig4 smoke shape (8x8, 3 faults,
100 % offered load) for ``pbc``, ``boura-ft`` (two injection VCs) and
``duato`` (under the oracle) — with both RNG end states and the attached
twins, i.e. every per-cycle ``blocked`` event.  Those pins were generated
at the commit *before* blocked headers were parked and stalled injection
ports put to sleep, so they prove the wake-ups replaced polling without
moving a draw, an event or a ``class_caps`` increment.

The short watchdog timeout makes recovery drains (non-deadlock-free
schemes) and the wait-for-graph oracle (deadlock-free ones, which reads
output VCs through the public accessors mid-run) part of the pinned
behaviour.

Regenerate (only with an ``ENGINE_VERSION`` bump)::

    PYTHONPATH=src:tests python -c "import test_engine_golden as g; g.regenerate()"
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.faults.generator import generate_block_fault_pattern
from repro.obs.blame import BlameRecorder
from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import ENGINE_VERSION, Simulation
from repro.simulator.trace import Tracer
from repro.store.keys import canonical_json
from repro.topology.mesh import Mesh2D
from repro.util.serialization import result_to_dict

SEEDS = (11, 2007)
#: ``(algorithm, faulty, seed)``; seed 0 marks the tight-budget group.
TIGHT = 0
CASES = [
    (name, faulty, seed)
    for name in ALGORITHM_NAMES
    for faulty in (False, True)
    for seed in SEEDS
] + [(name, True, TIGHT) for name in ALGORITHM_NAMES]


def build(algorithm: str, faulty: bool, seed: int) -> Simulation:
    alg = make_algorithm(algorithm)
    cfg = SimConfig(
        width=6,
        vcs_per_channel=24,
        message_length=8,
        injection_rate=0.05,
        cycles=500,
        warmup=100,
        seed=seed,
        deadlock_timeout=96,
        on_deadlock="raise" if alg.deadlock_free else "drain",
        collect_vc_stats=True,
        collect_node_stats=True,
        collect_latency_samples=True,
    )
    if seed == TIGHT:
        cfg = cfg.with_(
            vcs_per_channel=16, injection_vcs=2, injection_rate=0.08,
            max_hops_factor=1, on_deadlock="drain",
        )
    faults = (
        generate_block_fault_pattern(Mesh2D(6), 3, random.Random(5))
        if faulty
        else None
    )
    return Simulation(cfg, alg, faults=faults)


#: ``(algorithm, injection_vcs)`` of the loaded group.
LOADED = [("pbc", 1), ("boura-ft", 2), ("duato", 1)]


def build_loaded(algorithm: str, injection_vcs: int) -> Simulation:
    alg = make_algorithm(algorithm)
    cfg = SimConfig(
        width=8,
        vcs_per_channel=24,
        injection_vcs=injection_vcs,
        message_length=8,
        injection_rate=0.125,
        cycles=600,
        warmup=200,
        seed=2007,
        deadlock_timeout=96,
        # duato stays under the oracle: its candidate_tiers re-ask of
        # every waiting header is part of the pinned behaviour.
        on_deadlock="raise" if algorithm == "duato" else "drain",
        collect_vc_stats=True,
        collect_node_stats=True,
        collect_latency_samples=True,
    )
    faults = generate_block_fault_pattern(Mesh2D(8), 3, random.Random(5))
    return Simulation(cfg, alg, faults=faults)


def _sha(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def row_digest(sim: Simulation) -> str:
    """sha256 of the canonical result row plus the conservation totals."""
    row = result_to_dict(sim.result)
    row["totals"] = [sim.total_generated, sim.total_delivered, sim.total_dropped]
    return _sha(row)


def rng_digest(sim: Simulation) -> str:
    """sha256 of the end state of both RNG streams."""
    return _sha([
        list(sim.rng.getstate()[1]),
        sim._perm_rng.bit_generator.state["state"],
    ])


def twin_digests(sim: Simulation) -> dict:
    """Digests of *sim* run with telemetry, blame and tracer attached."""
    registry = TelemetryRegistry()
    recorder = BlameRecorder()
    tracer = Tracer(capacity=10_000_000)
    for observer in (EngineTelemetry(registry), recorder, tracer):
        sim.attach(observer)
    sim.run()
    return {
        "row": row_digest(sim),
        "telemetry": registry.digest(),
        "blame": _sha(recorder.records),
        "trace": _sha([list(e) for e in tracer.events]),
    }


#: Attached-twin cases: drain recovery with misroutes, a hop-class
#: escape scheme on f-rings under the oracle, and a fault-free run.
TWINS = [
    ("fully-adaptive", True, TIGHT),
    ("duato-nbc", True, 11),
    ("nhop", False, 2007),
]


def regenerate() -> None:  # pragma: no cover - maintenance helper
    print("GOLDEN = {")
    for case in CASES:
        sim = build(*case)
        sim.run()
        print(f"    {case!r}:\n        {row_digest(sim)!r},")
    print("}\n\nGOLDEN_TWINS = {")
    for case in TWINS:
        _print_pins(case, twin_digests(build(*case)))
    print("}\n\nGOLDEN_LOADED = {")
    for case in LOADED:
        _print_pins(case, loaded_digests(*case))
    print("}")


def _print_pins(case, digests: dict) -> None:  # pragma: no cover
    print(f"    {case!r}: {{")
    for key, value in digests.items():
        print(f"        {key!r}: {value!r},")
    print("    },")


def loaded_digests(algorithm: str, injection_vcs: int) -> dict:
    """The attached-twin digests of a loaded case plus both RNG end
    states (attaching changes neither: ``test_engine_observers.py``)."""
    sim = build_loaded(algorithm, injection_vcs)
    digests = twin_digests(sim)
    sim.check_invariants()
    return {**digests, "rng": rng_digest(sim)}


GOLDEN = {
    ('phop', False, 11):
        '55922581389c0e0a66eca5a1de17300632f7056569c29a9d4784bbc1fc46a373',
    ('phop', False, 2007):
        'e8540613ddbe7fb8b8b1cc0d45f27bf87520adf28e72e7c66cb5eea2255983c4',
    ('phop', True, 11):
        'b8d01a544cd52d282172e84bb40f74222168d5ca8cb47a60270366da661c7429',
    ('phop', True, 2007):
        'bbd5cd1da17fa68a21a0a10566ee024ac90186e5d17c54fdb640229bd822d77d',
    ('nhop', False, 11):
        'e36ede3e17a89672a1b37372b8d77f8d8039f35dd2a385803d8551a622fe6135',
    ('nhop', False, 2007):
        '8f29885cc9a0e858240d5d2bfdeb1c305326ff6d810066a133dce25c804f2be1',
    ('nhop', True, 11):
        '65946bd3297cd48d07f78757a26b1dceff23c4adab66b40d2a6fcc847e81e72c',
    ('nhop', True, 2007):
        '8badac0d0db5011a6d6bd96eeac8bd604432b78780a9b78341f2c68ef7c51e93',
    ('pbc', False, 11):
        '76ac8e4bbdd550d544f56accab8b560c811e806fda9d23db8916252ac3d08ada',
    ('pbc', False, 2007):
        'e90495f11370d98c79d36a0dcf143ed8a7f9e0e69c38e6c5c58ba45a1385a5f2',
    ('pbc', True, 11):
        'b384767d2f8b372d02888b5b2e2d80951306ee9c435e226800f55a944e2ed8c2',
    ('pbc', True, 2007):
        'c34bb3a9be16e55b7e96c5fef54376caa2139d622ccd98d07888e2eb782f656c',
    ('nbc', False, 11):
        '515cf630cd6e9d3e2734c99b8c49d2bf3795ddf0f147e490e70b5eefa333d85f',
    ('nbc', False, 2007):
        'a6d564aa3e120526d018e715d3f691a5456753cfb6e7b6088fc59fb77a32bf6c',
    ('nbc', True, 11):
        'd4e0585bcfe7b6031d21dcb9b5779a1e48abc5e7ce684591413ffc2f13c36387',
    ('nbc', True, 2007):
        '102a94d30bead21ef61054c690497f3eb6446e5ba4f60f72463948ccf9428016',
    ('duato', False, 11):
        '097e932f7321a244b87d5b23cbc8b81768387087bb279a7f39e869ce9c2bc754',
    ('duato', False, 2007):
        '82a9595ff32f7f755201e21969cdc30878155e6e7e963b637f0d930ff26987a9',
    ('duato', True, 11):
        'b834c504a0d78a02ca4c1aae5ac5165874197ea78c7175e10f3c3deeeb981889',
    ('duato', True, 2007):
        '48939060f5b27c93afb5b7a883cf871f0bbb338c68c21b8397d4ef7a219fca5b',
    ('duato-pbc', False, 11):
        '82cd4453d3a6f3439398a1f86499adc897baa480487fdd43918548aba5fc4a5d',
    ('duato-pbc', False, 2007):
        'fd4b9e8b69746794003ade40addb3eee07850fd34af0b030ea644f5c7aa87768',
    ('duato-pbc', True, 11):
        'b91c6bb92184683f170675e507d2d43405393323c8ea3d141a8d36c9263526d4',
    ('duato-pbc', True, 2007):
        '0e933ccd520eb9a0c5a73eb47c5544f8e57e5db7d7658ac270d0365a1336bd8b',
    ('duato-nbc', False, 11):
        '99dad34abd57ab495f97ae613cd44e2c0962edfdf0eb007082313d14fcab2a1f',
    ('duato-nbc', False, 2007):
        'e719fb022f7773929ff5b91ddc33e51019f2e221fbf10b850bb090f23d966380',
    ('duato-nbc', True, 11):
        '49e919904ae672a5b2fc16fb87e2b2541d96aa8ef18720112a46f15bca74a901',
    ('duato-nbc', True, 2007):
        '4518570957b1db3c8db280c1b169f3c27fc0a47beedac43de11f84715aeaf4d2',
    ('minimal-adaptive', False, 11):
        'f08c4416a142474d180f6d6fd5fd89f78e05180b6ffc9c603c2a9acb514075de',
    ('minimal-adaptive', False, 2007):
        'f8e5b06841c915e4ecbe64ba22a9b0a854bdcc7723eb440b5526aeede7e23b15',
    ('minimal-adaptive', True, 11):
        '52b1fce9165b520e2770253c7db7afa9d732458e56abe69d3a40e29e3cb02e57',
    ('minimal-adaptive', True, 2007):
        'e06c0e03461ca7c5ec48b7df9a2488bf7d9acb6c3fa3e914335283e4949bd6b3',
    ('fully-adaptive', False, 11):
        'b4d7ead538e9657a45499a835617071133501c2552c8018830f4d2d96928be0e',
    ('fully-adaptive', False, 2007):
        '33c170d969b5f976895bb9817c4227ea5038649d11ff7d405e8f24b6a3bd792e',
    ('fully-adaptive', True, 11):
        '5219f3a012b8188036ca3797f1dd65c5359445798c7a58c87517e6a5ecb9bd30',
    ('fully-adaptive', True, 2007):
        '137a90ea522fd0713b6e1748029e9bc1d653f8e6f895ed607a6c8bdd63be0280',
    ('boura', False, 11):
        '380149fa7b17e5025b255d1e1ee857863bb3561337bf7257735f0097c5d7cffa',
    ('boura', False, 2007):
        'c40271ff598d7aa46b4744b97a3ddf956857cf1b3e02ac2548e7eb1e77fbb271',
    ('boura', True, 11):
        '39ae1efbfc45991ac4cc80aeeabf90acad30fa23a7199384c8148693d0a84467',
    ('boura', True, 2007):
        '571e6bc612c172e673782e21ac15de1caaa3196c0ffbbf339deec2da9ea7a9e1',
    ('boura-ft', False, 11):
        '89cf0672b0e99b9718a2665f7aa24bc8f7be9b8434a0fd99df059ad5a8169f05',
    ('boura-ft', False, 2007):
        'c7a5e3fbcdf40f672f250b858e13c116a07b89ac6300797d1980de6efe11de5e',
    ('boura-ft', True, 11):
        '21e833f5801dbde78376104999046a651e20815f7d611b3ea54101b250828aee',
    ('boura-ft', True, 2007):
        '0b6773ce16d47680b2f698f34b590ea92056549cfd5a6d784e9d3ba279a0f5a3',
    ('ecube', False, 11):
        '5173076219ab48e8a40b839807fdcb65a2bc1e0f0a137f796903af914c516b21',
    ('ecube', False, 2007):
        'e4683abea1d17a297e6230b162e196c32ad93ae348ff0c855f519cedab9d62d8',
    ('ecube', True, 11):
        'e3264efb4d52e2e044aba540a6bb999c365b2c02772c0134c64e96b9bcafddc6',
    ('ecube', True, 2007):
        '7b0fb9713a4197150a86f62f7bc77ce1de391e1783b6983d780a835908b5471a',
    ('west-first', False, 11):
        'f97e1ca7fa194e371d66aad6ad47f6c76a81ac55237dd77fb8a462a702bf4681',
    ('west-first', False, 2007):
        '75993a5b8611595f40209a18fd379da98ec736abaa1f89a974878842495fc184',
    ('west-first', True, 11):
        '7548bde62a4911155df5973ca1a3c942d1dbb007558cc9ccd3d2182077eda04a',
    ('west-first', True, 2007):
        '2abe0dac40bbd193a9c798b48bf20a6eef2484d4835c255532889ff9424e4a5a',
    ('phop', True, 0):
        'e89b66fed9b4f880410f0b07064a533a9c5300b32d76d9167f45215471772a53',
    ('nhop', True, 0):
        '047806204f9fc8dd344d4d65778567943b90c2181d6e34dc8f7cbc66404cb2ea',
    ('pbc', True, 0):
        '28f7ca43124da99d25887d490f77a9b665f40e531c3036f27210a705dc8a22f1',
    ('nbc', True, 0):
        'f9ab471d9449fc958777b2cb2db37e05349d77ed338835fa66edc1a87ff6915b',
    ('duato', True, 0):
        '4d3d6748bc5bff15798f5b7cfbcc48a73e9fa6ed3ea617c2848b844e3d56669e',
    ('duato-pbc', True, 0):
        'fdfa7b9e9f6dc3f8c98d81cffba9099441908e40d64ad5dc29033f3504d84af4',
    ('duato-nbc', True, 0):
        '15a817b45e0de1c29f6da2a81f1ee84ab75b9385df4211da8204891ad1310dd2',
    ('minimal-adaptive', True, 0):
        '30cf4551959a31b44a517c43cb3157238a49125fccdf1a35a918bb42557e67ff',
    ('fully-adaptive', True, 0):
        '906b526ad9fa1e9bf4c8f6af2969c4e94f6764237414191a017820f3b70bd912',
    ('boura', True, 0):
        '3c92de11666184a3b377f368f8bd0396f5bdf7f015bb8e4b60f92bacfaee9c5d',
    ('boura-ft', True, 0):
        'ebbcb28cc07750ae708a6843de8d05c1e1705188e28f0ef4a2600b4c704faf98',
    ('ecube', True, 0):
        'cb202ca3eb75708e36b5a2ce87a56d7d433ee4b323c63936b044e28b36a2c9a3',
    ('west-first', True, 0):
        '2c8dd3e7149292ce22353ed16028db789e1a8ade5367d05acf1cff268e794238',
}

GOLDEN_TWINS = {
    ('fully-adaptive', True, 0): {
        'row': '906b526ad9fa1e9bf4c8f6af2969c4e94f6764237414191a017820f3b70bd912',
        'telemetry': '7829c73d07a29dbe',
        'blame': '7d28f681d92a26ccbe82903afec4742acf9b845e6f9734cbaaa58ed85e864402',
        'trace': '10c740e64a00115a28a76c32d0e3872a748b75447e598ce320e5bf1679d34ccc',
    },
    ('duato-nbc', True, 11): {
        'row': '49e919904ae672a5b2fc16fb87e2b2541d96aa8ef18720112a46f15bca74a901',
        'telemetry': 'e223cc92f221411d',
        'blame': 'f6dcd1f9aa1577e50e3caf17dc250ae50b5416198d53008176403e2cfe3a9034',
        'trace': '06c73b131b7f29f92254b06122404f630f208a382c9e00ef5a381483f92de139',
    },
    ('nhop', False, 2007): {
        'row': '8f29885cc9a0e858240d5d2bfdeb1c305326ff6d810066a133dce25c804f2be1',
        'telemetry': '332aa9308caf66cb',
        'blame': 'b4802035c93a7b52949e8a9dce05ca0989d5b04876cbb40ba723bd1e5c263252',
        'trace': 'cca08e598b2f4306f3fb00989854b45e0c9ca93152a06d1eabc500feb0aa6fed',
    },
}

GOLDEN_LOADED = {
    ('pbc', 1): {
        'row': 'f134c6a38612f52b74e6058378f052adba82534b70250c66fa25a096fad1c8cc',
        'telemetry': 'c2290bacce815361',
        'blame': '1745c37177e464dccc5f15fa3d45ce17209b3782c15d593d45af553d0b60015f',
        'trace': '990ddaca0584dd5a0652334d8d73797823b5480597d7167e8a1ea37e32b45bcc',
        'rng': '412abedbd8fdf8ebc51447300f793a318e21138e3781e2b5dbeafb1999b7843b',
    },
    ('boura-ft', 2): {
        'row': 'f4ac627ea93835d057a71327ac26409f8f9b1dcbef2ed6ae59d5280d42f4ea2d',
        'telemetry': '0c14bd94f966ac02',
        'blame': '0bc719aedbd3cc8f5bdfe796d4cbb163a332e69fbb153655286dadb497e59a45',
        'trace': '219e72a28ea7cf13980ab14f4409382d6aa42b6213fbf047b811ddb1f3352a9d',
        'rng': 'be565d90e5269cb75848515366daf601ef8fadd764e17d7c28c451ab5d6a25f7',
    },
    ('duato', 1): {
        'row': '8bd653ddec5b56360fc33e6e6cf1d39f682188c65c1310c230bb24012e645de8',
        'telemetry': '5e9067723616f478',
        'blame': 'eba4ba5813969b833d0f85771cf16e3a193ea74b8194e63a875396efc3ab8c9e',
        'trace': 'f6f23f7da1465ea1c2b5ce7f965da298f08bd040966d6382e11c0580e83ea66d',
        'rng': 'd0bde604620bf31204d8947c7ab7f39079ceffc375629ff689f2c198f932804a',
    },
}


def test_engine_version_matches_the_pins():
    assert ENGINE_VERSION == 2, "re-pin GOLDEN with the ENGINE_VERSION bump"
    assert sorted(GOLDEN) == sorted(CASES)


def _case_id(case) -> str:
    name, faulty, seed = case
    return f"{name}-{'faulty' if faulty else 'free'}-{seed or 'tight'}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_result_row_is_bit_identical(case):
    sim = build(*case)
    sim.run()
    sim.check_invariants()
    assert row_digest(sim) == GOLDEN[case]


@pytest.mark.parametrize("case", TWINS, ids=_case_id)
def test_attached_twin_is_bit_identical(case):
    """Attaching every observer changes no result and publishes the
    same telemetry, blame records and trace events as the pinned run."""
    digests = twin_digests(build(*case))
    assert digests["row"] == GOLDEN[case]
    assert digests == GOLDEN_TWINS[case]


@pytest.mark.parametrize("case", LOADED, ids=lambda c: f"{c[0]}-inj{c[1]}")
def test_loaded_regime_is_bit_identical(case):
    """Mostly-waiting network: result row, both RNG end states and every
    published event match the run that re-asked every header each cycle."""
    assert loaded_digests(*case) == GOLDEN_LOADED[case]
