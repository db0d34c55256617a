"""Share one result store between figure sweeps and campaigns.

The content-addressed store (`repro.store`) caches every simulation
cell by a canonical digest of its exact inputs.  This example runs a
small rate sweep, then a campaign over overlapping cells, and shows
three things:

1. the campaign reuses the sweep's cells (cache hits, no simulation),
2. rerunning either path is near-instant and bit-identical,
3. parallel campaign workers share the same store safely.

Run:  python examples/cached_campaign.py
"""

import tempfile
import time
from pathlib import Path

from repro.campaigns import CampaignRunner, CampaignSpec
from repro.experiments.fig_sweep import run_sweep
from repro.experiments.profiles import SMOKE_PROFILE
from repro.store import CachedEvaluator, ResultStore

work_dir = Path(tempfile.mkdtemp(prefix="repro_cached_"))
store = ResultStore(work_dir / "store")
algorithms = ("nhop", "phop")

# 1. A figure sweep fills the store ---------------------------------------
t0 = time.perf_counter()
cold = run_sweep(SMOKE_PROFILE, algorithms, store=store)
cold_s = time.perf_counter() - t0
print(f"Cold sweep: {cold_s:.2f}s, store now holds {len(store)} cells")

# 2. Rerunning the sweep is all cache hits --------------------------------
t0 = time.perf_counter()
warm = run_sweep(SMOKE_PROFILE, algorithms, store=store)
warm_s = time.perf_counter() - t0
assert warm.throughput == cold.throughput and warm.latency == cold.latency
print(f"Warm sweep: {warm_s:.2f}s ({cold_s / max(warm_s, 1e-9):.0f}x faster), "
      "identical series")

# 3. A campaign over overlapping cells reuses them ------------------------
spec = CampaignSpec(
    name="cached-demo",
    algorithms=algorithms,
    config=SMOKE_PROFILE.config,
    rates=SMOKE_PROFILE.sweep_rates[:2],  # cells the sweep already ran
    seed=2007,
)
runner = CampaignRunner(spec, work_dir / "campaign", store=store)
runner.run(workers=2)  # pool workers reopen the same store
evaluator = CachedEvaluator(spec.config, seed=spec.seed, store=store)
for rate in spec.rates:
    for alg in algorithms:
        evaluator.rate_sweep(alg, [rate])
print(f"Campaign + spot checks: {evaluator.stats}")
assert evaluator.stats.misses == 0, "every overlapping cell was a hit"

print(f"\nStore stats: {store.stats()}")
print("Inspect it with:  python -m repro.experiments store ls "
      f"--store {store.root}")
