"""Share one result store between figure sweeps and campaigns.

The content-addressed store (`repro.store`) caches every simulation
cell by a canonical digest of its exact inputs.  This example runs a
small rate sweep, then a campaign over overlapping cells, and shows
three things:

1. rerunning the sweep is near-instant and bit-identical,
2. the campaign plans against the same store, so the cells the sweep
   already ran are *done* before the campaign executes anything,
3. the remaining cells run in shards and merge back into that store.

Run:  python examples/cached_campaign.py
"""

import tempfile
import time
from pathlib import Path

from repro.campaigns import CampaignDB, CampaignSpec, query, run_campaign
from repro.experiments.fig_sweep import run_sweep
from repro.experiments.profiles import SMOKE_PROFILE
from repro.store import ResultStore

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
swept = SMOKE_PROFILE.sweep_rates[:2]  # cells the sweep already ran
spec = CampaignSpec(
    name="cached-demo",
    algorithms=algorithms,
    config=SMOKE_PROFILE.config,
    rates=(*swept, 0.0125),  # ... plus one rate nobody has run yet
    seed=2007,
)
db = CampaignDB(spec, work_dir / "campaign", store=store)
plan = db.plan()
print(f"Campaign plan: {plan.done}/{plan.total} cells already stored")
assert plan.done == len(algorithms) * len(swept), "the sweep's cells are done"

summary = run_campaign(db, shards=2)  # each shard fills its own store
assert summary["executed"] == len(algorithms)  # only the new rate ran
assert summary["merged_rows"] == summary["executed"]
assert not db.plan().missing

# The query reads the sweep's own rows back: bit-identical values.
latency = query(db, metrics=("network_latency",))
for alg in algorithms:
    got = latency.sel("network_latency", algorithm=alg, rate=swept[0],
                      fault_case="f0/s0", repeat=0)
    assert got == cold.latency[alg][0]
    print(f"  {alg:5s} latency at rate {swept[0]}: {got:.2f} cycles")

print(f"\nStore stats: {store.stats()}")
print("Inspect it with:  python -m repro.experiments store ls "
      f"--store {store.root}")
