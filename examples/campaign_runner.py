"""Define and run a simulation campaign with exact resume.

Campaigns are the way to run big custom grids (beyond the built-in
figure drivers): declare the cross product once, bind it to a directory
(`CampaignDB`), run it (`run_campaign`) — rerunning skips every cell
whose run key is already in the directory's store — and read the
results back as a dense labeled array (`query`).  `campaign.json` in the
directory records the spec and the key of every cell; fault layouts are
re-derived from the spec seed.

Run:  python examples/campaign_runner.py
(CLI twin: python -m repro.campaigns run DIR --spec spec.json)
"""

import tempfile
from pathlib import Path

from repro.campaigns import CampaignDB, CampaignSpec, query, run_campaign
from repro.simulator import SimConfig

spec = CampaignSpec(
    name="bonus-card-faulty-grid",
    algorithms=("phop", "pbc", "nhop", "nbc"),
    config=SimConfig(
        width=8,
        vcs_per_channel=24,
        message_length=8,
        cycles=1_500,
        warmup=400,
    ),
    rates=(0.01, 0.04),
    fault_counts=(0, 3),
    fault_sets=2,
    seed=11,
)
print(f"Campaign '{spec.name}': {spec.n_jobs} jobs")

root = Path(tempfile.mkdtemp(prefix="repro_campaign_"))
db = CampaignDB(spec, root)
summary = run_campaign(db, progress=lambda s: print(" ", s))
print(f"\nExecuted {summary['executed']} jobs -> {db.store.root}")

# Re-running (even from a fresh process) resumes: nothing left to do.
assert run_campaign(CampaignDB.open(root))["executed"] == 0
print("Re-run executed 0 jobs (resume works).")

# Read back and summarize: mean throughput per algorithm at the high
# rate with faults present.
throughput = query(db, metrics=("throughput",))
print("\nThroughput at rate 0.04 with 3 faults (mean over fault sets):")
for alg in spec.algorithms:
    vals = [
        throughput.sel("throughput", algorithm=alg, rate=0.04,
                       fault_case=f"f3/s{s}", repeat=0)
        for s in range(spec.fault_sets)
    ]
    print(f"  {alg:6s} {sum(vals) / len(vals):.4f}")
print(
    "\nExpected shape: the bonus-card variants (pbc/nbc) at or above\n"
    "their base schemes, as in the paper's Section 4."
)
