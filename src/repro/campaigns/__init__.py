"""Persistent, shardable simulation campaigns.

``repro.campaigns`` is the layer between the evaluator and the serving
end-state: a declared parameter space (:class:`CampaignSpec`) becomes a
persistent key table (:class:`CampaignDB`) over the content-addressed
result store, a shard-and-merge executor fills in exactly the missing
runs (:func:`run_campaign`), and a query layer serves the completed
space as dense labeled arrays (:func:`query`).

CLI: ``python -m repro.campaigns {plan,run,status,query,merge}``.
"""

from repro.campaigns.db import CampaignDB, CampaignPlan, store_digest
from repro.campaigns.query import CampaignArray, MissingCellsError, query
from repro.campaigns.shard import (
    merge_shards,
    partition_cells,
    run_campaign,
    run_shard,
)
from repro.campaigns.spec import CampaignSpec, cell_id, fault_case_label

__all__ = [
    "CampaignArray",
    "CampaignDB",
    "CampaignPlan",
    "CampaignSpec",
    "MissingCellsError",
    "cell_id",
    "fault_case_label",
    "merge_shards",
    "partition_cells",
    "query",
    "run_campaign",
    "run_shard",
    "store_digest",
]
