"""REP015: the sanctioned routes to a simulation."""
from typing import TYPE_CHECKING

import repro.core.evaluator
import repro.store.cache as cache
from repro.core.evaluator import ENGINE_VERSION, Evaluator
from repro.store.cache import CachedEvaluator as Cached
from repro.campaigns.db import CampaignDB
from repro import simulator
import repro.simulators
from repro.simulatorx import y

if TYPE_CHECKING:
    import repro.simulator
    import repro.simulator.engine as engine
    from repro.simulator.config import SimConfig
    from repro.simulator.engine import Simulation as Sim


def resolve(request):
    from repro.store.cache import CachedEvaluator

    return CachedEvaluator
