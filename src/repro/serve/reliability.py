"""Monte-Carlo mesh reliability under random router failures.

Motivated by Safaei & ValadBeigi's probabilistic analysis of n-D-mesh
reliability (PAPERS.md): given that each router fails independently
with probability *p*, how likely is the surviving mesh to stay
**connected** (one component over all healthy nodes — the paper's
standing assumption for its fault patterns), and what fraction of
healthy source/destination pairs remains **routable** even when it is
not?

Estimation is seeded Monte-Carlo over failure sets, batched so the
trials fan out across :func:`repro.experiments.parallel.iter_parallel`
workers (a pool per call, or a server's running pool).  Determinism contract: each batch derives its RNG from
``f"{seed}/reliability/{p:.9f}/{batch_index}"`` — a pure function of
the request, never of the process — so an estimate is bit-identical
across repeat calls **and across worker counts** (the batch
decomposition is fixed; workers only change who executes which batch).

Confidence comes from the Wilson score interval — the right choice for
Bernoulli proportions near 0 or 1, where the normal approximation's
interval collapses or escapes [0, 1].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.evaluator import ENGINE_VERSION
from repro.experiments.parallel import iter_parallel
from repro.faults.connectivity import reachable_from
from repro.topology.mesh import Mesh2D

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

__all__ = [
    "ReliabilityEstimate",
    "estimate",
    "wilson_interval",
]

#: Trials per worker batch; small enough that a few hundred trials
#: still spread across workers, large enough to amortize pool overhead.
BATCH_TRIALS = 250


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score 95% interval for a Bernoulli proportion.

    Well-behaved at the boundaries (0 or *trials* successes) where the
    Wald interval degenerates to a point.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    n = float(trials)
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = (
        z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def _routable_fraction(mesh: Mesh2D, faulty: set[int]) -> tuple[bool, float]:
    """``(connected, routable-pair fraction)`` of one failure set.

    Routability is the fraction of ordered healthy (source, destination)
    pairs joined by a fault-free path: with components of sizes ``s_i``
    over ``h`` healthy nodes, ``Σ s_i(s_i - 1) / (h(h - 1))``.  Fewer
    than two healthy nodes carry no traffic: disconnected, 0.0 —
    matching :func:`repro.faults.connectivity.is_connected`.
    """
    healthy = mesh.n_nodes - len(faulty)
    if healthy < 2:
        return False, 0.0
    seen: set[int] = set()
    pair_sum = 0
    for node in mesh.nodes():
        if node in faulty or node in seen:
            continue
        component = reachable_from(mesh, faulty, node)
        seen |= component
        size = len(component)
        pair_sum += size * (size - 1)
    return len(seen) == healthy and pair_sum == healthy * (
        healthy - 1
    ), pair_sum / (healthy * (healthy - 1))


def _reliability_batch(
    job: tuple[int, int, float, int, int, int],
) -> dict:
    """One worker batch of Monte-Carlo trials (picklable, pure).

    ``job = (width, height, failure_rate, seed, batch_index, trials)``;
    returns plain counters so results cross process boundaries as
    primitives.
    """
    width, height, failure_rate, seed, batch_index, trials = job
    mesh = Mesh2D(width, height)
    rng = random.Random(
        f"{seed}/reliability/{failure_rate:.9f}/{batch_index}"
    )
    connected = 0
    routable_sum = 0.0
    for _ in range(trials):
        faulty = {
            node
            for node in mesh.nodes()
            if rng.random() < failure_rate
        }
        ok, fraction = _routable_fraction(mesh, faulty)
        connected += ok
        routable_sum += fraction
    return {
        "trials": trials,
        "connected": connected,
        "routable_sum": routable_sum,
    }


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Monte-Carlo estimate of mesh survivability at one failure rate."""

    width: int
    height: int
    failure_rate: float
    trials: int
    seed: int
    #: P(healthy mesh is one connected component), with Wilson 95% CI.
    p_connected: float
    ci_low: float
    ci_high: float
    #: Mean fraction of healthy ordered pairs still joined by a path.
    routable_fraction: float
    #: Uniform answer schema with the performance tiers.
    engine_version: int = ENGINE_VERSION

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "failure_rate": self.failure_rate,
            "trials": self.trials,
            "seed": self.seed,
            "p_connected": self.p_connected,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "routable_fraction": self.routable_fraction,
            "engine_version": self.engine_version,
        }


def estimate(
    width: int,
    *,
    height: int | None = None,
    failure_rate: float,
    trials: int = 1000,
    seed: int = 2007,
    workers: int | Pool = 1,
) -> ReliabilityEstimate:
    """Estimate connectivity/routability of a mesh at *failure_rate*.

    Deterministic in ``(width, height, failure_rate, trials, seed)``
    and independent of *workers* — a count or a running pool, see
    :func:`~repro.experiments.parallel.iter_parallel` — batching is
    fixed by the request.
    """
    if not 0.0 <= failure_rate <= 1.0:
        raise ValueError("failure_rate must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be positive")
    height = width if height is None else height
    jobs = []
    remaining = trials
    batch_index = 0
    while remaining > 0:
        batch = min(BATCH_TRIALS, remaining)
        jobs.append(
            (width, height, failure_rate, seed, batch_index, batch)
        )
        remaining -= batch
        batch_index += 1
    outputs = list(iter_parallel(_reliability_batch, jobs, workers))
    connected = sum(o["connected"] for o in outputs)
    routable_sum = sum(o["routable_sum"] for o in outputs)
    low, high = wilson_interval(connected, trials)
    return ReliabilityEstimate(
        width=width,
        height=height,
        failure_rate=failure_rate,
        trials=trials,
        seed=seed,
        p_connected=connected / trials,
        ci_low=low,
        ci_high=high,
        routable_fraction=routable_sum / trials,
    )
