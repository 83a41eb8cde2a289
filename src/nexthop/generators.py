"""Seeded random instance generation for tests and batch experiments."""

from __future__ import annotations

import random

from .model import Network, distances_to, in_neighbours


def random_network(
    rng: random.Random,
    n: int,
    min_deg: int = 2,
    max_deg: int = 4,
    filters: str | None = None,
) -> Network:
    """Random network on n nodes with sink 0.

    Out-degrees are drawn uniformly from [min_deg, max_deg] (capped at n-1)
    and rankings follow the sample order.  Unreachable nodes are repaired by
    rewiring their least-preferred arc toward the reachable region, so
    construction never raises.  ``filters`` is None (empty lists) or "self".
    """
    if n < 2:
        raise ValueError("need at least a sink and one node")
    prefs: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        deg = rng.randint(min(min_deg, n - 1), min(max_deg, n - 1))
        # index u of the other n - 1 nodes is node u, or u + 1 from v on
        prefs[v] = [u + (u >= v) for u in rng.sample(range(n - 1), deg)]

    while True:
        reach = distances_to(0, in_neighbours(prefs))
        stranded = [v for v in range(1, n) if v not in reach]
        if not stranded:
            break
        v = stranded[0]
        target = rng.choice(sorted(reach))
        if target not in prefs[v]:
            prefs[v][-1] = target

    return Network.of(prefs, filters=filters)
