from __future__ import annotations

import random

import pytest

from nexthop.generators import random_network
from nexthop.model import Network


def _fixpoint_random_network(rng, n, min_deg=2, max_deg=4, filters=None):
    """The former generator: samples from an explicit list of the other
    nodes and repairs reach with a fixpoint over all nodes."""
    prefs = [[] for _ in range(n)]
    for v in range(1, n):
        deg = rng.randint(min(min_deg, n - 1), min(max_deg, n - 1))
        prefs[v] = rng.sample([u for u in range(n) if u != v], deg)
    while True:
        reach = {0}
        grew = True
        while grew:
            grew = False
            for v in range(1, n):
                if v not in reach and any(w in reach for w in prefs[v]):
                    reach.add(v)
                    grew = True
        stranded = [v for v in range(1, n) if v not in reach]
        if not stranded:
            break
        v = stranded[0]
        target = rng.choice(sorted(reach - {v}))
        if target not in prefs[v]:
            prefs[v][-1] = target
    return Network.of(prefs, filters=filters)


@pytest.mark.parametrize(
    "min_deg,max_deg,filters",
    [(1, 1, None), (1, 3, "self"), (2, 4, None), (3, 8, "self")],
)
def test_random_network_draws_as_before(min_deg, max_deg, filters):
    for seed in range(60):
        for n in (2, 3, 5, 9, 17, 40):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            new = random_network(new_rng, n, min_deg, max_deg, filters)
            old = _fixpoint_random_network(old_rng, n, min_deg, max_deg, filters)
            assert new == old
            # the next draw from the caller's generator is unchanged too
            assert new_rng.getstate() == old_rng.getstate()
