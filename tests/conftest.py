"""Shared fixtures: seeded randomness (PST_SEED) and random spec factories."""

import os

import numpy as np
import pytest

import semicayley as sc
from semicayley import groups

SEED = int(os.environ.get("PST_SEED", "20260808"))

# every abelian group of order <= 12 (one presentation per iso class, plus
# a few alternative presentations to exercise non-canonical factor lists)
GROUP_POOL = [
    (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3), (7,), (8,), (2, 4),
    (2, 2, 2), (9,), (3, 3), (10,), (2, 5), (11,), (12,), (2, 6), (3, 4), (2, 2, 3),
]

NONTRIVIAL_POOL = [f for f in GROUP_POOL if f != (1,)]


@pytest.fixture(autouse=True)
def _no_shared_groups():
    # each test starts with an empty group cache, so a test of when a group
    # table is built sees the tables its own calls build, in any test order
    with groups._cache_lock:
        groups._cache.clear()
        groups._cached_entries = 0


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def random_inverse_closed(group, rng, prob=0.4):
    xs = set()
    for g in group.elements()[1:]:
        if rng.random() < prob:
            xs.add(g)
            xs.add(group.inverse(g))
    return xs


def random_subset(group, rng, prob=0.4):
    return {g for g in group.elements() if rng.random() < prob}


def random_spec(rng, pool=NONTRIVIAL_POOL, equal_layers=False):
    factors = pool[int(rng.integers(len(pool)))]
    group = sc.AbelianGroup(factors)
    r_set = random_inverse_closed(group, rng)
    l_set = set(r_set) if equal_layers else random_inverse_closed(group, rng)
    return sc.SemiCayleySpec(group, r_set, l_set, random_subset(group, rng))
