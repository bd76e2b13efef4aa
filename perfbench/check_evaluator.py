"""Check the independent evaluator against the program's brute force.

``repro.core.bruteforce.brute_force`` evaluates Definitions 1-2 with
nested Python loops over the raw datasets.  On tiny worlds (with ties,
empty neighbourhoods and k larger than the object count) the evaluator
must return the same ids in the same order and the same scores to
1e-9.  ``run.py`` calls :func:`check` before every run; run it alone
with::

    python3 perfbench/check_evaluator.py
"""

from __future__ import annotations

import sys

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)
from evaluator import Evaluator, compare
from world import Shape, distinct_queries, make_world

from repro.core.bruteforce import brute_force

TINY_SHAPES = (
    Shape(objects=300, sets=2, features=200, vocab=16, radius=0.05),
    Shape(objects=40, sets=3, features=60, vocab=8, radius=0.08, k=50,
          lam=0.3, keywords_per_set=2),
)


def check(seeds=(1, 2)) -> int:
    """Number of checked queries; raises AssertionError on a mismatch."""
    checked = 0
    for shape in TINY_SHAPES:
        for seed in seeds:
            world = make_world(shape, seed)
            evaluator = Evaluator(world)
            for query in distinct_queries(world, 8, seed):
                want = brute_force(world.objects, world.feature_sets, query)
                got = evaluator.top_k(query.keyword_masks, query.k, query.lam)
                diff = compare(got, [(i.oid, i.score) for i in want.items])
                if diff:
                    raise AssertionError(
                        f"evaluator != brute force ({shape}, seed {seed}, "
                        f"{query}): {diff}"
                    )
                checked += 1
    return checked


if __name__ == "__main__":
    print(f"evaluator matches brute force on {check()} queries")
    sys.exit(0)
