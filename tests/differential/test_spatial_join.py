"""Differential check: Algorithm 4's 2r rank join against the lattice.

The rank join (``enforce_2r=True``) forms only spatially compatible
combinations; the product lattice (``enforce_2r=False``) forms them all.
Filtering the lattice's full enumeration by the pairwise-``2r`` rule of
Definition 4 / Lemma 1 gives the reference: the join must release the
same combinations, the same number of times at each score, in
non-increasing score order, under both pulling strategies.

The worlds are drawn to hit the join's edge cases:

* features on a lattice of step ``r`` whose spacing is exact in binary,
  so many pairs sit *exactly* ``2r`` apart, across grid-cell borders;
* ``2r >= 1``, where every feature shares one grid cell;
* sets with no relevant feature (their stream yields only ``∅``), so
  combinations end in virtual-only tails;
* scores from a small grid, so many combinations tie, some of them
  with the all-virtual combination at score 0;
* radii at the ends of the float range (subnormal, infinite), where
  the grid's cell width is clamped.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import brute_force
from repro.core.combinations import (
    PULL_PRIORITIZED,
    PULL_ROUND_ROBIN,
    CombinationIterator,
)
from repro.core.processor import QueryProcessor
from repro.core.query import PreferenceQuery
from repro.errors import QueryError
from repro.index.srt import SRTIndex
from repro.model.dataset import FeatureDataset, ObjectDataset
from repro.model.objects import DataObject, FeatureObject
from repro.text.vocabulary import Vocabulary

VOCAB = Vocabulary(["a", "b"])
#: The lattice step: ``1/16`` is exact in binary, so coordinates and
#: their differences are exact and ``2r`` spacings are exactly ``2r``.
STEP = 1.0 / 16.0
#: Radii whose ``2r`` is a whole number of steps, plus ``2r >= 1``.
RADII = (STEP, 2 * STEP, 0.5, 0.75)


@st.composite
def feature_sets(draw, c: int, span: int):
    """``c`` small feature sets; a set may hold no relevant feature.

    Points lie in a strip ``span`` steps wide and 2 steps high, half of
    them on the lattice, half anywhere in the strip."""
    sets = []
    next_fid = 0
    for label in range(c):
        n = draw(st.integers(min_value=1, max_value=5))
        features = []
        for _ in range(n):
            # Within a few 2r of each other: many pairs near the cut-off.
            if draw(st.booleans()):
                x = draw(st.integers(0, span)) * STEP
                y = draw(st.integers(0, 2)) * STEP
            else:
                x = draw(st.floats(0.0, span * STEP))
                y = draw(st.floats(0.0, 2 * STEP))
            # With lam = 0 a zero score ties the all-virtual combination.
            score = draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)))
            # Keyword 0 is the query's; keyword 1 alone is irrelevant.
            keywords = draw(st.sampled_from(({0}, {1}, {0, 1})))
            features.append(
                FeatureObject(next_fid, x, y, score, frozenset(keywords))
            )
            next_fid += 1
        sets.append(FeatureDataset(features, VOCAB, f"s{label}"))
    return sets


def enumerate_all(iterator: CombinationIterator) -> list:
    out = []
    while (combo := iterator.next()) is not None:
        out.append(combo)
    return out


def key(combo) -> tuple:
    return combo.score, tuple(f.fid for f in combo.features)


def pairwise_valid(combo, radius: float) -> bool:
    real = [f for f in combo.features if not f.is_virtual]
    return all(
        math.hypot(a.x - b.x, a.y - b.y) <= 2.0 * radius
        for a, b in itertools.combinations(real, 2)
    )


def check_join_matches_filtered_lattice(sets, radius, lam) -> None:
    trees = [SRTIndex.build(fs) for fs in sets]
    query = PreferenceQuery(
        k=3, radius=radius, lam=lam, keyword_masks=(1,) * len(sets)
    )
    lattice = enumerate_all(
        CombinationIterator(trees, query, enforce_2r=False)
    )
    expected = Counter(key(c) for c in lattice if pairwise_valid(c, radius))
    for pulling in (PULL_PRIORITIZED, PULL_ROUND_ROBIN):
        joined = enumerate_all(
            CombinationIterator(trees, query, enforce_2r=True, pulling=pulling)
        )
        scores = [c.score for c in joined]
        assert scores == sorted(scores, reverse=True), pulling
        assert Counter(map(key, joined)) == expected, pulling
        assert joined[-1].is_all_virtual


@given(
    sets=feature_sets(2, span=10),
    radius=st.sampled_from(RADII),
    lam=st.sampled_from((0.0, 0.5)),
)
@settings(max_examples=60, deadline=None)
def test_join_equals_filtered_lattice_two_sets(sets, radius, lam):
    check_join_matches_filtered_lattice(sets, radius, lam)


@given(
    sets=feature_sets(3, span=6),
    radius=st.sampled_from(RADII),
    lam=st.sampled_from((0.0, 0.5)),
)
@settings(max_examples=60, deadline=None)
def test_join_equals_filtered_lattice_three_sets(sets, radius, lam):
    check_join_matches_filtered_lattice(sets, radius, lam)


def test_pairs_exactly_2r_apart_across_a_cell_border():
    """Two features exactly ``2r`` apart in adjacent grid cells join;
    one a step farther does not.  (With cells narrower than ``2r``, the
    first pair would fall two cells apart and be missed.)"""
    radius = STEP
    sets = [
        FeatureDataset(
            [FeatureObject(0, 7 * STEP, 0.5, 0.9, frozenset({0}))], VOCAB, "a"
        ),
        FeatureDataset(
            [
                FeatureObject(1, 9 * STEP, 0.5, 0.8, frozenset({0})),
                FeatureObject(2, 10 * STEP, 0.5, 0.7, frozenset({0})),
            ],
            VOCAB,
            "b",
        ),
    ]
    trees = [SRTIndex.build(fs) for fs in sets]
    query = PreferenceQuery(k=3, radius=radius, lam=0.0, keyword_masks=(1, 1))
    pairs = {
        tuple(f.fid for f in combo.features)
        for combo in enumerate_all(CombinationIterator(trees, query))
    }
    assert (0, 1) in pairs
    assert (0, 2) not in pairs


def test_members_near_the_owner_but_far_apart_are_rejected():
    """Both earlier members lie within ``2r`` of the last-pulled one but
    ``4r`` from each other: the join's pairwise check drops the triple
    and EXPLAIN counts it as ``rejected_2r``."""
    from repro.obs.explain import DiagnosticsCollector

    radius = STEP

    def one(fid, x, score, label):
        feature = FeatureObject(fid, x, 0.5, score, frozenset({0}))
        return FeatureDataset([feature], VOCAB, label)

    sets = [
        one(0, 4 * STEP, 0.9, "a"),
        one(1, 8 * STEP, 0.8, "b"),
        one(2, 6 * STEP, 0.1, "c"),
    ]
    trees = [SRTIndex.build(fs) for fs in sets]
    query = PreferenceQuery(
        k=3, radius=radius, lam=0.0, keyword_masks=(1, 1, 1)
    )
    collector = DiagnosticsCollector()
    combos = enumerate_all(
        CombinationIterator(trees, query, collector=collector)
    )
    members = {tuple(f.fid for f in combo.features) for combo in combos}
    assert (0, 1, 2) not in members
    assert {(0, -1, 2), (-1, 1, 2), (0, -1, -1)} <= members
    diag = collector.plan().combinations
    assert diag.released == len(combos)
    assert diag.rejected_2r == 1


def coincident_world() -> list[FeatureDataset]:
    """Three sets; some features share a point, the rest lie far apart."""
    points = [(0.25, 0.25), (0.25, 0.25), (0.75, 0.5), (0.25, 0.25)]
    sets = []
    for label in range(3):
        features = [
            FeatureObject(
                10 * label + n, x + label * (n == 2) * 0.1, y,
                1.0 - 0.2 * n, frozenset({0}),
            )
            for n, (x, y) in enumerate(points)
        ]
        sets.append(FeatureDataset(features, VOCAB, f"s{label}"))
    return sets


@pytest.mark.parametrize("radius", [1e-320, 5e-324, 1e-300, 1e300, math.inf])
def test_extreme_radii_match_the_lattice(radius):
    """A subnormal ``2r`` would make ``1 / 2r`` infinite and an infinite
    one makes it 0; the grid clamps its cell width so both still join
    exactly like the filtered lattice, and a full query matches brute
    force."""
    sets = coincident_world()
    check_join_matches_filtered_lattice(sets, radius, 0.5)
    objects = ObjectDataset(
        [
            DataObject(0, 0.25, 0.25),
            DataObject(1, 0.75, 0.5),
            DataObject(2, 0.3, 0.9),
        ]
    )
    query = PreferenceQuery(
        k=3, radius=radius, lam=0.5, keyword_masks=(1, 1, 1)
    )
    got = QueryProcessor.build(objects, sets).query(query)
    want = brute_force(objects, sets, query)
    assert [i.oid for i in got.items] == [i.oid for i in want.items]
    for a, b in zip(got.items, want.items):
        assert a.score == pytest.approx(b.score, abs=1e-9)


def test_nan_radius_is_rejected():
    with pytest.raises(QueryError, match="radius"):
        PreferenceQuery(k=3, radius=math.nan, lam=0.5, keyword_masks=(1,))
