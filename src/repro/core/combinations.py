"""Valid-combination retrieval — the heart of STPS (Section 6, Alg. 4).

Yields combinations ``C = (t_1, ..., t_c)``, one feature (or the virtual
``∅``) per feature set, in non-increasing combined score ``s(C) = Σ s(t_i)``,
pulling features from the per-set sorted streams only as needed:

* **thresholding scheme** — a combination is released only once its score
  reaches ``τ = max_j (max_1 + ... + min_j + ... + max_c)``, the best
  score any not-yet-formed combination could achieve (``max_l`` = best
  score in set ``l``, ``min_j`` = best score still obtainable from set
  ``j``'s stream);
* **pulling strategy** — either the paper's *prioritized* strategy
  (Definition 5: pull from the set responsible for the current threshold)
  or plain round-robin (the paper's "simple alternative", kept as an
  ablation);
* **validity** — for the range variant, combinations whose real members
  are pairwise farther than ``2r`` apart are never released (Definition
  4 / Lemma 1); the influence and NN variants disable that rule
  (``enforce_2r=False``), as Section 7 prescribes.

The candidates over the already-pulled features come from one of two
sources, both feeding a score-ordered heap of index tuples:

* ``enforce_2r=True`` — an incremental spatial rank join.  Each set's
  pulled real features sit in a hash grid with cells a hair wider than
  ``2r``, so every feature within ``2r`` of a point lies in its 3 × 3
  cell block.  A pulled feature ``t`` heads the combinations whose
  last-pulled member it is: a sub-lattice, explored lazily from its seed
  like the product lattice, over per other set the earlier-pulled
  features within ``2r`` of ``t`` in score order (filtered when ``t`` is
  pulled), closed by that set's ``∅``.  Pairs not involving ``t`` are
  checked with the same ``2r`` test when a tuple is examined; the tuples
  that fail are the plan's ``rejected_2r``.  The virtual ``∅`` joins
  every list from the start (it is compatible with everything, and ``τ``
  still bounds every unformed combination), so it heads no sub-lattice
  itself; the all-virtual combination is formed once every stream has
  ended and ranks last among ties, as in the lattice.
  Every combination has exactly one last-pulled member and one parent in
  its sub-lattice, so each is formed once, and the work follows the
  spatially valid output, not the product of the pulled lists.
* ``enforce_2r=False`` — the product lattice of the per-set sorted lists
  (seed ``(0,...,0)``, pop a tuple, push its ``c`` single-increment
  successors), where no tuple is invalid.

Either way the release order is the non-increasing score order of the
paper's eager ``validCombinations``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.query import PreferenceQuery
from repro.core.stream import FeatureStream, StreamedFeature, virtual_feature
from repro.errors import QueryError
from repro.index.feature_tree import FeatureTree
from repro.obs import explain as _explain
from repro.obs import tracing as _tracing

_EPS = 1e-12

PULL_PRIORITIZED = "prioritized"
PULL_ROUND_ROBIN = "round_robin"


@dataclass(frozen=True, slots=True)
class Combination:
    """A combination of feature objects with its combined score."""

    features: tuple[StreamedFeature, ...]
    score: float

    @property
    def anchors(self) -> tuple[tuple[float, float], ...]:
        """Locations of the real (non-virtual) members."""
        return tuple(
            (f.x, f.y) for f in self.features if not f.is_virtual
        )

    @property
    def is_all_virtual(self) -> bool:
        return all(f.is_virtual for f in self.features)


class CombinationIterator:
    """Iterator over combinations in non-increasing score order."""

    def __init__(
        self,
        feature_trees: Sequence[FeatureTree],
        query: PreferenceQuery,
        enforce_2r: bool = True,
        pulling: str = PULL_PRIORITIZED,
        recorder=None,
        collector=None,
    ) -> None:
        if len(feature_trees) != query.c:
            raise QueryError(
                f"query addresses {query.c} feature sets, got "
                f"{len(feature_trees)} trees"
            )
        if pulling not in (PULL_PRIORITIZED, PULL_ROUND_ROBIN):
            raise QueryError(f"unknown pulling strategy {pulling!r}")
        self.query = query
        self.enforce_2r = enforce_2r
        self.pulling = pulling
        # Phase recorder (repro.obs.tracing): times the feature pulls,
        # threshold updates and combination assembly separately so a
        # query's `phase_times` mirrors the anatomy of Algorithm 4.
        self.recorder = (
            recorder if recorder is not None else _tracing.NULL_RECORDER
        )
        # EXPLAIN collector: records pulling rounds with the τ value
        # that justified each pull (Definition 5) and every examined
        # tuple's accept/reject decision (Lemma 1).
        self.collector = _explain.resolve(collector)
        self.c = query.c
        self.streams = [
            FeatureStream(
                tree, mask, query.lam, collector=self.collector, set_id=i
            )
            for i, (tree, mask) in enumerate(
                zip(feature_trees, query.keyword_masks)
            )
        ]
        # Upper bound of each set's best score; tightened to the exact max
        # on the first pull (the paper sets max_i at first access).
        self.set_max: list[float] = [
            s.next_bound if s.next_bound is not None else 0.0
            for s in self.streams
        ]
        self._candidates = (
            _SpatialJoin(self.c, query.radius) if enforce_2r
            else _Lattice(self.c)
        )
        self._rr_next = 0
        self.combinations_released = 0
        # Seed: one pull per set; a stream always yields at least the
        # virtual feature, and its first feature is its exact maximum.
        for i in range(self.c):
            with self.recorder.span("stps.feature_pull", feature_set=i):
                self.set_max[i] = self._pull(i).score

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def next(self) -> Combination | None:
        """Next combination by descending score, or None when done."""
        rec = self.recorder
        collector = self.collector
        while True:
            with rec.span("stps.threshold_update"):
                threshold = self._threshold()
            with rec.span("stps.combination_assembly"):
                combo = self._candidates.pop(threshold - _EPS, collector)
            if combo is not None:
                self.combinations_released += 1
                return combo
            # Nothing on the heap reaches τ.  Once every stream is
            # exhausted τ is -inf, so the heap is empty as well.
            pull_from = self._next_feature_set()
            if pull_from is None:
                return None
            if collector.active:
                bound = self.streams[pull_from].next_bound
                collector.pull(
                    pull_from,
                    threshold,
                    bound if bound is not None else 0.0,
                )
            with rec.span("stps.feature_pull", feature_set=pull_from):
                self._pull(pull_from)

    @property
    def features_pulled(self) -> int:
        """Real features retrieved from the streams so far."""
        return sum(s.pulled for s in self.streams)

    @property
    def combinations_formed(self) -> int:
        """Candidate tuples pushed onto the heap so far (valid or not)."""
        return self._candidates.formed

    # ------------------------------------------------------------------
    # thresholding scheme
    # ------------------------------------------------------------------
    def _threshold(self) -> float:
        """Best score of any combination not yet formable (τ of Alg. 4)."""
        best = -math.inf
        total_max = sum(self.set_max)
        for j, stream in enumerate(self.streams):
            bound = stream.next_bound
            if bound is None:
                continue
            candidate = total_max - self.set_max[j] + bound
            if candidate > best:
                best = candidate
        return best

    def _next_feature_set(self) -> int | None:
        """Which stream to pull from next (Definition 5 or round-robin)."""
        pullable = [
            j for j, s in enumerate(self.streams) if s.next_bound is not None
        ]
        if not pullable:
            return None
        if self.pulling == PULL_ROUND_ROBIN:
            for _ in range(self.c):
                j = self._rr_next % self.c
                self._rr_next += 1
                if j in pullable:
                    return j
            return pullable[0]
        # Prioritized: the set responsible for the current threshold.
        total_max = sum(self.set_max)
        return max(
            pullable,
            key=lambda j: total_max - self.set_max[j] + self.streams[j].next_bound,
        )

    def _pull(self, i: int) -> StreamedFeature | None:
        feature = self.streams[i].next()
        if feature is not None:
            self._candidates.add(i, feature)
        return feature


class _CandidateHeap:
    """Score-ordered heap of index tuples, materialized on release.

    Entries are ``(-score, counter, lists, idx)``: ``lists[j][idx[j]]``
    is the tuple's member from set ``j``.  The counter keeps ties in
    formation order and keeps ``lists`` out of comparisons.
    """

    def __init__(self, c: int) -> None:
        self.c = c
        self._heap: list[tuple] = []
        self._counter = 0
        #: Candidate tuples pushed so far.
        self.formed = 0

    def _push(self, lists, idx: tuple[int, ...]) -> None:
        score = 0.0  # summed in set order, the same on every path
        for j, a in enumerate(idx):
            score += lists[j][a].score
        self._counter += 1
        self.formed += 1
        heapq.heappush(self._heap, (-score, self._counter, lists, idx))

    def pop(self, floor: float, collector) -> Combination | None:
        """The best valid tuple scoring at least ``floor``, or None.

        Tuples that fail :meth:`_valid` are discarded on the way; their
        successors are formed all the same.
        """
        heap = self._heap
        while heap and -heap[0][0] >= floor:
            neg_score, _, lists, idx = heapq.heappop(heap)
            self._expand(lists, idx)
            features = tuple(lists[j][a] for j, a in enumerate(idx))
            valid = self._valid(lists, features)
            if collector.active:
                collector.combination(-neg_score, valid)
            if valid:
                return Combination(features, -neg_score)
        return None

    def _valid(self, lists, features: tuple[StreamedFeature, ...]) -> bool:
        return True


class _Lattice(_CandidateHeap):
    """The product lattice over the pulled prefixes (``enforce_2r=False``)."""

    def __init__(self, c: int) -> None:
        super().__init__(c)
        self.pulled: list[list[StreamedFeature]] = [[] for _ in range(c)]
        self._submitted: set[tuple[int, ...]] = set()
        self._blocked: list[list[tuple[int, ...]]] = [[] for _ in range(c)]
        self._submit(tuple([0] * c))

    def add(self, i: int, feature: StreamedFeature) -> None:
        self.pulled[i].append(feature)
        ready = self._blocked[i]
        self._blocked[i] = []
        for idx in ready:
            self._place(idx)

    def _submit(self, idx: tuple[int, ...]) -> None:
        if idx not in self._submitted:
            self._submitted.add(idx)
            self._place(idx)

    def _place(self, idx: tuple[int, ...]) -> None:
        for j in range(self.c):
            if idx[j] >= len(self.pulled[j]):
                # Park until that list grows, then check again.
                self._blocked[j].append(idx)
                return
        self._push(self.pulled, idx)

    def _expand(self, lists, idx: tuple[int, ...]) -> None:
        for j in range(self.c):
            if lists[j][idx[j]].is_virtual:
                continue  # nothing ranks below the virtual feature
            self._submit(idx[:j] + (idx[j] + 1,) + idx[j + 1 :])


_VIRTUAL = virtual_feature()
_VIRTUAL_COLUMN = [_VIRTUAL]

#: Grid cells are a hair wider than ``2r``: two points at most ``2r``
#: apart then always floor into the same or adjacent cells, even when
#: their distance is exactly ``2r`` and rounding nudges a coordinate.
_CELL_SLACK = 1.0 + 1e-6
#: Cells are never narrower than ``1 / _MAX_INV``.  A cell wider than
#: ``2r`` only holds more candidates, so a tinier (even subnormal) radius
#: stays correct and its cell indices stay finite.
_MAX_INV = 1e9
_BLOCK = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


class _SubLattice(list):
    """The combinations whose last-pulled member is ``self[owner][0]``.

    One score-ordered column per set, each closed by ``∅``; columns of
    ``∅`` alone are one shared list.
    """

    __slots__ = ("owner",)

    def __init__(self, owner: int, columns) -> None:
        super().__init__(columns)
        self.owner = owner


class _SpatialJoin(_CandidateHeap):
    """Incremental 2r-grid rank join (``enforce_2r=True``)."""

    def __init__(self, c: int, radius: float) -> None:
        super().__init__(c)
        self.diameter = 2.0 * radius
        self._inv = min(1.0 / (self.diameter * _CELL_SLACK), _MAX_INV)
        #: Per set: the pulled real features, and cell -> positions.
        self._pulled: list[list[StreamedFeature]] = [[] for _ in range(c)]
        self._cells: list[dict[tuple[int, int], list[int]]] = [
            {} for _ in range(c)
        ]
        self._zeros = (0,) * c
        self._streams_ended = 0

    def add(self, i: int, feature: StreamedFeature) -> None:
        if feature.is_virtual:
            # ∅ closes every column already.  The all-virtual combination
            # has no real member to head it: form it once every stream
            # has ended, ranked after every other combination of score 0
            # (formed or not), as in the lattice.
            self._streams_ended += 1
            if self._streams_ended == self.c:
                virtuals = _SubLattice(-1, [_VIRTUAL_COLUMN] * self.c)
                self.formed += 1
                heapq.heappush(
                    self._heap, (-0.0, math.inf, virtuals, self._zeros)
                )
            return
        x, y = feature.x, feature.y
        cell = (math.floor(x * self._inv), math.floor(y * self._inv))
        keys = [(cell[0] + dx, cell[1] + dy) for dx, dy in _BLOCK]
        columns = []
        diameter = self.diameter
        for j, (pulled, cells) in enumerate(zip(self._pulled, self._cells)):
            if j == i:
                columns.append([feature])
                continue
            # Pull order is score order, so sorted positions give the
            # column in score order.
            near = [b for b in map(cells.get, keys) if b]
            positions = sorted(itertools.chain(*near))
            column = [
                g for g in map(pulled.__getitem__, positions)
                if math.hypot(g.x - x, g.y - y) <= diameter
            ]
            columns.append(
                column + _VIRTUAL_COLUMN if column else _VIRTUAL_COLUMN
            )
        self._push(_SubLattice(i, columns), self._zeros)
        pulled = self._pulled[i]
        self._cells[i].setdefault(cell, []).append(len(pulled))
        pulled.append(feature)

    def _expand(self, lists: _SubLattice, idx: tuple[int, ...]) -> None:
        # Each tuple's parent lowers its last non-zero coordinate, so a
        # tuple's children raise that coordinate or a later one.
        c = self.c
        last = c - 1
        while last and not idx[last]:
            last -= 1
        for j in range(last, c):
            a = idx[j] + 1
            if j != lists.owner and a < len(lists[j]):
                self._push(lists, idx[:j] + (a,) + idx[j + 1 :])

    def _valid(self, lists: _SubLattice, features) -> bool:
        # Members are within 2r of the owner by construction; check the
        # pairs among the others (Lemma 1).
        owner = lists.owner
        real = [
            f for j, f in enumerate(features)
            if j != owner and not f.is_virtual
        ]
        diameter = self.diameter
        for a, b in itertools.combinations(real, 2):
            if math.hypot(a.x - b.x, a.y - b.y) > diameter:
                return False
        return True
