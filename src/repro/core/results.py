"""Query results and per-query cost accounting.

Mirrors the paper's metrics (Section 8.1): execution time split into I/O
time (number of page reads x per-page cost) and CPU time, plus the
algorithm-specific counters the paper discusses (combinations examined,
Voronoi-cell cost for the NN variant).
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.storage.pagefile import PageFile


@dataclass(frozen=True, slots=True)
class ResultItem:
    """One ranked data object."""

    oid: int
    score: float
    x: float
    y: float


@dataclass(slots=True)
class QueryStats:
    """Cost counters for a single query execution."""

    wall_s: float = 0.0
    io_reads: int = 0
    buffer_hits: int = 0
    node_cache_hits: int = 0
    node_cache_misses: int = 0
    io_time_s: float = 0.0
    combinations: int = 0
    #: Candidate combinations formed by Algorithm 4 (pushed onto its
    #: heap, valid or not); ``combinations_formed / combinations`` is
    #: the enumeration's work per released combination.
    combinations_formed: int = 0
    features_pulled: int = 0
    objects_scored: int = 0
    heap_pops: int = 0
    nodes_expanded: int = 0
    voronoi_io_reads: int = 0
    voronoi_cpu_s: float = 0.0
    voronoi_io_time_s: float = 0.0
    #: Per-query trace id minted by the processor (see
    #: :mod:`repro.obs.tracing`): the join key across Chrome-trace spans,
    #: flight-recorder records, and structured logs.  Empty until the
    #: processor stamps it.
    trace_id: str = ""
    #: Per-phase wall seconds (span name -> total), populated when
    #: tracing is enabled (see :mod:`repro.obs.tracing`); empty otherwise.
    #: Phase names follow the span taxonomy of DESIGN.md §9.
    phase_times: dict[str, float] = field(default_factory=dict)

    @property
    def cpu_time_s(self) -> float:
        """Wall time minus nothing — in a simulated-disk build, all wall
        time is CPU time; the I/O charge is additive on top."""
        return self.wall_s

    @property
    def total_time_s(self) -> float:
        """CPU time plus simulated I/O time (what the paper's bars show)."""
        return self.wall_s + self.io_time_s

    @property
    def node_cache_hit_rate(self) -> float:
        """Decoded-node cache hits / lookups; 0.0 when unused."""
        total = self.node_cache_hits + self.node_cache_misses
        return self.node_cache_hits / total if total else 0.0


@dataclass(slots=True)
class QueryResult:
    """Ranked items plus the cost of producing them."""

    items: list[ResultItem] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def scores(self) -> list[float]:
        """Scores in rank order (the comparable part across algorithms)."""
        return [item.score for item in self.items]

    @property
    def oids(self) -> list[int]:
        return [item.oid for item in self.items]

    def __len__(self) -> int:
        return len(self.items)


class StatsTracker:
    """Accumulates I/O deltas across a set of page files during a query."""

    def __init__(self, pagefiles: Iterable[PageFile]) -> None:
        self.pagefiles = list(pagefiles)
        self._before = [pf.stats.snapshot() for pf in self.pagefiles]
        self._t0 = time.perf_counter()

    def finish(self, stats: QueryStats) -> QueryStats:
        """Fill ``stats`` with elapsed time and I/O deltas."""
        stats.wall_s = time.perf_counter() - self._t0
        for pf, before in zip(self.pagefiles, self._before):
            delta = pf.stats.delta_since(before)
            stats.io_reads += delta.reads
            stats.buffer_hits += delta.buffer_hits
            stats.node_cache_hits += delta.node_cache_hits
            stats.node_cache_misses += delta.node_cache_misses
            stats.io_time_s += delta.io_time_s
        return stats

    def io_snapshot(self) -> list:
        """Snapshot used to attribute a sub-phase (e.g. Voronoi) I/O."""
        return [pf.stats.snapshot() for pf in self.pagefiles]

    def io_since(self, snapshot: list) -> tuple[int, float]:
        """(reads, io_time_s) accumulated since ``snapshot``."""
        reads = 0
        io_time = 0.0
        for pf, before in zip(self.pagefiles, snapshot):
            delta = pf.stats.delta_since(before)
            reads += delta.reads
            io_time += delta.io_time_s
        return reads, io_time


def rank_items(
    candidates: Iterable[tuple[float, int, float, float]], k: int
) -> list[ResultItem]:
    """Top-k by (score desc, oid asc) from (score, oid, x, y) tuples."""
    ordered = sorted(candidates, key=lambda t: (-t[0], t[1]))
    return [ResultItem(oid, score, x, y) for score, oid, x, y in ordered[:k]]
