"""Helpers shared by the workloads: percentiles, memory, set-up, layers."""

from __future__ import annotations

import gc
import math
import statistics
import time

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]


def tail_q(samples_per_round: int) -> float:
    """The highest percentile with :data:`TAIL_BEYOND` samples beyond it
    at a round of ``samples_per_round`` samples."""
    return (samples_per_round - TAIL_BEYOND) / samples_per_round


def vm_hwm_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def timed_setup(build, repeats: int):
    """``(median seconds, last result)`` of ``repeats`` calls of ``build``.

    The previous result is dropped and garbage collected before each
    call, so every build starts from the same heap.
    """
    times = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


#: Per-layer metrics of the layers a workload does not run (reported
#: as 0 so that every traced run prints every per-layer metric).
SERVE_LAYER_UNITS = {
    "serve.handle_ms_p50": "ms",
    "serve.http_ms_p50": "ms",
    "serve.cache_hit_ratio": "ratio",
    "serve.rejected": "count",
    "executor.queue_wait_ms_p50": "ms",
    "executor.queue_wait_ms_tail": "ms",
    "executor.exec_ms_p50": "ms",
    "live.write_ms_p50": "ms",
    "live.writes": "count",
}


def engine_layer_metrics(tracer, stats: list, plans: list) -> dict:
    """Engine and storage per-layer metrics of a traced window.

    ``stats`` holds the ``QueryStats`` of every query the window ran;
    ``plans`` the ``(released, rejected_2r)`` of one EXPLAIN pass per
    distinct query.
    """
    n = max(1, len(stats))
    total = tracer.total_s
    query_s = total["engine.query"]
    lattice_self_s = tracer.self_s["lattice.next"]
    storage_s = total["index.read_node"] + total["index.leaf_arrays"]
    released = sum(r for r, _ in plans)
    pops = sum(r + j for r, j in plans)
    hits = sum(s.node_cache_hits for s in stats)
    lookups = hits + sum(s.node_cache_misses for s in stats)
    durations = tracer.durations["engine.query"]
    return {
        "engine.query_ms_p50": metric(
            percentile(durations, 0.5) * 1e3 if durations else 0.0, "ms"),
        "lattice.self_ms_per_query": metric(lattice_self_s * 1e3 / n, "ms"),
        "lattice.pops_per_query": metric(
            pops / max(1, len(plans)), "count"),
        "lattice.released_per_query": metric(
            released / max(1, len(plans)), "count"),
        "lattice.pops_per_release": metric(pops / max(1, released), "ratio"),
        "lattice.query_share": metric(
            lattice_self_s / query_s if query_s else 0.0, "ratio"),
        "stream.pull_ms_per_query": metric(
            total["stream.next"] * 1e3 / n, "ms"),
        "stream.features_pulled_per_query": metric(
            sum(s.features_pulled for s in stats) / n, "count"),
        "objects.fetch_ms_per_query": metric(
            total["objects.within_all"] * 1e3 / n, "ms"),
        "index.read_node_ms_per_query": metric(
            total["index.read_node"] * 1e3 / n, "ms"),
        "index.leaf_arrays_ms_per_query": metric(
            total["index.leaf_arrays"] * 1e3 / n, "ms"),
        "index.query_share": metric(
            storage_s / query_s if query_s else 0.0, "ratio"),
        "index.page_reads_per_query": metric(
            sum(s.io_reads for s in stats) / n, "count"),
        "index.node_cache_hit_ratio": metric(
            hits / lookups if lookups else 0.0, "ratio"),
    }


def install_engine_wrappers(tracer, on_query=None) -> None:
    """Wrap the engine and storage entry points named in README.md."""
    from repro.core.combinations import CombinationIterator
    from repro.core.processor import QueryProcessor
    from repro.core.stream import FeatureStream
    from repro.index.feature_tree import FeatureTree
    from repro.index.object_rtree import ObjectRTree
    from repro.index.rtree_base import RTreeBase

    tracer.wrap(QueryProcessor, "query", "engine.query", on_return=on_query)
    tracer.wrap(CombinationIterator, "next", "lattice.next")
    tracer.wrap(FeatureStream, "next", "stream.next")
    tracer.wrap(ObjectRTree, "within_all", "objects.within_all",
                generator=True)
    tracer.wrap(RTreeBase, "read_node", "index.read_node")
    tracer.wrap(FeatureTree, "leaf_arrays", "index.leaf_arrays")


def explain_counts(processor, queries) -> list[tuple[int, int]]:
    """``(released, rejected_2r)`` of one EXPLAIN pass per query."""
    out = []
    for query in queries:
        combos = processor.explain(query).plan.combinations
        out.append((combos.released, combos.rejected_2r) if combos else (0, 0))
    return out
