"""The cold engine workloads: ``lattice-cold`` and ``storage-cold``.

One thread replays a fixed, seeded list of distinct STPS range queries
against a ``QueryProcessor``, dropping every cached page and decoded
node before each query, in whole rounds until the run's seconds are
spent (at least one round).  Every answer is checked against the
independent evaluator.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from common import (
    SERVE_LAYER_UNITS, engine_layer_metrics, explain_counts,
    install_engine_wrappers, metric, percentile, tail_q, timed_setup,
    vm_hwm_mb,
)
from evaluator import Evaluator, compare
from tracer import Tracer
from world import (
    LATTICE_SHAPE, STORAGE_SHAPE, WORLD_SEED, Shape, distinct_queries,
    make_world,
)

from repro.core.processor import QueryProcessor


@dataclass(frozen=True)
class EngineWorkload:
    shape: Shape
    #: Distinct queries in one round (the fixed sample count).
    queries: int
    #: Index builds timed for ``setup_s`` (the median is reported).
    setup_repeats: int
    #: Percentile reported as ``latency_tail_ms``.
    tail: float


ENGINE_WORKLOADS = {
    # p90, not the p96.4 that leaves ten queries beyond: cold c = 3
    # costs are heavy-tailed, and over ten seeds the ten-deep tail
    # spread by 0.24 of its median; p90 leaves 28 queries beyond.
    "lattice-cold": EngineWorkload(LATTICE_SHAPE, queries=280,
                                   setup_repeats=31, tail=0.9),
    "storage-cold": EngineWorkload(STORAGE_SHAPE, queries=180,
                                   setup_repeats=9, tail=tail_q(180)),
}


def run_engine(name: str, seed: int, seconds: float, trace: bool):
    """``(result dict, trace exports)`` of one run of an engine workload."""
    spec = ENGINE_WORKLOADS[name]
    world = make_world(spec.shape, WORLD_SEED)
    queries = distinct_queries(world, spec.queries, seed)
    evaluator = Evaluator(world)
    expected = [evaluator.top_k(q.keyword_masks, q.k, q.lam) for q in queries]

    setup_s, processor = timed_setup(
        lambda: QueryProcessor.build(world.objects, world.feature_sets),
        spec.setup_repeats,
    )

    tracer = Tracer() if trace else None
    stats = []
    if tracer is not None:
        install_engine_wrappers(tracer)
    latencies: list[float] = []
    attempted = failed = 0
    wrong: list[str] = []
    rounds = 0
    window_t0 = time.perf_counter()
    try:
        while True:
            for i, query in enumerate(queries):
                processor.clear_buffers()
                if tracer is not None:
                    tracer.operation(f"r{rounds}q{i}")
                attempted += 1
                t0 = time.perf_counter()
                try:
                    result = processor.query(query)
                except Exception as exc:  # counted, reported, run goes on
                    failed += 1
                    print(f"query {i} failed: {exc!r}", file=sys.stderr)
                    continue
                latencies.append(time.perf_counter() - t0)
                stats.append(result.stats)
                diff = compare(
                    expected[i], [(it.oid, it.score) for it in result.items]
                )
                if diff:
                    wrong.append(f"query {i}: {diff}")
            rounds += 1
            elapsed = time.perf_counter() - window_t0
            if elapsed + elapsed / rounds > seconds:
                break
    finally:
        if tracer is not None:
            tracer.remove()

    if tracer is None:
        metrics = {
            "latency_p50_ms": metric(percentile(latencies, 0.5) * 1e3, "ms"),
            "latency_tail_ms": metric(
                percentile(latencies, spec.tail) * 1e3, "ms"),
            "throughput_ops": metric(len(latencies) / sum(latencies), "1/s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(vm_hwm_mb(), "MB"),
        }
        exports = []
    else:
        metrics = engine_layer_metrics(
            tracer, stats, explain_counts(processor, queries)
        )
        metrics.update(
            {k: metric(0.0, unit) for k, unit in SERVE_LAYER_UNITS.items()}
        )
        metrics["traced.latency_p50_ms"] = metric(
            percentile(latencies, 0.5) * 1e3, "ms")
        exports = [(tracer.export(), tracer.table(len(stats)), window_t0)]
    print(f"{name}: {rounds} round(s) of {len(queries)} queries, "
          f"{time.perf_counter() - window_t0:.1f} s", file=sys.stderr)
    for line in wrong[:10]:
        print(f"WRONG {line}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, exports
