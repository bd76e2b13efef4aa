"""The ``serve-live`` server process.

    python3 perfbench/serve_server.py --seed 1 --trace 0

Builds a ``LiveDataset`` of the storage-cold shape, serves it through
``QueryExecutor`` → ``QueryService`` → ``ServeServer`` on a local port,
warms every distinct key, then talks to its parent over stdin/stdout,
one JSON object per line:

* it prints ``{"event": "ready", "port", "setup_s"}`` once warm;
* ``go`` starts the window: counters reset and writes are armed;
* ``stop`` ends it: writes stop, and it prints ``{"event": "stopped",
  ...}`` with the writes applied, the peak RSS and, when traced, the
  per-layer figures and spans;
* ``exit`` (or end of input) shuts the server down.

Writes: during the window, before every :data:`WRITE_EVERY`-th
``bench`` read (starting with the first), the next write of the seeded
stream (``world.WriteStream``) is applied through the live-update API,
so every round of reads starts on a just-invalidated cache.  The write
runs on the handler thread, before that request enters
``QueryService.handle``; the client keeps one connection in a closed
loop, so no request is in flight while a write is applied.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)
from common import (
    engine_layer_metrics, explain_counts, install_engine_wrappers,
    timed_setup, vm_hwm_mb,
)
from tracer import Tracer
from world import (
    STORAGE_SHAPE, WORLD_SEED, WriteStream, apply_to_live, distinct_queries,
    make_world, query_body,
)

from repro.core.executor import QueryExecutor
from repro.live.dataset import LiveBase, LiveDataset
from repro.serve.cache import ResultCache
from repro.serve.http import ServeServer
from repro.serve.service import QueryService, ServeConfig

#: Distinct keys of the workload (``--distinct-queries`` of
#: ``benchmarks/bench_serve.py``).
KEYS = 200
#: One write per this many window reads.
WRITE_EVERY = 300
#: Executor workers (the box has 2 CPUs).
WORKERS = 2
#: ``LiveDataset.build`` calls timed for ``setup_s`` (median reported).
SETUP_REPEATS = 9


class PacedService(QueryService):
    """``QueryService`` plus the count-paced write stream."""

    def __init__(self, executor, config, live, writes: WriteStream) -> None:
        super().__init__(executor, config, live=live)
        self.live = live
        self.writes = writes
        self.armed = False
        self.reads = 0
        self.applied = 0
        self.write_s: list[float] = []

    def handle(self, tenant, query, algorithm="stps", pulling="prioritized",
               trace_id=None):
        if self.armed and tenant == "bench":
            if self.reads % WRITE_EVERY == 0:
                write = self.writes.next()
                t0 = time.perf_counter()
                apply_to_live(self.live, write)
                self.write_s.append(time.perf_counter() - t0)
                self.applied += 1
            self.reads += 1
        return super().handle(tenant, query, algorithm=algorithm,
                              pulling=pulling, trace_id=trace_id)


def post(port: int, body: dict) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/query", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        doc = json.loads(resp.read())
        if resp.status != 200:
            raise RuntimeError(f"first request answered {resp.status}: {doc}")
        return doc
    finally:
        conn.close()


def say(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class Probe:
    """Per-layer counters of the traced window (reset by ``go``)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.handle_ms: dict[int, float] = {}
        self.queue_wait_s: list[float] = []
        self.exec_s: list[float] = []
        self.stats: list = []

    def on_handle(self, decision, duration, args, kwargs) -> None:
        trace_id = kwargs.get("trace_id")
        if trace_id and args[1] == "bench":
            self.handle_ms[int(trace_id, 16)] = duration * 1e3

    def on_execute(self, result, duration, args, kwargs) -> None:
        _, queue_wait_s, latency_s = result
        self.queue_wait_s.append(queue_wait_s)
        self.exec_s.append(latency_s)

    def on_query(self, result, duration, args, kwargs) -> None:
        self.stats.append(result.stats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    world = make_world(STORAGE_SHAPE, WORLD_SEED)
    keys = distinct_queries(world, KEYS, args.seed)
    build_s, live = timed_setup(
        lambda: LiveDataset.build(world.objects, world.feature_sets),
        SETUP_REPEATS,
    )
    executor = QueryExecutor(live.processor, max_workers=WORKERS)
    service = PacedService(executor, ServeConfig(), live,
                           WriteStream(world, args.seed))
    server = ServeServer(service, port=0)
    t0 = time.perf_counter()
    try:
        server.start()
        post(server.port, query_body(keys[0], "setup"))
        setup_s = build_s + time.perf_counter() - t0
        for query in keys:
            decision = service.handle("warm", query)
            if decision.status != 200:
                raise RuntimeError(f"warm-up answered {decision.status}")
        say({"event": "ready", "port": server.port, "setup_s": setup_s})
        serve_commands(service, live, keys, bool(args.trace))
    finally:
        server.close()
        executor.close()
    return 0


def cache_outcomes(cache) -> tuple[int, int]:
    """``(hits, lookups)`` of ``ResultCache.get`` so far."""
    return cache.hits, cache.hits + cache.misses + cache.stale


def serve_commands(service, live, keys, trace: bool) -> None:
    tracer = probe = None
    if trace:
        tracer, probe = Tracer(), Probe()
        tracer.wrap(QueryService, "handle", "serve.handle",
                    on_return=probe.on_handle)
        tracer.wrap(ResultCache, "get", "serve.cache_get")
        tracer.wrap(QueryExecutor, "execute_one", "executor.execute_one",
                    on_return=probe.on_execute)
        install_engine_wrappers(tracer, on_query=probe.on_query)
        for op in ("move_feature", "rescore_feature"):
            tracer.wrap(LiveBase, op, "live." + op)
    trees = live.processor.trees()
    snaps = None
    cache0 = (0, 0)
    for line in sys.stdin:
        command = line.strip()
        if command == "go":
            if tracer is not None:
                tracer.reset()
                probe.reset()
            snaps = [t.pagefile.stats.snapshot() for t in trees]
            cache0 = cache_outcomes(service.cache)
            service.armed = True
            say({"event": "went"})
        elif command == "stop":
            service.armed = False
            doc = {"event": "stopped", "writes": service.applied,
                   "write_ms": [s * 1e3 for s in service.write_s],
                   "peak_rss_mb": vm_hwm_mb()}
            if tracer is not None:
                deltas = [t.pagefile.stats.delta_since(s)
                          for t, s in zip(trees, snaps)]
                tracer.remove()
                layers = engine_layer_metrics(
                    tracer, probe.stats, explain_counts(live, keys))
                hits = sum(d.node_cache_hits for d in deltas)
                lookups = hits + sum(d.node_cache_misses for d in deltas)
                layers["index.node_cache_hit_ratio"]["value"] = (
                    hits / lookups if lookups else 0.0)
                doc.update({
                    "layers": layers,
                    "handle_ms": probe.handle_ms,
                    "queue_wait_ms": [s * 1e3 for s in probe.queue_wait_s],
                    "exec_ms": [s * 1e3 for s in probe.exec_s],
                    "cache_gets": [
                        now - then for now, then
                        in zip(cache_outcomes(service.cache), cache0)
                    ],
                    "table": tracer.table(len(probe.stats)),
                    "spans": tracer.export(),
                })
            say(doc)
        elif command == "exit":
            return


if __name__ == "__main__":
    # A dead parent closes stdin, which ends the command loop and shuts
    # the server down.
    sys.exit(main())
