"""The ``serve-live`` workload: closed-loop HTTP load on a live server.

Starts ``serve_server.py`` in its own process and drives it with one
keep-alive connection in a closed loop: the next request is sent only
after the previous answer.  (With two connections the median request
was a cache hit waiting for the interpreter lock behind a concurrent
miss, and its latency jumped between 3.2 and 6.1 ms across runs of the
same code; README.md has the figures.)  A
round is a fixed, seeded list of :data:`ROUND` requests whose keys are
drawn zipf(:data:`ZIPF_S`) over the server's distinct keys; the run
replays whole rounds until its seconds are spent (at least one round).

During the window every answer must be a 200 with a well-formed top-k
(size and order).  After it, writes stop; the benchmark applies the
same seeded writes the server applied to its own mirror of the world,
requests every distinct key once more, and checks each answer against
the independent evaluator on that final world, so a stale cache entry
or a bad index write fails the run.
"""

from __future__ import annotations

import http.client
import json
import queue
import socket
import subprocess
import threading
import sys
import time

import paths
from common import metric, percentile, tail_q
from evaluator import Evaluator, compare
from serve_server import KEYS, WRITE_EVERY
from tracer import Tracer
from world import (
    STORAGE_SHAPE, WORLD_SEED, WriteStream, apply_to_arrays, distinct_queries,
    make_world, query_body, zipf_sequence,
)

#: Requests in one round (the fixed sample count); a whole number of
#: write intervals, so that every round sees the same writes.
ROUND = 600
if ROUND % WRITE_EVERY:
    raise ValueError("ROUND must be a multiple of WRITE_EVERY")
#: Zipf exponent of the key distribution: the default of the
#: repository's serving load model, ``benchmarks/bench_serve.py``
#: (``--zipf-s 1.1`` over ``--distinct-queries 200``).
ZIPF_S = 1.1
#: Seconds to wait for the server to build, warm and answer a command.
SERVER_TIMEOUT_S = 150.0


class ServerProcess:
    """The server child process and its line-per-event channel."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(paths.ROOT / "perfbench" / "serve_server.py"),
             "--seed", str(seed), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=paths.ROOT,
        )
        self.events: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.events.put(line)
        self.events.put(None)

    def expect(self, event: str) -> dict:
        try:
            line = self.events.get(timeout=SERVER_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError(f"server sent no {event!r} in time") from None
        if line is None:
            raise RuntimeError(f"server exited before {event!r}")
        doc = json.loads(line)
        if doc.get("event") != event:
            raise RuntimeError(f"expected {event!r} from server, got {doc}")
        return doc

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Ask the server to exit; kill it if it does not; reap it."""
        try:
            if self.proc.poll() is None:
                self.send("exit")
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._reader.join(timeout=30)


def connect(port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.connect()
    # A POST is two writes (headers, body); without NODELAY the second
    # waits for the delayed ACK of the first.
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


class Client:
    """Counts, latencies and answers of the requests sent so far."""

    def __init__(self, port: int, keys, k: int, n_objects: int,
                 tracer) -> None:
        self.port = port
        self.bodies = [json.dumps(query_body(q, "bench")) for q in keys]
        self.size = min(k, n_objects)
        self.tracer = tracer
        self.conn = None
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.cached = 0
        self.latency_s: dict[int, float] = {}
        self.miss_s: list[float] = []
        self.bad: list[str] = []

    def post(self, conn, body: str, request_id: int):
        """``(status, document, seconds)``; raises on transport errors."""
        headers = {
            "Content-Type": "application/json",
            "traceparent": f"00-{request_id:032x}-00f067aa0ba902b7-01",
        }
        t0 = time.perf_counter()
        conn.request("POST", "/query", body=body, headers=headers)
        resp = conn.getresponse()
        raw = resp.read()
        elapsed = time.perf_counter() - t0
        return resp.status, json.loads(raw), elapsed

    def run_round(self, sequence, first_id: int) -> None:
        """Send the round's requests one after another (a closed loop)."""
        for pos, key in enumerate(sequence):
            request_id = first_id + pos
            try:
                if self.tracer is None:
                    status, doc, elapsed = self.post(
                        self.conn, self.bodies[key], request_id)
                else:
                    self.tracer.operation(f"{request_id:032x}")
                    with self.tracer.span("client.post"):
                        status, doc, elapsed = self.post(
                            self.conn, self.bodies[key], request_id)
            except (http.client.HTTPException, OSError,
                    json.JSONDecodeError) as exc:
                self.attempted += 1
                self.failed += 1
                print(f"request {request_id}: {exc!r}", file=sys.stderr)
                self.conn.close()
                self.conn = connect(self.port)
                continue
            self.record(request_id, status, doc, elapsed)

    def record(self, request_id: int, status: int, doc: dict,
               elapsed: float) -> None:
        self.attempted += 1
        if status != 200:
            self.failed += 1
            self.rejected += status == 429
            return
        self.latency_s[request_id] = elapsed
        if doc.get("cached"):
            self.cached += 1
        else:
            self.miss_s.append(elapsed)
        got = [(it["oid"], it["score"]) for it in doc["items"]]
        if len(got) != self.size:
            self.bad.append(f"request {request_id}: size {len(got)}")
        elif any(b[1] > a[1] or (b[1] == a[1] and b[0] < a[0])
                 for a, b in zip(got, got[1:])):
            self.bad.append(f"request {request_id}: out of order")


def run_serve(seed: int, seconds: float, trace: bool):
    """``(result dict, trace exports)`` of one ``serve-live`` run."""
    world = make_world(STORAGE_SHAPE, WORLD_SEED)
    keys = distinct_queries(world, KEYS, seed)
    sequence = zipf_sequence(len(keys), ROUND, ZIPF_S, seed)
    tracer = Tracer() if trace else None
    server = ServerProcess(seed, trace)
    client = None
    try:
        ready = server.expect("ready")
        client = Client(ready["port"], keys, STORAGE_SHAPE.k,
                        STORAGE_SHAPE.objects, tracer)
        client.conn = connect(ready["port"])
        server.send("go")
        server.expect("went")
        rounds = 0
        window_t0 = time.perf_counter()
        while True:
            client.run_round(sequence, 1 + rounds * ROUND)
            rounds += 1
            window_s = time.perf_counter() - window_t0
            if window_s + window_s / rounds > seconds:
                break
        server.send("stop")
        stopped = server.expect("stopped")
        print(f"serve-live: {rounds} round(s) of {ROUND} requests, "
              f"{window_s:.1f} s, {stopped['writes']} writes, "
              f"{client.cached} cached, {len(client.miss_s)} misses taking "
              f"{sum(client.miss_s):.1f} s (p50 "
              f"{percentile(client.miss_s, 0.5) * 1e3:.1f} ms)",
              file=sys.stderr)
        wrong = client.bad + check_final(client, world, seed, keys,
                                         stopped["writes"])
    finally:
        if client is not None and client.conn is not None:
            client.conn.close()
        server.close()
    if server.proc.returncode != 0:
        raise RuntimeError(f"server exited with {server.proc.returncode}")
    for line in wrong[:10]:
        print(f"WRONG {line}", file=sys.stderr)

    latencies = list(client.latency_s.values())
    answered = len(latencies)
    exports = []
    if tracer is None:
        metrics = {
            "latency_p50_ms": metric(percentile(latencies, 0.5) * 1e3, "ms"),
            "latency_tail_ms": metric(
                percentile(latencies, tail_q(ROUND)) * 1e3, "ms"),
            "throughput_ops": metric(answered / window_s, "1/s"),
            "setup_s": metric(ready["setup_s"], "s"),
            "peak_rss_mb": metric(stopped["peak_rss_mb"], "MB"),
        }
    else:
        metrics = serve_layers(client, stopped)
        exports = [(stopped["spans"], stopped["table"], window_t0),
                   (tracer.export(), tracer.table(answered), window_t0)]
    result = {"correct": not wrong, "attempted": client.attempted,
              "failed": client.failed, "metrics": metrics}
    return result, exports


def check_final(client, world, seed: int, keys, writes: int) -> list:
    """Request every key once and compare with the final world."""
    stream = WriteStream(world, seed)
    for _ in range(writes):
        apply_to_arrays(world, stream.next())
    evaluator = Evaluator(world)
    wrong = []
    # A fresh connection: the window's may have idled past the server's
    # keep-alive timeout while it stopped.
    conn = connect(client.port)
    for i, query in enumerate(keys):
        expected = evaluator.top_k(query.keyword_masks, query.k, query.lam)
        body = json.dumps(query_body(query, "check"))
        try:
            status, doc, _ = client.post(conn, body, 10**9 + i)
        except (http.client.HTTPException, OSError,
                json.JSONDecodeError) as exc:
            client.attempted += 1
            client.failed += 1
            print(f"check request {i}: {exc!r}", file=sys.stderr)
            conn.close()
            conn = connect(client.port)
            continue
        client.attempted += 1
        if status != 200:
            client.failed += 1
            continue
        diff = compare(expected,
                       [(it["oid"], it["score"]) for it in doc["items"]])
        if diff:
            wrong.append(f"final key {i}: {diff}")
    conn.close()
    return wrong


def serve_layers(client, stopped: dict) -> dict:
    """Per-layer metrics of a traced ``serve-live`` run."""
    handle_ms = {int(k): v for k, v in stopped["handle_ms"].items()}
    http_ms = [client.latency_s[rid] * 1e3 - ms
               for rid, ms in handle_ms.items() if rid in client.latency_s]
    queue_wait = stopped["queue_wait_ms"]
    hits, lookups = stopped["cache_gets"]
    layers = dict(stopped["layers"])
    layers.update({
        "serve.handle_ms_p50": metric(percentile(handle_ms.values(), 0.5), "ms"),
        "serve.http_ms_p50": metric(percentile(http_ms, 0.5), "ms"),
        "serve.cache_hit_ratio": metric(hits / lookups if lookups else 0.0,
                                        "ratio"),
        "serve.rejected": metric(client.rejected, "count"),
        "executor.queue_wait_ms_p50": metric(percentile(queue_wait, 0.5), "ms"),
        "executor.queue_wait_ms_tail": metric(
            percentile(queue_wait, tail_q(max(len(queue_wait), 11))), "ms"),
        "executor.exec_ms_p50": metric(
            percentile(stopped["exec_ms"], 0.5), "ms"),
        "live.write_ms_p50": metric(percentile(stopped["write_ms"], 0.5), "ms"),
        "live.writes": metric(stopped["writes"], "count"),
        "traced.latency_p50_ms": metric(
            percentile(client.latency_s.values(), 0.5) * 1e3, "ms"),
    })
    return layers
