"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload lattice-cold --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  Prints progress on stderr and, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  A wrong answer makes the run
exit with code 1; a traced run also writes its spans to
``perfbench/out/<workload>-seed<seed>.trace.json`` and its self-time
table to ``.selftime.json`` beside it.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import paths

WORKLOADS = ("lattice-cold", "storage-cold", "serve-live")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import check_evaluator

    check_evaluator.check(seeds=(args.seed,))
    if args.workload == "serve-live":
        from serve_client import run_serve

        result, exports = run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        from engine import run_engine

        result, exports = run_engine(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    if exports:
        from tracer import write_trace

        table = {}
        for _, part, _ in exports:
            table.update(part)
        stem = paths.OUT / f"{args.workload}-seed{args.seed}"
        write_trace(stem, [e for e, _, _ in exports],
                    min(t0 for _, _, t0 in exports), table)
        print(f"spans: {stem}.trace.json", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
