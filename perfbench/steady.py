"""Steadiness check: repeat each workload over seeds, in two sets.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--first-seed 1]
        [--workloads lattice-cold storage-cold] [--seconds N]

Runs ``run.py`` untraced, one run at a time: each set runs every
workload once per seed, and each set takes the next ``--runs`` seeds
(set 1 seeds 1-10, set 2 seeds 11-20 by default).  For every set,
workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` against the metric's bound in BENCHMARK.json,
plus the share of failed operations.  A spread within a third of its
bound is steady.  Across sets it prints, per workload and metric, by
how much the later set's median is worse than the first set's, as a
share of the first, against the same bound.

The raw results go to ``perfbench/out/steady-<time>.json``.  Exits 1
when a spread or a change between sets exceeds its bound, when the
share of failed operations differs between sets, or when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import paths


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(paths.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=paths.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list, metrics: list) -> tuple[dict, bool]:
    """Print one set's figures for one workload; ``(medians, ok)``."""
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"  failed {failed}/{attempted}, correct {correct}")
    print(f"  {'metric':16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    ok = correct
    medians = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        bound = m["bound"]
        verdict = ("steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "TOO WIDE")
        ok = ok and spread <= bound
        medians[m["name"]] = median
        print(f"  {m['name']:16} {median:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{spread:7.3f} {bound:6.2f}  {verdict}")
    return medians, ok


def main(argv=None) -> int:
    bench = json.loads((paths.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    metrics = bench["end_to_end"]
    record: dict = {}
    medians: dict = {}
    fail_share: dict = {}
    ok = True
    for s in range(args.sets):
        first = args.first_seed + s * args.runs
        for workload in args.workloads:
            runs = []
            for seed in range(first, first + args.runs):
                t0 = time.perf_counter()
                result = run_once(workload, seed, args.seconds)
                runs.append(result)
                print(f"set {s + 1} {workload} seed {seed}: "
                      f"{time.perf_counter() - t0:.0f} s "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)
            record.setdefault(workload, []).append(runs)
            print(f"\nset {s + 1} {workload}:")
            medians[s, workload], set_ok = summarize(runs, metrics)
            ok = ok and set_ok
            fail_share[s, workload] = (
                sum(r["failed"] for r in runs),
                sum(r["attempted"] for r in runs))
            print(flush=True)

    for s in range(1, args.sets):
        print(f"set {s + 1} against set 1: change of the median, "
              f"worse direction")
        for workload in args.workloads:
            f0, a0 = fail_share[0, workload]
            fs, as_ = fail_share[s, workload]
            same = f0 * as_ == fs * a0
            ok = ok and same
            print(f"  {workload}: failed share {f0}/{a0} vs {fs}/{as_}"
                  f"{'' if same else '  DIFFERS'}")
            for m in metrics:
                before = medians[0, workload][m["name"]]
                after = medians[s, workload][m["name"]]
                worse = (after - before if m["better"] == "lower"
                         else before - after) / before
                ok = ok and worse <= m["bound"]
                print(f"    {m['name']:16} {before:10.4g} -> {after:10.4g}"
                      f"  {worse:+7.3f} (bound {m['bound']:.2f})"
                      f"{'' if worse <= m['bound'] else '  TOO WORSE'}")
    paths.OUT.mkdir(parents=True, exist_ok=True)
    out = paths.OUT / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"\nraw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
