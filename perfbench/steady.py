"""Steadiness mode: run each workload repeatedly, each run in a fresh
interpreter with its own seed, and report the relative spread of every
end-to-end metric against the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--root DIR] [--out FILE.jsonl]

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median.  A metric is "steady" below a third of its
bound; the mode fails when any metric's spread is wider than its
bound.  Every workload of BENCHMARK.json runs with seeds 1 to
``--runs``, each run for ``run_seconds``, the length the bounds hold
for, so that runs of two commits pair by seed.  ``--root`` runs the
benchmark of another checkout (for a parent commit, say); ``--out``
appends every run's record to a file that compare.py reads.  Runs go
one after another, never at the same time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 900


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(root, workload, seed, seconds):
    """The record of one untraced run; raises when the run fails."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    if not result["correct"]:
        print(f"warning: {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} items failed", file=sys.stderr)
    return record


def spread(values):
    """(median, first quartile, third quartile, relative spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def report(records, bench):
    """Print the spread table; True when every metric is within its
    bound."""
    ok = True
    print(f"{'workload':<16} {'metric':<13} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for workload, recs in by_workload(records).items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in recs]
            if len(values) < 2:
                continue
            med, q1, q3, rel = spread(values)
            verdict = ("steady" if rel < m["bound"] / 3 else
                       "within bound" if rel <= m["bound"] else "too wide")
            if verdict == "too wide":
                ok = False
            print(f"{workload:<16} {m['name']:<13} {med:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {rel:>8.2%} {m['bound']:>6.0%}  {verdict}")
        failed = sum(r["failed"] for r in recs)
        print(f"{workload:<16} {len(recs)} runs, {failed} failed items of "
              f"{sum(r['attempted'] for r in recs)}, passes per run "
              f"{min(r['passes'] for r in recs)}-{max(r['passes'] for r in recs)}")
    return ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--root", default=os.path.dirname(HERE),
                   help="checkout whose benchmark to run")
    p.add_argument("--out", default=None, help="append run records here")
    args = p.parse_args(argv)
    bench = load_benchmark(args.root)
    seconds = bench["run_seconds"]
    records = []
    for name in (w["name"] for w in bench["workloads"]):
        for k in range(args.runs):
            rec = run_once(args.root, name, k + 1, seconds)
            records.append(rec)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
            print(f"{name} seed {rec['seed']}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in rec["metrics"].items()),
                flush=True)
    return 0 if report(records, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
