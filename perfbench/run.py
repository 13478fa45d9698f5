"""Run one workload of the discred benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one caller.  A pass runs every item of
the workload once, in a seed-shuffled order, each item starting when
the previous one finishes; passes repeat for ``--seconds`` (and at
least ``MIN_PASSES`` times).  Outputs are summarized after each pass
and checked after the last one, outside the timed region.

``--trace 0`` reports the end-to-end metrics; set-up is measured in
this process and in ``SETUPS - 1`` fresh interpreters, and the median is
reported.  Times are scaled to a reference machine speed measured by
the kernel of calibrate.py next to each pass and set-up; the raw wall
times are in the record as ``*_wall_s``.  ``--trace 1`` alternates untraced passes with traced ones (tracer.py)
and reports the per-layer metrics; its spans are written to
``perfbench/out/``.

Standard output: a table of the metrics with their units, then one
``record`` line (JSON: every metric, including ``failed_ratio``, with
the run environment), then the result line: a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate
import workloads

SETUPS = 15
MIN_PASSES = 11        # pass_tail_s needs ten passes beyond it
MIN_TRACE_PASSES = 3
PROBE_TIMEOUT_S = 120
SMOOTH = 2             # passes on each side whose kernel times set a pass's speed


def set_up(name, seed):
    """(workload, seconds to import discred and build the workload's
    inputs, mean calibration kernel seconds just before and after)."""
    before = calibrate.speed()
    t0 = perf_counter()
    wl = workloads.setup(name, seed)
    setup_s = perf_counter() - t0
    return wl, setup_s, (before + calibrate.speed()) / 2


def probe_setup(name, seed):
    """(set-up seconds, kernel seconds) measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    setup_s, kernel_s = proc.stdout.split()[-2:]
    return float(setup_s), float(kernel_s)


def at_reference(pairs):
    """Wall times scaled to the reference machine speed, from (wall
    seconds, kernel seconds) pairs."""
    return [t * calibrate.REFERENCE_S / k for t, k in pairs]


class Passes:
    """Timed passes over a workload, with their summarized outputs."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.rng = random.Random(seed)
        self.times = []      # wall seconds per pass
        self.kernel = []     # calibration kernel seconds just before each pass
        self.report_bytes = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.seen = {}      # (item, summary JSON) -> occurrences

    def _fail(self, i, why, count=1):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(f"{self.wl.items[i]}: {why}")

    def run(self, seconds, min_passes, tracer=None):
        """Run passes until ``seconds`` have gone by and at least
        ``min_passes`` are done; returns their indices."""
        wl = self.wl
        n = len(wl.items)
        first = len(self.times)
        start = perf_counter()
        while (len(self.times) - first < min_passes
               or perf_counter() - start < seconds):
            order = list(range(n))
            self.rng.shuffle(order)
            outputs = []
            if tracer is not None:
                tracer.pass_index = len(self.times)
            self.kernel.append(calibrate.speed())
            t0 = perf_counter()
            for i in order:
                if tracer is not None:
                    tracer.item = i
                try:
                    outputs.append((i, wl.run(i), None))
                except Exception as e:  # an item that raises counts as failed
                    outputs.append((i, None, e))
            self.times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.item = tracer.pass_index = None
            self._summarize(outputs)
        return list(range(first, len(self.times)))

    def scaled(self, indices=None):
        """Pass times at the reference speed.  The speed of a pass is the
        median kernel time of the passes within ``SMOOTH`` of it, which
        follows the drift but not the kernel's own jitter."""
        idx = range(len(self.times)) if indices is None else indices
        k = self.kernel
        return at_reference(
            (self.times[p], statistics.median(k[max(0, p - SMOOTH):p + SMOOTH + 1]))
            for p in idx)

    def _summarize(self, outputs):
        wl = self.wl
        nbytes = 0
        for i, out, err in outputs:
            self.attempted += 1
            if err is not None:
                self._fail(i, f"raised {type(err).__name__}: {err}")
                continue
            if hasattr(wl, "report_bytes"):
                nbytes += wl.report_bytes(out)
            try:
                key = (i, json.dumps(wl.summarize(i, out), sort_keys=True))
            except Exception as e:
                self._fail(i, f"summary raised {type(e).__name__}: {e}")
                continue
            self.seen[key] = self.seen.get(key, 0) + 1
        self.report_bytes.append(nbytes)

    def check(self):
        """Check each distinct output once; failures count every
        occurrence."""
        for (i, summary), count in self.seen.items():
            try:
                why = self.wl.check(i, json.loads(summary))
            except Exception as e:
                why = f"check raised {type(e).__name__}: {e}"
            if why is not None:
                self._fail(i, why, count)


def tail(times):
    """(value, percentile) of the highest percentile with ten passes
    beyond it."""
    s = sorted(times)
    idx = len(s) - 11
    return s[idx], 100.0 * (len(s) - 10) / len(s)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(workloads.ROOT),
               GIT_OPTIONAL_LOCKS="0", GIT_CONFIG_NOSYSTEM="1",
               GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", *args], cwd=workloads.ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "cpu": _cpu_model(), "commit": commit or "unknown",
            "dirty": bool(status) if commit else None}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    wl, setup_wall, setup_kernel = set_up(args.workload, args.seed)
    passes = Passes(wl, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "items_per_pass": len(wl.items)}
    if args.trace == 0:
        setups = [(setup_wall, setup_kernel)] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUPS - 1)]
        passes.run(args.seconds, MIN_PASSES)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes.check()
        scaled = passes.scaled()
        tail_s, tail_pct = tail(scaled)
        metrics = {"setup_s": metric(statistics.median(at_reference(setups)), "s"),
                   "pass_s": metric(statistics.median(scaled), "s"),
                   "pass_tail_s": metric(tail_s, "s"),
                   "peak_rss_mb": metric(peak_kb / 1024, "MB")}
        reported = dict(metrics)
        metrics.update(
            setup_wall_s=metric(statistics.median(s for s, _ in setups), "s"),
            pass_wall_s=metric(statistics.median(passes.times), "s"),
            pass_tail_wall_s=metric(tail(passes.times)[0], "s"),
            kernel_s=metric(statistics.median(passes.kernel), "s"))
        record.update(setups=len(setups), passes=len(passes.times),
                      pass_tail_percentile=tail_pct)
    else:
        from tracer import Tracer, layer_metrics
        # untraced and traced passes alternate, so that drift in machine
        # speed reaches both alike
        tracer = Tracer()
        untraced, traced = [], []
        start = perf_counter()
        while (perf_counter() - start < args.seconds
               or len(traced) < MIN_TRACE_PASSES):
            untraced += passes.run(0, 1)
            tracer.install()
            try:
                traced += passes.run(0, 1, tracer)
            finally:
                tracer.uninstall()
        passes.check()
        overhead = (statistics.median(passes.scaled(traced))
                    / statistics.median(passes.scaled(untraced)))
        reported = layer_metrics(
            tracer, traced, [passes.times[p] for p in traced], overhead,
            [passes.report_bytes[p] for p in traced])
        metrics = dict(reported)
        out_dir = os.path.join(workloads.HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                     wl.items)
        record.update(passes=len(passes.times), untraced_passes=len(untraced),
                      traced_passes=len(traced))
    metrics["failed_ratio"] = metric(passes.failed / passes.attempted, "ratio")
    record.update(env=environment(), attempted=passes.attempted,
                  failed=passes.failed, correct=passes.failed == 0,
                  errors=passes.errors, metrics=metrics)
    return record, reported


def print_table(record):
    print(f"discred benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}, {record['passes']} passes of "
          f"{record['items_per_pass']} items")
    notes = {"setup_s": f"median of {record.get('setups')} set-ups",
             "pass_s": f"median of {record['passes']} passes",
             "pass_tail_s": f"p{record.get('pass_tail_percentile', 0):.1f} of "
                            f"{record['passes']} passes, 10 beyond it",
             "failed_ratio": f"{record['failed']} of {record['attempted']} items"}
    for name, m in record["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    for err in record["errors"]:
        print(f"error: {err}", file=sys.stderr)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, and print the seconds it took")
    args = p.parse_args(argv)
    if args.setup_probe:
        _, setup_s, kernel_s = set_up(args.workload, args.seed)
        print(setup_s, kernel_s)
        return 0
    record, reported = measure(args)
    print_table(record)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
