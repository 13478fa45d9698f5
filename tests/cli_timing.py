"""Wall time of the CLI commands in process, and of its report writer
against ``json.dumps``:

- each command (``check``, ``center``, ``weyl``, ``dynkin``,
  ``classify``) with ``--format json`` over the bundled problems, one
  ``main`` call per problem, its output captured;
- the reports of those calls written by ``discred.cli.report_text`` and
  by ``json.dumps(indent=2, sort_keys=True)``, the classify reports and
  the others apart.  ``json.dumps`` is given each cochain as the list of
  its pairs, built before the clock starts; the two texts are checked
  equal.

Run from the repository root:  PYTHONPATH=src python tests/cli_timing.py
Prints one line per step, best of ``--repeat`` runs (default 5).
"""

import argparse
import contextlib
import io
import json
import os
import time

from discred import cli

PROBLEMS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src", "discred", "problems")
COMMANDS = ("check", "center", "weyl", "dynkin", "classify")


def best(repeat, fn):
    """Seconds of the fastest of ``repeat`` calls of fn."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def run_all(cmd, paths):
    """``cmd --format json`` on every problem, in this process."""
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([cmd, "--input", path, "--format", "json"]) == 0


def reports_of(cmd, paths):
    """The report dicts that ``cmd`` hands to ``emit`` on every problem."""
    reports, emit = [], cli.emit
    cli.emit = lambda report, fmt, lines: reports.append(report)
    try:
        run_all(cmd, paths)
    finally:
        cli.emit = emit
    return reports


def as_pairs(report):
    """The report with each cocycle as the list of its pairs."""
    if "classes" not in report:
        return report
    return dict(report, classes=[
        dict(d, cocycle=cli._cochain_json(d["cocycle"]))
        for d in report["classes"]])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=5)
    repeat = ap.parse_args().repeat
    paths = [os.path.join(PROBLEMS, f) for f in sorted(os.listdir(PROBLEMS))
             if f.endswith(".json")]
    for cmd in COMMANDS:
        secs = best(repeat, lambda: run_all(cmd, paths))
        print(f"{cmd} on {len(paths)} problems: {secs * 1e3:.1f} ms")

    classify = reports_of("classify", paths)
    others = [r for cmd in COMMANDS[:-1] for r in reports_of(cmd, paths)]
    for label, reports in (("classify", classify), ("other", others)):
        paired = [as_pairs(r) for r in reports]
        assert [cli.report_text(r) for r in reports] == [
            json.dumps(r, indent=2, sort_keys=True) for r in paired]
        writer = best(repeat, lambda: [cli.report_text(r) for r in reports])
        dumps = best(repeat, lambda: [
            json.dumps(r, indent=2, sort_keys=True) for r in paired])
        print(f"{len(reports)} {label} reports: report_text "
              f"{writer * 1e6:.0f} us, json.dumps {dumps * 1e6:.0f} us")


if __name__ == "__main__":
    main()
