"""Every command's report on every bundled problem, each from its own
``python -m discred.cli`` process, compared byte for byte with the
reports in tests/golden (laid out as tests/test_golden.py describes):
once for each problem file as bundled, with its datum given by simple
roots, and once with the datum rewritten with explicit roots
(``explicit_problem``), which must give the same reports.

The in-process golden tests run with every module already imported.  A
fresh interpreter loads only what the command imports, so a module that
a command imports lazily, and that is missing or circular, fails here.

Run from anywhere:  python tests/fresh_cli.py
Exits 0 when every report matches, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
PROBLEMS = os.path.join(SRC, "discred", "problems")
GOLDEN = os.path.join(HERE, "golden")
COMMANDS = ("check", "center", "weyl", "dynkin", "classify")
FORMATS = {"text": "txt", "json": "json"}


def golden_path(name, cmd, fmt):
    """Where tests/golden keeps the report of ``cmd --format fmt`` on the
    bundled problem ``name``."""
    if (cmd, fmt) == ("classify", "json"):
        return os.path.join(GOLDEN, name + ".json")
    return os.path.join(GOLDEN, cmd, f"{name}.{FORMATS[fmt]}")


def explicit_problem(data):
    """The problem ``data`` with its datum's simple roots and coroots
    rewritten as explicit ``roots``, ``coroots`` and ``simple_indices``,
    in the order of the closure that ``standard.from_simple`` runs."""
    from discred.standard import from_simple
    d = data["datum"]
    based = from_simple(d["rank"], d["simple_roots"], d["simple_coroots"])
    datum = based.datum
    return dict(data, datum={"rank": datum.rank, "roots": datum.roots,
                             "coroots": datum.coroots,
                             "simple_indices": based.simple_indices})


def fresh_run(name, cmd, fmt, problems=PROBLEMS):
    """(exit code, stdout bytes, stderr text) of the command on the
    problem ``name`` of the directory ``problems``, in a new interpreter
    that imports discred from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "discred.cli", cmd, "--input",
         os.path.join(problems, name + ".json"), "--format", fmt],
        capture_output=True, env=env, check=False)
    return proc.returncode, proc.stdout, proc.stderr.decode()


def main():
    sys.path.insert(0, os.path.abspath(SRC))
    names = sorted(f[:-len(".json")] for f in os.listdir(PROBLEMS)
                   if f.endswith(".json"))
    failures = total = 0
    with tempfile.TemporaryDirectory() as explicit:
        for name in names:
            with open(os.path.join(PROBLEMS, name + ".json")) as fh:
                data = explicit_problem(json.load(fh))
            with open(os.path.join(explicit, name + ".json"), "w") as fh:
                json.dump(data, fh)
        for problems, form in ((PROBLEMS, "simple roots"),
                               (explicit, "explicit roots")):
            for name in names:
                for cmd in COMMANDS:
                    for fmt in FORMATS:
                        code, out, err = fresh_run(name, cmd, fmt, problems)
                        with open(golden_path(name, cmd, fmt), "rb") as fh:
                            want = fh.read()
                        total += 1
                        if code != 0 or out != want:
                            failures += 1
                            print(f"MISMATCH {cmd} --format {fmt} on {name} "
                                  f"({form}): exit {code}\n{err}",
                                  file=sys.stderr)
    print(f"{total - failures}/{total} fresh-interpreter reports match "
          f"tests/golden")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
