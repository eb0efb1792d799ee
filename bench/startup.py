"""What each command of the cli-batch workload loads, and what its process costs.

    python bench/startup.py > BENCH_startup.json                  # the modules only
    python bench/startup.py --before OLD/src --after src > BENCH_startup.json
    python bench/startup.py --check                               # recount, compare with the file

The deterministic part is, for each command in COMMANDS (one call of each
kind `perfbench`'s cli-batch workload makes, on small documents written to a
temporary directory), the exit code, the `cullis` modules its process loads
and which of ON_DEMAND it loads.  It is counted in a `python -S` child, so
what installed site packages preload does not hide what a command pulls in.
`--check` recounts it for the tree next to this script and compares.  The
number of other modules loaded beyond a bare interpreter's is recorded for
reading only: it follows the Python version, not the package.

With `--before` and `--after`, each command also runs ROUNDS times as
`python -m cullis` on each tree, the tree whose child goes first
alternating from round to round, with PYTHONDONTWRITEBYTECODE=1 and no
`__pycache__` in either tree, so every child compiles what it loads, as a
fresh checkout does; the file holds the median wall time per command and
tree.  The times are for reading only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "BENCH_startup.json"
ROUNDS = 21
# the rationals' modules: a command on GF(p) documents loads none of them
ON_DEMAND = ("decimal", "fractions", "numbers")

COMMANDS = (
    ("help", ["--help"]),
    ("det", ["det", "--input", "gf.json"]),
    ("det-qq", ["det", "--input", "qq.json"]),
    ("det-def", ["det", "--input", "small.json", "--algo", "def"]),
    ("det-laplace", ["det", "--input", "small.json", "--algo", "laplace"]),
    ("det-minorsum", ["det", "--input", "small.json", "--algo", "minorsum"]),
    ("det-over-budget", ["det", "--input", "gf.json", "--budget", "1000"]),
    ("det-malformed", ["det", "--input", "broken.json"]),
    ("det-float-entry", ["det", "--input", "float.json"]),
    ("lambda", ["lambda", "--a", "a.json", "--b", "b.json"]),
    ("lambda-qq", ["lambda", "--a", "a_qq.json", "--b", "b_qq.json"]),
    ("check", ["preserver", "check", "--map", "two_sided.json"]),
    ("check-shift", ["preserver", "check", "--map", "shift.json"]),
    ("check-exhaustive", ["preserver", "check", "--map", "small_map.json", "--method",
                          "exhaustive"]),
    ("check-random", ["preserver", "check", "--map", "two_sided.json", "--method", "random",
                      "--samples", "50"]),
    ("check-malformed", ["preserver", "check", "--map", "bad_map.json"]),
    ("factor", ["preserver", "factor", "--map", "two_sided.json"]),
    ("make-two-sided", ["preserver", "make-two-sided", "--a", "a4.json", "--b", "b2.json"]),
    ("make-s-shift", ["preserver", "make-s-shift", "--n", "4", "--k", "2", "--i", "2", "--j",
                      "1", "--p", "5"]),
    ("make-k2", ["preserver", "make-k2", "--n", "4", "--p", "3"]),
    ("enumerate", ["preserver", "enumerate", "--n", "2", "--k", "1", "--p", "3"]),
    ("radical", ["preserver", "radical", "--n", "3", "--k", "2", "--p", "3"]),
    ("verify-paper", ["verify-paper"]),
)

# run in the child: the command as `python -m cullis` runs it, then the
# exit code and the modules it added, on the real stdout
PROBE = """
import io, runpy, sys
before = set(sys.modules)
sys.argv, out = ["cullis", *sys.argv[1:]], sys.stdout
sys.stdout = io.StringIO()
try:
    runpy.run_module("cullis", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
new = sorted(set(sys.modules) - before)
import json
out.write(json.dumps([code, new]))
"""


def write_documents(src: Path, where: Path) -> None:
    """The documents COMMANDS read, made with the package in src (leaving
    no `__pycache__` behind for the timed children to read)."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    from cullis import (RATIONALS, gf, jsonio, make_s_shift, make_two_sided, random_matrix)

    rng = random.Random(0)
    F, G, Q = gf(10007), gf(7), RATIONALS
    docs = {
        "gf.json": jsonio.matrix_to_dict(random_matrix(F, 12, 6, rng)),
        "qq.json": jsonio.matrix_to_dict(random_matrix(Q, 8, 4, rng)),
        "small.json": jsonio.matrix_to_dict(random_matrix(F, 6, 3, rng)),
        "a.json": jsonio.matrix_to_dict(random_matrix(F, 8, 5, rng)),
        "b.json": jsonio.matrix_to_dict(random_matrix(F, 8, 5, rng)),
        "a_qq.json": jsonio.matrix_to_dict(random_matrix(Q, 7, 4, rng)),
        "b_qq.json": jsonio.matrix_to_dict(random_matrix(Q, 7, 4, rng)),
        "a4.json": jsonio.matrix_to_dict(random_matrix(G, 4, 4, rng)),
        "b2.json": jsonio.matrix_to_dict(random_matrix(G, 2, 2, rng)),
        "two_sided.json": jsonio.map_to_dict(make_two_sided(random_matrix(G, 4, 4, rng),
                                                            random_matrix(G, 2, 2, rng))),
        "shift.json": jsonio.map_to_dict(make_s_shift(5, 3, 2, 1, gf(5))),
        "small_map.json": jsonio.map_to_dict(make_s_shift(3, 2, 2, 1, gf(3))),
        "float.json": {"n": 2, "k": 1, "field": {"type": "gfp", "p": 7},
                       "entries": [[2.5], ["1"]]},
        "bad_map.json": {"n": 2, "k": 1, "field": {"type": "gfp", "p": 5}, "mat": [["1"]]},
    }
    for name, doc in docs.items():
        (where / name).write_text(json.dumps(doc), encoding="utf-8")
    (where / "broken.json").write_text('{"n": 2, "k": 1, "field": ', encoding="utf-8")


def loaded(src: Path, where: Path) -> list[dict]:
    """For each command, its exit code and the modules its process loads."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("CULLIS_BUDGET", None)
    rows = []
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], cwd=where, env=env,
                              capture_output=True, text=True, check=True)
        code, modules = json.loads(proc.stdout)
        ours = [m for m in modules if m == "cullis" or m.startswith("cullis.")]
        rows.append({"name": name, "argv": argv, "exit": code, "cullis": ours,
                     "on_demand": [m for m in modules if m in ON_DEMAND],
                     "other_count": len(modules) - len(ours)})
    return rows


def wall_times(trees: dict[str, Path], where: Path) -> dict[str, dict[str, float]]:
    """Median ms per command and tree over ROUNDS alternating rounds."""
    for tree in trees.values():
        if (tree / "cullis" / "__pycache__").exists():
            raise SystemExit(f"remove {tree / 'cullis' / '__pycache__'}: every child "
                             "must compile what it loads")
    envs = {side: dict(os.environ, PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
            for side, tree in trees.items()}
    for env in envs.values():
        env.pop("CULLIS_BUDGET", None)
    runs: dict[str, dict[str, list]] = {side: {name: [] for name, _ in COMMANDS}
                                        for side in trees}
    for rnd in range(ROUNDS):
        order = ("before", "after") if rnd % 2 == 0 else ("after", "before")
        for name, argv in COMMANDS:
            for side in order:
                t0 = perf_counter()
                subprocess.run([sys.executable, "-m", "cullis", *argv], cwd=where,
                               env=envs[side], capture_output=True)
                runs[side][name].append(perf_counter() - t0)
    return {side: {name: round(statistics.median(times) * 1e3, 1)
                   for name, times in per.items()} for side, per in runs.items()}


def compare(recorded: dict, rows: list[dict]) -> list[str]:
    """How the deterministic part of rows differs from the recorded file."""
    problems = []
    by_name = {row["name"]: row for row in recorded["commands"]}
    for row in rows:
        old = by_name.get(row["name"])
        if old is None:
            problems.append(f"{row['name']}: not in {BENCH.name}")
            continue
        for key in ("argv", "exit", "cullis", "on_demand"):
            if row[key] != old[key]:
                problems.append(f"{row['name']}: {key} {row[key]} != recorded {old[key]}")
    if len(rows) != len(by_name):
        problems.append(f"{len(rows)} commands, {len(by_name)} recorded")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src directory of the old tree")
    ap.add_argument("--after", help="src directory of the new tree")
    ap.add_argument("--check", action="store_true",
                    help=f"recount the modules and compare with {BENCH.name}")
    args = ap.parse_args()
    src = Path(args.after).resolve() if args.after else ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        write_documents(src, where)
        rows = loaded(src, where)
        if args.check:
            problems = compare(json.loads(BENCH.read_text()), rows)
            for line in problems:
                print(line, file=sys.stderr)
            print(f"{len(rows)} commands, {len(problems)} differences from {BENCH.name}")
            return 1 if problems else 0
        times = None
        if args.before:
            times = wall_times({"before": Path(args.before).resolve(), "after": src}, where)
    for row in rows:
        if times:
            row["ms_before"] = times["before"][row["name"]]
            row["ms_after"] = times["after"][row["name"]]
    print(json.dumps({
        "layer": "cli.startup",
        "what": "per cli-batch command: its exit code, the cullis modules and which of "
                f"{', '.join(ON_DEMAND)} its `python -S` process loads, and how many other "
                "modules beyond a bare interpreter's; with "
                f"--before/--after, median wall ms of `python -m cullis` over {ROUNDS} "
                "alternating rounds per tree, PYTHONDONTWRITEBYTECODE=1, no __pycache__",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "commands": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
