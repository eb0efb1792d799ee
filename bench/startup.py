"""Before/after wall times of each command of the cli-batch workload.

    python bench/startup.py --before OLD/src --after src > BENCH_startup.json

For each command in COMMANDS (one call of each kind `perfbench`'s cli-batch
workload makes, on small documents written to a temporary directory), the
file holds its exit code on the `--after` tree and the median wall time of
`python -m cullis` over ROUNDS pairs of processes per tree (`harness`), with
PYTHONDONTWRITEBYTECODE=1 and no `__pycache__` in either tree, so every
process compiles what it loads, as a fresh checkout does.  The times are for
reading only.  Which modules each command loads is pinned by
tests/test_cli.py::test_verify_table_loads_only_for_verify_paper.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import harness

ROUNDS = 21

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


def timed(tree: Path, argv: list[str], where: Path) -> tuple[float, int]:
    """Wall seconds and exit code of one `python -m cullis` process on tree."""
    env = dict(os.environ, PYTHONPATH=str(tree), PYTHONDONTWRITEBYTECODE="1")
    env.pop("CULLIS_BUDGET", None)
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "cullis", *argv], cwd=where, env=env,
                          capture_output=True)
    return perf_counter() - t0, proc.returncode


def main() -> int:
    trees = {side: Path(tree) for side, tree in harness.trees(__doc__).items()}
    for tree in trees.values():
        if (tree / "cullis" / "__pycache__").exists():
            raise SystemExit(f"remove {tree / 'cullis' / '__pycache__'}: every child "
                             "must compile what it loads")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        write_documents(trees["after"], where)
        for name, argv in COMMANDS:
            runs = harness.pairs(ROUNDS, lambda side: timed(trees[side], argv, where))
            row = {"name": name, "argv": argv, "exit": runs["after"][0][1]}
            for side in harness.SIDES:
                row[f"ms_{side}"] = harness.median(runs[side], lambda r: r[0] * 1e3, 1)
            rows.append(row)
    return harness.emit(
        "cli.startup",
        "per cli-batch command: its exit code, and the median wall ms of `python -m "
        f"cullis` over {ROUNDS} alternating pairs of processes per tree, "
        "PYTHONDONTWRITEBYTECODE=1, no __pycache__",
        commands=rows)


if __name__ == "__main__":
    sys.exit(main())
