"""Before/after timings of the three defining determinant routes, and their counts.

    python bench/oracles.py --before OLD/src --after src > BENCH_oracles.json

Times `det_definition`, `det_laplace` (along column 1) and `det_minorsum` on
DRAWS matrices of each shape of the `determinant-algorithm-agreement` check,
over GF(5), GF(7) and QQ, and that whole check as `verify-paper --seed 0`
runs it, in fresh child processes, one pair per round, one child per
source tree; the tree whose child runs first alternates from pair to pair.
Each of the CHILDREN children per tree runs every case REPS times and
reports the median; the file holds the median over the children.

The counts are per case, summed over its DRAWS matrices: the injections
`det_definition` visits, the minors `det_minorsum` takes, the entries the
Laplace memo holds, and the `Scalar`s each route builds on each tree.  The
matrices are drawn from a seed named after the case (`matrices`), so
tests/test_kernel.py draws them again and recounts all but the `--before`
tree's Scalars.
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
from math import comb, perm
from time import perf_counter

SHAPES = ((3, 2), (4, 2), (5, 3), (6, 4))
FIELDS = ("GF(5)", "GF(7)", "QQ")
ROUTES = ("definition", "laplace", "minorsum")
DRAWS = 12  # matrices per case, as the agreement check draws
REPS = 9  # runs of each case in one child
CHILDREN = 5  # child processes per tree
ROW = "determinant-algorithm-agreement"


def field_of(label: str):
    from cullis import RATIONALS, gf

    return RATIONALS if label == "QQ" else gf(int(label[3:-1]))


def matrices(n: int, k: int, label: str) -> list:
    """The DRAWS matrices of one case, from a seed named after it."""
    from cullis import random_matrix

    rng = random.Random(f"{n}x{k}/{label}")
    return [random_matrix(field_of(label), n, k, rng) for _ in range(DRAWS)]


def scalars_built(call, *args) -> int:
    """`Scalar.__init__` calls made while call(*args) runs."""
    from cullis.fields import Scalar

    built = 0
    init = Scalar.__init__

    def counting(self, *a):
        nonlocal built
        built += 1
        init(self, *a)

    Scalar.__init__ = counting
    try:
        call(*args)
    finally:
        Scalar.__init__ = init
    return built


def memo_entries(X) -> int:
    """Entries in `det_laplace`'s memo when it returns on X."""
    from cullis import det_laplace

    sizes = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is det_laplace.__code__:
            sizes.append(len(frame.f_locals["memo"]))

    sys.setprofile(watch)
    try:
        det_laplace(X)
    finally:
        sys.setprofile(None)
    return sizes[0]


def time_tree() -> dict:
    """Median milliseconds per route call for each case, of the agreement
    check, and the Scalars each route builds, for the package on sys.path."""
    from cullis import det_definition, det_laplace, det_minorsum, verify

    fns = {"definition": det_definition, "laplace": det_laplace, "minorsum": det_minorsum}
    out = {"cases": {}, "scalars": {}}
    for n, k in SHAPES:
        for label in FIELDS:
            key = f"{n}x{k}/{label}"
            mats = matrices(n, k, label)
            out["cases"][key] = times = {}
            out["scalars"][key] = {route: sum(scalars_built(fns[route], X) for X in mats)
                                   for route in ROUTES}
            for route in ROUTES:
                fn, runs = fns[route], []
                for _ in range(REPS):
                    t0 = perf_counter()
                    for X in mats:
                        fn(X)
                    runs.append((perf_counter() - t0) / DRAWS)
                times[route] = statistics.median(runs) * 1e3
    _, shapes, primes, check = next(entry for entry in verify._REGISTRY if entry[0] == ROW)
    runs = []
    for _ in range(REPS):
        t0 = perf_counter()
        check(shapes, primes, random.Random(f"0:{ROW}"))
        runs.append(perf_counter() - t0)
    out["agreement_row"] = statistics.median(runs) * 1e3
    return out


def counts(n: int, k: int, label: str) -> dict:
    """Deterministic work of one case, from the package on sys.path."""
    mats = matrices(n, k, label)
    return {"injections": DRAWS * perm(n, k), "minors": DRAWS * comb(n, k),
            "laplace_memo_entries": sum(memo_entries(X) for X in mats)}


def sides(pair: int) -> tuple[str, str]:
    """The two trees in the order pair number `pair` runs them: the tree
    that goes first alternates from pair to pair."""
    return ("before", "after") if pair % 2 == 0 else ("after", "before")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src directory of the old tree")
    ap.add_argument("--after", help="src directory of the new tree")
    ap.add_argument("--time", help=argparse.SUPPRESS)  # child mode: time the tree on sys.path
    args = ap.parse_args()
    if args.time:
        print(json.dumps(time_tree()))
        return 0
    runs: dict[str, list] = {"before": [], "after": []}
    for pair in range(CHILDREN):
        for side in sides(pair):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(getattr(args, side)))
            proc = subprocess.run([sys.executable, __file__, "--time", "1"],
                                  env=env, capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    sys.path.insert(0, os.path.abspath(args.after))
    cases = []
    for n, k in SHAPES:
        for label in FIELDS:
            key = f"{n}x{k}/{label}"
            row = {"n": n, "k": k, "field": label, **counts(n, k, label)}
            for side in ("before", "after"):
                row[f"scalars_{side}"] = runs[side][0]["scalars"][key]
                row[f"ms_{side}"] = {route: round(statistics.median(
                    r["cases"][key][route] for r in runs[side]), 4) for route in ROUTES}
            cases.append(row)
    print(json.dumps({
        "layer": "determinant.oracles",
        "what": "ms per call of det_definition, det_laplace (column 1) and det_minorsum "
                f"on {DRAWS} drawn matrices per case, and of the {ROW} check at seed 0 "
                f"(agreement_row_ms); medians of {CHILDREN} alternating child processes "
                f"x {REPS} runs.  Counts are summed over the {DRAWS} matrices",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "draws": DRAWS,
        "agreement_row_ms": {side: round(statistics.median(
            r["agreement_row"] for r in runs[side]), 3) for side in ("before", "after")},
        "cases": cases,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
