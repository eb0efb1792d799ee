"""Before/after timings of the three defining determinant routes, and their counts.

    python bench/oracles.py --before OLD/src --after src > BENCH_oracles.json

Times `det_definition`, `det_laplace` (along column 1) and `det_minorsum` on
DRAWS matrices of each shape of the `determinant-algorithm-agreement` check,
over GF(5), GF(7) and QQ, and that whole check as `verify-paper --seed 0`
runs it, in CHILDREN pairs of child processes (`harness`).  Each child runs
every case REPS times and reports the median; the file holds the median
over the children.

The counts are per case, summed over its DRAWS matrices: the injections
`det_definition` visits, the minors `det_minorsum` takes, the entries the
Laplace memo holds, and the `Scalar`s each route builds on each tree.  The
matrices are drawn from a seed named after the case (`matrices`), so
tests/test_kernel.py draws them again and recounts all but the `--before`
tree's Scalars.
"""

from __future__ import annotations

import random
import statistics
import sys
from math import comb, perm
from time import perf_counter

import harness

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


def main() -> int:
    trees = harness.trees(__doc__, {"all": time_tree})
    runs = harness.pairs(CHILDREN, lambda side: harness.child(trees[side], "all"))
    sys.path.insert(0, trees["after"])
    cases = []
    for n, k in SHAPES:
        for label in FIELDS:
            key = f"{n}x{k}/{label}"
            row = {"n": n, "k": k, "field": label, **counts(n, k, label)}
            for side in harness.SIDES:
                row[f"scalars_{side}"] = runs[side][0]["scalars"][key]
                row[f"ms_{side}"] = {route: harness.median(
                    runs[side], lambda r: r["cases"][key][route], 4) for route in ROUTES}
            cases.append(row)
    return harness.emit(
        "determinant.oracles",
        "ms per call of det_definition, det_laplace (column 1) and det_minorsum "
        f"on {DRAWS} drawn matrices per case, and of the {ROW} check at seed 0 "
        f"(agreement_row_ms); medians of {CHILDREN} alternating child processes "
        f"x {REPS} runs.  Counts are summed over the {DRAWS} matrices",
        draws=DRAWS,
        agreement_row_ms={side: harness.median(runs[side], lambda r: r["agreement_row"], 3)
                          for side in harness.SIDES},
        cases=cases)


if __name__ == "__main__":
    sys.exit(main())
