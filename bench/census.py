"""Before/after timings of the census and the radical, and their counts.

    python bench/census.py --before OLD/src --after src > BENCH_census.json

Times `enumerate_preservers` on small shapes, `radical_enumerate`, and
`in_radical` of the 6x3 all-ones matrix over GF(5), in CHILDREN pairs of
child processes (`harness`).  Each child runs every case REPS times and
reports the median; the file holds the median over the children.  The two
large censuses, (3,2,2) and (2,2,5), run once per tree, in one more pair of
children, whose order continues the alternation.  The counts (maps per
census, members per radical, the `in_radical` verdict) are what the
children return; both trees must agree on them, and tests check them
against closed forms.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import harness

CENSUSES = ((2, 2, 2), (3, 1, 3), (2, 1, 17), (2, 2, 3))
LARGE_CENSUSES = ((3, 2, 2), (2, 2, 5))  # run once per tree
RADICALS = ((3, 1, 5), (4, 2, 3), (8, 5, 5))
ONES = (6, 3, 5)  # in_radical of the all-ones n x k matrix over GF(p)
ONES_CALLS = 1000  # in_radical calls per timed run
REPS = 5  # runs of each case in one child
CHILDREN = 5  # child processes per tree


def cases(large: bool) -> list:
    """(case, n, k, p, callable returning the count, calls per timed run)."""
    from cullis import RectMatrix, enumerate_preservers, gf, in_radical, radical_enumerate

    out = [("census", n, k, p,
            lambda n=n, k=k, p=p: enumerate_preservers(n, k, p, budget=p ** ((n * k) ** 2)).count, 1)
           for n, k, p in (LARGE_CENSUSES if large else CENSUSES)]
    if large:
        return out
    out += [("radical_enumerate", n, k, p,
             lambda n=n, k=k, p=p: len(radical_enumerate(n, k, p, budget=p ** (n * k))), 1)
            for n, k, p in RADICALS]
    n, k, p = ONES
    W = RectMatrix.from_rows(gf(p), [[1] * k for _ in range(n)])
    out.append(("in_radical of ones", n, k, p, lambda: in_radical(W), ONES_CALLS))
    return out


def time_tree(large: bool) -> list:
    """[case, n, k, p, median milliseconds per call, count] per case, for
    the package on sys.path."""
    out = []
    for case, n, k, p, run, calls in cases(large):
        times = []
        for _ in range(1 if large else REPS):
            t0 = perf_counter()
            for _ in range(calls):
                count = run()
            times.append((perf_counter() - t0) / calls)
        out.append([case, n, k, p, statistics.median(times) * 1e3, count])
    return out


def main() -> int:
    trees = harness.trees(__doc__, {"small": lambda: time_tree(False),
                                    "large": lambda: time_tree(True)})
    runs = harness.pairs(CHILDREN, lambda side: harness.child(trees[side], "small"))
    large = harness.pairs(1, lambda side: harness.child(trees[side], "large"), first=CHILDREN)
    rows = []
    for group in (runs, large):
        for i, (case, n, k, p, _, count) in enumerate(group["after"][0]):
            counts = {r[i][5] for side in group for r in group[side]}
            if counts != {count}:
                raise SystemExit(f"{case} {n}x{k}/{p}: the trees disagree: {sorted(counts)}")
            row = {"case": case, "n": n, "k": k, "p": p, "count": count}
            for side in harness.SIDES:
                row[f"ms_{side}"] = harness.median(group[side], lambda r: r[i][4], 4)
            rows.append(row)
    return harness.emit(
        "preserver.census and the radical",
        "enumerate_preservers (count: maps), radical_enumerate (count: members) and "
        f"in_radical of the all-ones {ONES[0]}x{ONES[1]} matrix over GF({ONES[2]}) "
        "(count: its verdict; time per call); milliseconds are medians of "
        f"{CHILDREN} alternating child processes x {REPS} runs, except the censuses "
        + ", ".join("%dx%d/%d" % s for s in LARGE_CENSUSES) + ", one run per tree",
        cases=rows)


if __name__ == "__main__":
    sys.exit(main())
