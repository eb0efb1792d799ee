"""Before/after timings of the census and the radical, and their counts.

    python bench/census.py --before OLD/src --after src > BENCH_census.json

Times `enumerate_preservers` on small shapes, `radical_enumerate`, and
`in_radical` of the 6x3 all-ones matrix over GF(5), in fresh child processes,
one pair per round, one child per source tree; the tree whose child runs
first alternates from pair to pair.  Each of the CHILDREN children per tree
runs every case REPS times and reports the median; the file holds the
median over the children.  The two large censuses, (3,2,2) and (2,2,5),
run once per tree, in one more pair of children, whose order continues the
alternation.  The counts (maps per census, members
per radical, the `in_radical` verdict) are what the children return; both
trees must agree on them, and tests check them against closed forms.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

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


def child(tree: str, large: bool) -> list:
    """`time_tree` in a fresh process on the source tree `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(tree))
    argv = [sys.executable, __file__, "--time", "large" if large else "small"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def sides(pair: int) -> tuple[str, str]:
    """The two trees in the order pair number `pair` runs them: the tree
    that goes first alternates from pair to pair."""
    return ("before", "after") if pair % 2 == 0 else ("after", "before")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", help="src directory of the old tree")
    ap.add_argument("--after", help="src directory of the new tree")
    ap.add_argument("--time", choices=("small", "large"),
                    help=argparse.SUPPRESS)  # child mode: time the tree on sys.path
    args = ap.parse_args()
    if args.time:
        print(json.dumps(time_tree(args.time == "large")))
        return 0
    runs: dict[str, list] = {"before": [], "after": []}
    for pair in range(CHILDREN):
        for side in sides(pair):
            runs[side].append(child(getattr(args, side), False))
    large = {side: [child(getattr(args, side), True)] for side in sides(CHILDREN)}
    rows = []
    for group in (runs, large):
        for i, (case, n, k, p, _, count) in enumerate(group["after"][0]):
            counts = {r[i][5] for side in group for r in group[side]}
            if counts != {count}:
                raise SystemExit(f"{case} {n}x{k}/{p}: the trees disagree: {sorted(counts)}")
            row = {"case": case, "n": n, "k": k, "p": p, "count": count}
            for side in ("before", "after"):
                row[f"ms_{side}"] = round(statistics.median(r[i][4] for r in group[side]), 4)
            rows.append(row)
    print(json.dumps({
        "layer": "preserver.census and the radical",
        "what": "enumerate_preservers (count: maps), radical_enumerate (count: members) and "
                f"in_radical of the all-ones {ONES[0]}x{ONES[1]} matrix over GF({ONES[2]}) "
                "(count: its verdict; time per call); milliseconds are medians of "
                f"{CHILDREN} alternating child processes x {REPS} runs, except the censuses "
                + ", ".join("%dx%d/%d" % s for s in LARGE_CENSUSES) + ", one run per tree",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "cases": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
