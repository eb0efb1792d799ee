"""Before/after timings of the exhaustive preservation check, and its counts.

    python bench/preserver.py --before OLD/src --after src > BENCH_preserver.json

Times `is_preserver(identity, "exhaustive")` (every input is swept, the det
table already built) and a cold fill of the det table, for each case, in
fresh child processes, one pair per round, one child per source tree; the
tree whose child runs first alternates from pair to pair.  Each of the
CHILDREN children per tree runs every case REPS times and reports the
median; the file holds the median over the children.  The counts (inputs
swept, blocks, lane products per block) are read off the `--after` tree:
they follow from `sweep_plan` and the block rule alone, so tests can gate
on them.
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

CASES = ((3, 2, 3), (4, 2, 3), (3, 2, 5), (2, 2, 13), (4, 3, 2), (6, 3, 2), (3, 3, 3))
REPS = 9  # runs of each case in one child
CHILDREN = 5  # child processes per tree


def time_tree() -> dict:
    """Median milliseconds per case for the package on sys.path."""
    from cullis import LinearMapNK, gf, is_preserver
    from cullis import preserver

    out = {}
    for n, k, p in CASES:
        T = LinearMapNK.identity_map(gf(p), n, k)
        is_preserver(T, "exhaustive")
        check, table = [], []
        for _ in range(REPS):
            t0 = perf_counter()
            is_preserver(T, "exhaustive")
            t1 = perf_counter()
            preserver._filled_table.cache_clear()
            preserver._det_table(n, k, p)
            check.append(t1 - t0)
            table.append(perf_counter() - t1)
        out[f"{n}x{k}/{p}"] = [statistics.median(check) * 1e3, statistics.median(table) * 1e3]
    return out


def counts(n: int, k: int, p: int) -> dict:
    """Deterministic work of one exhaustive check, from the package on sys.path."""
    from cullis.determinant import sweep_plan
    from cullis.lanes import tail_len

    nk = n * k
    return {"inputs": p ** nk, "blocks": p ** (nk - tail_len(p, nk)),
            "lane_products_per_block": sum(1 for moves in sweep_plan(n, k)
                                           for src, *_ in moves if src)}


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
    for n, k, p in CASES:
        key = f"{n}x{k}/{p}"
        row = {"n": n, "k": k, "p": p, **counts(n, k, p)}
        for side in ("before", "after"):
            row[f"check_ms_{side}"] = round(statistics.median(r[key][0] for r in runs[side]), 3)
            row[f"table_ms_{side}"] = round(statistics.median(r[key][1] for r in runs[side]), 3)
        cases.append(row)
    print(json.dumps({
        "layer": "preserver.exhaustive",
        "what": "is_preserver(identity, 'exhaustive') with the det table built (check_ms), "
                "and a cold fill of the det table (table_ms); medians of "
                f"{CHILDREN} alternating child processes x {REPS} runs",
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "cases": cases,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
