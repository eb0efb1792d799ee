"""Before/after timings of the exhaustive preservation check, and its counts.

    python bench/preserver.py --before OLD/src --after src > BENCH_preserver.json

Times `is_preserver(identity, "exhaustive")` (every input is swept, the det
table already built) and a cold fill of the det table, for each case, in
CHILDREN pairs of child processes (`harness`).  Each child runs every case
REPS times and reports the median; the file holds the median over the
children.  The counts (inputs swept, blocks, lane products per block) are
read off the `--after` tree: they follow from `sweep_plan` and the block
rule alone, so tests can gate on them.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

import harness

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


def main() -> int:
    trees = harness.trees(__doc__, {"all": time_tree})
    runs = harness.pairs(CHILDREN, lambda side: harness.child(trees[side], "all"))
    sys.path.insert(0, trees["after"])
    cases = []
    for n, k, p in CASES:
        key = f"{n}x{k}/{p}"
        row = {"n": n, "k": k, "p": p, **counts(n, k, p)}
        for side in harness.SIDES:
            row[f"check_ms_{side}"] = harness.median(runs[side], lambda r: r[key][0], 3)
            row[f"table_ms_{side}"] = harness.median(runs[side], lambda r: r[key][1], 3)
        cases.append(row)
    return harness.emit(
        "preserver.exhaustive",
        "is_preserver(identity, 'exhaustive') with the det table built (check_ms), "
        f"and a cold fill of the det table (table_ms); medians of {CHILDREN} "
        f"alternating child processes x {REPS} runs",
        cases=cases)


if __name__ == "__main__":
    sys.exit(main())
