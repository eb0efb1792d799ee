"""Before/after timings of the determinant kernels, and their shape-only counts.

    python bench/kernels.py --before OLD/src --after src > BENCH_kernels.json

Times `det` and `lambda_coeffs` at every shape of SHAPES (square and one
extra row, which `_elim` takes, and tall ones, which the sweep takes) over
GF(10007), GF(2**127 - 1) and QQ, and `check_sign_condition` on identity
factors (every sign weight is computed) at SIGN_SHAPES over GF(10007), in
CHILDREN pairs of child processes (`harness`).  Each child runs every case
REPS times on DRAWS matrices drawn from a seed named after the case, and
reports the median time per call, or times one call alone when it takes
over SLOW seconds; the file holds the median over the children.  Every call
runs under BUDGET, so the wide shapes are timed, not refused.

The counts follow from the shape alone, read off the `--after` tree: the
route `_cheaper(n, k)` picks and its steps, and for the sign condition the
one count it checks, det(B)'s steps plus C(n, k) n x k determinants' steps.
tests/test_kernel.py recounts them.
"""

from __future__ import annotations

import random
import statistics
import sys
from math import comb
from time import perf_counter

import harness

SHAPES = ((4, 4), (8, 8), (10, 9), (12, 12), (16, 16), (8, 4), (12, 6), (16, 8), (20, 10),
          (24, 12))
FIELDS = {"GF(10007)": 10007, "GF(2^127-1)": 2**127 - 1, "QQ": None}
SIGN_SHAPES = ((8, 4), (12, 6))
DRAWS = 3  # matrices (or pairs) per case
REPS = 5  # runs of each case in one child
CHILDREN = 3  # child processes per tree
BUDGET = 10**15
SLOW = 0.1  # seconds: a call this long is timed once (lambda_coeffs at 24x12 over GF(2^127-1))


def field_of(label: str):
    from cullis import RATIONALS, gf

    return RATIONALS if FIELDS[label] is None else gf(FIELDS[label])


def matrices(n: int, k: int, label: str) -> list:
    """The DRAWS pairs of n x k matrices of one case, from a seed named after it."""
    from cullis import random_matrix

    rng = random.Random(f"{n}x{k}/{label}")
    F = field_of(label)
    return [(random_matrix(F, n, k, rng), random_matrix(F, n, k, rng)) for _ in range(DRAWS)]


def timed(call, args: list) -> float:
    """Median ms per call of call(*a) over args, of REPS runs after a warm
    one; a first call past SLOW seconds is timed alone, as it is."""
    t0 = perf_counter()
    call(*args[0])
    first = perf_counter() - t0
    if first > SLOW:
        return first * 1e3
    for a in args[1:]:
        call(*a)
    runs = []
    for _ in range(REPS):
        t0 = perf_counter()
        for a in args:
            call(*a)
        runs.append((perf_counter() - t0) / len(args))
    return statistics.median(runs) * 1e3


def time_tree() -> dict:
    """Median ms per call of each case for the package on sys.path."""
    from cullis import check_sign_condition, det, gf, identity, lambda_coeffs

    out = {}
    for n, k in SHAPES:
        det(matrices(n, k, "QQ")[0][0], BUDGET)  # the shape's cached sweep plan, built untimed
        for label in FIELDS:
            pairs = matrices(n, k, label)
            key = f"{n}x{k}/{label}"
            out[f"det {key}"] = timed(lambda X, Y: det(X, BUDGET), pairs)
            out[f"lambda_coeffs {key}"] = timed(lambda X, Y: lambda_coeffs(X, Y, BUDGET), pairs)
    F = gf(10007)
    for n, k in SIGN_SHAPES:
        out[f"check_sign_condition {n}x{k}/GF(10007)"] = timed(
            check_sign_condition, [(identity(F, n), identity(F, k))])
    return out


def counts(call: str, n: int, k: int) -> dict:
    """The shape-only counts of one case, from the package on sys.path."""
    from cullis.determinant import _cheaper

    kernel, steps = _cheaper(n, k)
    row = {"route": kernel.__name__, "steps": steps}
    if call == "check_sign_condition":
        row["sign_weight_steps"] = _cheaper(k, k)[1] + comb(n, k) * steps
    return row


def main() -> int:
    trees = harness.trees(__doc__, {"all": time_tree})
    runs = harness.pairs(CHILDREN, lambda side: harness.child(trees[side], "all"))
    sys.path.insert(0, trees["after"])
    cases = [(call, n, k, label) for n, k in SHAPES for label in FIELDS
             for call in ("det", "lambda_coeffs")]
    cases += [("check_sign_condition", n, k, "GF(10007)") for n, k in SIGN_SHAPES]
    rows = []
    for call, n, k, label in cases:
        key = f"{call} {n}x{k}/{label}"
        row = {"call": call, "n": n, "k": k, "field": label, **counts(call, n, k)}
        for side in harness.SIDES:
            row[f"ms_{side}"] = harness.median(runs[side], lambda r: r[key], 4)
        rows.append(row)
    return harness.emit(
        "determinant.kernels",
        f"ms per call of det and lambda_coeffs on {DRAWS} drawn matrices (pairs) per case, "
        "and of check_sign_condition on identity factors; medians of "
        f"{CHILDREN} alternating child processes x {REPS} runs, or of one call where it "
        f"takes over {SLOW} s.  route and steps are "
        "_cheaper(n, k); sign_weight_steps is the one count check_sign_condition checks",
        cases=rows)


if __name__ == "__main__":
    sys.exit(main())
