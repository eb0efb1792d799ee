"""The rectangular determinant: one row-sweep kernel and raw elimination.

For a tall matrix X (n rows, k columns, n >= k) the determinant is the signed
sum over all injections sigma of [k] into [n] of
sgn(sigma) * x[sigma(1),1] * ... * x[sigma(k),k].  The three defining routes
(the injection sum, the minor sum and the Laplace expansion) live in
`routes`, as independent test oracles and `--algo` choices; this module
keeps only the hot path, so a `det` call compiles none of them.

The hot path is `det`.  It converts X to raw integers once
(`matrix.raw_rows`: residues over GF(p), column-cleared integers over QQ) and
runs whichever of two routes needs fewer multiplications, counted from
(n, k) before any work:

* the row sweep (`sweep`), O(n k 2^k), for tall shapes: rows 1..n are placed
  in order, with one signed partial sum per set of used columns;
* `_elim`, the fraction-free (Bareiss) elimination `matrix.eliminate` that
  `rank` also runs, exact on the integers and only for n = k and n = k + 1:
  on X, or on det[X | 1] (Laplace along the ones column gives exactly the
  alternating minor sum).  Every shape with n >= k + 2 takes the sweep.
  `det` is also the square determinant for the rest of the package.

`_cheaper(n, k)` hands back the kernel and its exact count; each call, or
each scan of one shape, checks that count once, before any work, and the
kernels check nothing.  `det`, `det_int`, `det_product_rhs`, `lambda_coeffs`
(on det(A + tB) packed into integers), the completion scans and the sign
weights all take their kernel from it.  Every budget check is `_guard`,
against the caller's budget or else a default below (`_guard_power` for p**e).

The sweep's cached plan (`sweep_plan`) is walked, with coefficients of its
own, by `sympoly` (sparse polynomials) and `lanes` (the exhaustive tables).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import (BudgetExceeded, FieldMismatch, IndexOutOfRange, ResourceGuard, ShapeError,
                     ShapeMismatch)
from .fields import Scalar
from .matrix import RectMatrix, eliminate, from_raw, raw_rows, submatrix_keep

DEFAULT_OP_BUDGET = 10_000_000
# products a symbolic expansion may make (`sympoly`), and the terms of D that
# the sign weights of a two-sided map stand for (`preserver`)
DEFAULT_TERM_GUARD = 200_000_000
# inputs, maps or matrices an exhaustive search may visit (`preserver`,
# `lambdapoly.radical_enumerate`), and the entries a map constructor writes
DEFAULT_SEARCH_BUDGET = 1_000_000


def _require_tall(X: RectMatrix):
    if X.k > X.n:
        raise ShapeError(f"{X.n}x{X.k}: need at least as many rows as columns")


def _guard(cost: int, budget: int | None, default: int = DEFAULT_OP_BUDGET,
           error: type[Exception] = ResourceGuard, what: str = "elementary steps") -> int:
    """The limit, budget or else default; raises error when cost exceeds it."""
    limit = default if budget is None else budget
    if cost > limit:
        raise error(f"{cost} {what} exceed budget {limit}")
    return limit


def _guard_power(p: int, e: int, budget: int | None, what: str) -> None:
    """`_guard` on p**e items against the search budget; refused from the
    exponent alone when p**e has more bits than the limit, so that a huge
    shape never builds p**e."""
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if (p.bit_length() - 1) * e > limit.bit_length():
        raise BudgetExceeded(f"{p}**{e} {what} exceed budget {limit}")
    _guard(p ** e, budget, DEFAULT_SEARCH_BUDGET, BudgetExceeded, what)


# -- the row sweep ---------------------------------------------------------------


@lru_cache(maxsize=256)
def sweep_count(n: int, k: int) -> int:
    """Exact number of moves in `sweep_plan(n, k)`, from the shape alone."""
    return sum(comb(k, u) * (k - u)
               for r in range(1, n + 1)
               for u in range(max(0, k - 1 - (n - r)), min(r, k)))


@lru_cache(maxsize=32)
def sweep_plan(n: int, k: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per row r = 1..n, the moves (src, dst, col, neg) of the row sweep.

    A move places row r in column col after the columns in the bit mask src
    were used by earlier rows; it adds (-1)**neg * x[r, col] times the value
    at src to the value at dst = src | 1 << col.  The sign counts the used
    columns right of col (the inversions of the injection) plus
    r - #used - 1 (the rows skipped so far, i.e. the image-set sign).  Only
    masks from which the remaining rows can still fill every column move.
    Moves run from fuller masks down, so one value array updated in place
    still reads every source before this row writes to it.
    """
    pop = [mask.bit_count() for mask in range(1 << k)]
    # (#used, src, col, parity of the used columns right of col), fuller masks first
    moves = sorted(((pop[src], src, col, pop[src >> col] & 1)
                    for src in range(1 << k) for col in range(k) if not src >> col & 1),
                   key=lambda move: -move[0])
    plan = []
    for r in range(1, n + 1):
        lo, hi = max(0, k - 1 - (n - r)), min(r, k) - 1
        plan.append(tuple((src, src | 1 << col, col, (par + r - used - 1) & 1)
                          for used, src, col, par in moves if lo <= used <= hi))
    return tuple(plan)


def sweep(rows, k: int) -> int:
    """Rectangular determinant of an integer matrix (a sequence of n rows of
    k ints) by the row sweep, exactly.  Unchecked: callers check its count,
    `sweep_count(n, k)`, through `det_int` or `_cheaper` first."""
    n = len(rows)
    val = [0] * (1 << k)
    val[0] = 1
    for row, moves in zip(rows, sweep_plan(n, k)):
        for src, dst, col, neg in moves:
            v = val[src]
            if v:
                x = row[col]
                if x:
                    if neg:
                        val[dst] -= v * x
                    else:
                        val[dst] += v * x
    return val[-1]


# -- elimination -----------------------------------------------------------------


def _elim(rows, k: int) -> int:
    """Rectangular determinant of an integer matrix with n <= k + 1 rows by
    exact (Bareiss) elimination on X, or on [X | 1] at n = k + 1; unchecked."""
    n = len(rows)
    r, d = eliminate([list(row) + [1] * (n - k) for row in rows])
    return d if r == n else 0


def elim_count(n: int) -> int:
    """Multiplications `_elim` makes on n rows with no zero pivot, two per
    updated entry: 2 * (1**2 + ... + (n-1)**2)."""
    return (n - 1) * n * (2 * n - 1) // 3


@lru_cache(maxsize=256)
def _cheaper(n: int, k: int):
    """The kernel for an n x k input, `sweep` or `_elim` (n <= k + 1 only),
    whichever makes fewer multiplications, and that exact count."""
    sweep_steps = sweep_count(n, k)
    if n <= k + 1 and elim_count(n) < sweep_steps:
        return _elim, elim_count(n)
    return sweep, sweep_steps


def det_int(rows, k: int, budget: int | None = None) -> int:
    """Exact rectangular determinant of integer rows by `_cheaper`'s kernel,
    refused (ResourceGuard) before any work when its count exceeds budget."""
    kernel, steps = _cheaper(len(rows), k)
    _guard(steps, budget)
    return kernel(rows, k)


def _entry_weight(rows, p: int | None) -> int:
    """What one step costs on the raw rows: ceil(b / 64) ** 2, b the bit
    length of the largest entry, (p - 1).bit_length() over GF(p); 1 for
    every entry below 2**64."""
    bits = (p - 1).bit_length() if p else max(abs(x) for row in rows for x in row).bit_length()
    return max(1, -(-bits // 64)) ** 2


def det(X: RectMatrix, budget: int | None = None) -> Scalar:
    """Dispatcher: the cheaper of the row sweep and raw elimination.

    The route is picked from the exact step counts of the shape, and the
    budget checked on that count, before anything is converted.  After
    `raw_rows` the budget is checked again on the count times
    `_entry_weight`, the cost of one step on entries that size.  Every route
    returns the same value on the same input.
    """
    _require_tall(X)
    kernel, steps = _cheaper(X.n, X.k)
    _guard(steps, budget)  # refuse before converting anything
    (rows,), scale = raw_rows(X)
    _guard(steps * _entry_weight(rows, X.field.p), budget, what="entry-weighted steps")
    return from_raw(X.field, kernel(rows, X.k), scale)


def det_product_rhs(X: RectMatrix, Y: RectMatrix, budget: int | None = None) -> Scalar:
    """Expansion of det(X @ Y) as sum over column l-subsets d of X of the raw
    values det(X restricted to columns d) * det(rows d of Y)."""
    if X.field != Y.field:
        raise FieldMismatch(f"{X.field!r} vs {Y.field!r}")
    n, k, l = X.n, X.k, Y.k
    if Y.n != k:
        raise ShapeMismatch(f"{n}x{k} times {Y.n}x{l}")
    if not (1 <= l <= k <= n):
        raise ShapeError(f"need 1 <= {l} <= {k} <= {n}")
    _guard(comb(k, l) * (_cheaper(n, l)[1] + _cheaper(l, l)[1]), budget)  # every minor's det
    total = 0
    all_rows = range(1, n + 1)
    for d in combinations(range(1, k + 1), l):
        yd = det(submatrix_keep(Y, d, range(1, l + 1)), budget).value
        if yd:
            total += det(submatrix_keep(X, all_rows, d), budget).value * yd
    return X.field.element(total)


def semicyclic_shift(X: RectMatrix, i: int) -> RectMatrix:
    """Rows i..n followed by the negated rows 1..i-1 (same column order): a
    slice of the raw values and a negated slice."""
    if not 1 <= i <= X.n:
        raise IndexOutOfRange(f"row {i} outside 1..{X.n}")
    cut = (i - 1) * X.k
    return X._like(X.values[cut:] + tuple(-x for x in X.values[:cut]))
