"""The three defining routes of the rectangular determinant, kept as
independent test oracles and `--algo` choices.

For a tall matrix X (n rows, k columns, n >= k) the determinant is the signed
sum over all injections sigma of [k] into [n] of
sgn(sigma) * x[sigma(1),1] * ... * x[sigma(k),k] (`det_definition`).  It
equals the alternating sum of maximal square minors (`det_minorsum`) and the
Laplace expansion along any column (`det_laplace`).  Each route reads X once
through `raw_rows`, runs on plain integers and returns through `from_raw`:
the conversion, the shape check and the budget check are all they share
with `determinant.det`.  The subset signs are read through the
`combinatorics` module at call time, so a corrupted sign there shows in every
route.  Only `det --algo def|laplace|minorsum` and `verify-paper` load this
module: `det` never does.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb, perm, prod

from . import combinatorics as comb_mod
from .determinant import _guard, _require_tall
from .errors import IndexOutOfRange
from .fields import Scalar
from .matrix import RectMatrix, from_raw, raw_rows


def det_definition(X: RectMatrix, budget: int | None = None) -> Scalar:
    """Signed sum over all n!/(n-k)! injections (the defining formula), on
    the raw rows: for each row k-subset, with its sign, every ordering of it
    onto the k columns, with the sign of that ordering.  The k! orderings and
    their signs are listed once."""
    _require_tall(X)
    n, k = X.n, X.k
    _guard(perm(n, k) * k, budget)
    (rows,), scale = raw_rows(X)
    # an ordering as the flat indices, into the k x k block of the subset's
    # rows, of the entries it multiplies; split by its sign
    plus, minus = [], []
    for order in permutations(range(k)):
        at = tuple(i * k + j for j, i in enumerate(order))
        (plus if comb_mod.perm_sign_of(order) > 0 else minus).append(at)
    total = 0
    for subset in combinations(range(1, n + 1), k):
        get = [x for i in subset for x in rows[i - 1]].__getitem__
        acc = sum(prod(map(get, at)) for at in plus) - sum(prod(map(get, at)) for at in minus)
        total += acc if comb_mod.sgn_of_subset(subset) > 0 else -acc
    return from_raw(X.field, total, scale)


def det_laplace(X: RectMatrix, j: int = 1, budget: int | None = None) -> Scalar:
    """Laplace expansion along column j, then along the first remaining
    column, on the raw rows, memoized on the surviving (rows, columns) index
    sets; each memo entry is reduced mod p over GF(p).  Two columns are
    expanded in closed form: along one column, each one-column minor of the
    other is an alternating sum, read off running prefix sums."""
    _require_tall(X)
    if not 1 <= j <= X.k:
        raise IndexOutOfRange(f"column {j} outside 1..{X.k}")
    n, k = X.n, X.k
    _guard(comb(n, k) * n * k, budget)
    (rows,), scale = raw_rows(X)
    columns = list(zip(*rows))
    p = X.field.p
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

    def expand(live: tuple[int, ...], cols: tuple[int, ...], along: int) -> int:
        # live: the surviving rows, 0-based like cols; along: the position
        # within cols to expand on
        if len(cols) == 1:
            get = columns[cols[0]].__getitem__
            return sum(map(get, live[::2])) - sum(map(get, live[1::2]))
        if len(cols) == 2:
            # the term of row pos is +-x_pos times the alternating sum of y
            # over live without pos: 2 * before - total + (-1)**pos * y_pos,
            # where before is the alternating sum of y over the rows above it
            x, y = columns[cols[along]], columns[cols[1 - along]]
            ys = [y[r] for r in live]
            total = sum(ys[::2]) - sum(ys[1::2])
            acc = before = 0
            for pos, r in enumerate(live):
                b = ys[pos]
                a = x[r]
                if a:
                    term = a * (2 * before - total)
                    acc += a * b + (-term if pos & 1 else term)
                before += -b if pos & 1 else b
            return -acc if along else acc
        key = (live, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        col = columns[cols[along]]
        rest = cols[:along] + cols[along + 1 :]
        acc = 0
        for pos, r in enumerate(live):
            x = col[r]
            if not x:
                continue
            term = x * expand(live[:pos] + live[pos + 1 :], rest, 0)
            if (pos + along) & 1:
                acc -= term
            else:
                acc += term
        if p:
            acc %= p
        memo[key] = acc
        return acc

    return from_raw(X.field, expand(tuple(range(n)), tuple(range(k)), j - 1), scale)


def det_square(rows) -> int:
    """Ordinary determinant of a square integer array (a sequence of rows of
    ints) by fraction-free (Bareiss) elimination, exactly.  For the
    `det_minorsum` oracle only, and written out here rather than shared with
    `det`'s kernels, so that the oracle stays independent of them."""
    m = [list(row) for row in rows]
    size = len(m)
    sign, prev = 1, 1
    for c in range(size - 1):
        piv = next((i for i in range(c, size) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top = m[c]
        pc = top[c]
        for row in m[c + 1 :]:
            f = row[c]
            for jj in range(c + 1, size):
                row[jj] = (row[jj] * pc - f * top[jj]) // prev
        prev = pc
    return sign * m[-1][-1]


def det_minorsum(X: RectMatrix, budget: int | None = None) -> Scalar:
    """Alternating sum of maximal k-by-k minors over all row k-subsets, each
    minor by `det_square` on the raw rows."""
    _require_tall(X)
    n, k = X.n, X.k
    _guard(comb(n, k) * k ** 3, budget)
    (rows,), scale = raw_rows(X)
    total = 0
    for subset in combinations(range(1, n + 1), k):
        minor = det_square([rows[i - 1] for i in subset])
        if minor:
            total += minor if comb_mod.sgn_of_subset(subset) > 0 else -minor
    return from_raw(X.field, total, scale)
