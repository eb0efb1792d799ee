"""The formal polynomial det(A + t*B) and the rank/degree machinery built on it.

`lambda_coeffs` is `det` of A + t*B packed into one integer matrix, by the
kernel `_cheaper` picks: on packed rows `_elim` wins from 8x8 up (a sixth to a
ninth of the sweep's time at 12x12), and over GF(2**127 - 1) loses below 8x8.

The coefficient of t**d is a sum over d-subsets S of column positions of the
determinant with B's columns substituted at S and A's columns elsewhere.  Each
coefficient is multilinear in A's remaining columns, and summands for distinct
S have disjoint monomial supports, so "vanishes for every A" can be decided
exactly by sweeping standard basis vectors through the free column slots.
The same scan at d = 1 decides the radical: W with det(V + t*W) = det(V)
for every V (`in_radical`, `radical_enumerate`).  A single column's
determinant is its alternating sum, so that step has a closed form
(`_radical_column`) and takes no determinant.

Also houses the three completion constructors: fixed patterns B of unit
columns such that det(X|B) collapses, for every X with two columns, to a
prescribed combination of 2x2 determinants.  Each B carries a closed-form
sign on its last column, read off a Laplace expansion along B's unit columns:
-1 for diffdiff, (-1)**(n(k+1)) for diffsum and (-1)**(k(n+1)) for plainsum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb, perm

from .determinant import _cheaper, _entry_weight, _guard, _guard_power, _require_tall
from .errors import FieldMismatch, ShapeError, ShapeMismatch
from .fields import FieldSpec, Scalar, gf
from .matrix import RectMatrix, _units, eliminate, from_raw, raw_rows
from .record import Record, set_field


class LambdaPoly(Record):
    """Coefficient vector (a_0, ..., a_k) of det(A + t*B), trailing zeros kept."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: tuple[Scalar, ...], field: FieldSpec):
        set_field(self, "coeffs", coeffs)
        set_field(self, "field", field)

    def degree(self) -> int:
        """Largest d with a_d nonzero; 0 for the zero polynomial."""
        for d in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[d].value:
                return d
        return 0

    def evaluate(self, lam) -> Scalar:
        """The value at lam, by Horner's rule on the raw values."""
        (lam,) = self.field.raw_values((lam,))
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * lam + c.value
        return self.field.element(acc)


def lambda_coeffs(A: RectMatrix, B: RectMatrix, budget: int | None = None) -> LambdaPoly:
    """Formal coefficients of det(A + t*B) in t: `det` of one packed matrix.

    Each entry a + t*b is packed into the integer a + b * 2**w, a ring map
    from integer polynomials in t, so `_cheaper(n, k)`'s kernel on the packed
    rows gives det(A + t*B) packed; w leaves room for each signed base-2**w
    digit.  The budget is checked as in `det`, on the packed entries' weight.
    """
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    if (A.n, A.k) != (B.n, B.k):
        raise ShapeMismatch(f"{A.n}x{A.k} vs {B.n}x{B.k}")
    _require_tall(A)
    n, k = A.n, A.k
    kernel, steps = _cheaper(n, k)
    _guard(steps, budget)  # refuse before converting anything
    (arows, brows), scale = raw_rows(A, B)
    top = max(1, max(abs(x) for rows in (arows, brows) for row in rows for x in row))
    # |coefficient| <= (#injections) * (#column subsets) * top**k
    w = ((perm(n, k) << k) * top ** k).bit_length() + 1
    rows = [[a + (b << w) for a, b in zip(ra, rb)] for ra, rb in zip(arows, brows)]
    _guard(steps * _entry_weight(rows, None), budget, what="entry-weighted steps")
    coeffs = _digits(kernel(rows, k), w, k + 1)
    return LambdaPoly(tuple(from_raw(A.field, c, scale) for c in coeffs), A.field)


def _digits(packed: int, w: int, count: int) -> list[int]:
    """The first `count` signed base-2**w digits of packed, lowest first."""
    out = []
    for _ in range(count):
        c = packed & ((1 << w) - 1)
        if c >> (w - 1):
            c -= 1 << w
        out.append(c)
        packed = (packed - c) >> w
    return out


def _first_basis_rows(cols: list[list[int]], n: int, m: int, p: int | None):
    """First m-subset R of rows, in lexicographic order, such that the raw
    columns `cols` restricted to the rows outside R have a nonzero
    determinant (mod p when p is given); None when there is none.

    Completing `cols` by m distinct standard basis columns e_t, t in R, at
    any positions gives, by cofactor expansion along those columns, plus or
    minus exactly that determinant; repeated basis columns give zero.  The
    first nonzero completion in lexicographic order of basis assignments is
    therefore R in increasing order.  Unchecked: callers check `_scan_count`
    first.
    """
    rows = list(zip(*cols))
    kernel, _ = _cheaper(n - m, len(cols))
    for R in combinations(range(n), m):
        val = kernel([row for i, row in enumerate(rows) if i not in R], len(cols))
        if val % p if p else val:
            return R
    return None


def _radical_column(c: list[int], n: int, k: int, p: int | None) -> bool:
    """True when no k - 1 basis columns complete the raw column c of an
    n x k matrix to a nonzero det (mod p when p is given): the d = 1 step of
    `_completion_scan` in closed form.  For basis rows R that det is +- the
    alternating sum of c over the n - k + 1 rows outside R, so at k = 1 c
    passes when sum_i (-1)**i c_i = 0.  At k >= 2, with k - 2 rows S outside
    r and r + 1, the sums for S + {r} and S + {r + 1} read the same rows in
    the same places but c[r + 1] for c[r]: they differ by +-(c[r+1] - c[r]),
    so a passing column is constant, and a constant column sums to zero over
    n - k + 1 alternating rows exactly when n + k is odd, or it is zero."""
    c = [x % p for x in c] if p else c
    if k == 1:
        s = sum(c[::2]) - sum(c[1::2])
        return not (s % p if p else s)
    return len(set(c)) == 1 and ((n + k) % 2 == 1 or c[0] == 0)


def _raw_columns(X: RectMatrix) -> tuple[list[list[int]], int | None]:
    """X's columns as raw integers (scaled per column over QQ, which keeps
    every determinant's zero pattern) and the modulus, None over QQ."""
    (rows,), _ = raw_rows(X)
    return [list(c) for c in zip(*rows)], X.field.p


@lru_cache(maxsize=256)
def _scan_count(n: int, k: int, c: int, d: int) -> int:
    """Kernel steps the completion scan of d of c columns of an n x k matrix
    may take: C(c, d) column subsets, C(n, k - d) row subsets R for each
    (`_first_basis_rows`), and `_cheaper(n - k + d, d)`'s count per R."""
    return comb(c, d) * comb(n, k - d) * _cheaper(n - k + d, d)[1]


def _completion_scan(cols: list[list[int]], n: int, k: int, d: int, p: int | None):
    """(S, R): S the first d-subset of `cols`, raw columns of an n x k matrix,
    that some k - d basis columns complete to a nonzero det, and R their first
    rows (`_first_basis_rows`); None when there is none.  Completable sets
    are closed under subsets: expand a dropped column of S in the standard
    basis, and one term is a nonzero completion of the rest."""
    for S in combinations(range(len(cols)), d):
        R = _first_basis_rows([cols[j] for j in S], n, k - d, p)
        if R is not None:
            return S, R
    return None


def max_deg_over_all_A(B: RectMatrix) -> int:
    """Exact maximum over all A of the formal degree of det(A + t*B).

    The first d, from rank(B) down to 2, at which `_completion_scan` finds d
    columns of B that basis columns complete to a nonzero det (any more
    columns of B than its rank are dependent); else 1 when some column is
    completable (`_radical_column`), else 0.  Every scan it may run is
    counted before the first (BudgetExceeded over the default budget).
    """
    _require_tall(B)
    cols, p = _raw_columns(B)
    top = eliminate([c[:] for c in cols], p)[0]
    _guard(sum(_scan_count(B.n, B.k, B.k, d) for d in range(top, 1, -1)), None)
    d = next((d for d in range(top, 1, -1) if _completion_scan(cols, B.n, B.k, d, p)), 0)
    return d or int(not all(_radical_column(c, B.n, B.k, p) for c in cols))


def deg_witness(B: RectMatrix, d: int) -> RectMatrix | None:
    """An A made of basis columns whose degree-d coefficient against B is
    nonzero, or None when no A at all produces one.  The scan is counted
    before it starts (BudgetExceeded over the default budget)."""
    _require_tall(B)
    if not 2 <= d <= B.k:
        raise ShapeError(f"degree {d} outside 2..{B.k}")
    n, k = B.n, B.k
    cols, p = _raw_columns(B)
    if d > eliminate([c[:] for c in cols], p)[0]:  # d dependent columns of B
        return None
    _guard(_scan_count(n, k, k, d), None)
    found = _completion_scan(cols, n, k, d, p)
    if not found:
        return None
    S, R = found
    free = [j for j in range(k) if j not in S]
    return _units(B.field, n, k, [t * k + j for j, t in zip(free, R)])


def all_completions_vanish(X: RectMatrix, k: int) -> bool:
    """True when det(X|A) = 0 for every n x (k-2) completion A.

    Decided exactly through multilinearity: only completions whose columns
    are standard basis vectors need checking.  The scan is counted before it
    starts (BudgetExceeded over the default budget).
    """
    if X.k != 2:
        raise ShapeError(f"expected two columns, got {X.k}")
    if k < 2 or k > X.n:
        raise ShapeError(f"target width {k} outside 2..{X.n}")
    _guard(_scan_count(X.n, k, 2, 2), None)
    cols, p = _raw_columns(X)
    return _first_basis_rows(cols, X.n, k - 2, p) is None


def in_radical(W: RectMatrix) -> bool:
    """True when det(V + t*W) = det(V) identically in t for every V: no column
    of W is completable (`_radical_column`), completable sets being closed under subsets."""
    _require_tall(W)
    cols, p = _raw_columns(W)
    return all(_radical_column(c, W.n, W.k, p) for c in cols)


def radical_enumerate(n: int, k: int, p: int, budget: int | None = None) -> list[RectMatrix]:
    """All matrices over GF(p) lying in the radical of the determinant,
    enumerated in row-major lexicographic order: the k-th power of the
    columns that pass `_radical_column`, listed directly.  The budget counts p**(nk)."""
    field = gf(p)
    _guard_power(p, n * k, budget, "matrices")
    if not 1 <= k <= n:
        raise ShapeError(f"{n}x{k}: need n >= k >= 1")
    if k == 1:  # the first n - 1 entries, the last setting the alternating sum to 0
        flats = [(*head, (-1) ** n * (sum(head[::2]) - sum(head[1::2])) % p)
                 for head in product(range(p), repeat=n - 1)]
    else:  # constant columns, one row of k constants n times; nonzero at odd n + k only
        flats = [row * n for row in product(range(p if (n + k) % 2 else 1), repeat=k)]
    return [RectMatrix._of(field, n, k, flat) for flat in flats]


# -- completion constructors ---------------------------------------------------


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _rows2(X: RectMatrix, ok: bool, need: str) -> tuple[list[tuple], tuple]:
    """The rows of a two-column X as pairs of raw values, and row1 - row2;
    ShapeError unless ok, the argument range its constructor accepts."""
    if X.k != 2:
        raise ShapeError(f"expected two columns, got {X.k}")
    if not ok:
        raise ShapeError(f"need {need}")
    r = list(zip(X.values[::2], X.values[1::2]))
    return r, (r[0][0] - r[1][0], r[0][1] - r[1][1])


def diffdiff_rhs(X: RectMatrix, l: int) -> Scalar:
    """det2 of (row1 - row2) against (row l - row l+1), for 2 < l < n."""
    r, u = _rows2(X, 2 < l < X.n, f"2 < l < n, got l={l}")
    return X.field.element(_det2(u, (r[l - 1][0] - r[l][0], r[l - 1][1] - r[l][1])))


def diffsum_rhs(X: RectMatrix, k: int) -> Scalar:
    """Alternating sum over l = 3..n-k+3 of det2 of (row1 - row2) against
    row l, for 3 <= k <= n."""
    r, u = _rows2(X, X.n >= k >= 3, f"n >= k >= 3, got n={X.n}, k={k}")
    return X.field.element(sum((-1) ** l * _det2(u, r[l - 1]) for l in range(3, X.n - k + 4)))


def plainsum_rhs(X: RectMatrix, k: int) -> Scalar:
    """The truncated two-column determinant expansion on rows 1..n-k+2:
    det2(r1, r2) plus signed cross terms against and among rows 3..n-k+2,
    for 2 <= k <= n."""
    r, u = _rows2(X, X.n >= k >= 2, f"n >= k >= 2, got n={X.n}, k={k}")
    m = X.n - k + 2
    return X.field.element(_det2(r[0], r[1])
                           + sum((-1) ** l * _det2(u, r[l - 1]) for l in range(3, m + 1))
                           - sum((-1) ** (l + mm) * _det2(r[l - 1], r[mm - 1])
                                 for l in range(3, m + 1) for mm in range(l + 1, m + 1)))


def _pattern(field: FieldSpec, n: int, cols: list[list[int]], sign: int) -> RectMatrix:
    """The n x len(cols) matrix with ones at the 0-based rows cols[j] of
    column j, and sign (1 or -1) instead of one on the last column."""
    k = len(cols)
    cells = [i * k + j for j, rows in enumerate(cols) for i in rows]
    if sign > 0:
        return _units(field, n, k, cells)
    split = len(cells) - len(cols[-1])  # the last column's cells come last
    return _units(field, n, k, cells[:split], cells[split:])


def make_b_diffdiff(n: int, k: int, l: int, field: FieldSpec) -> RectMatrix:
    """Completion whose join with any two-column X has determinant
    diffdiff_rhs(X, l): columns e1 + e2, e_l + e_l+1 and e_t for the first
    k - 4 rows t >= 3 outside {l, l+1}, the last signed -1.  Laplace expansion
    along them leaves x_11 x_l2 on rows {1, 2, l, l+1, t...}, a set of sign +1,
    through the odd permutation (1, l, 2, l+1, t...), whatever n, k and l."""
    if not (n >= k >= 4):
        raise ShapeError(f"need n >= k >= 4, got n={n}, k={k}")
    if not (2 < l < n):
        raise ShapeError(f"need 2 < l < n, got l={l}")
    extra = [t for t in range(2, n) if t not in (l - 1, l)][: k - 4]
    return _pattern(field, n, [[0, 1], [l - 1, l]] + [[t] for t in extra], -1)


def make_b_diffsum(n: int, k: int, field: FieldSpec) -> RectMatrix:
    """Completion whose join with any two-column X has determinant
    diffsum_rhs(X, k): columns e1 + e2 and the units of the last k - 3 rows,
    the last signed (-1)**(n(k+1)).  Laplace expansion along each bottom unit
    (last row, last column) gives (-1)**(n+k), k - 3 times, and e1 + e2 then
    leaves diffsum_rhs itself."""
    if not (n >= k >= 3):
        raise ShapeError(f"need n >= k >= 3, got n={n}, k={k}")
    cols = [[0, 1]] + [[i] for i in range(n - k + 3, n)]
    return _pattern(field, n, cols, (-1) ** (n * (k + 1)))


def make_b_plainsum(n: int, k: int, field: FieldSpec) -> RectMatrix | None:
    """Completion whose join with any two-column X has determinant
    plainsum_rhs(X, k).  For k = 2 the completion is empty: None is returned
    and the identity degrades to det(X) itself.  Otherwise its columns are
    the units of the last k - 2 rows, the last signed (-1)**(k(n+1)): Laplace
    expansion along each (last row, last column) gives (-1)**(n+k), k - 2
    times, and leaves det of X's first n - k + 2 rows, which is plainsum_rhs."""
    if not (n >= k >= 2):
        raise ShapeError(f"need n >= k >= 2, got n={n}, k={k}")
    if k == 2:
        return None
    return _pattern(field, n, [[i] for i in range(n - k + 2, n)], (-1) ** (k * (n + 1)))
