"""The formal polynomial det(A + t*B) and the rank/degree machinery built on it.

The coefficient of t**d is a sum over d-subsets S of column positions of the
determinant with B's columns substituted at S and A's columns elsewhere.  Each
coefficient is multilinear in A's remaining columns, and summands for distinct
S have disjoint monomial supports, so "vanishes for every A" can be decided
exactly by sweeping standard basis vectors through the free column slots.

Also houses the three completion constructors: fixed patterns B such that
det(X|B) collapses, for every X with two columns, to a prescribed combination
of 2x2 determinants.  Their last-column signs are not derivable from a closed
formula here.  Both sides of each identity are bilinear and alternating in
the two columns of X, so each constructor fixes the sign once, exactly, on
the basis pairs X = (e_a | e_b) over the integers, and raises
CalibrationError if no sign reproduces the identity on every pair.
"""

from __future__ import annotations

from itertools import combinations
from math import perm

from .determinant import det_int, sweep
from .errors import CalibrationError, FieldMismatch, ShapeError, ShapeMismatch
from .fields import RATIONALS, FieldSpec, Scalar
from .matrix import RectMatrix, eliminate, from_raw, raw_rows
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
        lam = self.field.element(lam)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc


def lambda_coeffs(A: RectMatrix, B: RectMatrix, budget: int | None = None) -> LambdaPoly:
    """Formal coefficients of det(A + t*B) in t, from one row sweep.

    Each entry a + t*b is packed into the integer a + b * 2**w.  Packing is a
    ring map from integer polynomials in t, so the integer sweep computes the
    packed det(A + t*B); w leaves room for every coefficient with its sign,
    which are read back as signed base-2**w digits.  The budget bounds the
    sweep's moves, as for `det`.
    """
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    if (A.n, A.k) != (B.n, B.k):
        raise ShapeMismatch(f"{A.n}x{A.k} vs {B.n}x{B.k}")
    if A.k > A.n:
        raise ShapeError(f"{A.n}x{A.k}: need at least as many rows as columns")
    n, k = A.n, A.k
    (arows, brows), scale = raw_rows(A, B)
    top = max(1, max(abs(x) for rows in (arows, brows) for row in rows for x in row))
    # |coefficient| <= (#injections) * (#column subsets) * top**k
    w = ((perm(n, k) << k) * top ** k).bit_length() + 1
    packed = sweep([[a + (b << w) for a, b in zip(ra, rb)] for ra, rb in zip(arows, brows)],
                   k, budget)
    return LambdaPoly(tuple(from_raw(A.field, c, scale) for c in _digits(packed, w, k + 1)),
                      A.field)


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


def _first_completion(cols: list[list[int]], n: int, m: int, p: int | None):
    """First m-subset R of rows, in lexicographic order, such that the raw
    columns `cols` restricted to the rows outside R have a nonzero
    determinant (mod p when p is given); None when there is none.

    Completing `cols` by m distinct standard basis columns e_t, t in R, at
    any positions gives, by cofactor expansion along those columns, plus or
    minus exactly that determinant; repeated basis columns give zero.  The
    first nonzero completion in lexicographic order of basis assignments is
    therefore R in increasing order.
    """
    rows = list(zip(*cols))
    d = len(cols)
    for R in combinations(range(n), m):
        gone = set(R)
        val = det_int([rows[i] for i in range(n) if i not in gone], d)
        if val % p if p else val:
            return R
    return None


def _raw_columns(X: RectMatrix) -> tuple[list[list[int]], int | None]:
    """X's columns as raw integers (scaled per column over QQ, which keeps
    every determinant's zero pattern) and the modulus, None over QQ."""
    (rows,), _ = raw_rows(X)
    return [list(c) for c in zip(*rows)], X.field.p


def _completion_scan(cols: list[list[int]], n: int, k: int, d: int, p: int | None):
    """(S, R): S the first d-subset of `cols`, raw columns of an n x k matrix,
    that some k - d basis columns complete to a nonzero det, and R their first
    rows (`_first_completion`); None when there is none.  Completable sets
    are closed under subsets: expand a dropped column of S in the standard
    basis, and one term is a nonzero completion of the rest."""
    for S in combinations(range(len(cols)), d):
        R = _first_completion([cols[j] for j in S], n, k - d, p)
        if R is not None:
            return S, R
    return None


def max_deg_over_all_A(B: RectMatrix) -> int:
    """Exact maximum over all A of the formal degree of det(A + t*B).

    The first d, from rank(B) downward, at which `_completion_scan` finds d
    columns of B that basis columns complete to a nonzero det; any more
    columns of B than its rank are dependent.
    """
    if B.k > B.n:
        raise ShapeError(f"{B.n}x{B.k}: need at least as many rows as columns")
    cols, p = _raw_columns(B)
    top = eliminate([c[:] for c in cols], p)[0]
    return next((d for d in range(top, 0, -1) if _completion_scan(cols, B.n, B.k, d, p)), 0)


def deg_witness(B: RectMatrix, d: int) -> RectMatrix | None:
    """An A made of basis columns whose degree-d coefficient against B is
    nonzero, or None when no A at all produces one."""
    if B.k > B.n:
        raise ShapeError(f"{B.n}x{B.k}: need at least as many rows as columns")
    if not 2 <= d <= B.k:
        raise ShapeError(f"degree {d} outside 2..{B.k}")
    n, k = B.n, B.k
    cols, p = _raw_columns(B)
    if d > eliminate([c[:] for c in cols], p)[0]:  # d dependent columns of B
        return None
    found = _completion_scan(cols, n, k, d, p)
    if found is None:
        return None
    S, R = found
    wcols = [[B.field.zero] * n for _ in range(k)]
    for j, t in zip([j for j in range(k) if j not in S], R):
        wcols[j][t] = B.field.one
    return RectMatrix.from_columns(B.field, wcols)


def all_completions_vanish(X: RectMatrix, k: int) -> bool:
    """True when det(X|A) = 0 for every n x (k-2) completion A.

    Decided exactly through multilinearity: only completions whose columns
    are standard basis vectors need checking.
    """
    if X.k != 2:
        raise ShapeError(f"expected two columns, got {X.k}")
    if k < 2 or k > X.n:
        raise ShapeError(f"target width {k} outside 2..{X.n}")
    cols, p = _raw_columns(X)
    return _first_completion(cols, X.n, k - 2, p) is None


# -- completion constructors ---------------------------------------------------


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _rows2(X) -> list:
    """The rows of a two-column X given as a RectMatrix, or X itself when it
    is already a list of rows (calibration passes rows of plain integers)."""
    if not isinstance(X, RectMatrix):
        return X
    if X.k != 2:
        raise ShapeError(f"expected two columns, got {X.k}")
    return X.rows()


def diffdiff_rhs(X, l: int) -> Scalar:
    """det2 of (row1 - row2) against (row l - row l+1)."""
    r = _rows2(X)
    u = [r[0][0] - r[1][0], r[0][1] - r[1][1]]
    v = [r[l - 1][0] - r[l][0], r[l - 1][1] - r[l][1]]
    return _det2(u, v)


def diffsum_rhs(X, k: int) -> Scalar:
    """Alternating sum over l = 3..n-k+3 of det2 of (row1 - row2) against row l."""
    r = _rows2(X)
    u = [r[0][0] - r[1][0], r[0][1] - r[1][1]]
    return sum((-1) ** l * _det2(u, r[l - 1]) for l in range(3, len(r) - k + 4))


def plainsum_rhs(X, k: int) -> Scalar:
    """The truncated two-column determinant expansion on rows 1..n-k+2:
    det2(r1, r2) plus signed cross terms against and among rows 3..n-k+2."""
    r = _rows2(X)
    m = len(r) - k + 2
    u = [r[0][0] - r[1][0], r[0][1] - r[1][1]]
    return (_det2(r[0], r[1])
            + sum((-1) ** l * _det2(u, r[l - 1]) for l in range(3, m + 1))
            - sum((-1) ** (l + mm) * _det2(r[l - 1], r[mm - 1])
                  for l in range(3, m + 1) for mm in range(l + 1, m + 1)))


def _diffdiff_pattern(field: FieldSpec, n: int, k: int, l: int) -> RectMatrix:
    z, o = field.zero, field.one
    cols = [[z] * n for _ in range(k - 2)]
    cols[0][0] = cols[0][1] = o
    cols[1][l - 1] = cols[1][l] = o
    extra = [t for t in range(3, n + 1) if t not in (l, l + 1)][: k - 4]
    for a, t in enumerate(extra):
        cols[a + 2][t - 1] = o
    return RectMatrix.from_columns(field, cols)


def _diffsum_pattern(field: FieldSpec, n: int, k: int) -> RectMatrix:
    z, o = field.zero, field.one
    cols = [[z] * n for _ in range(k - 2)]
    cols[0][0] = cols[0][1] = o
    for i in range(1, k - 2):
        cols[i][n - k + 3 + i - 1] = o
    return RectMatrix.from_columns(field, cols)


def _plainsum_pattern(field: FieldSpec, n: int, k: int) -> RectMatrix:
    z, o = field.zero, field.one
    cols = [[z] * n for _ in range(k - 2)]
    for i in range(1, k - 1):
        cols[i - 1][n - k + 2 + i - 1] = o
    return RectMatrix.from_columns(field, cols)


_SIGN_CACHE: dict[tuple, int] = {}


def _pair_dets(pattern: RectMatrix) -> list[int]:
    """det(e_a | e_b | pattern) over the integers for the rows a < b in
    lexicographic order, from one row sweep: with x_a = 2**(w*a) and
    y_b = 2**(w*n*b) in the two new columns, it is the signed base-2**w
    digit a + n*b, the coefficient of x_a*y_b."""
    (rows,), _ = raw_rows(pattern)
    n, k = pattern.n, pattern.k + 2
    top = max(1, max(abs(x) for row in rows for x in row))
    w = (perm(n, k) * top ** k).bit_length() + 1
    digits = _digits(sweep([[1 << w * i, 1 << w * n * i] + row for i, row in enumerate(rows)], k),
                     w, n * n)
    return [digits[a + n * b] for a, b in combinations(range(n), 2)]


def _completion(key: tuple, pattern_fn, rhs_fn, field: FieldSpec) -> RectMatrix:
    """pattern_fn(field) with its last column times the sign making det(X|B)
    equal rhs_fn(X) for every X.

    Both sides are bilinear and alternating in the columns of X with integer
    coefficients, so they agree everywhere exactly when they agree on each
    X = (e_a | e_b), a < b, over the integers.  The first pair with a nonzero
    target fixes the sign, cached per key, and every pair checks it;
    CalibrationError if no sign works.
    """
    eps = _SIGN_CACHE.get(key)
    if eps is None:
        A = pattern_fn(RATIONALS)
        pairs = list(zip(_pair_dets(A), (rhs_fn([[int(i == a), int(i == b)] for i in range(A.n)])
                                         for a, b in combinations(range(A.n), 2))))
        eps = next((1 if lhs == r else -1 for lhs, r in pairs if r), 0)
        if not eps or any(eps * lhs != r for lhs, r in pairs):
            raise CalibrationError(f"{key}: no last-column sign matches the target identity")
        _SIGN_CACHE[key] = eps
    B = pattern_fn(field)
    return B.with_scaled_column(B.k, eps)


def make_b_diffdiff(n: int, k: int, l: int, field: FieldSpec) -> RectMatrix:
    """Completion whose join with any two-column X has determinant
    diffdiff_rhs(X, l)."""
    if not (n >= k >= 4):
        raise ShapeError(f"need n >= k >= 4, got n={n}, k={k}")
    if not (2 < l < n):
        raise ShapeError(f"need 2 < l < n, got l={l}")
    return _completion(("diffdiff", n, k, l), lambda F: _diffdiff_pattern(F, n, k, l),
                       lambda X: diffdiff_rhs(X, l), field)


def make_b_diffsum(n: int, k: int, field: FieldSpec) -> RectMatrix:
    """Completion whose join with any two-column X has determinant
    diffsum_rhs(X, k)."""
    if not (n >= k >= 3):
        raise ShapeError(f"need n >= k >= 3, got n={n}, k={k}")
    return _completion(("diffsum", n, k), lambda F: _diffsum_pattern(F, n, k),
                       lambda X: diffsum_rhs(X, k), field)


def make_b_plainsum(n: int, k: int, field: FieldSpec) -> RectMatrix | None:
    """Completion whose join with any two-column X has determinant
    plainsum_rhs(X, k).  For k = 2 the completion is empty: None is returned
    and the identity degrades to det(X) itself."""
    if not (n >= k >= 2):
        raise ShapeError(f"need n >= k >= 2, got n={n}, k={k}")
    if k == 2:
        return None
    return _completion(("plainsum", n, k), lambda F: _plainsum_pattern(F, n, k),
                       lambda X: plainsum_rhs(X, k), field)
