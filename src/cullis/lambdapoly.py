"""The formal polynomial det(A + t*B) and the rank/degree machinery built on it.

The coefficient of t**d is a sum over d-subsets S of column positions of the
determinant with B's columns substituted at S and A's columns elsewhere.  Each
coefficient is multilinear in A's remaining columns, and summands for distinct
S have disjoint monomial supports, so "vanishes for every A" can be decided
exactly by sweeping standard basis vectors through the free column slots.

Also houses the three completion constructors: fixed patterns B such that
det(X|B) collapses, for every X with two columns, to a prescribed combination
of 2x2 determinants.  Their last-column signs are not derivable from a closed
formula here; each constructor calibrates the sign once against the target
expression on deterministic pseudo-random inputs over GF(10007) and fails
loudly if neither sign reproduces the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import perm

from .determinant import det, det_int, sweep
from .errors import CalibrationError, FieldMismatch, ShapeError, ShapeMismatch
from .fields import FieldSpec, Scalar, gf
from .matrix import RectMatrix, from_raw, hjoin, raw_rows

CALIBRATION_PRIME = 10007
# splitmix64 stream seed; fixed so calibration inputs are identical everywhere
CALIBRATION_SEED = 0x5EED_0F_C01115


@dataclass(frozen=True)
class LambdaPoly:
    """Coefficient vector (a_0, ..., a_k) of det(A + t*B), trailing zeros kept."""

    coeffs: tuple[Scalar, ...]
    field: FieldSpec

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

    def __call__(self, lam) -> Scalar:
        return self.evaluate(lam)


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
    coeffs = []
    for _ in range(k + 1):
        c = packed & ((1 << w) - 1)
        if c >> (w - 1):
            c -= 1 << w
        coeffs.append(from_raw(A.field, c, scale))
        packed = (packed - c) >> w
    return LambdaPoly(tuple(coeffs), A.field)


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


def max_deg_of_columns(cols: list[list[int]], n: int, p: int | None) -> int:
    """`max_deg_over_all_A` on raw columns of an n-row matrix."""
    k = len(cols)
    for d in range(k, 0, -1):
        for S in combinations(range(k), d):
            if _first_completion([cols[j] for j in S], n, k - d, p) is not None:
                return d
    return 0


def max_deg_over_all_A(B: RectMatrix) -> int:
    """Exact maximum over all A of the formal degree of det(A + t*B).

    Checked from degree k downward; a coefficient vanishes for every A
    exactly when it vanishes with standard basis vectors in every free
    column slot.
    """
    if B.k > B.n:
        raise ShapeError(f"{B.n}x{B.k}: need at least as many rows as columns")
    cols, p = _raw_columns(B)
    return max_deg_of_columns(cols, B.n, p)


def deg_witness(B: RectMatrix, d: int) -> RectMatrix | None:
    """An A made of basis columns whose degree-d coefficient against B is
    nonzero, or None when no A at all produces one."""
    if B.k > B.n:
        raise ShapeError(f"{B.n}x{B.k}: need at least as many rows as columns")
    if not 2 <= d <= B.k:
        raise ShapeError(f"degree {d} outside 2..{B.k}")
    n, k = B.n, B.k
    cols, p = _raw_columns(B)
    for S in combinations(range(k), d):
        free = [j for j in range(k) if j not in S]
        R = _first_completion([cols[j] for j in S], n, k - d, p)
        if R is not None:
            z, o = B.field.zero, B.field.one
            wcols = [[z] * n for _ in range(k)]
            for j, t in zip(free, R):
                wcols[j][t] = o
            return RectMatrix.from_columns(B.field, wcols)
    return None


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


def _det2(u: list[Scalar], v: list[Scalar]) -> Scalar:
    return u[0] * v[1] - u[1] * v[0]


def _rows2(X: RectMatrix) -> list[list[Scalar]]:
    if X.k != 2:
        raise ShapeError(f"expected two columns, got {X.k}")
    return X.rows()


def diffdiff_rhs(X: RectMatrix, l: int) -> Scalar:
    """det2 of (row1 - row2) against (row l - row l+1)."""
    r = _rows2(X)
    u = [r[0][0] - r[1][0], r[0][1] - r[1][1]]
    v = [r[l - 1][0] - r[l][0], r[l - 1][1] - r[l][1]]
    return _det2(u, v)


def diffsum_rhs(X: RectMatrix, k: int) -> Scalar:
    """Alternating sum over l = 3..n-k+3 of det2 of (row1 - row2) against row l."""
    r = _rows2(X)
    u = [r[0][0] - r[1][0], r[0][1] - r[1][1]]
    acc = X.field.zero
    for l in range(3, X.n - k + 4):
        term = _det2(u, r[l - 1])
        acc = acc + term if l % 2 == 0 else acc - term
    return acc


def plainsum_rhs(X: RectMatrix, k: int) -> Scalar:
    """The truncated two-column determinant expansion on rows 1..n-k+2:
    det2(r1, r2) plus signed cross terms against and among rows 3..n-k+2."""
    r = _rows2(X)
    m = X.n - k + 2
    acc = _det2(r[0], r[1])
    u = [r[0][0] - r[1][0], r[0][1] - r[1][1]]
    for l in range(3, m + 1):
        term = _det2(u, r[l - 1])
        acc = acc + term if l % 2 == 0 else acc - term
    for l in range(3, m + 1):
        for mm in range(l + 1, m + 1):
            term = _det2(r[l - 1], r[mm - 1])
            acc = acc + term if (l + mm) % 2 == 1 else acc - term
    return acc


def _splitmix(counter: int) -> int:
    z = (CALIBRATION_SEED + counter * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _calibration_x(field: FieldSpec, n: int, attempt: int) -> RectMatrix:
    base = attempt * 4096
    ent = [field.element(_splitmix(base + t) % CALIBRATION_PRIME) for t in range(2 * n)]
    return RectMatrix(field, n, 2, ent)


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


def _calibrate_sign(key: tuple, pattern_fn, rhs_fn, n: int) -> int:
    """Determine the last-column sign making det(X|B) match rhs_fn for all X.

    One informative deterministic input fixes the sign; three further inputs
    cross-check it.  Raises CalibrationError when no sign works.
    """
    eps = _SIGN_CACHE.get(key)
    if eps is not None:
        return eps
    F = gf(CALIBRATION_PRIME)
    A = pattern_fn(F)
    for attempt in range(64):
        X = _calibration_x(F, n, attempt)
        r = rhs_fn(X)
        if not r.value:
            continue
        lhs = det(hjoin(X, A))
        if lhs == r:
            eps = 1
        elif lhs == -r:
            eps = -1
        else:
            raise CalibrationError(f"{key}: no last-column sign matches the target identity")
        break
    else:
        raise CalibrationError(f"{key}: calibration stream never produced a nonzero target")
    B = A.with_scaled_column(A.k, eps)
    for check in range(attempt + 1, attempt + 4):
        X = _calibration_x(F, n, check)
        if det(hjoin(X, B)) != rhs_fn(X):
            raise CalibrationError(f"{key}: calibrated sign failed cross-check")
    _SIGN_CACHE[key] = eps
    return eps


def make_b_diffdiff(n: int, k: int, l: int, field: FieldSpec) -> RectMatrix:
    """Completion whose join with any two-column X has determinant
    diffdiff_rhs(X, l)."""
    if not (n >= k >= 4):
        raise ShapeError(f"need n >= k >= 4, got n={n}, k={k}")
    if not (2 < l < n):
        raise ShapeError(f"need 2 < l < n, got l={l}")
    eps = _calibrate_sign(
        ("diffdiff", n, k, l),
        lambda F: _diffdiff_pattern(F, n, k, l),
        lambda X: diffdiff_rhs(X, l),
        n,
    )
    return _diffdiff_pattern(field, n, k, l).with_scaled_column(k - 2, eps)


def make_b_diffsum(n: int, k: int, field: FieldSpec) -> RectMatrix:
    """Completion whose join with any two-column X has determinant
    diffsum_rhs(X, k)."""
    if not (n >= k >= 3):
        raise ShapeError(f"need n >= k >= 3, got n={n}, k={k}")
    eps = _calibrate_sign(
        ("diffsum", n, k),
        lambda F: _diffsum_pattern(F, n, k),
        lambda X: diffsum_rhs(X, k),
        n,
    )
    return _diffsum_pattern(field, n, k).with_scaled_column(k - 2, eps)


def make_b_plainsum(n: int, k: int, field: FieldSpec) -> RectMatrix | None:
    """Completion whose join with any two-column X has determinant
    plainsum_rhs(X, k).  For k = 2 the completion is empty: None is returned
    and the identity degrades to det(X) itself."""
    if not (n >= k >= 2):
        raise ShapeError(f"need n >= k >= 2, got n={n}, k={k}")
    if k == 2:
        return None
    eps = _calibrate_sign(
        ("plainsum", n, k),
        lambda F: _plainsum_pattern(F, n, k),
        lambda X: plainsum_rhs(X, k),
        n,
    )
    return _plainsum_pattern(field, n, k).with_scaled_column(k - 2, eps)
