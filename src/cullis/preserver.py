"""Linear endomorphisms of the n x k matrix space and determinant preservation.

A map is stored as its (nk) x (nk) matrix acting on the column-major
flattening, which keeps composition, invertibility checks and exhaustive
enumeration uniform.  Preservation can be decided three ways with an explicit
soundness hierarchy: exhaustively over small finite spaces, symbolically and
exactly over any field from the polynomial det(T(X)) - det(X), or by random
sampling (which can only ever refute, never certify).

On that flattening the two-sided map X -> A X B is the Kronecker product
B^T (x) A.  `make_two_sided` writes it entry by entry and `factor_two_sided`
reads A and B back from its blocks, accepting them only if they rebuild the
map; invertibility is a rank test by `matrix.eliminate`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from operator import mul

from . import combinatorics as comb_mod
from . import sympoly
from .determinant import det, sweep
from .errors import (
    BudgetExceeded,
    FieldMismatch,
    ParityError,
    ShapeError,
    ShapeMismatch,
)
from .fields import FieldSpec, Scalar
from .lambdapoly import max_deg_of_columns, max_deg_over_all_A
from .matrix import (
    RectMatrix,
    basis_matrix,
    identity,
    ones,
    rank,
    random_matrix,
    submatrix_keep,
    unvec,
    vec,
    zeros,
)

DEFAULT_SEARCH_BUDGET = 1_000_000


class LinearMapNK:
    """A linear map on n x k matrices, as a square matrix on vec(X)."""

    __slots__ = ("n", "k", "field", "mat")

    def __init__(self, n: int, k: int, mat: RectMatrix):
        if mat.n != n * k or mat.k != n * k:
            raise ShapeMismatch(f"map matrix {mat.n}x{mat.k} for shape {n}x{k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "field", mat.field)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError("LinearMapNK is immutable")

    @classmethod
    def identity_map(cls, field: FieldSpec, n: int, k: int) -> "LinearMapNK":
        return cls(n, k, identity(field, n * k))

    @classmethod
    def from_function(cls, field: FieldSpec, n: int, k: int, fn) -> "LinearMapNK":
        """Build the matrix of a linear function from its unit-matrix images."""
        return cls(n, k, RectMatrix.from_columns(field, [
            vec(fn(basis_matrix(field, n, k, i, j)))
            for j in range(1, k + 1) for i in range(1, n + 1)]))

    def apply(self, X: RectMatrix) -> RectMatrix:
        if (X.n, X.k) != (self.n, self.k):
            raise ShapeMismatch(f"{X.n}x{X.k} input for {self.n}x{self.k} map")
        if X.field != self.field:
            raise FieldMismatch(f"{X.field!r} vs {self.field!r}")
        v = [e.value for e in vec(X)]
        ent = self.mat.entries
        nk = len(v)
        # raw row times vec(X); zero products are skipped (maps are mostly
        # sparse, and products of Fractions are costly)
        out = [sum(e.value * x for e, x in zip(ent[r * nk:(r + 1) * nk], v) if e.value and x)
               for r in range(nk)]
        return unvec(out, self.n, self.k, self.field)

    def compose(self, other: "LinearMapNK") -> "LinearMapNK":
        """self after other."""
        if (self.n, self.k) != (other.n, other.k):
            raise ShapeMismatch("composition of maps on different shapes")
        return LinearMapNK(self.n, self.k, self.mat @ other.mat)

    def is_invertible(self) -> bool:
        return rank(self.mat) == self.n * self.k

    def __eq__(self, other):
        return (
            isinstance(other, LinearMapNK)
            and (self.n, self.k) == (other.n, other.k)
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.n, self.k, self.mat))

    def __repr__(self):
        return f"LinearMapNK({self.n}x{self.k} over {self.field!r})"


@dataclass(frozen=True)
class PreserverReport:
    """Outcome of a preservation check; `violates` always carries a witness."""

    verdict: str  # "preserves" | "violates" | "inconclusive"
    method: str  # "exhaustive" | "symbolic" | "random"
    witness: RectMatrix | None = None
    samples: int | None = None
    seed: int | None = None

    @property
    def preserves(self) -> bool:
        return self.verdict == "preserves"


def _check_factors(A: RectMatrix, B: RectMatrix) -> tuple[int, int]:
    if A.n != A.k or B.n != B.k:
        raise ShapeMismatch("both factors must be square")
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    return A.n, B.n


def make_two_sided(A: RectMatrix, B: RectMatrix) -> LinearMapNK:
    """The map X -> A @ X @ B for square A (n x n) and B (k x k).

    Its matrix is the Kronecker product B^T (x) A, since
    vec(A X B) = (B^T (x) A) vec(X): row (j, i), column (l, m), i.e.
    row j*n + i and column l*n + m, holds B[l, j] * A[i, m].
    """
    n, k = _check_factors(A, B)
    a, b = A.entries, B.entries
    ent = [b[l * k + j] * a[i * n + m]
           for j in range(k) for i in range(n) for l in range(k) for m in range(n)]
    return LinearMapNK(n, k, RectMatrix(A.field, n * k, n * k, ent))


def check_sign_condition(A: RectMatrix, B: RectMatrix) -> bool:
    """True when det(columns d of A) * det(B) equals the sign of d for every
    column k-subset d; equivalent to X -> A @ X @ B preserving det."""
    n, k = _check_factors(A, B)
    if k > n:
        raise ShapeError(f"inner size {k} exceeds outer size {n}")
    det_b = det(B)
    all_rows = range(1, n + 1)
    for d in combinations(range(1, n + 1), k):
        lhs = det(submatrix_keep(A, all_rows, d)) * det_b
        if lhs != A.field.element(comb_mod.sgn_of_subset(d)):
            return False
    return True


# -- preservation checking -------------------------------------------------------


def _det_table(n: int, k: int, p: int, budget: int | None = None) -> list[int]:
    """det(X) mod p for every n x k matrix X over GF(p), indexed by the
    base-p code of vec(X) (first coordinate most significant), so that entry
    i belongs to the i-th vector of product(range(p), repeat=nk)."""
    nk = n * k
    total = p ** nk
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceeded(f"{total} inputs exceeds budget {limit}")
    # vec(X) is column-major, so row i of X is v[i], v[i + n], v[i + 2n], ...
    return [sweep([v[i::n] for i in range(n)], k) % p
            for v in product(range(p), repeat=nk)]


def _first_violation(rows, table: list[int], p: int, vecs) -> tuple[int, ...] | None:
    """First v among `vecs` (in product order, so v's code is its position)
    whose image under the map with raw matrix rows `rows` changes det."""
    for code, v in enumerate(vecs):
        y = 0
        for r in rows:
            y = y * p + sum(map(mul, r, v)) % p
        if table[y] != table[code]:
            return v
    return None


def _is_preserver_exhaustive(T: LinearMapNK, budget: int | None) -> PreserverReport:
    if T.field.kind != "prime":
        raise FieldMismatch("exhaustive checking needs a finite field")
    p = T.field.p
    nk = T.n * T.k
    table = _det_table(T.n, T.k, p, budget)
    rows = [[e.value for e in T.mat.row(i)] for i in range(1, nk + 1)]
    v = _first_violation(rows, table, p, product(range(p), repeat=nk))
    if v is not None:
        witness = unvec([T.field.element(x) for x in v], T.n, T.k, T.field)
        return PreserverReport("violates", "exhaustive", witness)
    return PreserverReport("preserves", "exhaustive")


def _random_violation(T: LinearMapNK, samples: int, seed: int) -> RectMatrix | None:
    rng = random.Random(seed)
    for _ in range(samples):
        X = random_matrix(T.field, T.n, T.k, rng)
        if det(T.apply(X)) != det(X):
            return X
    return None


def _is_preserver_symbolic(T: LinearMapNK, budget: int | None) -> PreserverReport:
    """Expand D = det(T(X)) - det(X) and fold it (`sympoly.fold`): T
    preserves exactly when D folds to nothing, and otherwise the witness is
    read off D by `sympoly.nonzero_point`."""
    mat_rows = [[e.value for e in T.mat.row(i)] for i in range(1, T.n * T.k + 1)]
    diff = sympoly.det_poly_of_map(mat_rows, T.n, T.k, T.field, budget)
    for mono, c in sympoly.det_poly_identity(T.n, T.k, T.field).items():
        diff[mono] = diff.get(mono, 0) - c
    point = sympoly.nonzero_point(sympoly.fold(diff, T.field), T.n * T.k, T.field)
    if point is None:
        return PreserverReport("preserves", "symbolic")
    witness = unvec([T.field.element(x) for x in point], T.n, T.k, T.field)
    return PreserverReport("violates", "symbolic", witness)


def is_preserver(
    T: LinearMapNK,
    method: str = "symbolic",
    budget: int | None = None,
    samples: int = 200,
    seed: int = 0,
) -> PreserverReport:
    """Decide whether det(T(X)) = det(X) for all X.

    `exhaustive` sweeps every matrix over a finite field (space permitting).
    `symbolic` expands det(T(X)) - det(X), reduced by x**p = x over GF(p),
    and is exact over every field, small ones included; a violation carries
    a witness read off that polynomial, and neither verdict depends on
    `seed`.  `random` draws `samples` matrices from `seed` and can only
    return `violates` or `inconclusive`.
    """
    if T.k > T.n:
        raise ShapeError(f"{T.n}x{T.k}: need at least as many rows as columns")
    if method == "exhaustive":
        return _is_preserver_exhaustive(T, budget)
    if method == "symbolic":
        return _is_preserver_symbolic(T, budget)
    if method == "random":
        witness = _random_violation(T, samples, seed)
        if witness is not None:
            return PreserverReport("violates", "random", witness, samples, seed)
        return PreserverReport("inconclusive", "random", None, samples, seed)
    raise ValueError(f"unknown method {method!r}")


# -- constructions ----------------------------------------------------------------


def s_shift_apply(X: RectMatrix, i: int, j: int) -> RectMatrix:
    """Semi-cyclic shift with sign corrections, applied directly to X:
    rows i..n then negated rows 1..i-1, columns 1 and j exchanged, the new
    first column negated unless j = 1, everything scaled by (-1)**(n-i)."""
    n = X.n
    if not 1 <= i <= n:
        raise ShapeError(f"row {i} outside 1..{n}")
    if not 1 <= j <= X.k:
        raise ShapeError(f"column {j} outside 1..{X.k}")
    rows = [X.row(r) for r in range(i, n + 1)]
    rows += [[-v for v in X.row(r)] for r in range(1, i)]
    if j != 1:
        for r in rows:
            r[0], r[j - 1] = r[j - 1], r[0]
            r[0] = -r[0]
    if (n - i) & 1:
        rows = [[-v for v in r] for r in rows]
    return RectMatrix.from_rows(X.field, rows)


def make_s_shift(n: int, k: int, i: int, j: int, field: FieldSpec) -> LinearMapNK:
    """The semi-cyclic shift map as a linear endomorphism; invertible by
    construction, and determinant preserving whenever n + k is even."""
    return LinearMapNK.from_function(field, n, k, lambda X: s_shift_apply(X, i, j))


def _corner_sums(X: RectMatrix) -> Scalar:
    """S1 + (-1)**n * S2 with S1, S2 the alternating sums of the inner rows
    of the two columns; the parity twist keeps the rewrite identity exact for
    odd row counts as well."""
    s1, s2 = (sum(((-1) ** r * X.entry(r, j) for r in range(2, X.n)), X.field.zero)
              for j in (1, 2))
    return s1 + s2 if X.n % 2 == 0 else s1 - s2


def detn2_partner(X: RectMatrix) -> RectMatrix:
    """The corner-swapped partner of a two-column matrix: replaces the (1,1)
    entry by D + x[n,2] and the (n,2) entry by -D + x[1,1], where D is the
    signed corner sum; has the same determinant as X."""
    if X.k != 2:
        raise ShapeError(f"expected two columns, got {X.k}")
    if X.n < 2:
        raise ShapeError("need at least two rows")
    n = X.n
    d = _corner_sums(X)
    rows = X.rows()
    rows[0] = [d + X.entry(n, 2), X.entry(1, 2)]
    rows[n - 1] = [X.entry(n, 1), -d + X.entry(1, 1)]
    return RectMatrix.from_rows(X.field, rows)


def verify_detn2_identity(X: RectMatrix) -> bool:
    """Check det(X) = det(partner of X) on a concrete two-column input."""
    return det(X) == det(detn2_partner(X))


def make_k2_counterexample(n: int, field: FieldSpec) -> LinearMapNK:
    """The two-column determinant preserver that swaps opposite corner cells
    through signed sums; not expressible as X -> A @ X @ B."""
    if n < 4:
        raise ShapeError(f"need at least 4 rows, got {n}")
    return LinearMapNK.from_function(field, n, 2, detn2_partner)


def make_singular_preserver(n: int, k: int, field: FieldSpec) -> LinearMapNK:
    """A noninvertible determinant preserver X -> X - x[1,1] * J, available
    exactly when n + k is odd (then the all-ones matrix J has vanishing
    interaction with every coefficient of det(V + t*J))."""
    if (n + k) % 2 == 0:
        raise ParityError(f"n + k = {n + k} must be odd")
    if k > n:
        raise ShapeError(f"{n}x{k}: need at least as many rows as columns")
    J = ones(field, n, k)

    def fn(X: RectMatrix) -> RectMatrix:
        return X - J.scale(X.entry(1, 1))

    return LinearMapNK.from_function(field, n, k, fn)


# -- radical ----------------------------------------------------------------------


def in_radical(W: RectMatrix) -> bool:
    """True when det(V + t*W) = det(V) holds identically in t for every V."""
    if W.k > W.n:
        raise ShapeError(f"{W.n}x{W.k}: need at least as many rows as columns")
    return max_deg_over_all_A(W) == 0


def radical_enumerate(n: int, k: int, p: int, budget: int | None = None) -> list[RectMatrix]:
    """All matrices over GF(p) lying in the radical of the determinant,
    enumerated in row-major lexicographic order."""
    from .fields import gf

    field = gf(p)
    total = p ** (n * k)
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceeded(f"{total} matrices exceeds budget {limit}")
    if k > n:
        raise ShapeError(f"{n}x{k}: need at least as many rows as columns")
    out = []
    for flat in product(range(p), repeat=n * k):
        # flat is row-major, so column j is flat[j], flat[j + k], ...
        if max_deg_of_columns([flat[j::k] for j in range(k)], n, p) == 0:
            out.append(RectMatrix(field, n, k, [field.element(x) for x in flat]))
    return out


# -- factorisation ------------------------------------------------------------------


def factor_two_sided(T: LinearMapNK) -> tuple[RectMatrix, RectMatrix] | None:
    """Recover (A, B) with T(X) = A @ X @ B, or None when T is no such map.

    T's matrix is B^T (x) A exactly when it is one (`make_two_sided`), so its
    n x n block (j, l) is B[l, j] * A.  The block holding the first nonzero
    entry gives A, and that entry's position in every block gives B.  A is
    normalised so the first nonzero entry of its first nonzero column is 1;
    the pair is returned only if it rebuilds T.
    """
    n, k, field = T.n, T.k, T.field
    nk = n * k
    ent = T.mat.entries
    first = next((idx for idx, e in enumerate(ent) if e.value), None)
    if first is None:
        return zeros(field, n, n), identity(field, k)
    row, col = divmod(first, nk)
    (j0, i0), (l0, m0) = divmod(row, n), divmod(col, n)
    A = RectMatrix(field, n, n, [ent[(j0 * n + i) * nk + l0 * n + m]
                                 for i in range(n) for m in range(n)])
    inv = ent[first].inverse()
    B = RectMatrix(field, k, k, [ent[(j * n + i0) * nk + l * n + m0] * inv
                                 for l in range(k) for j in range(k)])
    alpha = next(x for c in A.columns() for x in c if x.value)
    A, B = A.scale(alpha.inverse()), B.scale(alpha)
    return (A, B) if make_two_sided(A, B) == T else None


# -- enumeration ---------------------------------------------------------------------


@dataclass(frozen=True)
class Census:
    """Exhaustive census of determinant preservers over a small field."""

    count: int
    maps: tuple[LinearMapNK, ...]


def enumerate_preservers(n: int, k: int, p: int, budget: int | None = None) -> Census:
    """Every linear map over GF(p) passing the exhaustive preservation check,
    iterated in row-major lexicographic matrix order."""
    from .fields import gf

    field = gf(p)
    nk = n * k
    space = p ** (nk * nk)
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if space > limit:
        raise BudgetExceeded(f"{space} maps exceeds budget {limit}")

    table = _det_table(n, k, p, budget)
    vecs = list(product(range(p), repeat=nk))

    found = []
    for flat in product(range(p), repeat=nk * nk):
        rows = [flat[r * nk : (r + 1) * nk] for r in range(nk)]
        if _first_violation(rows, table, p, vecs) is None:
            mat = RectMatrix.from_rows(field, [[field.element(x) for x in r] for r in rows])
            found.append(LinearMapNK(n, k, mat))
    return Census(len(found), tuple(found))


def check_k1_form(T: LinearMapNK) -> bool:
    """For single-column maps X -> A @ X: true when every column of A has
    alternating sum (-1)**(i-1), which characterises preservation."""
    if T.k != 1:
        raise ShapeError(f"map acts on width {T.k}, expected 1")
    return all(sum((-1) ** r * v for r, v in enumerate(T.mat.column(i))) == (-1) ** (i - 1)
               for i in range(1, T.n + 1))
