"""Linear endomorphisms of the n x k matrix space and determinant preservation.

A map is stored as its (nk) x (nk) matrix acting on the column-major
flattening, which keeps composition, invertibility checks and exhaustive
enumeration uniform.  Preservation can be decided three ways with an explicit
soundness hierarchy: exhaustively over small finite spaces, symbolically and
exactly over any field from the polynomial det(T(X)) - det(X), or by random
sampling (which can only ever refute, never certify).

On that flattening the two-sided map X -> A X B is the Kronecker product
B^T (x) A.  `make_two_sided` writes it entry by entry; `_kronecker` decides
on raw values whether a matrix is one, by the rank-one test on its blocks,
and gives integer factors.  `factor_two_sided` reads A and B off them, and
the symbolic check of such a map needs no polynomial: with
w_d = det(B) det(A[:, d]) - sgn(d) (`_first_failure`), Cauchy-Binet gives
D = det(AXB) - det(X) = sum_d w_d det(X_d), so the weights decide it and
the first nonzero one gives the witness.  Any other map takes the row sweep
(`_sweep_report`).  Both routes work on integers: a map over QQ is cleared
once into M = s T (`_cleared`), the sweep expands s**k D and the weights
come as q w_d.  A nonzero multiple is zero exactly where D is, so verdict
and witness are D's own.  Invertibility is a rank test by `matrix.eliminate`.
The radical of det is decided in `lambdapoly`, in closed form beside the completion scan.

The exhaustive routines index the matrices over GF(p) by the base-p code of
vec(X), so code i is the i-th vector in product order.  One lane kernel,
`lanes.det_lanes` (loaded by the first exhaustive check or census),
computes det(T v) for a whole block of inputs at once, one byte per input
for p <= 13.
Run on the identity it fills the det table (`_det_table`); run on T, each
block is compared with its slice of the table in one `==`, and the first
differing byte is the witness.  The census fixes T's columns last
coordinate first: each new column decides exactly the inputs whose first
nonzero coordinate it owns, a contiguous run of codes.  By homogeneity of
det only the run's first scaling needs testing, and its candidates are
filtered in bulk, one byte per candidate code.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from math import comb, lcm

from .determinant import (_cheaper, _entry_weight, _guard, _guard_power, _require_tall, det,
                          semicyclic_shift)
from .errors import (
    FieldMismatch,
    ParityError,
    ShapeError,
    ShapeMismatch,
)
from .fields import FieldSpec, gf, rational
from .matrix import (
    RectMatrix,
    _check_shape,
    _unvec_values,
    _units,
    _vec_values,
    basis_matrix,
    basis_selector,
    identity,
    rank,
    random_matrix,
    unvec,
    zeros,
)
from .record import Record, set_field


class LinearMapNK(Record):
    """A linear map on n x k matrices, as a square matrix on vec(X)."""

    __slots__ = ("n", "k", "mat")

    def __init__(self, n: int, k: int, mat: RectMatrix):
        _check_shape(n, k)
        if mat.n != n * k or mat.k != n * k:
            raise ShapeMismatch(f"map matrix {mat.n}x{mat.k} for shape {n}x{k}")
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "mat", mat)

    @property
    def field(self) -> FieldSpec:
        return self.mat.field

    @classmethod
    def identity_map(cls, field: FieldSpec, n: int, k: int) -> "LinearMapNK":
        return cls(n, k, identity(field, n * k))

    @classmethod
    def from_function(cls, field: FieldSpec, n: int, k: int, fn) -> "LinearMapNK":
        """Build the matrix of a linear function from its unit-matrix images."""
        images = []
        for j in range(1, k + 1):
            for i in range(1, n + 1):
                Y = fn(basis_matrix(field, n, k, i, j))
                if Y.field != field:
                    raise FieldMismatch(f"image over {Y.field!r}, expected {field!r}")
                if (Y.n, Y.k) != (n, k):
                    raise ShapeMismatch(f"{Y.n}x{Y.k} image for an {n}x{k} map")
                images.append(_vec_values(Y))
        nk = n * k
        return cls(n, k, RectMatrix._of(field, nk, nk, tuple(chain.from_iterable(zip(*images)))))

    def apply(self, X: RectMatrix) -> RectMatrix:
        if (X.n, X.k) != (self.n, self.k):
            raise ShapeMismatch(f"{X.n}x{X.k} input for {self.n}x{self.k} map")
        if X.field != self.field:
            raise FieldMismatch(f"{X.field!r} vs {self.field!r}")
        column = RectMatrix._of(self.field, self.mat.n, 1, _vec_values(X))
        return _unvec_values((self.mat @ column).values, self.n, self.k, self.field)

    def compose(self, other: "LinearMapNK") -> "LinearMapNK":
        """self after other."""
        if (self.n, self.k) != (other.n, other.k):
            raise ShapeMismatch("composition of maps on different shapes")
        return LinearMapNK(self.n, self.k, self.mat @ other.mat)

    def is_invertible(self) -> bool:
        return rank(self.mat) == self.n * self.k

    def __repr__(self):
        return f"LinearMapNK({self.n}x{self.k} over {self.field!r})"


class PreserverReport(Record):
    """Outcome of a preservation check; `violates` always carries a witness.
    The verdict is "preserves", "violates" or "inconclusive", the method
    "exhaustive", "symbolic" or "random"."""

    __slots__ = ("verdict", "method", "witness", "samples", "seed")

    def __init__(self, verdict: str, method: str, witness: RectMatrix | None = None,
                 samples: int | None = None, seed: int | None = None):
        set_field(self, "verdict", verdict)
        set_field(self, "method", method)
        set_field(self, "witness", witness)
        set_field(self, "samples", samples)
        set_field(self, "seed", seed)

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
    p = A.field.p
    arows = [A.values[i * n:(i + 1) * n] for i in range(n)]
    bcols = [B.values[j::k] for j in range(k)]  # B[l, j] for every l
    if p:
        ent = [y * x % p for bj in bcols for ai in arows for y in bj for x in ai]
    else:
        ent = [y * x for bj in bcols for ai in arows for y in bj for x in ai]
    return LinearMapNK(n, k, RectMatrix._of(A.field, n * k, n * k, tuple(ent)))


def _cleared(values, p: int | None) -> tuple[list[int], int]:
    """Raw values as integers and the factor s they were multiplied by:
    residues and 1 over GF(p), over QQ s the lcm of the denominators."""
    if p:
        return list(values), 1
    s = lcm(*(v.denominator for v in values))
    return [v.numerator * (s // v.denominator) for v in values], s


def _rows(flat: list, width: int) -> list[list]:
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def _first_failure(a: list, b: list, q: int, k: int, p: int | None, budget: int | None):
    """The first column k-subset d of the n x n integer rows a, in
    lexicographic order, with q * w_d = det(b) * det(a[:, d]) - sgn(d) * q
    nonzero (residues over GF(p), integers over QQ), or None.  For
    X -> A X B with A = a and det(B) = det(b) / q, D = sum_d w_d det(X_d),
    so None means the map preserves det; q is nonzero, also mod p, so no
    inverse of it is needed.  One count, det(b)'s steps plus C(n, k) times
    `_cheaper(n, k)`'s, is checked against budget before any determinant."""
    from . import combinatorics as comb_mod  # the subset signs: no other map command loads them

    n = len(a)
    kernel, steps = _cheaper(n, k)
    kernel_b, steps_b = _cheaper(k, k)
    _guard(steps_b + comb(n, k) * steps, budget)
    db = kernel_b(b, k, p)
    cols = list(zip(*a))
    for d in combinations(range(1, n + 1), k):
        w = db * kernel(list(zip(*(cols[c - 1] for c in d))), k, p) - comb_mod.sgn_of_subset(d) * q
        if w % p if p else w:
            return d
    return None


def check_sign_condition(A: RectMatrix, B: RectMatrix) -> bool:
    """True when det(columns d of A) * det(B) equals the sign of d for every
    column k-subset d; equivalent to X -> A @ X @ B preserving det.  Its
    determinants are counted against DEFAULT_OP_BUDGET first (`_first_failure`)."""
    n, k = _check_factors(A, B)
    if k > n:
        raise ShapeError(f"inner size {k} exceeds outer size {n}")
    p = A.field.p
    a, sa = _cleared(A.values, p)
    b, sb = _cleared(B.values, p)
    return _first_failure(_rows(a, n), _rows(b, k), (sa * sb) ** k, k, p, None) is None


def _kronecker(m: list[int], s: int, n: int, k: int, p: int | None):
    """(a, b, c) with T = (b^T (x) a) / c, for integer rows a (n x n) and
    b (k x k) and a nonzero integer c, when T's row-major entries, given
    as the integers m = s * T (`_cleared`), form such a product; None
    otherwise.

    With f the first nonzero entry, at row (j0, i0) and column (l0, m0),
    T is a Kronecker product exactly when every entry satisfies
    T[(j,i),(l,m)] * f = T[(j,i0),(l,m0)] * T[(j0,i),(l0,m)]; then a is the
    block (j0, l0), b[l][j] = T[(j,i0),(l,m0)] and c = f * s.  The test
    compares whole rows of m in order, mod p over GF(p), and stops at the
    first mismatch.
    """
    nk = n * k
    first = next((idx for idx, x in enumerate(m) if x), None)
    if first is None:
        return [[0] * n for _ in range(n)], [[int(i == j) for j in range(k)] for i in range(k)], 1
    row, col = divmod(first, nk)
    (j0, i0), (l0, m0) = divmod(row, n), divmod(col, n)
    f = m[first]
    finv = pow(f, -1, p) if p else None
    a = [m[at:at + n] for at in range(j0 * n * nk + l0 * n, (j0 + 1) * n * nk, nk)]
    cols = []
    for j in range(k):
        at = j * n * nk
        bj = m[at + i0 * nk + m0:at + (i0 + 1) * nk:n]  # T[(j, i0), (l, m0)] for every l
        cols.append(bj)
        if p:
            bj = [y * finv % p for y in bj]
            for arow in a:
                if m[at:at + nk] != [y * x % p for y in bj for x in arow]:
                    return None
                at += nk
        else:
            for arow in a:
                if [x * f for x in m[at:at + nk]] != [y * x for y in bj for x in arow]:
                    return None
                at += nk
    b = [list(r) for r in zip(*cols)]
    return a, b, f * s


# -- preservation checking -------------------------------------------------------


def _det_table(n: int, k: int, p: int, budget: int | None = None):
    """det(X) mod p for every n x k matrix X over GF(p), indexed by the
    base-p code of vec(X) (first coordinate most significant), so that entry
    i belongs to the i-th vector of product(range(p), repeat=nk): bytes for
    p <= lanes.BYTE_P, else a tuple of ints.

    The budget counts the p**(nk) entries and is checked on every call; the
    tables themselves are read-only and the last eight built are kept.
    """
    _guard_power(p, n * k, budget, "inputs")
    return _filled_table(n, k, p)


@lru_cache(maxsize=8)
def _filled_table(n: int, k: int, p: int):
    """`_det_table` without the budget check: `lanes.det_lanes` of the identity."""
    from .lanes import BYTE_P, det_lanes

    nk = n * k
    lanes = det_lanes([[int(r == m) for r in range(nk)] for m in range(nk)], n, k, p)
    return b"".join(lanes) if p <= BYTE_P else tuple(chain.from_iterable(lanes))


def _lift(maps: list[list[int]], p: int) -> list[int]:
    """For every base-p code z of len(maps) digits, in order, the code of
    (maps[0][z_0], maps[1][z_1], ...): digit-wise maps of whole codes."""
    out = [0]
    for f in maps:
        out = [x * p + y for x in out for y in f]
    return out


def _vector(code: int, p: int, length: int) -> list[int]:
    """The `length` base-p digits of code, most significant first."""
    out = []
    for _ in range(length):
        code, d = divmod(code, p)
        out.append(d)
    return out[::-1]


def _is_preserver_exhaustive(T: LinearMapNK, budget: int | None) -> PreserverReport:
    """Each block's det(T v) lane (`lanes.det_lanes`) against its slice of
    the table; the first input whose entry differs is the witness."""
    if T.field.kind != "prime":
        raise FieldMismatch("exhaustive checking needs a finite field")
    n, k, p = T.n, T.k, T.field.p
    nk = n * k
    table = _det_table(n, k, p, budget)
    from .lanes import det_lanes

    values = T.mat.values
    start = 0
    for got in det_lanes([values[m::nk] for m in range(nk)], n, k, p):
        want = table[start:start + len(got)]
        if got != want:
            code = start + next(j for j, (a, b) in enumerate(zip(got, want)) if a != b)
            witness = _unvec_values(_vector(code, p, nk), n, k, T.field)
            return PreserverReport("violates", "exhaustive", witness)
        start += len(got)
    return PreserverReport("preserves", "exhaustive")


def _sweep_report(T: LinearMapNK, budget: int | None) -> PreserverReport:
    """The symbolic report from the row sweep alone: s**k * D for the
    cleared map M = s T (`_cleared`, `sympoly.det_change`), a nonzero
    multiple of D, so it is zero exactly when D is, and its witness is the
    point `sympoly.nonzero_point` picks on D itself."""
    from . import sympoly

    n, k, field = T.n, T.k, T.field
    m, s = _cleared(T.mat.values, field.p)
    diff = sympoly.det_change(_rows(m, n * k), n, k, s, field.p, budget)
    if not diff:
        return PreserverReport("preserves", "symbolic")
    witness = unvec(sympoly.nonzero_point(diff, n * k, field.p), n, k, field)
    return PreserverReport("violates", "symbolic", witness)


def _is_preserver_symbolic(T: LinearMapNK, budget: int | None) -> PreserverReport:
    """T preserves exactly when D = det(T(X)) - det(X) is zero.  A Kronecker
    product (`_kronecker`) is decided by its sign weights (`_first_failure`),
    and its witness is the unit pattern of the first d with w_d != 0
    (`basis_selector`): there every other minor X_d' has a zero row, so
    D = w_d, and it is the point `sympoly.nonzero_point` picks on D, whose
    lowest monomial is that d's diagonal, the only term on its variables.
    Any other map takes the row sweep (`_sweep_report`), so `sympoly` is
    loaded only for a map that does not factor."""
    n, k, p = T.n, T.k, T.field.p
    split = _kronecker(*_cleared(T.mat.values, p), n, k, p)
    if split is None:
        return _sweep_report(T, budget)
    a, b, c = split
    d = _first_failure(a, b, c ** k, k, p, budget)
    if d is None:
        return PreserverReport("preserves", "symbolic")
    return PreserverReport("violates", "symbolic", basis_selector(T.field, n, d))


def is_preserver(
    T: LinearMapNK,
    method: str = "symbolic",
    budget: int | None = None,
    samples: int = 200,
    seed: int = 0,
) -> PreserverReport:
    """Decide whether det(T(X)) = det(X) for all X.

    `exhaustive` sweeps every matrix over a finite field, p**(nk) inputs
    counted against the search budget; it answers with the first input in
    product order of vec(X) whose image changes det.  Inputs go in blocks of
    at most 2**15 sharing their leading coordinates, each one byte lane per
    coordinate of T(X) for p <= 13, a list of ints above (`lanes.det_lanes`),
    so memory is the det table (p**(nk) entries) and at most
    nk * (p + 1) + 2**k lanes of a block.
    `symbolic` decides D = det(T(X)) - det(X), reduced by x**p = x over
    GF(p), and is exact over every field, small ones included: from the sign
    weights for a two-sided map (det(B)'s steps plus C(n, k) n x k
    determinants' steps, counted against the operation budget first), else
    from D expanded by the row sweep (its products and det(X)'s, counted
    against the symbolic budget first, `sympoly.det_change`).  A
    violation carries a witness where D is nonzero, and neither verdict
    depends on `seed`.  `random` draws `samples` matrices from `seed` and
    can only return `violates` or `inconclusive`; samples below 1 raise
    ValueError.  Its two `det` calls per sample are counted against the
    operation budget before the first draw, as `det` counts one: steps, then
    steps times an entry weight no draw exceeds; each runs under that budget.
    """
    _require_tall(T)
    if method == "exhaustive":
        return _is_preserver_exhaustive(T, budget)
    if method == "symbolic":
        return _is_preserver_symbolic(T, budget)
    if method == "random":
        if samples < 1:
            raise ValueError(f"{samples} samples: need at least one")
        steps = 2 * samples * _cheaper(T.n, T.k)[1]  # two dets per sample
        _guard(steps, budget)
        p, top = T.field.p, 0
        if not p:  # a draw (`FieldSpec.random_value`) clears below 9 * lcm(1..9),
            # and its image below that times the largest row sum of |s T|
            m, _ = _cleared(T.mat.values, p)
            top = 22680 * max(map(sum, _rows([abs(x) for x in m], T.n * T.k)))
        _guard(steps * _entry_weight([[top]], p), budget, what="entry-weighted steps")
        from random import Random

        rng = Random(seed)
        draws = (random_matrix(T.field, T.n, T.k, rng) for _ in range(samples))
        witness = next((X for X in draws if det(T.apply(X), budget) != det(X, budget)), None)
        verdict = "violates" if witness is not None else "inconclusive"
        return PreserverReport(verdict, "random", witness, samples, seed)
    raise ValueError(f"unknown method {method!r}")


# -- constructions ----------------------------------------------------------------


def s_shift_apply(X: RectMatrix, i: int, j: int) -> RectMatrix:
    """Semi-cyclic shift with sign corrections, applied directly to X:
    rows i..n then negated rows 1..i-1, columns 1 and j exchanged, the new
    first column negated unless j = 1, everything scaled by (-1)**(n-i).
    The exchange and the signs act on `semicyclic_shift`'s raw values."""
    n, k = X.n, X.k
    if not 1 <= i <= n:
        raise ShapeError(f"row {i} outside 1..{n}")
    if not 1 <= j <= k:
        raise ShapeError(f"column {j} outside 1..{k}")
    values = list(semicyclic_shift(X, i).values)
    if j != 1:
        values[::k], values[j - 1::k] = [-x for x in values[j - 1::k]], values[::k]
    return X._like(values if (n - i) % 2 == 0 else [-x for x in values])


def make_s_shift(n: int, k: int, i: int, j: int, field: FieldSpec) -> LinearMapNK:
    """The semi-cyclic shift map as a linear endomorphism; invertible by
    construction, and determinant preserving whenever n + k is even.

    `s_shift_apply` as a signed permutation of the unit matrices, given to
    `matrix._units` as the indices of its entries 1 and -1.  With 0-based
    indices, output entry (r, c) is input entry ((r + i - 1) mod n, c'), c'
    being c after exchanging columns 0 and j - 1, negated once if the row
    wrapped, once in the new first column when j > 1, and once when n - i is
    odd.
    """
    if not 1 <= i <= n:
        raise ShapeError(f"row {i} outside 1..{n}")
    if not 1 <= j <= k:
        raise ShapeError(f"column {j} outside 1..{k}")
    nk = n * k
    signed = ([], [])  # the indices of the entries 1 and -1
    for c in range(k):
        src = j - 1 if c == 0 else 0 if c == j - 1 else c
        flip = (n - i + (c == 0 and j > 1)) & 1
        for r in range(n):
            s = r + i - 1
            signed[flip ^ (s >= n)].append((c * n + r) * nk + src * n + s % n)
    return LinearMapNK(n, k, _units(field, nk, nk, *signed))


def detn2_partner(X: RectMatrix) -> RectMatrix:
    """The corner-swapped partner of a two-column matrix: replaces the (1,1)
    entry by D + x[n,2] and the (n,2) entry by -D + x[1,1], where D is the
    signed corner sum S1 + (-1)**n * S2 of the raw alternating sums of the
    inner rows of the two columns (the parity twist keeps the identity exact
    for odd n); has the same determinant as X."""
    if X.k != 2:
        raise ShapeError(f"expected two columns, got {X.k}")
    if X.n < 2:
        raise ShapeError("need at least two rows")
    v = X.values
    s1, s2 = (sum(inner[::2]) - sum(inner[1::2]) for inner in (v[2:-2:2], v[3:-2:2]))
    d = s1 - s2 if X.n & 1 else s1 + s2
    return X._like((d + v[-1], *v[1:-1], v[0] - d))


def make_k2_counterexample(n: int, field: FieldSpec) -> LinearMapNK:
    """The two-column determinant preserver that swaps opposite corner cells
    through signed sums; not expressible as X -> A @ X @ B.

    `detn2_partner` given to `matrix._units` as the indices of its entries
    1 and -1.  With 0-based indices, every output entry is its input entry
    except (0, 0) = d + x[n-1, 1] and (n-1, 1) = -d + x[0, 0], where d has
    coefficient (-1)**(r+1) on x[r, 0] and (-1)**(r+1+n) on x[r, 1] for the
    inner rows r = 1..n-2.
    """
    if n < 4:
        raise ShapeError(f"need at least 4 rows, got {n}")
    nk = 2 * n
    last = (nk - 1) * nk  # the row of output entry (n-1, 1); (0, 0) is row 0
    plus, minus = [*range(nk + 1, last, nk + 1), nk - 1, last], []
    # d's coefficient on vec index c, an inner row's entry, is (-1)**(c+1)
    for c in [*range(1, n - 1), *range(n + 1, nk - 1)]:
        (plus if c & 1 else minus).append(c)
        (minus if c & 1 else plus).append(last + c)
    return LinearMapNK(n, 2, _units(field, nk, nk, plus, minus))


def make_singular_preserver(n: int, k: int, field: FieldSpec) -> LinearMapNK:
    """A noninvertible determinant preserver X -> X - x[1,1] * J, available
    exactly when n + k is odd, when the all-ones J is in the radical (its
    columns are constant: `lambdapoly._radical_column`).  Given to
    `matrix._units` as the indices of its entries 1 and -1: vec index 0 is
    x[1,1], so entry (r, c) is [r = c] - [c = 0]."""
    if (n + k) % 2 == 0:
        raise ParityError(f"n + k = {n + k} must be odd")
    if k > n:
        raise ShapeError(f"{n}x{k}: need at least as many rows as columns")
    _check_shape(n, k)
    nk = n * k
    return LinearMapNK(n, k, _units(field, nk, nk, range(nk + 1, nk * nk, nk + 1),
                                    range(nk, nk * nk, nk)))


# -- factorisation ------------------------------------------------------------------


def factor_two_sided(T: LinearMapNK) -> tuple[RectMatrix, RectMatrix] | None:
    """Recover (A, B) with T(X) = A @ X @ B, or None when T is no such map.

    T's matrix is B^T (x) A exactly when it is one (`make_two_sided`), so its
    n x n block (j, l) is B[l, j] * A; `_kronecker` tests that and gives
    integer factors a, b.  A is a scaled so that the first nonzero entry of
    its first nonzero column is 1, and B the matching multiple of b.
    """
    n, k, field = T.n, T.k, T.field
    p = field.p
    split = _kronecker(*_cleared(T.mat.values, p), n, k, p)
    if split is None:
        return None
    a, b, c = split
    if not any(map(any, a)):
        return zeros(field, n, n), identity(field, k)
    alpha = next(x for col in zip(*a) for x in col if x)
    if p:  # A = a / alpha and B = b * alpha / c
        ia, bc = pow(alpha, -1, p), alpha * pow(c, -1, p)
        A = [x * ia % p for row in a for x in row]
        B = [x * bc % p for row in b for x in row]
    else:
        A = [rational(x, alpha) for row in a for x in row]
        B = [rational(x * alpha, c) for row in b for x in row]
    return RectMatrix._of(field, n, n, tuple(A)), RectMatrix._of(field, k, k, tuple(B))


# -- enumeration ---------------------------------------------------------------------


class Census(Record):
    """Exhaustive census of determinant preservers over a small field."""

    __slots__ = ("count", "maps")

    def __init__(self, count: int, maps: tuple[LinearMapNK, ...]):
        set_field(self, "count", count)
        set_field(self, "maps", maps)


def enumerate_preservers(n: int, k: int, p: int, budget: int | None = None) -> Census:
    """Every linear map over GF(p) passing the exhaustive preservation check,
    in row-major lexicographic order of their matrices.

    The columns of T are fixed last coordinate first.  Once columns
    m..nk-1 are fixed, the inputs whose first nonzero coordinate is m, codes
    p**(nk-1-m) .. p**(nk-m) - 1 in product order, are a * e_m + z with z an
    input already decided, and their images are a * col_m + y_z.  Since
    det(aX) = a**k det(X) and T is linear, a * e_m + z passes exactly when
    e_m + z / a does, so only a = 1 is tested: col_m = x survives when
    det(x + y_z) = det(e_m + z) for every z.  Each such condition is one set
    of candidate codes, built once per call at C speed as an int with one
    byte per code; a level ANDs them, stops once nothing is left, and walks
    the survivors with `bytes.find`.  The budget counts all p**((nk)**2)
    maps, as a brute force would, and refuses before any work; at 1 x 1 it
    counts p**2, the codes the sum tables `plus` can hold, p of p each.
    """
    if not 1 <= k <= n:
        raise ShapeError(f"{n}x{k}: need n >= k >= 1")
    field = gf(p)
    nk = n * k
    _guard_power(p, max(nk * nk, nk + 1), budget, "maps")

    table = _det_table(n, k, p, budget)
    size = len(table)
    vectors = list(product(range(p), repeat=nk))
    sums: dict[int, list[int]] = {}
    sets: dict[tuple[int, int], int] = {}

    def plus(x: int) -> list[int]:
        """code(x + z) for every code z."""
        r = sums.get(x)
        if r is None:
            r = sums[x] = _lift([[(a + d) % p for d in range(p)] for a in vectors[x]], p)
        return r

    found = []
    cols = [0] * nk

    def extend(m: int, images: list[int]):
        # images[z]: code of T applied to the input with code z < p**(nk - m)
        m -= 1
        run = len(images)
        alive = -1
        # z = 0 first: y_0 = 0, so det(x) alone rules out most columns
        for y, t in zip(images, table[run:2 * run]):
            passing = sets.get((y, t))
            if passing is None:  # {x : det(x + y) = t}, byte x being 1 for a member
                hits = bytes(map(t.__eq__, map(table.__getitem__, plus(y))))
                passing = sets[y, t] = int.from_bytes(hits, "little")
            alive &= passing
            if not alive:
                return
        mask = alive.to_bytes(size, "little")
        x = mask.find(1)
        while x >= 0:
            cols[m] = x
            if m == 0:  # a leaf needs no images
                found.append(tuple(chain.from_iterable(zip(*map(vectors.__getitem__, cols)))))
            else:  # the images of a * e_m + z for a = 1..p-1, in code order
                grown = images + list(map(plus(x).__getitem__, images))
                for a in range(2, p):
                    ax = 0
                    for d in vectors[x]:
                        ax = ax * p + a * d % p
                    grown += map(plus(ax).__getitem__, images)
                extend(m, grown)
            x = mask.find(1, x + 1)

    extend(nk, [0])
    found.sort()
    maps = tuple(LinearMapNK(n, k, RectMatrix._of(field, nk, nk, flat)) for flat in found)
    return Census(len(maps), maps)


def check_k1_form(T: LinearMapNK) -> bool:
    """For single-column maps X -> A @ X: true when every column of A has
    alternating sum (-1)**(i-1) (mod p), which characterises preservation."""
    if T.k != 1:
        raise ShapeError(f"map acts on width {T.k}, expected 1")
    n, p = T.n, T.field.p
    cols = [T.mat.values[i::n] for i in range(n)]
    gaps = (sum(c[::2]) - sum(c[1::2]) - (-1) ** i for i, c in enumerate(cols))
    return not any(g % p if p else g for g in gaps)
