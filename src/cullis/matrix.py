"""Immutable rectangular matrices, the submatrix calculus they support, and
the one elimination on raw integers.

A matrix stores one form: `values`, a read-only tuple of canonical raw
values in row-major order (residues in [0, p) over GF(p), reduced Fractions
over QQ).  `values` is public.  `entries`, `entry`, `row`, `column` and
`rows` wrap these values as `Scalar`s when called, for callers that want
field elements.  The public constructor takes Scalars and checks them;
`from_rows` and the JSON reader coerce plain values in one pass
(`FieldSpec.raw_values`), and every function that returns a matrix builds
it from raw values with the trusted constructor `RectMatrix._of`.  A
`Scalar` is built only at the API boundary: by those accessors (and
`columns` and `vec`), by `from_raw` and `FieldSpec.element` for a scalar
result or argument, by `Scalar`'s own arithmetic, and in `verify`'s checks.
A matrix's `repr` writes its values with `fields._value_to_str`, the exact
writer the JSON documents use, so it prints values of any size.

All public indices are 1-based.  Row and column selections follow the
keep/drop convention: `submatrix_keep` retains the listed indices in
increasing order, `submatrix_drop` strikes them out.  `vec` stacks a matrix
column-major, so the unit matrix with a one in row i, column j maps to
position (j-1)*n + i of the flat vector.

`raw_rows` turns matrices into plain integer rows once (residues over GF(p),
column-cleared integers over QQ) and `from_raw` turns a raw result back into
a scalar.  `eliminate` is fraction-free (Bareiss) elimination on such rows,
exact over the integers (the rank over QQ, and the determinant near the
square over QQ and on packed rows) and reduced mod p over GF(p), where it
gives the rank and, from its row multipliers, the determinant.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, compress
from math import lcm, prod
from operator import add, neg, sub
from typing import Iterable, Sequence

from .errors import (
    EmptyResult,
    FieldMismatch,
    IndexOutOfRange,
    LengthMismatch,
    ShapeError,
    ShapeMismatch,
)
from .fields import FieldSpec, Scalar, _value_to_str, rational
from .record import Record, set_field


def _check_shape(n: int, k: int):
    if n < 1 or k < 1:
        raise ShapeError(f"matrix shape {n}x{k} must be at least 1x1")


def _reduced(values, p: int | None) -> tuple:
    """values as canonical raw values: mod p over GF(p); over QQ they are
    Fractions already."""
    return tuple(x % p for x in values) if p else tuple(values)


class RectMatrix(Record):
    """An n-by-k matrix over a fixed field, stored as raw values row-major."""

    __slots__ = ("n", "k", "values", "field")

    def __init__(self, field: FieldSpec, n: int, k: int, entries: Sequence[Scalar]):
        _check_shape(n, k)
        if len(entries) != n * k:
            raise LengthMismatch(f"{len(entries)} entries for a {n}x{k} matrix")
        values = []
        for e in entries:
            if not isinstance(e, Scalar) or e.field is not field:
                raise FieldMismatch(f"entry {e!r} does not belong to {field!r}")
            values.append(e.value)
        set_field(self, "field", field)
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "values", tuple(values))

    @classmethod
    def _of(cls, field: FieldSpec, n: int, k: int, values: tuple) -> "RectMatrix":
        """Trusted constructor: values is a tuple of n * k canonical raw
        values of field, row-major, and n, k >= 1."""
        self = object.__new__(cls)
        set_field(self, "field", field)
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "values", values)
        return self

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "RectMatrix":
        """The matrix with the given rows of anything `field.element` takes."""
        n = len(rows)
        if n == 0:
            raise ShapeError("no rows given")
        k = len(rows[0])
        if any(len(row) != k for row in rows):
            raise ShapeMismatch("ragged rows")
        _check_shape(n, k)
        return cls._of(field, n, k, tuple(field.raw_values(chain.from_iterable(rows))))

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence]) -> "RectMatrix":
        k = len(cols)
        if k == 0:
            raise ShapeError("no columns given")
        n = len(cols[0])
        rows = [[cols[j][i] for j in range(k)] for i in range(n)]
        return cls.from_rows(field, rows)

    # -- element access (1-based), as scalars --------------------------------

    def _scalars(self, values) -> list[Scalar]:
        f = self.field
        return [Scalar(v, f) for v in values]

    @property
    def entries(self) -> tuple[Scalar, ...]:
        """The entries row-major as scalars, built from `values` on each call."""
        return tuple(self._scalars(self.values))

    def entry(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.n and 1 <= j <= self.k):
            raise IndexOutOfRange(f"({i},{j}) outside {self.n}x{self.k}")
        return Scalar(self.values[(i - 1) * self.k + (j - 1)], self.field)

    def row(self, i: int) -> list[Scalar]:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"row {i} outside 1..{self.n}")
        return self._scalars(self.values[(i - 1) * self.k : i * self.k])

    def column(self, j: int) -> list[Scalar]:
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(f"column {j} outside 1..{self.k}")
        return self._scalars(self.values[j - 1 :: self.k])

    def rows(self) -> list[list[Scalar]]:
        return [self.row(i) for i in range(1, self.n + 1)]

    def columns(self) -> list[list[Scalar]]:
        return [self.column(j) for j in range(1, self.k + 1)]

    # -- algebra on raw values -------------------------------------------------

    def _check_same_shape(self, other: "RectMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if (self.n, self.k) != (other.n, other.k):
            raise ShapeMismatch(f"{self.n}x{self.k} vs {other.n}x{other.k}")

    def _like(self, values) -> "RectMatrix":
        """A matrix of self's shape and field from unreduced raw values."""
        return RectMatrix._of(self.field, self.n, self.k, _reduced(values, self.field.p))

    def __add__(self, other: "RectMatrix") -> "RectMatrix":
        self._check_same_shape(other)
        return self._like(map(add, self.values, other.values))

    def __sub__(self, other: "RectMatrix") -> "RectMatrix":
        self._check_same_shape(other)
        return self._like(map(sub, self.values, other.values))

    def __neg__(self) -> "RectMatrix":
        return self._like(map(neg, self.values))

    def scale(self, c) -> "RectMatrix":
        c = self.field.element(c).value
        return self._like(c * a for a in self.values)

    def __matmul__(self, other: "RectMatrix") -> "RectMatrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if self.k != other.n:
            raise ShapeMismatch(f"{self.n}x{self.k} times {other.n}x{other.k}")
        m = other.k
        zero = _zero_one(self.field)[0]
        # other's rows as (column, value) pairs of its nonzero entries, and
        # self's rows read the same way, so zero entries on either side cost nothing
        rows = [list(compress(enumerate(row), row)) for row in zip(*[iter(other.values)] * m)]
        out = []
        for row in zip(*[iter(self.values)] * self.k):
            acc = [zero] * m
            for t, x in compress(enumerate(row), row):
                for c, y in rows[t]:
                    acc[c] += x * y
            out += acc
        return RectMatrix._of(self.field, self.n, m, _reduced(out, self.field.p))

    def is_zero(self) -> bool:
        return not any(self.values)

    def with_scaled_column(self, j: int, c) -> "RectMatrix":
        """New matrix with column j multiplied by c."""
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(f"column {j} outside 1..{self.k}")
        c = self.field.element(c).value
        k = self.k
        return self._like(c * x if idx % k == j - 1 else x for idx, x in enumerate(self.values))

    def __hash__(self):
        return hash((self.n, self.k, self.values))

    def __repr__(self):
        text = list(map(_value_to_str, self.values))
        body = "; ".join(" ".join(text[i:i + self.k]) for i in range(0, len(text), self.k))
        return f"RectMatrix({self.n}x{self.k} over {self.field!r}: {body})"

    def __reduce__(self):
        return RectMatrix._of, (self.field, self.n, self.k, self.values)


# -- constructors -------------------------------------------------------------


@cache
def _qq_zero_one():
    return rational(0), rational(1)


def _zero_one(field: FieldSpec):
    """The field's raw zero and one; the rationals' pair is built once, on first use."""
    return (0, 1) if field.p else _qq_zero_one()


def _units(field: FieldSpec, n: int, k: int, plus: Iterable[int],
           minus: Iterable[int] = ()) -> RectMatrix:
    """The n x k matrix with 1 at the row-major indices in plus, the field's
    -1 at those in minus and 0 elsewhere."""
    zero, one = _zero_one(field)
    values = [zero] * (n * k)
    for t in plus:
        values[t] = one
    if minus:
        minus_one = field.p - 1 if field.p else -one
        for t in minus:
            values[t] = minus_one
    return RectMatrix._of(field, n, k, tuple(values))


def zeros(field: FieldSpec, n: int, k: int) -> RectMatrix:
    _check_shape(n, k)
    return RectMatrix._of(field, n, k, (_zero_one(field)[0],) * (n * k))


def ones(field: FieldSpec, n: int, k: int) -> RectMatrix:
    _check_shape(n, k)
    return RectMatrix._of(field, n, k, (_zero_one(field)[1],) * (n * k))


def identity(field: FieldSpec, n: int) -> RectMatrix:
    _check_shape(n, n)
    return _units(field, n, n, range(0, n * n, n + 1))


def basis_matrix(field: FieldSpec, n: int, k: int, i: int, j: int) -> RectMatrix:
    """Unit matrix: 1 in row i, column j, zero elsewhere."""
    if not (1 <= i <= n and 1 <= j <= k):
        raise IndexOutOfRange(f"({i},{j}) outside {n}x{k}")
    return _units(field, n, k, ((i - 1) * k + j - 1,))


def basis_selector(field: FieldSpec, n: int, elems: Iterable[int]) -> RectMatrix:
    """Matrix whose columns are the standard basis vectors indexed by elems."""
    elems = list(elems)
    for t in elems:
        if not 1 <= t <= n:
            raise IndexOutOfRange(f"basis index {t} outside 1..{n}")
    if not elems:
        raise ShapeError("no columns given")
    m = len(elems)
    return _units(field, n, m, [(t - 1) * m + c for c, t in enumerate(elems)])


def random_matrix(field: FieldSpec, n: int, k: int, rng) -> RectMatrix:
    _check_shape(n, k)
    return RectMatrix._of(field, n, k, tuple(field.random_value(rng) for _ in range(n * k)))


# -- submatrix calculus --------------------------------------------------------


def _check_indices(idx: Iterable[int], bound: int, what: str) -> list[int]:
    out = sorted(set(idx))
    for i in out:
        if not 1 <= i <= bound:
            raise IndexOutOfRange(f"{what} index {i} outside 1..{bound}")
    return out


def submatrix_keep(A: RectMatrix, rows: Iterable[int], cols: Iterable[int]) -> RectMatrix:
    """A[rows|cols]: keep only the listed rows and columns, in increasing order."""
    rows = _check_indices(rows, A.n, "row")
    cols = _check_indices(cols, A.k, "column")
    if not rows or not cols:
        raise EmptyResult("kept row and column sets must be nonempty")
    v, k = A.values, A.k
    return RectMatrix._of(A.field, len(rows), len(cols),
                          tuple(v[(i - 1) * k + (j - 1)] for i in rows for j in cols))


def submatrix_drop(A: RectMatrix, rows: Iterable[int], cols: Iterable[int]) -> RectMatrix:
    """A(rows|cols): strike out the listed rows and columns (either may be empty)."""
    rows = set(_check_indices(rows, A.n, "row"))
    cols = set(_check_indices(cols, A.k, "column"))
    keep_r = [i for i in range(1, A.n + 1) if i not in rows]
    keep_c = [j for j in range(1, A.k + 1) if j not in cols]
    if not keep_r or not keep_c:
        raise EmptyResult("cannot strike out every row or every column")
    return submatrix_keep(A, keep_r, keep_c)


def hjoin(A: RectMatrix, B: RectMatrix) -> RectMatrix:
    """Column concatenation A|B."""
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    if A.n != B.n:
        raise ShapeMismatch(f"{A.n} rows vs {B.n} rows")
    a, b = A.values, B.values
    return RectMatrix._of(A.field, A.n, A.k + B.k, tuple(chain.from_iterable(
        a[i * A.k:(i + 1) * A.k] + b[i * B.k:(i + 1) * B.k] for i in range(A.n))))


# -- vectorisation --------------------------------------------------------------


def _vec_values(X: RectMatrix) -> tuple:
    """`vec` of X as raw values."""
    return tuple(chain.from_iterable(X.values[j::X.k] for j in range(X.k)))


def vec(X: RectMatrix) -> tuple[Scalar, ...]:
    """Column-major flattening: vec([[a,b],[c,d]]) = (a, c, b, d)."""
    return tuple(X._scalars(_vec_values(X)))


def _unvec_values(v: Sequence, n: int, k: int, field: FieldSpec) -> RectMatrix:
    """The n x k matrix X with _vec_values(X) = v, for canonical raw values v."""
    return RectMatrix._of(field, n, k, tuple(chain.from_iterable(
        v[i::n] for i in range(n))))


def unvec(v: Sequence, n: int, k: int, field: FieldSpec) -> RectMatrix:
    if len(v) != n * k:
        raise LengthMismatch(f"vector of length {len(v)} for shape {n}x{k}")
    _check_shape(n, k)
    return _unvec_values(field.raw_values(v), n, k, field)


# -- raw values and elimination ---------------------------------------------------


def raw_rows(*mats: RectMatrix) -> tuple[list[list[list[int]]], int]:
    """Integer rows of same-shape matrices over one field, and the scale s
    such that the determinant of the integer rows is s times the true one.

    Over GF(p) the rows are the residues and s = 1.  Over QQ column j of
    every matrix is multiplied by the lcm of the denominators in column j of
    all of them, and s is the product of those lcms: the determinant is
    multilinear in the columns, so it scales by exactly s, and the rank does
    not change.
    """
    k = mats[0].k
    if mats[0].field.kind == "prime":
        return [[list(M.values[i * k:(i + 1) * k]) for i in range(M.n)] for M in mats], 1
    dens = [[x.denominator for x in M.values] for M in mats]
    scales = [lcm(*chain.from_iterable(d[j::k] for d in dens)) for j in range(k)]
    out = []
    for M, den in zip(mats, dens):
        cleared = [x.numerator * (scales[idx % k] // d)
                   for idx, (x, d) in enumerate(zip(M.values, den))]
        out.append([cleared[i:i + k] for i in range(0, len(cleared), k)])
    return out, prod(scales)


def from_raw(field: FieldSpec, value: int, scale: int) -> Scalar:
    """The scalar value / scale (mod p over GF(p)), as left by `raw_rows`."""
    if field.kind == "prime":
        return Scalar(value % field.p, field)
    return Scalar(rational(value, scale), field)


def eliminate(m: list[list[int]], p: int | None = None) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows m, in place,
    skipping columns without a pivot.  Returns the rank and d, s with
    det(m) = d / s for a square m of full rank: over the integers the signed
    last pivot and 1.  Given a prime p the rows must be residues, and each
    step is reduced mod p with no exact division: a row with entry f under
    the pivot pc becomes pc * row - f * pivot row, which multiplies det(m)
    by pc, so d is the signed product of the pivots and s that of these
    multipliers, both mod p.  No inverse is taken, so the rank costs none."""
    nr, nc = len(m), len(m[0])
    sign, prev, r, s = 1, 1, 0, 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        pc = top[c]
        for i in range(r + 1, nr):
            row = m[i]
            f = row[c]
            if p is None:
                for j in range(c + 1, nc):
                    row[j] = (row[j] * pc - f * top[j]) // prev
            elif f:
                for j in range(c + 1, nc):
                    row[j] = (row[j] * pc - f * top[j]) % p
                s = s * pc % p
        prev = prev * pc % p if p else pc
        r += 1
        if r == nr:
            break
    return r, sign * prev, s


def rank(A: RectMatrix) -> int:
    """Rank over A's field, by `eliminate` on `raw_rows` (mod p over GF(p))."""
    (rows,), _ = raw_rows(A)
    return eliminate(rows, A.field.p)[0]
