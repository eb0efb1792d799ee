"""Immutable rectangular matrices, the submatrix calculus they support, and
the one elimination on raw integers.

All public indices are 1-based.  Row and column selections follow the
keep/drop convention: `submatrix_keep` retains the listed indices in
increasing order, `submatrix_drop` strikes them out.  `vec` stacks a matrix
column-major, so the unit matrix with a one in row i, column j maps to
position (j-1)*n + i of the flat vector.

`raw_rows` turns matrices into plain integer rows once (residues over GF(p),
column-cleared integers over QQ) and `from_raw` turns a raw result back into
a scalar.  `eliminate` is fraction-free (Bareiss) elimination on such rows,
exact over the integers (the determinant `det` takes near the square, and
the rank over QQ) and reduced mod p for the rank over GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from .errors import (
    EmptyResult,
    FieldMismatch,
    IndexOutOfRange,
    LengthMismatch,
    ShapeError,
    ShapeMismatch,
)
from .fields import FieldSpec, Scalar


class RectMatrix:
    """An n-by-k matrix of scalars over a fixed field, stored row-major."""

    __slots__ = ("n", "k", "entries", "field")

    def __init__(self, field: FieldSpec, n: int, k: int, entries: Sequence[Scalar]):
        if n < 1 or k < 1:
            raise ShapeError(f"matrix shape {n}x{k} must be at least 1x1")
        if len(entries) != n * k:
            raise LengthMismatch(f"{len(entries)} entries for a {n}x{k} matrix")
        for e in entries:
            if not isinstance(e, Scalar) or (e.field is not field and e.field != field):
                raise FieldMismatch(f"entry {e!r} does not belong to {field!r}")
        self_set = object.__setattr__
        self_set(self, "field", field)
        self_set(self, "n", n)
        self_set(self, "k", k)
        self_set(self, "entries", tuple(entries))

    def __setattr__(self, name, value):
        raise AttributeError("RectMatrix is immutable")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence]) -> "RectMatrix":
        n = len(rows)
        if n == 0:
            raise ShapeError("no rows given")
        k = len(rows[0])
        entries = []
        for row in rows:
            if len(row) != k:
                raise ShapeMismatch("ragged rows")
            entries.extend(field.element(v) for v in row)
        return cls(field, n, k, entries)

    @classmethod
    def from_columns(cls, field: FieldSpec, cols: Sequence[Sequence]) -> "RectMatrix":
        k = len(cols)
        if k == 0:
            raise ShapeError("no columns given")
        n = len(cols[0])
        rows = [[cols[j][i] for j in range(k)] for i in range(n)]
        return cls.from_rows(field, rows)

    # -- element access (1-based) -------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        if not (1 <= i <= self.n and 1 <= j <= self.k):
            raise IndexOutOfRange(f"({i},{j}) outside {self.n}x{self.k}")
        return self.entries[(i - 1) * self.k + (j - 1)]

    def row(self, i: int) -> list[Scalar]:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"row {i} outside 1..{self.n}")
        return list(self.entries[(i - 1) * self.k : i * self.k])

    def column(self, j: int) -> list[Scalar]:
        if not 1 <= j <= self.k:
            raise IndexOutOfRange(f"column {j} outside 1..{self.k}")
        return list(self.entries[j - 1 :: self.k])

    def rows(self) -> list[list[Scalar]]:
        return [self.row(i) for i in range(1, self.n + 1)]

    def columns(self) -> list[list[Scalar]]:
        return [self.column(j) for j in range(1, self.k + 1)]

    # -- algebra --------------------------------------------------------------

    def _check_same_shape(self, other: "RectMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if (self.n, self.k) != (other.n, other.k):
            raise ShapeMismatch(f"{self.n}x{self.k} vs {other.n}x{other.k}")

    def __add__(self, other: "RectMatrix") -> "RectMatrix":
        self._check_same_shape(other)
        return RectMatrix(
            self.field, self.n, self.k,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other: "RectMatrix") -> "RectMatrix":
        self._check_same_shape(other)
        return RectMatrix(
            self.field, self.n, self.k,
            [a - b for a, b in zip(self.entries, other.entries)],
        )

    def __neg__(self) -> "RectMatrix":
        return RectMatrix(self.field, self.n, self.k, [-a for a in self.entries])

    def scale(self, c) -> "RectMatrix":
        c = self.field.element(c)
        return RectMatrix(self.field, self.n, self.k, [c * a for a in self.entries])

    def __matmul__(self, other: "RectMatrix") -> "RectMatrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")
        if self.k != other.n:
            raise ShapeMismatch(f"{self.n}x{self.k} times {other.n}x{other.k}")
        a, b = self.entries, other.entries
        k, m = self.k, other.k
        zero = self.field.zero
        out = []
        for i in range(self.n):
            arow = a[i * k : (i + 1) * k]
            for j in range(m):
                acc = zero
                for t in range(k):
                    x = arow[t]
                    if x.value:
                        acc = acc + x * b[t * m + j]
                out.append(acc)
        return RectMatrix(self.field, self.n, m, out)

    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def with_scaled_column(self, j: int, c) -> "RectMatrix":
        """New matrix with column j multiplied by c."""
        c = self.field.element(c)
        cols = self.columns()
        cols[j - 1] = [c * v for v in cols[j - 1]]
        return RectMatrix.from_columns(self.field, cols)

    def __eq__(self, other):
        return (
            isinstance(other, RectMatrix)
            and self.field == other.field
            and (self.n, self.k) == (other.n, other.k)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.k, self.entries))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(v) for v in self.row(i)) for i in range(1, self.n + 1)
        )
        return f"RectMatrix({self.n}x{self.k} over {self.field!r}: {body})"


# -- constructors -------------------------------------------------------------


def zeros(field: FieldSpec, n: int, k: int) -> RectMatrix:
    z = field.zero
    return RectMatrix(field, n, k, [z] * (n * k))


def ones(field: FieldSpec, n: int, k: int) -> RectMatrix:
    o = field.one
    return RectMatrix(field, n, k, [o] * (n * k))


def identity(field: FieldSpec, n: int) -> RectMatrix:
    z, o = field.zero, field.one
    return RectMatrix(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])


def basis_matrix(field: FieldSpec, n: int, k: int, i: int, j: int) -> RectMatrix:
    """Unit matrix: 1 in row i, column j, zero elsewhere."""
    if not (1 <= i <= n and 1 <= j <= k):
        raise IndexOutOfRange(f"({i},{j}) outside {n}x{k}")
    z, o = field.zero, field.one
    ent = [z] * (n * k)
    ent[(i - 1) * k + (j - 1)] = o
    return RectMatrix(field, n, k, ent)


def basis_selector(field: FieldSpec, n: int, elems: Iterable[int]) -> RectMatrix:
    """Matrix whose columns are the standard basis vectors indexed by elems."""
    elems = list(elems)
    z, o = field.zero, field.one
    cols = []
    for t in elems:
        if not 1 <= t <= n:
            raise IndexOutOfRange(f"basis index {t} outside 1..{n}")
        cols.append([o if r == t else z for r in range(1, n + 1)])
    return RectMatrix.from_columns(field, cols)


def random_matrix(field: FieldSpec, n: int, k: int, rng) -> RectMatrix:
    return RectMatrix(field, n, k, [field.random_element(rng) for _ in range(n * k)])


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
    picked = [[A.entries[(i - 1) * A.k + (j - 1)] for j in cols] for i in rows]
    return RectMatrix(A.field, len(rows), len(cols), [v for r in picked for v in r])


def submatrix_drop(A: RectMatrix, rows: Iterable[int], cols: Iterable[int]) -> RectMatrix:
    """A(rows|cols): strike out the listed rows and columns (either may be empty)."""
    rows = _check_indices(rows, A.n, "row")
    cols = _check_indices(cols, A.k, "column")
    keep_r = [i for i in range(1, A.n + 1) if i not in set(rows)]
    keep_c = [j for j in range(1, A.k + 1) if j not in set(cols)]
    if not keep_r or not keep_c:
        raise EmptyResult("cannot strike out every row or every column")
    return submatrix_keep(A, keep_r, keep_c)


def hjoin(A: RectMatrix, B: RectMatrix) -> RectMatrix:
    """Column concatenation A|B."""
    if A.field != B.field:
        raise FieldMismatch(f"{A.field!r} vs {B.field!r}")
    if A.n != B.n:
        raise ShapeMismatch(f"{A.n} rows vs {B.n} rows")
    ent = []
    for i in range(A.n):
        ent.extend(A.entries[i * A.k : (i + 1) * A.k])
        ent.extend(B.entries[i * B.k : (i + 1) * B.k])
    return RectMatrix(A.field, A.n, A.k + B.k, ent)


# -- vectorisation --------------------------------------------------------------


def vec(X: RectMatrix) -> tuple[Scalar, ...]:
    """Column-major flattening: vec([[a,b],[c,d]]) = (a, c, b, d)."""
    return tuple(
        X.entries[(i - 1) * X.k + (j - 1)]
        for j in range(1, X.k + 1)
        for i in range(1, X.n + 1)
    )


def unvec(v: Sequence, n: int, k: int, field: FieldSpec) -> RectMatrix:
    if len(v) != n * k:
        raise LengthMismatch(f"vector of length {len(v)} for shape {n}x{k}")
    ent = [None] * (n * k)
    for idx, s in enumerate(v):
        j, i = divmod(idx, n)
        ent[i * k + j] = field.element(s)
    return RectMatrix(field, n, k, ent)


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
        return [[[e.value for e in M.entries[i * k:(i + 1) * k]] for i in range(M.n)]
                for M in mats], 1
    scales = [1] * k
    for M in mats:
        for idx, e in enumerate(M.entries):
            d = e.value.denominator
            if d != 1:
                scales[idx % k] = lcm(scales[idx % k], d)
    out = []
    for M in mats:
        fr = [e.value for e in M.entries]
        out.append([[fr[i * k + j].numerator * (scales[j] // fr[i * k + j].denominator)
                     for j in range(k)] for i in range(M.n)])
    return out, prod(scales)


def from_raw(field: FieldSpec, value: int, scale: int) -> Scalar:
    """The scalar value / scale (mod p over GF(p)), as left by `raw_rows`."""
    if field.kind == "prime":
        return Scalar(value % field.p, field)
    return Scalar(Fraction(value, scale), field)


def eliminate(m: list[list[int]], p: int | None = None) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows m, in place,
    skipping columns without a pivot.  Returns the rank and the signed last
    pivot, which is the determinant of a square m of full rank.  Given a
    prime p the rows must be residues; each step is then reduced mod p with
    no exact division, which keeps the rank but not the determinant."""
    nr, nc = len(m), len(m[0])
    sign, prev, r = 1, 1, 0
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
        prev = pc
        r += 1
        if r == nr:
            break
    return r, sign * prev


def rank(A: RectMatrix) -> int:
    """Rank over A's field, by `eliminate` on `raw_rows` (mod p over GF(p))."""
    (rows,), _ = raw_rows(A)
    return eliminate(rows, A.field.p)[0]
