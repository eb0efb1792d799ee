import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis import (
    EmptyResult,
    Scalar,
    FieldMismatch,
    IndexOutOfRange,
    LengthMismatch,
    RATIONALS,
    RectMatrix,
    ShapeError,
    ShapeMismatch,
    gf,
    hjoin,
    rank,
    random_matrix,
    submatrix_drop,
    submatrix_keep,
    unvec,
    vec,
)
from oracles import oracle_rank

Q = RATIONALS


def mat(rows, field=Q):
    return RectMatrix.from_rows(field, rows)


A = mat([[1, 2], [3, 4], [5, 6]])


def test_submatrix_keep_examples():
    assert submatrix_keep(A, [1, 3], [2]) == mat([[2], [6]])
    assert submatrix_keep(A, [1, 2, 3], [1, 2]) == A
    assert submatrix_keep(A, [2], [1, 2]) == mat([[3, 4]])


def test_submatrix_drop_examples():
    assert submatrix_drop(A, [1], [2]) == mat([[3], [5]])
    assert submatrix_drop(A, [], [2]) == mat([[1], [3], [5]])
    assert submatrix_drop(A, [], []) == A


def test_submatrix_errors():
    with pytest.raises(IndexOutOfRange):
        submatrix_keep(A, [4], [1])
    with pytest.raises(EmptyResult):
        submatrix_drop(A, [1, 2, 3], [])
    with pytest.raises(EmptyResult):
        submatrix_keep(A, [], [1])


def test_keep_drop_duality_random():
    rng = random.Random(9)
    for _ in range(40):
        X = random_matrix(gf(5), 5, 4, rng)
        keep_r = sorted(rng.sample(range(1, 6), rng.randrange(1, 6)))
        keep_c = sorted(rng.sample(range(1, 5), rng.randrange(1, 5)))
        dropped = submatrix_drop(
            X,
            [i for i in range(1, 6) if i not in keep_r],
            [j for j in range(1, 5) if j not in keep_c],
        )
        assert dropped == submatrix_keep(X, keep_r, keep_c)


@given(
    st.integers(),
    st.sets(st.integers(1, 5), min_size=1),
    st.sets(st.integers(1, 4), min_size=1),
)
def test_keep_drop_duality_property(seed, keep_r, keep_c):
    X = random_matrix(gf(7), 5, 4, random.Random(seed))
    complement_r = set(range(1, 6)) - keep_r
    complement_c = set(range(1, 5)) - keep_c
    assert submatrix_drop(X, complement_r, complement_c) == submatrix_keep(
        X, keep_r, keep_c
    )


def test_hjoin():
    assert hjoin(mat([[1], [2]]), mat([[3], [4]])) == mat([[1, 3], [2, 4]])
    a, b, c = mat([[1], [2]]), mat([[3], [4]]), mat([[5], [6]])
    assert hjoin(hjoin(a, b), c) == hjoin(a, hjoin(b, c))
    with pytest.raises(ShapeMismatch):
        hjoin(mat([[1], [2]]), mat([[1]]))
    with pytest.raises(FieldMismatch):
        hjoin(mat([[1]]), mat([[1]], field=gf(5)))
    with pytest.raises(ShapeError):
        RectMatrix(Q, 2, 0, [])


def test_rank_examples():
    assert rank(mat([[1, 2], [2, 4], [3, 6]])) == 1
    assert rank(mat([[1, 0], [0, 1], [0, 0]])) == 2
    assert rank(mat([[1, 1], [1, 1]], field=gf(2))) == 1
    assert rank(mat([["1/2", "1/3"], ["1/4", "1/6"]])) == 1


def test_rank_exhaustive_gf2_vs_minor_oracle():
    F = gf(2)
    for flat in product(range(2), repeat=6):
        rows = [list(flat[0:2]), list(flat[2:4]), list(flat[4:6])]
        assert rank(mat(rows, field=F)) == oracle_rank(rows, p=2)


def test_rank_random_vs_minor_oracle():
    rng = random.Random(17)
    for _ in range(30):
        n, k = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(n)]
        assert rank(mat(rows)) == oracle_rank(rows)
        # the modular branch of the elimination, small, tiny and huge moduli
        for p in (5, 2, 2**127 - 1):
            assert rank(mat(rows, field=gf(p))) == oracle_rank(
                [[v % p for v in r] for r in rows], p=p
            )
        # fractional entries: the denominators are cleared per column
        fracs = [[Fraction(v, rng.choice((1, 2, 3, -4, 6))) for v in r] for r in rows]
        assert rank(mat(fracs)) == oracle_rank(fracs)


def test_vec_unvec():
    X = mat([[1, 2], [3, 4]])
    assert [s.value for s in vec(X)] == [1, 3, 2, 4]
    assert unvec([1, 3, 2, 4], 2, 2, Q) == X
    col = mat([[1], [5], [9]])
    assert list(vec(col)) == col.column(1)
    with pytest.raises(LengthMismatch):
        unvec([1, 2, 3], 2, 2, Q)


@given(st.integers(1, 6), st.integers(1, 4), st.integers())
def test_vec_roundtrip_property(n, k, seed):
    rng = random.Random(seed)
    X = random_matrix(gf(7), n, k, rng)
    assert unvec(vec(X), n, k, gf(7)) == X


def test_immutability_and_structure():
    with pytest.raises(AttributeError):
        A.n = 5
    assert A.entry(2, 1).value == 3
    assert A.row(3) == [Q.element(5), Q.element(6)]
    assert A.column(2) == [Q.element(v) for v in (2, 4, 6)]
    with pytest.raises(IndexOutOfRange):
        A.entry(0, 1)


def test_matmul_and_scale():
    X = mat([[1, 2], [3, 4], [5, 6]])
    Y = mat([[1], [1]])
    assert X @ Y == mat([[3], [7], [11]])
    assert X.scale(2) == mat([[2, 4], [6, 8], [10, 12]])
    with pytest.raises(ShapeMismatch):
        Y @ X


@pytest.mark.parametrize("field", [gf(5), gf(2 ** 127 - 1), Q])
def test_raw_values_keep_the_scalar_api(field):
    rng = random.Random(12)
    raw = [[field.random_value(rng) for _ in range(3)] for _ in range(4)]
    scalars = [Scalar(v, field) for row in raw for v in row]
    X = RectMatrix(field, 4, 3, scalars)
    Y = RectMatrix.from_rows(field, raw)
    assert X == Y and hash(X) == hash(Y)
    assert X.values == tuple(v for row in raw for v in row)
    assert X.entries == tuple(scalars)
    assert X.entry(2, 3) == scalars[5]
    assert X.row(4) == scalars[9:12] and X.column(1) == scalars[0::3]
    for s in X.entries + (X.entry(1, 1),) + tuple(X.row(2)) + tuple(X.column(2)):
        assert isinstance(s, Scalar) and s.field == field
    # Scalars of the same field are read, not converted again
    assert RectMatrix.from_rows(field, [scalars[i:i + 3] for i in range(0, 12, 3)]) == X
    with pytest.raises(AttributeError):
        X.values = ()
    with pytest.raises(FieldMismatch):
        RectMatrix(field, 4, 3, scalars[:-1] + [gf(3).element(1)])
    with pytest.raises(FieldMismatch):
        RectMatrix.from_rows(field, [[gf(3).element(1)]])
    with pytest.raises(LengthMismatch):
        RectMatrix(field, 4, 3, scalars[:-1])
    with pytest.raises(ShapeError):
        RectMatrix(field, 0, 3, [])


def test_raw_arithmetic_matches_scalar_arithmetic():
    rng = random.Random(13)
    for field in (gf(7), Q):
        X, Y = random_matrix(field, 3, 2, rng), random_matrix(field, 3, 2, rng)
        Z = random_matrix(field, 2, 4, rng)
        c = field.random_element(rng)
        assert (X + Y).entries == tuple(a + b for a, b in zip(X.entries, Y.entries))
        assert (X - Y).entries == tuple(a - b for a, b in zip(X.entries, Y.entries))
        assert (-X).entries == tuple(-a for a in X.entries)
        assert X.scale(c).entries == tuple(c * a for a in X.entries)
        assert (X @ Z).entries == tuple(
            sum((X.entry(i, t) * Z.entry(t, j) for t in (1, 2)), field.zero)
            for i in (1, 2, 3) for j in (1, 2, 3, 4))
        scaled = X.with_scaled_column(2, c)
        assert scaled.column(1) == X.column(1)
        assert scaled.column(2) == [c * a for a in X.column(2)]
