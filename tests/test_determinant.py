import random
import signal
from fractions import Fraction
from itertools import product
from math import comb, perm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis import (
    RATIONALS,
    BudgetExceeded,
    RectMatrix,
    ResourceGuard,
    ShapeError,
    basis_selector,
    det,
    det_definition,
    det_laplace,
    det_minorsum,
    det_product_rhs,
    gf,
    hjoin,
    k_subsets,
    ones,
    random_matrix,
    semicyclic_shift,
    zeros,
)
from cullis import determinant
from cullis.determinant import _cheaper, _guard
from cullis.routes import det_square
from alarms import within
from oracles import oracle_det, oracle_square_det

Q = RATIONALS


def mat(rows, field=Q):
    return RectMatrix.from_rows(field, rows)


def test_square_case_is_ordinary_determinant():
    assert det_definition(mat([[1, 2], [3, 4]])).value == -2
    assert det_minorsum(mat([[1, 2], [3, 4]])).value == -2


def test_definition_examples():
    assert det_definition(mat([[1, 2], [3, 4], [5, 6]])).value == 0
    # columns that are distinct basis vectors give the subset sign
    assert det_definition(mat([[1, 0], [0, 1], [0, 0]])).value == 1
    assert det_definition(mat([[0, 1], [1, 0], [0, 0]])).value == -1


def test_laplace_examples():
    assert det_laplace(mat([[1], [2], [3]])).value == 2
    assert det_laplace(mat([[1, 2], [3, 4], [5, 6]]), 1).value == 0
    # expansion along a zero column vanishes
    X = mat([[0, 5], [0, 7], [0, 1]])
    assert det_laplace(X, 1).value == 0


def test_minorsum_examples():
    assert det_minorsum(mat([[1, 0], [0, 1], [0, 0]])).value == 1
    assert det_minorsum(mat([[1], [2], [3], [4]])).value == -2


def test_dispatcher_examples():
    assert det(mat([[1, 2], [3, 4], [5, 6]])).value == 0
    assert det(zeros(Q, 4, 2)).value == 0
    assert det(basis_selector(Q, 4, [2, 4])).value == -1  # subset sign of {2,4}
    assert det(basis_selector(Q, 4, [1, 2])).value == 1


def test_one_error_means_over_budget():
    # the older name stays importable, and `_guard` raises the one class
    assert ResourceGuard is BudgetExceeded
    with pytest.raises(BudgetExceeded, match="^10 map entries exceed budget 9$"):
        _guard(10, 9, 100, "map entries")
    _guard(10, None, 10, "map entries")


def test_shape_guard():
    with pytest.raises(ShapeError):
        det(mat([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ResourceGuard):
        det_definition(random_matrix(gf(5), 7, 4, random.Random(0)), budget=10)
    with pytest.raises(ResourceGuard):
        det_minorsum(random_matrix(gf(5), 7, 4, random.Random(0)), budget=10)


def test_exhaustive_agreement_gf2_3x2():
    F = gf(2)
    for flat in product(range(2), repeat=6):
        rows = [flat[0:2], flat[2:4], flat[4:6]]
        X = mat(rows, field=F)
        expected = oracle_det([list(r) for r in rows], p=2)
        for algo in (det_definition, det_minorsum, det):
            assert algo(X).value == expected
        for j in (1, 2):
            assert det_laplace(X, j).value == expected


def test_random_agreement_with_oracle():
    rng = random.Random(101)
    for _ in range(120):
        field = rng.choice([gf(5), gf(7), Q])
        n = rng.randrange(1, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        X = random_matrix(field, n, k, rng)
        rows = [[e.value for e in X.row(i)] for i in range(1, n + 1)]
        want = oracle_det(rows, p=field.p if field.kind == "prime" else None)
        got = det_definition(X)
        assert got.value == want
        assert det_minorsum(X) == got and det(X) == got
        for j in range(1, k + 1):
            assert det_laplace(X, j) == got


def test_dispatcher_agrees_with_every_backend():
    rng = random.Random(202)
    for _ in range(1000):
        field = rng.choice([gf(5), gf(7), Q])
        n = rng.randrange(1, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        X = random_matrix(field, n, k, rng)
        d = det(X)
        assert d == det_definition(X)
        assert d == det_minorsum(X)
        assert d == det_laplace(X, 1 + rng.randrange(k))


def test_basis_column_matrices_give_subset_sign():
    for n in range(1, 7):
        for k in range(1, min(n, 4) + 1):
            for c in k_subsets(n, k):
                assert det(basis_selector(gf(5), n, c.elems)).value == c.sign % 5


def test_product_expansion_example():
    X = mat([[1, 2], [3, 4], [5, 6]])
    Y = mat([[1], [1]])
    assert det_product_rhs(X, Y).value == 7
    assert det(X @ Y).value == 7


def test_product_expansion_identity_factor():
    rng = random.Random(5)
    X = random_matrix(gf(7), 5, 3, rng)
    I3 = RectMatrix.from_rows(gf(7), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert det_product_rhs(X, I3) == det(X)


def test_product_expansion_random():
    rng = random.Random(6)
    for _ in range(60):
        field = rng.choice([gf(5), gf(7), Q])
        n = rng.randrange(2, 7)
        k = rng.randrange(1, min(n, 4) + 1)
        l = rng.randrange(1, k + 1)
        X = random_matrix(field, n, k, rng)
        Y = random_matrix(field, k, l, rng)
        assert det(X @ Y) == det_product_rhs(X, Y)


def test_product_expansion_counts_every_minor_before_the_first():
    # C(k, l) minors of X and of Y, each at its chosen route's count, checked
    # once against the caller's budget: 40x20 by 20x10 is about 2.9 * 10**10
    # steps, refused at once rather than run pair by pair
    rng = random.Random(16)
    F = gf(10007)
    X, Y = random_matrix(F, 5, 3, rng), random_matrix(F, 3, 2, rng)
    whole = comb(3, 2) * (_cheaper(5, 2)[1] + _cheaper(2, 2)[1])
    assert det_product_rhs(X, Y, budget=whole) == det(X @ Y)
    with pytest.raises(ResourceGuard, match=f"^{whole} elementary steps"):
        det_product_rhs(X, Y, budget=whole - 1)
    X, Y = random_matrix(F, 40, 20, rng), random_matrix(F, 20, 10, rng)
    whole = comb(20, 10) * (_cheaper(40, 10)[1] + _cheaper(10, 10)[1])

    def too_long(signum, frame):
        raise TimeoutError("det_product_rhs ran instead of refusing")

    before = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(5)
    try:
        with pytest.raises(ResourceGuard, match=f"^{whole} elementary steps exceed budget 1000000"):
            det_product_rhs(X, Y, budget=10**6)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)


def test_product_expansion_weighs_its_count_before_the_first_minor(monkeypatch):
    # 18 steps per pair of minors, 3 pairs, each step on 127-bit residues
    # (weight 2**2): 216, refused before any minor when the budget is below
    # it, though 54 covers the unweighted steps
    rng = random.Random(17)
    F = gf(2**127 - 1)
    X, Y = random_matrix(F, 5, 3, rng), random_matrix(F, 3, 2, rng)
    steps = comb(3, 2) * (_cheaper(5, 2)[1] + _cheaper(2, 2)[1])
    assert (steps, 4 * steps) == (54, 216)
    # over QQ the weight is read off X's and Y's cleared entries: 131 bits
    # in X, so 3**2
    big = RectMatrix.from_rows(RATIONALS, [[Fraction(2**130 + 3 * i + j, 7) for j in range(3)]
                                           for i in range(5)])
    small = random_matrix(RATIONALS, 3, 2, rng)
    for left, right, whole in ((X, Y, 216), (big, small, 9 * steps)):
        with monkeypatch.context() as m:
            m.setattr(determinant, "det", lambda *args: pytest.fail("a minor ran first"))
            for budget in (steps, whole - 1):
                refusal = f"^{whole} entry-weighted steps exceed budget {budget}$"
                with within(1), pytest.raises(ResourceGuard, match=refusal):
                    det_product_rhs(left, right, budget=budget)
        assert det_product_rhs(left, right, budget=whole) == det(left @ right)


def test_right_multiplication_scaling():
    # a square factor of determinant zero kills the product
    X = mat([[1, 2], [3, 4], [5, 6]])
    Y = mat([[1, 1], [1, 1]])
    assert det(X @ Y).value == 0


def test_semicyclic_invariance():
    rng = random.Random(8)
    for field in (gf(7), Q, gf(2), gf(2 ** 127 - 1)):
        for (n, k) in [(4, 2), (5, 3), (6, 2)]:
            for _ in range(8):
                X = random_matrix(field, n, k, rng)
                base = det(X)
                for i in range(1, n + 1):
                    v = det(semicyclic_shift(X, i))
                    if ((n - i) * k) % 2:
                        v = -v
                    assert v == base


def test_ones_column_parity():
    rng = random.Random(9)
    for (n, k) in [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)]:
        col = ones(gf(7), n, 1)
        for _ in range(10):
            X = random_matrix(gf(7), n, k, rng)
            joined = det(hjoin(X, col))
            if (n + k) % 2:
                assert joined == det(X)
            else:
                assert joined.value == 0


def test_multilinearity_random():
    rng = random.Random(10)
    F = gf(7)
    for _ in range(40):
        n, k = 5, 3
        X = random_matrix(F, n, k, rng)
        u = [F.random_element(rng) for _ in range(n)]
        v = [F.random_element(rng) for _ in range(n)]
        a, b = F.random_element(rng), F.random_element(rng)
        j = rng.randrange(k)
        cols = X.columns()
        cu, cv, cm = list(cols), list(cols), list(cols)
        cu[j], cv[j] = u, v
        cm[j] = [a * x + b * y for x, y in zip(u, v)]
        assert det(RectMatrix.from_columns(F, cm)) == a * det(
            RectMatrix.from_columns(F, cu)
        ) + b * det(RectMatrix.from_columns(F, cv))


def test_det_budget_charges_entry_size():
    # a 2x2 takes 2 elimination steps; an entry of 65 bits makes each cost 4
    big = mat([[2 ** 64, 0], [0, 1]])
    with pytest.raises(ResourceGuard):
        det(big, budget=7)
    assert det(big, budget=8).value == 2 ** 64
    assert det(mat([[2 ** 63, 0], [0, 1]]), budget=2).value == 2 ** 63
    # over GF(p) the weight is read off p alone: 1 below 2**64
    F = gf(2 ** 127 - 1)
    with pytest.raises(ResourceGuard):
        det(mat([[1, 0], [0, 1]], F), budget=7)
    assert det(mat([[1, 0], [0, 1]], F), budget=8).value == 1
    assert det(mat([[1, 0], [0, 1]], gf(2 ** 61 - 1)), budget=2).value == 1
    # the route is still chosen on the unweighted count
    X = random_matrix(Q, 12, 6, random.Random(3))
    assert det(X) == det_laplace(X)


# -- the defining routes on raw integers, differentially ---------------------------


@st.composite
def square_int_rows(draw):
    """A square integer array up to 6x6 with entries up to 2**200 in size,
    often with zeros on the leading diagonal so that pivots must be sought."""
    size = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200))
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    for i in range(draw(st.integers(0, size))):
        rows[i][i] = 0
    return rows


@given(square_int_rows())
def test_det_square_equals_the_leibniz_sum(rows):
    copy = [list(row) for row in rows]
    got = det_square(rows)
    assert type(got) is int and got == oracle_square_det(rows)
    assert rows == copy  # the input is left as it was


ROUTE_FIELDS = (gf(2), gf(3), gf(2 ** 127 - 1), Q)


@st.composite
def route_matrices(draw):
    """A tall matrix up to 6x4 over GF(2), GF(3) (so p <= k happens),
    GF(2**127 - 1) or QQ with denominators up to 10**6."""
    field = draw(st.sampled_from(ROUTE_FIELDS))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 4)))
    if field.p:
        entry = st.one_of(st.just(0), st.integers(0, field.p - 1))
    else:
        entry = st.one_of(st.just(Fraction(0)), st.builds(
            Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)))
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    return RectMatrix.from_rows(field, rows)


@given(route_matrices())
def test_each_route_equals_the_oracle_with_the_fields_value_type(X):
    want = oracle_det([list(X.values[i * X.k:(i + 1) * X.k]) for i in range(X.n)], X.field.p)
    kind = int if X.field.p else Fraction
    got = [det_definition(X), det_minorsum(X)]
    got += [det_laplace(X, j) for j in range(1, X.k + 1)]
    for d in got:
        assert d.field is X.field and type(d.value) is kind and d.value == want


def test_routes_refuse_at_their_counts_with_the_same_message():
    X = random_matrix(gf(7), 7, 4, random.Random(11))
    n, k = X.n, X.k
    for route, count in ((det_definition, perm(n, k) * k),
                         (lambda X, budget: det_laplace(X, 2, budget), comb(n, k) * n * k),
                         (det_minorsum, comb(n, k) * k ** 3)):
        with pytest.raises(ResourceGuard) as refused:
            route(X, budget=count - 1)
        assert str(refused.value) == f"{count} elementary steps exceed budget {count - 1}"
        assert route(X, budget=count) == det(X)
