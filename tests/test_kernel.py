"""The row-sweep kernel and raw elimination behind `det`, `lambda_coeffs`,
the degree sweeps and the exhaustive tables, checked against the defining
routes and the package-free oracles; the defining routes' own work, counted."""

import json
import random
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, perm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis import (
    BudgetExceeded,
    LinearMapNK,
    RATIONALS,
    RectMatrix,
    ResourceGuard,
    all_completions_vanish,
    check_sign_condition,
    deg_witness,
    det,
    det_definition,
    det_laplace,
    det_minorsum,
    det_product_rhs,
    detn2_partner,
    enumerate_preservers,
    gf,
    hjoin,
    identity,
    is_preserver,
    lambda_coeffs,
    make_b_diffdiff,
    make_b_diffsum,
    make_b_plainsum,
    make_k2_counterexample,
    make_s_shift,
    random_matrix,
    s_shift_apply,
    semicyclic_shift,
    unvec,
)
from cullis import determinant, fields, lambdapoly, preserver, routes, sympoly
from cullis.determinant import (
    _cheaper,
    _elim,
    det_int,
    elim_count,
    sweep,
    sweep_count,
    sweep_plan,
)
from cullis import lanes
from cullis.lambdapoly import diffdiff_rhs, diffsum_rhs, plainsum_rhs
from cullis.preserver import _det_table, _filled_table
from oracles import oracle_det

Q = RATIONALS
FIELDS = (gf(2), gf(3), gf(10007), gf(2**127 - 1), Q)


@st.composite
def tall_matrices(draw, max_n=6):
    """A tall matrix over one of FIELDS, sometimes with a zero row and/or a
    zero column; rationals mix signs and denominators."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    if field.kind == "prime":
        entry = st.one_of(st.just(0), st.integers(0, field.p - 1))
    else:
        entry = st.builds(Fraction, st.integers(-9, 9),
                          st.integers(1, 9).flatmap(lambda d: st.sampled_from((d, -d))))
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [0] * k
    if draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        for r in rows:
            r[j] = 0
    return RectMatrix.from_rows(field, rows)


def raw(X):
    return [[e.value for e in X.row(i)] for i in range(1, X.n + 1)]


@given(tall_matrices())
def test_det_equals_every_defining_route_and_the_oracle(X):
    d = det(X)
    assert d.value == oracle_det(raw(X), p=X.field.p)
    assert d == det_definition(X)
    assert d == det_minorsum(X)
    for j in range(1, X.k + 1):
        assert d == det_laplace(X, j)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       st.randoms(use_true_random=False))
def test_sweep_and_elimination_agree_on_integers(shape, rng):
    # both routes are exact over the integers, whichever the dispatcher picks;
    # elimination runs on X, or on [X | 1] when X has one extra row
    n, k = shape
    rows = [[rng.randrange(-20, 21) for _ in range(k)] for _ in range(n)]
    want = oracle_det(rows)
    assert sweep(rows, k) == want
    if n <= k + 1:
        assert _elim(rows, k) == want


class Counted(int):
    """An int that counts the multiplications made with it."""
    muls = 0

    def __mul__(self, other):
        Counted.muls += 1
        return Counted(int(self) * int(other))

    def __sub__(self, other):
        return Counted(int(self) - int(other))

    def __floordiv__(self, other):
        return Counted(int(self) // int(other))


def test_elim_count_is_the_multiplications_of_elimination():
    rng = random.Random(8)
    for size in range(1, 11):
        m = [[Counted(rng.randrange(1, 10**6)) for _ in range(size)] for _ in range(size)]
        Counted.muls = 0
        assert _elim(m, size) != 0
        assert Counted.muls == elim_count(size)


def test_plan_size_is_the_counted_size():
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert sum(len(moves) for moves in sweep_plan(n, k)) == sweep_count(n, k)


def test_dispatcher_picks_elimination_near_square_and_the_sweep_when_tall():
    assert _cheaper(8, 8) == (_elim, elim_count(8))
    assert _cheaper(10, 9) == (_elim, elim_count(10))
    assert _cheaper(12, 6) == (sweep, sweep_count(12, 6))
    assert _cheaper(11, 5)[0] is sweep
    assert _cheaper(6, 4)[0] is sweep
    assert (sweep_count(12, 6), elim_count(8), elim_count(10)) == (1344, 280, 570)
    # elimination is only for n <= k + 1, however wide the shape
    assert _cheaper(13, 11)[0] is sweep and _cheaper(14, 12)[0] is sweep


def test_det_budget_is_the_chosen_routes_exact_count():
    rng = random.Random(3)
    F = gf(10007)
    tall = random_matrix(F, 12, 6, rng)
    with pytest.raises(ResourceGuard):
        det(tall, budget=1343)
    assert det(tall, budget=1344) == det_minorsum(tall)
    square = random_matrix(F, 8, 8, rng)
    with pytest.raises(ResourceGuard):
        det(square, budget=279)
    assert det(square, budget=280) == det_minorsum(square)


def test_refused_det_builds_no_plan():
    X = random_matrix(gf(5), 15, 7, random.Random(4))
    before = sweep_plan.cache_info().misses
    with pytest.raises(ResourceGuard):
        det(X, budget=sweep_count(15, 7) - 1)
    assert sweep_plan.cache_info().misses == before
    assert sweep_plan.cache_info().maxsize is not None


def test_each_call_checks_one_count_and_each_scan_one_shape(monkeypatch):
    # every module that imports `_guard` calls the counting one; the kernels
    # check nothing themselves
    gates = []
    real = determinant._guard

    def counted(*args, **kwargs):
        gates.append(args[0])
        return real(*args, **kwargs)

    for module in (determinant, lambdapoly, preserver, routes, sympoly):
        monkeypatch.setattr(module, "_guard", counted)

    def count(call, *args):
        gates.clear()
        call(*args)
        return len(gates)

    rng = random.Random(5)
    F, G = gf(10007), gf(5)
    X = random_matrix(F, 12, 6, rng)
    # det: the count before `raw_rows`, then the entry-weighted count
    assert count(det, X) == 2 and gates == [1344, 1344]
    assert count(det_int, raw(X), 6) == 1
    assert count(lambda_coeffs, X, random_matrix(F, 12, 6, rng)) == 2
    # det(b), then one check for all 15 column subsets of the 6x4 shape
    assert count(check_sign_condition, identity(G, 6), identity(G, 4)) == 2
    # 35 row subsets of one 4x2 shape
    rank_one = RectMatrix.from_rows(G, [[i, 2 * i] for i in range(7)])
    assert count(all_completions_vanish, rank_one, 5) == 1


# -- the defining routes' work --------------------------------------------------------


ROUTES = {"definition": det_definition, "laplace": det_laplace, "minorsum": det_minorsum}


def scalars_built(monkeypatch, call, *args):
    """The `Scalar`s built while call(*args) runs."""
    built = []
    init = fields.Scalar.__init__

    def counting(self, *a):
        built.append(1)
        init(self, *a)

    with monkeypatch.context() as m:
        m.setattr(fields.Scalar, "__init__", counting)
        call(*args)
    return len(built)


def memo_size(X):
    """The entries in `det_laplace`'s memo (along column 1) when it returns."""
    sizes = []

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is det_laplace.__code__:
            sizes.append(len(frame.f_locals["memo"]))

    sys.setprofile(watch)
    try:
        det_laplace(X)
    finally:
        sys.setprofile(None)
    return sizes[0]


def test_defining_routes_build_only_their_result(monkeypatch):
    # the routes run on raw integers: the one Scalar is the result, not one
    # per arithmetic step
    rng = random.Random(12)
    for field in (Q, gf(7)):
        X = random_matrix(field, 6, 4, rng)
        for route in ROUTES.values():
            assert scalars_built(monkeypatch, route, X) == 1


SCALAR_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__neg__", "__truediv__", "inverse")


@pytest.mark.parametrize("field", [gf(5), Q], ids=str)
def test_shift_corner_swap_and_completion_helpers_take_no_scalar_arithmetic(monkeypatch, field):
    # the semi-cyclic shifts, the corner swap, the completion identities,
    # Horner and the product expansion run on raw values: with Scalar
    # arithmetic raising, each gives the value of an independent
    # construction and builds no Scalar (matrix results), its result, or
    # its det results and its result (det_product_rhs)
    rng = random.Random(13)
    n = 6
    X, B = random_matrix(field, n, 4, rng), random_matrix(field, n, 4, rng)
    Y, Z = random_matrix(field, 4, 3, rng), random_matrix(field, n, 2, rng)
    poly, lam = lambda_coeffs(X, B), field.element(3)
    rows = X.rows()
    dets = []

    def counted_det(*args, **kwargs):
        dets.append(1)
        return det(*args, **kwargs)

    cases = [  # (call, args, the value it must give, the Scalars it builds besides det's)
        (semicyclic_shift, (X, 3),
         RectMatrix.from_rows(field, rows[2:] + [[-v for v in r] for r in rows[:2]]), 0),
        (s_shift_apply, (X, 3, 2), make_s_shift(n, 4, 3, 2, field).apply(X), 0),
        (s_shift_apply, (X, 2, 1), make_s_shift(n, 4, 2, 1, field).apply(X), 0),
        (detn2_partner, (Z,), make_k2_counterexample(n, field).apply(Z), 0),
        (diffdiff_rhs, (Z, 3), det(hjoin(Z, make_b_diffdiff(n, 5, 3, field))), 1),
        (diffsum_rhs, (Z, 4), det(hjoin(Z, make_b_diffsum(n, 4, field))), 1),
        (plainsum_rhs, (Z, 4), det(hjoin(Z, make_b_plainsum(n, 4, field))), 1),
        (poly.evaluate, (lam,), det(X + B.scale(lam)), 1),
        (poly.evaluate, (3,), det(X + B.scale(lam)), 1),
        (det_product_rhs, (X, Y), det(X @ Y), 1),
    ]
    with monkeypatch.context() as m:
        for name in SCALAR_ARITHMETIC:
            m.setattr(fields.Scalar, name, lambda *a, name=name: pytest.fail(f"Scalar.{name}"))
        m.setattr(determinant, "det", counted_det)
        for call, args, want, extra in cases:
            got = []
            dets.clear()
            built = scalars_built(monkeypatch, lambda: got.append(call(*args)))
            assert got == [want], call.__name__
            assert built == len(dets) + extra, call.__name__
    assert dets  # det_product_rhs went through the counted det


def test_bench_oracle_counts_are_recounted(monkeypatch):
    # BENCH_oracles.json's times are for reading only; its counts are
    # recounted here on the same matrices, drawn from a seed named after the
    # case: every injection and every row k-subset once per matrix, the
    # Laplace memo read when the route returns, and the Scalars built
    bench = json.loads((Path(__file__).parents[1] / "BENCH_oracles.json").read_text())
    draws = bench["draws"]
    assert len(bench["cases"]) == 12
    for case in bench["cases"]:
        n, k, label = case["n"], case["k"], case["field"]
        field = Q if label == "QQ" else gf(int(label[3:-1]))
        rng = random.Random(f"{n}x{k}/{label}")
        mats = [random_matrix(field, n, k, rng) for _ in range(draws)]
        assert case["injections"] == draws * perm(n, k)
        assert case["minors"] == draws * comb(n, k)
        assert case["laplace_memo_entries"] == sum(memo_size(X) for X in mats)
        assert case["scalars_after"] == {
            name: sum(scalars_built(monkeypatch, route, X) for X in mats)
            for name, route in ROUTES.items()}


# -- det(A + tB) ---------------------------------------------------------------------


def lambda_by_column_substitution(A, B):
    """The coefficient of t**d is the sum over d-subsets S of columns of det
    with B's columns at S and A's elsewhere, each by the minor-sum oracle."""
    k = A.k
    acols, bcols = A.columns(), B.columns()
    out = []
    for d in range(k + 1):
        acc = A.field.zero
        for S in combinations(range(k), d):
            cols = [bcols[j] if j in S else acols[j] for j in range(k)]
            acc = acc + det_minorsum(RectMatrix.from_columns(A.field, cols))
        out.append(acc)
    return out


@st.composite
def near_square_matrices(draw):
    """An n x k matrix with n = k or k + 1, up to 9x8, the shapes where
    `_cheaper` can pick elimination: over GF(2), GF(3) (so p <= k),
    GF(2**127 - 1) or QQ with numerators of about 200 bits."""
    field = draw(st.sampled_from((gf(2), gf(3), gf(2**127 - 1), Q)))
    k = draw(st.integers(1, 8))
    n = k + draw(st.integers(0, 1))
    if field.kind == "prime":
        entry = st.integers(0, field.p - 1)
    else:
        entry = st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 9))
    return RectMatrix.from_rows(field, draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                                     min_size=n, max_size=n)))


@pytest.mark.parametrize("matrices", [tall_matrices(max_n=5), near_square_matrices()],
                         ids=["tall", "near-square"])
@given(data=st.data())
def test_lambda_coeffs_equals_column_substitution_and_evaluation(matrices, data):
    A = data.draw(matrices)
    B = random_matrix(A.field, A.n, A.k, data.draw(st.randoms(use_true_random=False)))
    for left, right in ((A, B), (B, A), (A, A)):
        poly = lambda_coeffs(left, right)
        assert list(poly.coeffs) == lambda_by_column_substitution(left, right)
        for lam in range(left.k + 1):
            assert poly.evaluate(lam) == det(left + right.scale(lam))


@pytest.mark.parametrize("shape, kernel", [((12, 6), sweep), ((8, 8), _elim), ((9, 8), _elim),
                                           ((1, 1), _elim)], ids=["12x6", "8x8", "9x8", "1x1"])
def test_lambda_coeffs_takes_dets_kernel_and_count(monkeypatch, shape, kernel):
    # det(A + tB) is `det` of one packed matrix: the kernel `_cheaper` hands
    # `det` runs, and the budget refuses both at the same count
    ran = []

    def spying(n, k):
        chosen, steps = _cheaper(n, k)

        def run(rows, width):
            ran.append((chosen, steps))
            return chosen(rows, width)

        return run, steps

    for module in (determinant, lambdapoly):
        monkeypatch.setattr(module, "_cheaper", spying)
    rng = random.Random(14)
    A, B = random_matrix(gf(10007), *shape, rng), random_matrix(gf(10007), *shape, rng)
    det(A)
    lambda_coeffs(A, B)
    steps = _cheaper(*shape)[1]
    assert ran == [(kernel, steps)] * 2
    for call in (lambda: det(A, budget=steps - 1), lambda: lambda_coeffs(A, B, budget=steps - 1)):
        with pytest.raises(ResourceGuard, match=f"^{steps} elementary steps"):
            call()


def test_lambda_coeffs_large_entries():
    rng = random.Random(6)
    for field in (gf(2**127 - 1), Q):
        A, B = random_matrix(field, 7, 4, rng), random_matrix(field, 7, 4, rng)
        A = A.scale(field.element(Fraction(-10**20, 7)) if field is Q else 3**70)
        assert list(lambda_coeffs(A, B).coeffs) == lambda_by_column_substitution(A, B)


def first_witness_by_assignments(B, d):
    """The former degree-witness search: every assignment of distinct basis
    vectors to the free columns, in lexicographic order, tried by a full
    determinant."""
    n, k, F = B.n, B.k, B.field

    def e(t):
        return [F.one if r == t else F.zero for r in range(n)]

    bcols = B.columns()
    for S in combinations(range(k), d):
        free = [j for j in range(k) if j not in S]
        for assign in permutations(range(n), len(free)):
            slots = dict(zip(free, assign))
            M = [e(slots[j]) if j in slots else bcols[j] for j in range(k)]
            if det(RectMatrix.from_columns(F, M)).value:
                return RectMatrix.from_columns(
                    F, [e(slots[j]) if j in slots else [F.zero] * n for j in range(k)])
    return None


def test_deg_witness_is_the_first_in_assignment_order():
    rng = random.Random(7)
    F = gf(5)
    for _ in range(25):
        n = rng.randrange(3, 7)
        k = rng.randrange(2, min(n, 4) + 1)
        r = rng.randrange(1, k + 1)
        u = [[F.random_element(rng) for _ in range(n)] for _ in range(r)]
        v = [[F.random_element(rng) for _ in range(k)] for _ in range(r)]
        B = RectMatrix.from_rows(F, [[sum((u[s][i] * v[s][j] for s in range(r)), F.zero)
                                      for j in range(k)] for i in range(n)])
        for d in range(2, k + 1):
            assert deg_witness(B, d) == first_witness_by_assignments(B, d)


# -- exhaustive tables ----------------------------------------------------------------------


def test_det_table_is_indexed_by_product_order(monkeypatch):
    # bytes up to p = 13, ints from GF(17) on; each table is one lane, and
    # is the same filled one block of at most 3 inputs at a time
    for n, k, p in ((2, 1, 3), (3, 2, 2), (2, 2, 3), (3, 1, 5), (4, 1, 3), (3, 3, 2), (2, 1, 13),
                    (2, 1, 17), (2, 1, 131)):
        F = gf(p)
        table = _det_table(n, k, p)
        vecs = list(product(range(p), repeat=n * k))
        assert len(table) == len(vecs)
        for code, v in enumerate(vecs):
            assert table[code] == det(unvec([F.element(x) for x in v], n, k, F)).value
        with monkeypatch.context() as m:
            m.setattr(lanes, "BLOCK", 3)
            assert _filled_table.__wrapped__(n, k, p) == table
    with pytest.raises(BudgetExceeded):
        _det_table(4, 2, 5, budget=100)


def test_det_table_is_shared_and_still_budgeted():
    table = _det_table(2, 1, 3)
    assert isinstance(table, bytes) and _det_table(2, 1, 3, budget=9) is table
    assert isinstance(_det_table(2, 1, 13), bytes) and isinstance(_det_table(2, 1, 17), tuple)
    hits = _filled_table.cache_info().hits
    assert enumerate_preservers(2, 1, 3).count == 9
    assert is_preserver(LinearMapNK.identity_map(gf(3), 2, 1), "exhaustive").preserves
    assert _filled_table.cache_info().hits == hits + 2
    # a kept table is still refused over budget
    with pytest.raises(BudgetExceeded):
        _det_table(2, 1, 3, budget=8)
