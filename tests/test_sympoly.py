import random
import signal
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis import (BudgetExceeded, LinearMapNK, RATIONALS, det, gf, is_preserver, make_s_shift,
                    random_matrix, vec)
from cullis import sympoly
from cullis.determinant import sweep_count, sweep_plan
from cullis.preserver import _cleared
from cullis.sympoly import det_change, fold, nonzero_point
from alarms import within
from oracles import oracle_subset_sign, oracle_sweep_products


def eval_poly(poly, point, field):
    total = field.zero
    for mono, coeff in poly.items():
        term = field.element(coeff)
        for var, exp in mono:
            for _ in range(exp):
                term = term * point[var]
        total = total + term
    return total


def oracle_det_poly(mat_rows, n, k):
    """det(M X) as an integer polynomial in X's column-major entries, by the
    injection sum: one product of k linear forms per injection of the k
    columns into the n rows, entry (i, j) of M X being row j*n + i of M."""
    poly = Counter()
    for images in permutations(range(1, n + 1), k):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if images[a] > images[b])
        terms = {(): (-1) ** inv * oracle_subset_sign(images)}
        for j, i in enumerate(images):
            form = [(v, c) for v, c in enumerate(mat_rows[j * n + i - 1]) if c]
            grown = Counter()
            for mono, c in terms.items():
                for v, a in form:
                    grown[tuple(sorted((Counter(dict(mono)) + Counter({v: 1})).items()))] += c * a
            terms = grown
        poly.update(terms)
    return poly


def raw_rows(T):
    """(M, s): the integer rows of M = s T and the scale s (`_cleared`)."""
    nk = T.n * T.k
    m, s = _cleared(T.mat.values, T.field.p)
    return [m[r * nk:(r + 1) * nk] for r in range(nk)], s


def identity_rows(nk, scale=1):
    return [[scale * int(r == c) for c in range(nk)] for r in range(nk)]


def test_identity_map_expansion_matches_plain_determinant():
    # the zero map gives -s**k det(X), against the injection sum of det(X)
    for field in (gf(2), gf(5), RATIONALS):
        p = field.p
        for (n, k) in [(1, 1), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3)]:
            nk = n * k
            for s in (1, 3):
                want = {mono: -c * s ** k for mono, c in
                        oracle_det_poly(identity_rows(nk), n, k).items()}
                got = det_change(identity_rows(nk, 0), n, k, s, p)
                assert got == fold(want, p)


def test_identity_polynomial_term_count():
    poly = det_change(identity_rows(8, 0), 4, 2, 1, 5)
    assert len(poly) == 12  # injections of a pair into four rows
    assert all(len(mono) == 2 for mono in poly)


def test_map_expansion_agrees_with_pointwise_evaluation():
    # s**k * (det(T(X)) - det(X)) at random X, with s > 1 over QQ
    rng = random.Random(33)
    shapes = {gf(7): [(4, 2)] * 6, RATIONALS: [(4, 2)] * 6 + [(3, 2), (4, 3)],
              gf(5): [(5, 3)], gf(10007): [(4, 3)]}
    for field, field_shapes in shapes.items():
        for n, k in field_shapes:
            T = LinearMapNK(n, k, random_matrix(field, n * k, n * k, rng))
            rows, s = raw_rows(T)
            assert field.p or s > 1
            poly = det_change(rows, n, k, s, field.p)
            for _ in range(4):
                X = random_matrix(field, n, k, rng)
                point = list(vec(X))
                want = (det(T.apply(X)) - det(X)) * field.element(s ** k)
                assert eval_poly(poly, point, field) == want


def test_det_change_is_the_folded_difference():
    # det(X) is taken off in packed form and folding is skipped below p, yet
    # the result is fold(det(M X) - s**k det(X)) by the injection sum, also
    # for p <= k
    rng = random.Random(34)
    for field in (gf(2), gf(3), gf(5), RATIONALS):
        p = field.p
        for n, k in ((2, 2), (3, 2), (3, 3), (4, 3)):
            nk = n * k
            for T in (LinearMapNK(n, k, random_matrix(field, nk, nk, rng)),
                      LinearMapNK.identity_map(field, n, k)):
                rows, s = raw_rows(T)
                diff = oracle_det_poly(rows, n, k)
                diff.subtract({mono: c * s ** k for mono, c in
                               oracle_det_poly(identity_rows(nk), n, k).items()})
                assert det_change(rows, n, k, s, p) == fold(dict(diff), p)


def test_cancellation_prunes_zero_coefficients():
    # 4 I is the identity over GF(3): every term of det(4X) cancels against
    # det(X), though the rows are not reduced
    assert det_change(identity_rows(6, 4), 3, 2, 1, 3) == {}
    # over QQ the map X -> X, cleared as M = 2 I with s = 2
    assert det_change(identity_rows(12, 2), 4, 3, 2, None) == {}


def test_expansion_guard_refuses():
    F = gf(5)
    T = LinearMapNK(4, 3, random_matrix(F, 12, 12, random.Random(9)))
    rows, s = raw_rows(T)
    with pytest.raises(BudgetExceeded):
        det_change(rows, 4, 3, s, 5, guard=1000)
    # a shape whose plan has more moves than the guard is refused unbuilt
    big = [[0] * 130 for _ in range(130)]
    before = sweep_plan.cache_info().misses
    with pytest.raises(BudgetExceeded):
        det_change(big, 13, 10, 1, 5, guard=sweep_count(13, 10) - 1)
    assert sweep_plan.cache_info().misses == before


def checked_bound(rows, n, k, p):
    """The product bound `_sweep` checks before its first product, read at
    its `_guard` call, and what the sweep returns."""
    checked = {}

    def spy(cost, budget, default, what):
        checked[what] = cost

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sympoly, "_guard", spy)
        swept = sympoly._sweep(rows, n, k, p, None)
    return checked[f"symbolic products at {n}x{k}"], swept


def unpacked(swept, k):
    """`_sweep`'s packed monomials as sorted tuples of variables, one per power."""
    b, out = k.bit_length(), {}
    for key, c in swept.items():
        mono, v = [], 0
        while key:
            mono += [v] * (key & ((1 << b) - 1))
            key >>= b
            v += 1
        out[tuple(mono)] = c
    return out


@st.composite
def sweep_maps(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(n, 4 if n < 5 else 3)))
    p = draw(st.sampled_from([2, 3, 10007, None]))
    nk = n * k
    # sparse draws keep most entries zero, dense ones draw every entry; forms
    # in a few variables of X hold many terms per variable, where the bound
    # leans on the variables it has seen
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    support = set(rng.sample(range(nk), draw(st.sampled_from([nk, min(nk, 3), min(nk, 4)]))))
    entries = st.integers(-9, 9) if p is None else st.integers(0, p - 1)
    rows = [[draw(entries) if v in support and rng.random() < density else 0 for v in range(nk)]
            for _ in range(nk)]
    return rows, n, k, p


@given(case=sweep_maps())
def test_product_bound_is_at_least_the_products_made(case):
    # the bound checked before the sweep against a reference count of the
    # products it makes, on sparse and dense maps; the reference sweep's
    # polynomial is det(M X), as `_sweep`'s is
    rows, n, k, p = case
    bound, swept = checked_bound(rows, n, k, p)
    count, poly = oracle_sweep_products(rows, n, k, p)
    assert bound >= count
    assert unpacked(swept, k) == poly


def test_product_bound_is_exact_on_composed_s_shifts():
    rng = random.Random(38)
    for F in (gf(3), gf(5), gf(7), RATIONALS):
        for n, k in ((4, 2), (5, 3), (6, 4)):
            T = make_s_shift(n, k, 1 + rng.randrange(n), 1 + rng.randrange(k), F)
            for _ in range(2):
                T = T.compose(make_s_shift(n, k, 1 + rng.randrange(n), 1 + rng.randrange(k), F))
            rows, _ = raw_rows(T)
            assert checked_bound(rows, n, k, F.p)[0] == oracle_sweep_products(rows, n, k, F.p)[0]


def test_dense_map_is_refused_before_the_sweep():
    # a dense 7x6 map over GF(7) bounds to about 1e9 products, past the
    # default 2e8: refused within 1 s, before its first product
    T = LinearMapNK(7, 6, random_matrix(gf(7), 42, 42, random.Random(38)))

    def expire(signum, frame):
        raise TimeoutError("the symbolic check ran past 1 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        with pytest.raises(BudgetExceeded, match="symbolic products at 7x6 exceed budget"):
            is_preserver(T, "symbolic")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_det_change_counts_det_x_against_the_callers_guard():
    # the zero map's det(M X) makes no product, but det(X) makes 48 at 4x3,
    # whether or not it is cached: guards from the plan's 24 moves to 47 are
    # refused, 48 answers with the 24 terms of -det(X)
    zero = [[0] * 12 for _ in range(12)]
    assert (sweep_count(4, 3), sympoly._identity_products(4, 3)) == (24, 48)
    for _ in range(2):
        for guard in (24, 47):
            with within(1), pytest.raises(
                    BudgetExceeded, match=f"^48 symbolic products at 4x3 exceed budget {guard}$"):
                det_change(zero, 4, 3, 1, 5, guard)
        assert len(det_change(zero, 4, 3, 1, 5, 48)) == 24
    # the count is det(X)'s products, as a reference sweep makes them
    for n, k in ((3, 1), (4, 2), (5, 3), (5, 5)):
        nk = n * k
        rows = [[int(r == c) for c in range(nk)] for r in range(nk)]
        assert sympoly._identity_products(n, k) == oracle_sweep_products(rows, n, k, 5)[0]


def test_fold_reduces_by_x_to_the_p():
    # x0^2 x1 + x0 x1^2 = 2 x0 x1 as a function on GF(2), which is zero
    assert fold({((0, 2), (1, 1)): 1, ((0, 1), (1, 2)): 1}, 2) == {}
    assert nonzero_point({}, 2, 2) is None
    # x0^2 x1 - x0 x1^2 = x0 x1 (x0 - x1) is not zero on GF(3)
    poly = fold({((0, 2), (1, 1)): 1, ((0, 1), (1, 2)): -1}, 3)
    assert poly == {((0, 2), (1, 1)): 1, ((0, 1), (1, 2)): 2}
    x0, x1 = nonzero_point(poly, 2, 3)
    assert (x0 ** 2 * x1 - x0 * x1 ** 2) % 3
    # over QQ only zero terms go, and a nonzero multiple gives the same point
    assert fold({((0, 2),): 0, ((1, 1),): 5}, None) == {((1, 1),): 5}
    assert nonzero_point({m: 2 * c for m, c in poly.items()}, 2, 3) == [x0, x1]
