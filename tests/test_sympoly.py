import random
from fractions import Fraction
from itertools import permutations

import pytest

from cullis import BudgetExceeded, LinearMapNK, RATIONALS, det, gf, random_matrix, vec
from cullis.determinant import sweep_count, sweep_plan
from cullis.sympoly import det_change, det_poly_of_map, fold, nonzero_point
from oracles import oracle_subset_sign


def eval_poly(poly, point, field):
    total = field.zero
    for mono, coeff in poly.items():
        term = field.element(coeff if isinstance(coeff, (int, Fraction)) else coeff)
        for var, exp in mono:
            for _ in range(exp):
                term = term * point[var]
        total = total + term
    return total


def oracle_identity_poly(n, k, p=None):
    """det(X) as a polynomial by the injection sum, one term per injection."""
    poly = {}
    for images in permutations(range(1, n + 1), k):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if images[a] > images[b])
        sign = (-1) ** inv * oracle_subset_sign(images)
        mono = tuple(sorted(((i - 1) + j * n, 1) for j, i in enumerate(images)))
        poly[mono] = sign % p if p else Fraction(sign)
    return poly


def identity_poly(n, k, field):
    """det(X) as a polynomial: `det_poly_of_map` of the identity rows."""
    nk = n * k
    return det_poly_of_map([[int(r == c) for c in range(nk)] for r in range(nk)], n, k, field)


def test_identity_map_expansion_matches_plain_determinant():
    for field in (gf(2), gf(5), RATIONALS):
        for (n, k) in [(1, 1), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3)]:
            assert identity_poly(n, k, field) == oracle_identity_poly(n, k, field.p)


def test_identity_polynomial_term_count():
    poly = identity_poly(4, 2, gf(5))
    assert len(poly) == 12  # injections of a pair into four rows
    assert all(len(mono) == 2 for mono in poly)


def test_map_expansion_agrees_with_pointwise_evaluation():
    rng = random.Random(33)
    shapes = {gf(7): [(4, 2)] * 6, RATIONALS: [(4, 2)] * 6 + [(3, 2), (4, 3)],
              gf(5): [(5, 3)], gf(10007): [(4, 3)]}
    for field, field_shapes in shapes.items():
        for n, k in field_shapes:
            T = LinearMapNK(n, k, random_matrix(field, n * k, n * k, rng))
            rows = [[e.value for e in T.mat.row(i)] for i in range(1, n * k + 1)]
            poly = det_poly_of_map(rows, n, k, field)
            for _ in range(4):
                X = random_matrix(field, n, k, rng)
                point = list(vec(X))
                assert eval_poly(poly, point, field) == det(T.apply(X))


def test_det_change_is_the_folded_difference():
    # det(X) is taken off in packed form and folding is skipped below p, yet
    # the result is fold(det(T(X)) - det(X)), also for p <= k
    rng = random.Random(34)
    for field in (gf(2), gf(3), gf(5), RATIONALS):
        for n, k in ((2, 2), (3, 2), (3, 3), (4, 3)):
            nk = n * k
            for T in (LinearMapNK(n, k, random_matrix(field, nk, nk, rng)),
                      LinearMapNK.identity_map(field, n, k)):
                rows = [[e.value for e in T.mat.row(i)] for i in range(1, nk + 1)]
                diff = det_poly_of_map(rows, n, k, field)
                for mono, c in identity_poly(n, k, field).items():
                    diff[mono] = diff.get(mono, 0) - c
                assert det_change(rows, n, k, field) == fold(diff, field)


def test_cancellation_prunes_zero_coefficients():
    F = gf(3)
    # X -> X + X has coefficient 2 everywhere; X -> 3X collapses to zero map
    tripled = LinearMapNK.identity_map(F, 3, 2).mat.scale(3)
    rows = [[e.value for e in tripled.row(i)] for i in range(1, 7)]
    assert det_poly_of_map(rows, 3, 2, F) == {}


def test_expansion_guard_refuses():
    F = gf(5)
    T = LinearMapNK(4, 3, random_matrix(F, 12, 12, random.Random(9)))
    rows = [[e.value for e in T.mat.row(i)] for i in range(1, 13)]
    with pytest.raises(BudgetExceeded):
        det_poly_of_map(rows, 4, 3, F, guard=1000)
    # a shape whose plan has more moves than the guard is refused unbuilt
    big = [[0] * 130 for _ in range(130)]
    before = sweep_plan.cache_info().misses
    with pytest.raises(BudgetExceeded):
        det_poly_of_map(big, 13, 10, F, guard=sweep_count(13, 10) - 1)
    assert sweep_plan.cache_info().misses == before


def test_fold_reduces_by_x_to_the_p():
    # x0^2 x1 + x0 x1^2 = 2 x0 x1 as a function on GF(2), which is zero
    assert fold({((0, 2), (1, 1)): 1, ((0, 1), (1, 2)): 1}, gf(2)) == {}
    assert nonzero_point({}, 2, gf(2)) is None
    # x0^2 x1 - x0 x1^2 = x0 x1 (x0 - x1) is not zero on GF(3)
    F = gf(3)
    poly = fold({((0, 2), (1, 1)): 1, ((0, 1), (1, 2)): -1}, F)
    assert poly == {((0, 2), (1, 1)): 1, ((0, 1), (1, 2)): 2}
    x0, x1 = nonzero_point(poly, 2, F)
    assert (x0 ** 2 * x1 - x0 * x1 ** 2) % 3
