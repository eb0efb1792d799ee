import json
import random
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

import pytest

from cullis import (
    BudgetExceeded,
    FieldMismatch,
    LinearMapNK,
    ParityError,
    PreserverReport,
    RATIONALS,
    RectMatrix,
    ShapeError,
    basis_matrix,
    check_k1_form,
    check_sign_condition,
    det,
    detn2_partner,
    enumerate_preservers,
    factor_two_sided,
    gf,
    hjoin,
    identity,
    in_radical,
    is_preserver,
    make_k2_counterexample,
    make_s_shift,
    make_singular_preserver,
    make_two_sided,
    max_deg_over_all_A,
    ones,
    radical_enumerate,
    random_matrix,
    rank,
    s_shift_apply,
    unvec,
    zeros,
)
from cullis import preserver
from cullis.determinant import _cheaper
from cullis.preserver import _cleared, _kronecker, _sweep_report
from alarms import within
from oracles import oracle_det

Q = RATIONALS


def unimodular(field, k, rng):
    while True:
        B = random_matrix(field, k, k, rng)
        d = det(B)
        if d.value:
            return B.with_scaled_column(1, d.inverse())


def test_apply_identity_and_two_sided():
    F = gf(5)
    T = LinearMapNK.identity_map(F, 3, 2)
    X = random_matrix(F, 3, 2, random.Random(0))
    assert T.apply(X) == X
    T2 = make_two_sided(identity(F, 3), identity(F, 2))
    assert T2.apply(X) == X
    assert T2 == T


def test_two_sided_action_matches_products():
    rng = random.Random(1)
    for field in (gf(7), Q):
        A = random_matrix(field, 4, 4, rng)
        B = random_matrix(field, 2, 2, rng)
        T = make_two_sided(A, B)
        for _ in range(5):
            X = random_matrix(field, 4, 2, rng)
            assert T.apply(X) == A @ X @ B


def test_composition_is_matrix_product():
    rng = random.Random(2)
    for F in (gf(5), Q):
        T1 = make_two_sided(random_matrix(F, 3, 3, rng), random_matrix(F, 2, 2, rng))
        T2 = make_two_sided(random_matrix(F, 3, 3, rng), random_matrix(F, 2, 2, rng))
        X = random_matrix(F, 3, 2, rng)
        assert T1.compose(T2).apply(X) == T1.apply(T2.apply(X))
        assert T1.compose(T2).mat == T1.mat @ T2.mat
        S = make_s_shift(3, 1, 2, 1, F)  # sparse factors, zero products skipped
        R = LinearMapNK(3, 1, random_matrix(F, 3, 3, rng))
        assert S.compose(R).mat == S.mat @ R.mat and R.compose(S).mat == R.mat @ S.mat


def test_sign_condition_examples():
    rng = random.Random(3)
    F = gf(7)
    assert check_sign_condition(identity(F, 4), identity(F, 2))
    assert check_sign_condition(identity(F, 4), unimodular(F, 2, rng))
    # determinant -1 on the square factor flips every sign
    neg = identity(Q, 2).with_scaled_column(1, -1)
    assert not check_sign_condition(identity(Q, 4), neg)
    # scaling one side breaks preservation
    assert not check_sign_condition(identity(Q, 4), identity(Q, 2).scale(2))
    stretched = identity(Q, 2).with_scaled_column(1, 2)
    T = make_two_sided(identity(Q, 4), stretched)
    assert is_preserver(T, "symbolic").verdict == "violates"
    # singular outer factor cannot hit the unit signs
    singular = zeros(Q, 4, 4)
    assert not check_sign_condition(singular, identity(Q, 2))


def test_sign_condition_equivalence_random():
    rng = random.Random(4)
    for (n, k) in [(3, 2), (4, 2)]:
        for p in (5, 7):
            F = gf(p)
            pairs = [
                (random_matrix(F, n, n, rng), random_matrix(F, k, k, rng))
                for _ in range(10)
            ]
            pairs.append((identity(F, n), unimodular(F, k, rng)))
            for A, B in pairs:
                cond = check_sign_condition(A, B)
                verdict = is_preserver(make_two_sided(A, B), "symbolic")
                assert cond == verdict.preserves
                if verdict.verdict == "violates":
                    w = verdict.witness
                    assert det(make_two_sided(A, B).apply(w)) != det(w)


def test_is_preserver_methods_and_hierarchy():
    F = gf(3)
    T = LinearMapNK.identity_map(F, 4, 2)
    assert is_preserver(T, "exhaustive").preserves
    assert is_preserver(T, "symbolic").preserves
    r = is_preserver(T, "random", samples=50, seed=7)
    assert r.verdict == "inconclusive"  # sampling never certifies
    scaling = make_two_sided(identity(Q, 3).scale(2), identity(Q, 2))
    rep = is_preserver(scaling, "symbolic")
    assert rep.verdict == "violates"
    assert det(scaling.apply(rep.witness)) != det(rep.witness)
    rep2 = is_preserver(scaling, "random", samples=100, seed=1)
    assert rep2.verdict == "violates"
    with pytest.raises(BudgetExceeded):
        is_preserver(LinearMapNK.identity_map(gf(5), 4, 2), "exhaustive", budget=100)
    with pytest.raises(FieldMismatch):
        is_preserver(LinearMapNK.identity_map(Q, 4, 2), "exhaustive")


def test_random_check_refuses_no_samples():
    # sampling nothing is no check at all, not an inconclusive one
    T = make_s_shift(4, 2, 2, 1, gf(5))
    for samples in (0, -5):
        with pytest.raises(ValueError):
            is_preserver(T, "random", samples=samples)


def test_random_check_runs_each_det_under_the_callers_budget(monkeypatch):
    budgets = []

    def recording(X, budget=None):
        budgets.append(budget)
        return det(X, budget)

    monkeypatch.setattr(preserver, "det", recording)
    T = LinearMapNK.identity_map(gf(10007), 6, 4)
    b = 2 * 3 * _cheaper(6, 4)[1]
    assert is_preserver(T, "random", budget=b, samples=3).verdict == "inconclusive"
    assert budgets == [b] * 6


def test_random_check_weighs_its_count_before_the_first_draw(monkeypatch):
    # two dets of 12 steps at 4x2 on 127-bit residues (weight 2**2): 96 for
    # one sample, refused before any draw below it, though 24 covers the
    # unweighted steps.  Over QQ the weight bounds every draw's image: a row
    # sum of 2**200 clears below 2**215, so 4**2
    wide = LinearMapNK(4, 2, identity(Q, 8).scale(2**200))
    for T, whole, verdict in ((make_s_shift(4, 2, 2, 1, gf(2**127 - 1)), 96, "inconclusive"),
                              (wide, 2 * 12 * 16, "violates")):
        with monkeypatch.context() as m:
            m.setattr(preserver, "random_matrix", lambda *args: pytest.fail("drew first"))
            for budget in (2 * _cheaper(4, 2)[1], whole - 1):
                refusal = f"^{whole} entry-weighted steps exceed budget {budget}$"
                with within(1), pytest.raises(BudgetExceeded, match=refusal):
                    is_preserver(T, "random", budget=budget, samples=1)
        assert is_preserver(T, "random", budget=whole, samples=1).verdict == verdict


def test_symbolic_small_field_fallback():
    # over GF(2) formal coefficients can differ while values agree; folding
    # by x**2 = x must still settle the question exactly, also for k > p
    F = gf(2)
    rng = random.Random(8)
    for n, k in ((2, 2), (3, 3)):
        maps = [LinearMapNK(n, k, random_matrix(F, n * k, n * k, rng)) for _ in range(20)]
        maps.append(make_s_shift(n, k, 2, 1, F))
        for T in maps:
            sym = is_preserver(T, "symbolic")
            exh = is_preserver(T, "exhaustive")
            assert sym.preserves == exh.preserves
            if not sym.preserves:
                assert det(T.apply(sym.witness)) != det(sym.witness)


def test_symbolic_report_is_seed_free():
    for F in (gf(7), Q):
        doubling = make_two_sided(identity(F, 4).scale(2), identity(F, 2))
        reports = [is_preserver(doubling, "symbolic", seed=s) for s in range(5)]
        assert reports[0].verdict == "violates"
        assert all(r == reports[0] for r in reports)
        w = reports[0].witness
        assert det(doubling.apply(w)) != det(w)


def test_symbolic_matches_exhaustive_gf3():
    F = gf(3)
    rng = random.Random(88)
    maps = [
        make_s_shift(4, 2, 2, 1, F),
        LinearMapNK(4, 2, random_matrix(F, 8, 8, rng)),
        make_two_sided(identity(F, 4), identity(F, 2).scale(2)),
    ]
    for T in maps:
        assert is_preserver(T, "symbolic").preserves == is_preserver(T, "exhaustive").preserves


def is_kronecker(T):
    values = [e.value for e in T.mat.entries]
    return _kronecker(*_cleared(values, T.field.p), T.n, T.k, T.field.p) is not None


def test_closed_form_is_the_sweep_on_two_sided_maps():
    # the sign weights give the sweep's verdict, and the unit pattern of the
    # first nonzero weight is the sweep's witness; GF(2) and GF(3) have
    # p <= k at these shapes
    rng = random.Random(81)
    singular = 0
    for F in (gf(2), gf(3), gf(5), gf(7), Q):
        for n, k in ((2, 1), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3)):
            pairs = [(random_matrix(F, n, n, rng), random_matrix(F, k, k, rng)) for _ in range(4)]
            pairs += [(identity(F, n), unimodular(F, k, rng)),
                      (random_matrix(F, n, n, rng), zeros(F, k, k).with_scaled_column(1, 0)),
                      (hjoin(random_matrix(F, n, n - 1, rng), zeros(F, n, 1)),
                       random_matrix(F, k, k, rng))]
            maps = [make_two_sided(A, B) for A, B in pairs]
            maps.append(LinearMapNK(n, k, zeros(F, n * k, n * k)))
            for T in maps:
                assert is_kronecker(T)
                singular += not T.is_invertible()
                rep = is_preserver(T, "symbolic")
                assert rep == _sweep_report(T, None)
                if rep.witness is not None:
                    assert det(T.apply(rep.witness)) != det(rep.witness)
    assert singular >= 3 * 5 * 6


def test_maps_that_do_not_factor_take_the_sweep():
    F = gf(3)
    corner = make_k2_counterexample(4, F)
    singular = make_singular_preserver(5, 2, F)  # at k = 1 every map is X -> b A X
    T = make_two_sided(random_matrix(F, 4, 4, random.Random(82)), identity(F, 2))
    ent = list(T.mat.entries)
    ent[9] = ent[9] + F.one
    changed = LinearMapNK(4, 2, RectMatrix(F, 8, 8, ent))
    for T in (corner, singular, changed):
        assert not is_kronecker(T)
        rep = is_preserver(T, "symbolic")
        assert rep == _sweep_report(T, None)
        assert rep.preserves == is_preserver(T, "exhaustive").preserves
    assert is_preserver(corner, "symbolic").preserves
    assert is_preserver(singular, "symbolic").preserves
    # over QQ, with fractions: the corner swap after X -> X diag(1/2, 2)
    half = RectMatrix.from_rows(Q, [["1/2", 0], [0, 2]])
    T = make_k2_counterexample(4, Q).compose(make_two_sided(identity(Q, 4), half))
    assert not is_kronecker(T)
    assert _sweep_report(T, None) == PreserverReport("preserves", "symbolic")
    assert is_preserver(T, "symbolic").preserves


def test_two_sided_maps_at_the_papers_shapes():
    # dense 8x6 over GF(10007) used to run 138 s and raise BudgetExceeded
    rng = random.Random(83)
    for F, n, k in ((gf(10007), 8, 6), (Q, 7, 5)):
        T = make_two_sided(random_matrix(F, n, n, rng), random_matrix(F, k, k, rng))
        rep = is_preserver(T, "symbolic")
        assert rep.verdict == "violates"
        assert det(T.apply(rep.witness)) != det(rep.witness)
    F = gf(10007)
    B = unimodular(F, 6, rng).with_scaled_column(1, F.element(3 ** 6).inverse())
    assert is_preserver(make_two_sided(identity(F, 8).scale(3), B), "symbolic").preserves


def test_two_sided_maps_of_tall_narrow_shapes():
    # the weights are C(n, k) determinants of n x k column sets of A: 30 of
    # them at 30x1, where D has perm(30, 1) = 30 terms
    F = gf(7)
    A = random_matrix(F, 30, 30, random.Random(84))
    T = make_two_sided(A, identity(F, 1).scale(3))
    assert not check_sign_condition(A, identity(F, 1).scale(3))
    rep = is_preserver(T, "symbolic")
    assert rep.verdict == "violates"
    assert det(T.apply(rep.witness)) != det(rep.witness)
    assert check_sign_condition(identity(F, 30), identity(F, 1))
    assert is_preserver(make_two_sided(identity(F, 30), identity(F, 1)), "symbolic").preserves
    # 12x2 over QQ: 66 weights against the sweep's verdict and witness
    T = make_two_sided(random_matrix(Q, 12, 12, random.Random(85)), identity(Q, 2))
    assert is_preserver(T, "symbolic") == _sweep_report(T, None)


def test_closed_form_budget_counts_its_terms():
    # det(B)'s steps and C(n, k) n x k determinants' steps, refused before
    # any weight is drawn
    T = make_two_sided(identity(gf(5), 5).scale(2), identity(gf(5), 3))
    whole = _cheaper(3, 3)[1] + comb(5, 3) * _cheaper(5, 3)[1]
    with pytest.raises(BudgetExceeded, match=f"^{whole} elementary steps"):
        is_preserver(T, "symbolic", budget=whole - 1)
    assert is_preserver(T, "symbolic", budget=whole).verdict == "violates"


def test_sign_condition_counts_every_weight_before_the_first():
    # det(B)'s steps plus C(n, k) determinants' steps, against the default
    # 10**7: about 1.2 * 10**6 at 12x6 is answered, 1.19 * 10**8 at 16x8 is
    # refused before any determinant
    G = gf(5)
    whole = _cheaper(8, 8)[1] + comb(16, 8) * _cheaper(16, 8)[1]
    with within(1), pytest.raises(
            BudgetExceeded, match=f"^{whole} elementary steps exceed budget 10000000$"):
        check_sign_condition(identity(G, 16), identity(G, 8))
    with within(20):
        assert check_sign_condition(identity(G, 12), identity(G, 6))


def test_symbolic_check_of_the_identity_counts_its_weights():
    # X -> X factors, so its C(40, 4) = 91390 weights at 40x4 decide it:
    # refused at once by default and one step below the count, answered at it
    T = LinearMapNK.identity_map(gf(5), 40, 4)
    whole = _cheaper(4, 4)[1] + comb(40, 4) * _cheaper(40, 4)[1]
    for budget, limit in ((None, 10**7), (whole - 1, whole - 1)):
        with within(1), pytest.raises(
                BudgetExceeded, match=f"^{whole} elementary steps exceed budget {limit}$"):
            is_preserver(T, "symbolic", budget=budget)
    with within(60):
        assert is_preserver(T, "symbolic", budget=whole).preserves


# -- shift maps ---------------------------------------------------------------------


def test_shift_map_examples():
    F = gf(5)
    S = make_s_shift(4, 2, 1, 1, F)
    X = random_matrix(F, 4, 2, random.Random(9))
    assert S.apply(X) == -X
    rng = random.Random(10)
    for i in range(1, 5):
        for j in (1, 2):
            Y = random_matrix(F, 4, 2, rng)
            got = s_shift_apply(Y, i, j).entry(1, 1)
            want = Y.entry(i, j)
            if (4 - i + 1 - (1 if j == 1 else 0)) % 2:
                want = -want
            assert got == want


def test_shift_map_is_its_unit_matrix_images():
    # make_s_shift gives the signed permutation as index sets; over GF(2) the
    # entry -1 is 1, over GF(2**127 - 1) it is a 127-bit residue
    for F in (gf(5), Q, gf(2), gf(2**127 - 1)):
        for n, k in ((3, 1), (4, 2), (5, 3), (6, 4)):
            for i in range(1, n + 1):
                for j in range(1, k + 1):
                    want = LinearMapNK.from_function(F, n, k, lambda X: s_shift_apply(X, i, j))
                    assert make_s_shift(n, k, i, j, F) == want, (F, n, k, i, j)
    for i, j in ((0, 1), (4, 1), (1, 0), (1, 3)):
        with pytest.raises(ShapeError):
            make_s_shift(3, 2, i, j, Q)


def test_shift_maps_preserve_and_invert():
    for (n, k) in [(4, 2), (5, 3), (6, 2)]:
        F = gf(7)
        for i in range(1, n + 1):
            for j in range(1, k + 1):
                S = make_s_shift(n, k, i, j, F)
                assert S.is_invertible()
                assert is_preserver(S, "symbolic").preserves


def test_shift_join_commutation():
    rng = random.Random(11)
    F = gf(7)
    for _ in range(20):
        n = rng.randrange(3, 7)
        A = random_matrix(F, n, rng.randrange(1, 3), rng)
        B = random_matrix(F, n, rng.randrange(1, 3), rng)
        i = rng.randrange(1, n + 1)
        assert s_shift_apply(hjoin(A, B), i, 1) == hjoin(
            s_shift_apply(A, i, 1), s_shift_apply(B, i, 1)
        )


# -- the corner-swap (width two) map --------------------------------------------------


def test_corner_swap_basis_image():
    F = gf(3)
    T = make_k2_counterexample(4, F)
    got = T.apply(basis_matrix(F, 4, 2, 2, 1))
    want = (
        basis_matrix(F, 4, 2, 1, 1)
        + basis_matrix(F, 4, 2, 2, 1)
        - basis_matrix(F, 4, 2, 4, 2)
    )
    assert got == want


def test_corner_swap_is_its_partner_images():
    # the raw entries written by make_k2_counterexample, against the map
    # built from detn2_partner on the unit matrices; GF(2) has -1 = 1
    for F in (gf(2), gf(3), gf(7), Q):
        for n in range(4, 10):
            assert make_k2_counterexample(n, F) == LinearMapNK.from_function(F, n, 2, detn2_partner)


def test_corner_swap_preserves_exhaustively():
    T = make_k2_counterexample(4, gf(3))
    assert is_preserver(T, "exhaustive").preserves


def test_corner_swap_has_no_two_sided_form():
    assert factor_two_sided(make_k2_counterexample(4, gf(3))) is None
    assert factor_two_sided(make_k2_counterexample(6, Q)) is None


def test_corner_swap_rejects_small_n():
    with pytest.raises(ShapeError):
        make_k2_counterexample(3, Q)


def test_detn2_identity():
    rng = random.Random(12)
    for field in (gf(7), Q, gf(2), gf(2 ** 127 - 1)):
        for n in (2, 3, 4, 5, 6):
            for _ in range(25):
                X = random_matrix(field, n, 2, rng)
                assert det(X) == det(detn2_partner(X))
    for X in (zeros(Q, 5, 2), ones(Q, 5, 2)):
        assert det(X) == det(detn2_partner(X))
    partner = detn2_partner(ones(Q, 4, 2))
    assert det(partner).value == 0


# -- singular preservers and the radical ----------------------------------------------


def test_singular_preserver_4x1():
    F = gf(3)
    T = make_singular_preserver(4, 1, F)
    assert not T.is_invertible()
    assert T.apply(ones(F, 4, 1)).is_zero()
    assert is_preserver(T, "exhaustive").preserves


def test_singular_preserver_5x2():
    F = gf(5)
    T = make_singular_preserver(5, 2, F)
    assert not T.is_invertible()
    assert is_preserver(T, "random", samples=150, seed=3).verdict == "inconclusive"
    assert is_preserver(T, "symbolic").preserves


def test_singular_preserver_parity_guard():
    with pytest.raises(ParityError):
        make_singular_preserver(4, 2, gf(3))


def test_singular_preserver_is_its_unit_matrix_images():
    # the raw entries written by make_singular_preserver, against the map
    # built from X - x[1,1] * J on the unit matrices; GF(2) has -1 = 1
    for F in (gf(2), gf(3), gf(7), Q):
        for n in range(1, 8):
            for k in range(1 + n % 2, n + 1, 2):
                J = ones(F, n, k)
                want = LinearMapNK.from_function(F, n, k, lambda X: X - J.scale(X.entry(1, 1)))
                assert make_singular_preserver(n, k, F) == want, (F, n, k)


def test_in_radical_examples():
    F = gf(5)
    assert in_radical(zeros(F, 4, 2))
    assert in_radical(ones(gf(3), 4, 1))
    rng = random.Random(13)
    for _ in range(10):
        W = random_matrix(F, 4, 2, rng)
        if not W.is_zero():
            assert not in_radical(W)


def test_in_radical_ones_parity():
    for (n, k) in [(3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3)]:
        J = ones(gf(5), n, k)
        assert in_radical(J) == ((n - (k + 1)) % 2 == 0)


def test_radical_enumerations():
    members = radical_enumerate(4, 2, 3)
    assert len(members) == 1 and members[0].is_zero()
    members = radical_enumerate(4, 1, 3)
    assert len(members) == 27
    assert any(w == ones(gf(3), 4, 1) for w in members)
    members = radical_enumerate(3, 2, 3)
    assert any(w == ones(gf(3), 3, 2) for w in members)
    with pytest.raises(BudgetExceeded):
        radical_enumerate(4, 2, 5, budget=100)
    with pytest.raises(ShapeError):
        radical_enumerate(2, 3, 2)
    # the budget is read before the shape
    with pytest.raises(BudgetExceeded):
        radical_enumerate(2, 3, 2, budget=1)


def test_zero_width_is_a_shape_error():
    # the census checks the shape before its budget, the radical after it
    for n in (0, 2):
        with pytest.raises(ShapeError):
            enumerate_preservers(n, 0, 2)
    with pytest.raises(ShapeError):
        enumerate_preservers(2, 0, 2, budget=0)
    with pytest.raises(ShapeError):
        radical_enumerate(2, 0, 2)
    with pytest.raises(BudgetExceeded):
        radical_enumerate(2, 0, 2, budget=0)
    # a map's sides are checked before n * k is matched with its matrix
    with pytest.raises(ShapeError, match="matrix shape -2x-2 must be at least 1x1"):
        LinearMapNK(-2, -2, identity(gf(5), 4))


def brute_force_radical(n, k, p):
    """Every n x k matrix W over GF(p), in row-major order, in the radical:
    the loop over all p**(nk) matrices.  The coefficients of det(V + t*W)
    are sums over column sets S of W of terms with disjoint monomials in V,
    each multilinear and alternating in V's other columns, so W is in the
    radical when no nonempty S, with distinct basis columns in the other
    slots, has a nonzero det (by the package-free `oracle_det`)."""
    found = []
    for flat in product(range(p), repeat=n * k):
        cols = [flat[j::k] for j in range(k)]
        completions = ([cols[j] for j in S] + [[int(r == t) for r in range(n)] for t in R]
                       for d in range(1, k + 1) for S in combinations(range(k), d)
                       for R in permutations(range(n), k - d))
        if not any(oracle_det([list(row) for row in zip(*chosen)], p) for chosen in completions):
            found.append(flat)
    return found


def test_radical_matches_brute_force():
    for n, k, p in ((3, 2, 3), (4, 2, 3), (3, 1, 5), (4, 1, 3), (3, 3, 2), (4, 3, 2),
                    (5, 2, 2), (2, 2, 5)):
        got = [tuple(e.value for e in W.entries) for W in radical_enumerate(n, k, p)]
        assert got == brute_force_radical(n, k, p), (n, k, p)


def test_radical_closed_form_sizes():
    # too large for the brute force: p**(n-1) for k = 1, p**k for k >= 2
    # with n + k odd, and only zero for n + k even, up to (13, 6, 5), whose
    # 5**6 members are found among 5**13 columns
    for (n, k, p), size in (((5, 3, 3), 1), ((6, 3, 3), 27), ((6, 4, 2), 1), ((7, 4, 2), 16),
                            ((5, 1, 7), 7 ** 4), ((13, 6, 5), 5 ** 6), ((12, 6, 5), 1)):
        members = radical_enumerate(n, k, p, budget=p ** (n * k))
        assert len(members) == size, (n, k, p)
        assert members[0].is_zero()
        J = ones(gf(p), n, k)
        assert ((n + k) % 2 == 1) == any(w == J for w in members)


def test_in_radical_is_degree_zero():
    rng = random.Random(29)
    seen = set()
    for _ in range(400):
        F = rng.choice([gf(2), gf(3), gf(5), Q])
        n = rng.randrange(1, 7)
        k = rng.randrange(1, min(n, 4) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            W = random_matrix(F, n, k, rng)
        elif kind == 1:
            W = RectMatrix.from_columns(F, [[F.random_element(rng)] * n for _ in range(k)])
        else:
            W = ones(F, n, k).with_scaled_column(1 + rng.randrange(k), F.random_element(rng))
        member = in_radical(W)
        assert member == (max_deg_over_all_A(W) == 0)
        seen.add(member)
    assert seen == {False, True}


# -- factorisation ----------------------------------------------------------------------


def test_factor_roundtrip_random():
    rng = random.Random(14)
    F = gf(7)
    for _ in range(50):
        A0 = random_matrix(F, 4, 4, rng)
        B0 = random_matrix(F, 2, 2, rng)
        T = make_two_sided(A0, B0)
        fact = factor_two_sided(T)
        assert fact is not None
        A, B = fact
        for i in range(1, 5):
            for j in range(1, 3):
                E = basis_matrix(F, 4, 2, i, j)
                assert A @ E @ B == T.apply(E)
    # the Kronecker layout B^T (x) A against the unit-image construction
    for F in (gf(2), gf(7), Q):
        for n, k in ((1, 1), (3, 1), (3, 2), (4, 3), (5, 2)):
            A0, B0 = random_matrix(F, n, n, rng), random_matrix(F, k, k, rng)
            T = make_two_sided(A0, B0)
            assert T == LinearMapNK.from_function(F, n, k, lambda X: A0 @ X @ B0)
            fact = factor_two_sided(T)
            assert fact is not None and make_two_sided(*fact) == T


def test_factor_returns_none_on_random_non_product_maps():
    # T is X -> A @ X @ B exactly when its n x n blocks, flattened into the
    # rows of one k^2 x n^2 matrix, have rank at most one (Van Loan and
    # Pitsianis); random maps and sums of two products have rank two or more,
    # and so has a product with one entry changed, wherever that entry is
    rng = random.Random(21)
    refused = 0
    for F in (gf(2), gf(3), gf(7), Q):
        for n, k in ((2, 2), (3, 2), (4, 2), (3, 3)):
            nk = n * k
            maps = []
            for t in range(8):
                if t % 2:
                    maps.append(LinearMapNK(n, k, random_matrix(F, nk, nk, rng)))
                else:
                    maps.append(LinearMapNK(n, k, sum(
                        (make_two_sided(random_matrix(F, n, n, rng), random_matrix(F, k, k, rng)).mat
                         for _ in range(2)), zeros(F, nk, nk))))
            if (n, k) == (3, 2):
                ent = make_two_sided(random_matrix(F, n, n, rng), random_matrix(F, k, k, rng)).mat.entries
                maps += [LinearMapNK(n, k, RectMatrix(F, nk, nk, ent[:i] + (ent[i] + F.one,) + ent[i + 1:]))
                         for i in range(nk * nk)]
            for T in maps:
                blocks = RectMatrix.from_rows(F, [
                    [T.mat.entry(j * n + i + 1, l * n + m + 1) for i in range(n) for m in range(n)]
                    for j in range(k) for l in range(k)])
                assert (factor_two_sided(T) is None) == (rank(blocks) > 1)
                refused += rank(blocks) > 1
    assert refused > 100


def test_factor_normalisation_and_identity():
    fact = factor_two_sided(LinearMapNK.identity_map(gf(5), 3, 2))
    assert fact == (identity(gf(5), 3), identity(gf(5), 2))
    # scaled pairs refactor to the same gauge
    F = gf(7)
    T = make_two_sided(identity(F, 3).scale(3), identity(F, 2).scale(5))
    A, B = factor_two_sided(T)
    assert A == identity(F, 3)
    assert B == identity(F, 2).scale(15)


def test_factor_rejects_non_product_maps():
    F = gf(5)
    # different right factors on different rows break the rank-one grid
    swap = RectMatrix.from_rows(F, [[0, 1], [1, 0]])
    T1 = make_two_sided(basis_matrix(F, 3, 3, 1, 1), identity(F, 2))
    T2 = make_two_sided(basis_matrix(F, 3, 3, 2, 2), swap)
    blended = LinearMapNK(3, 2, T1.mat + T2.mat)
    assert factor_two_sided(blended) is None
    # pure left multiplications still factor (with the identity on the right)
    left = LinearMapNK(3, 2, T1.mat + make_two_sided(
        basis_matrix(F, 3, 3, 2, 2), identity(F, 2).scale(2)).mat)
    fact = factor_two_sided(left)
    assert fact is not None


def test_factor_zero_map():
    F = gf(5)
    Z = LinearMapNK(3, 2, zeros(F, 6, 6))
    fact = factor_two_sided(Z)
    assert fact is not None
    A, B = fact
    X = random_matrix(F, 3, 2, random.Random(15))
    assert (A @ X @ B).is_zero()


# -- censuses ------------------------------------------------------------------------------


def test_census_counts():
    assert enumerate_preservers(2, 1, 2).count == 4
    assert enumerate_preservers(2, 1, 3).count == 9
    assert enumerate_preservers(3, 1, 2).count == 64
    with pytest.raises(BudgetExceeded):
        enumerate_preservers(2, 2, 3, budget=1000)
    # more columns than rows is refused before the budget is read
    for budget in (None, 1):
        with pytest.raises(ShapeError):
            enumerate_preservers(1, 2, 2, budget)


def det_values(n, k, p):
    """det(X) for every X over GF(p), in product order of vec(X)."""
    F = gf(p)
    return [det(unvec([F.element(x) for x in v], n, k, F)).value
            for v in product(range(p), repeat=n * k)]


def brute_force_census(n, k, p):
    """Every (nk) x (nk) matrix over GF(p), in row-major order, that keeps
    det on every input: the loop over all p**((nk)**2) maps."""
    nk = n * k
    dets = det_values(n, k, p)
    vecs = list(product(range(p), repeat=nk))
    found = []
    for flat in product(range(p), repeat=nk * nk):
        rows = [flat[r * nk:(r + 1) * nk] for r in range(nk)]
        for code, v in enumerate(vecs):
            image = 0
            for r in rows:
                image = image * p + sum(a * x for a, x in zip(r, v)) % p
            if dets[image] != dets[code]:
                break
        else:
            found.append(flat)
    return found


def test_census_matches_brute_force():
    for (n, k, p), count in (((2, 1, 2), 4), ((2, 1, 3), 9), ((3, 1, 2), 64),
                             ((2, 2, 2), 72), ((4, 1, 2), 4096)):
        census = enumerate_preservers(n, k, p)
        got = [tuple(e.value for e in T.mat.entries) for T in census.maps]
        assert got == brute_force_census(n, k, p)
        assert census.count == len(got) == count


def test_census_reaches_2x2_over_gf3():
    # brute force would check 3**16 (43M) maps; the Frobenius count is
    # 2 |GL_2(3)|**2 / (3 - 1)**2, every member invertible
    census = enumerate_preservers(2, 2, 3, budget=3 ** 16)
    assert census.count == 2 * 48 ** 2 // 2 ** 2 == 1152
    assert all(T.is_invertible() for T in census.maps)


def test_width_one_censuses_beyond_brute_force():
    # a width-one census is the stabiliser of the functional det_{n,1}, so
    # it holds p**(n(n-1)) maps, each with the column condition; (2,1,17)
    # takes a tuple det table
    for n, k, p in ((2, 1, 5), (3, 1, 3), (2, 1, 17), (1, 1, 101)):
        census = enumerate_preservers(n, k, p)  # inside the default budget
        flats = [T.mat.values for T in census.maps]
        assert census.count == len(flats) == p ** (n * (n - 1)), (n, k, p)
        assert all(a < b for a, b in zip(flats, flats[1:])), (n, k, p)
        assert all(check_k1_form(T) for T in census.maps), (n, k, p)


def test_k2_census_is_the_plus_type_orthogonal_group():
    # det at 2x2 is a plus-type quadratic form on F**4, so its preservers are
    # O+(4, p), of order 2 p**2 (p**2 - 1)**2 (Taylor, The Geometry of the
    # Classical Groups, 1992): 72 at p = 2, 1152 at p = 3
    for p in (2, 3):
        assert enumerate_preservers(2, 2, p, budget=p ** 16).count == 2 * p**2 * (p**2 - 1) ** 2


def test_bench_census_counts_follow_the_closed_forms():
    # BENCH_census.json's times are for reading only; its counts are
    # recomputed: p**(n(n-1)) maps at k = 1, |O+(4, p)| = 2 p**2 (p**2 - 1)**2
    # at 2x2 and |O+(4, p)| p**12 at 3x2; p**(n-1) radical members at k = 1,
    # p**k when n + k is odd and 1 (zero only) when it is even
    bench = json.loads((Path(__file__).parents[1] / "BENCH_census.json").read_text())
    shapes = []
    for case in bench["cases"]:
        n, k, p = case["n"], case["k"], case["p"]
        shapes.append((case["case"], n, k, p))
        if case["case"] == "census":
            o4 = 2 * p ** 2 * (p ** 2 - 1) ** 2
            want = p ** (n * (n - 1)) if k == 1 else o4 * (p ** 12 if n == 3 else 1)
        elif case["case"] == "radical_enumerate":
            want = p ** (n - 1) if k == 1 else p ** k if (n + k) % 2 else 1
        else:  # in_radical of the all-ones matrix: n - k - 1 even
            want = (n - k - 1) % 2 == 0
        assert case["count"] == want, case
    assert shapes == [("census", 2, 2, 2), ("census", 3, 1, 3), ("census", 2, 1, 17),
                      ("census", 2, 2, 3), ("radical_enumerate", 3, 1, 5),
                      ("radical_enumerate", 4, 2, 3), ("radical_enumerate", 8, 5, 5),
                      ("in_radical of ones", 6, 3, 5), ("census", 3, 2, 2), ("census", 2, 2, 5)]


def first_violation_by_search(T):
    """The first input in product order whose image changes det, or None."""
    F, n, k = T.field, T.n, T.k
    dets = det_values(n, k, F.p)
    for code, v in enumerate(product(range(F.p), repeat=n * k)):
        X = unvec([F.element(x) for x in v], n, k, F)
        if det(T.apply(X)).value != dets[code]:
            return X
    return None


def test_exhaustive_matches_product_order_search():
    rng = random.Random(23)
    for n, k, p in ((3, 2, 3), (4, 1, 5), (3, 3, 2), (2, 1, 67)):
        F = gf(p)
        maps = [LinearMapNK(n, k, random_matrix(F, n * k, n * k, rng)) for _ in range(30)]
        maps.append(LinearMapNK.identity_map(F, n, k))
        if (n + k) % 2:
            maps.append(make_singular_preserver(n, k, F))
        else:
            maps.append(make_s_shift(n, k, 2, 3, F))
        for T in maps:
            rep = is_preserver(T, "exhaustive")
            want = first_violation_by_search(T)
            assert rep.preserves == (want is None)
            assert rep.witness == want


def test_census_members_verify_and_satisfy_column_condition():
    census = enumerate_preservers(3, 1, 2)
    for T in census.maps:
        assert is_preserver(T, "exhaustive").preserves
        assert check_k1_form(T)


def test_census_invertible_subcount():
    # width-one determinants are linear functionals, so singular preservers
    # exist even at even parity: exactly 24 of the 64 members are invertible
    census = enumerate_preservers(3, 1, 2)
    invertible = [m for m in census.maps if m.is_invertible()]
    assert len(invertible) == 24
    singular = next(m for m in census.maps if not m.is_invertible())
    assert is_preserver(singular, "exhaustive").preserves


def test_check_k1_form_characterises_preservation():
    F = gf(2)
    for flat in product(range(2), repeat=9):
        rows = [[F.element(x) for x in flat[r * 3 : (r + 1) * 3]] for r in range(3)]
        T = LinearMapNK(3, 1, RectMatrix.from_rows(F, rows))
        assert check_k1_form(T) == is_preserver(T, "exhaustive").preserves


def test_check_k1_form_examples():
    F = gf(5)
    assert check_k1_form(LinearMapNK.identity_map(F, 4, 1))
    swap = identity(F, 4).rows()
    swap[0], swap[1] = swap[1], swap[0]
    T = LinearMapNK(4, 1, RectMatrix.from_rows(F, swap))
    assert not check_k1_form(T)
    with pytest.raises(ShapeError):
        check_k1_form(LinearMapNK.identity_map(F, 3, 2))


# -- transport properties --------------------------------------------------------------------


def constructed_preservers(field, n, k, rng):
    maps = [LinearMapNK.identity_map(field, n, k)]
    maps.append(make_two_sided(identity(field, n), unimodular(field, k, rng)))
    if (n + k) % 2 == 0:
        s1 = make_s_shift(n, k, 1 + rng.randrange(n), 1 + rng.randrange(k), field)
        s2 = make_s_shift(n, k, 1 + rng.randrange(n), 1 + rng.randrange(k), field)
        maps += [s1, s1.compose(s2)]
    return maps


def test_rank_one_transport_at_6x4():
    rng = random.Random(16)
    F = gf(5)
    for T in constructed_preservers(F, 6, 4, rng):
        for i in range(1, 7):
            for j in range(1, 5):
                assert rank(T.apply(basis_matrix(F, 6, 4, i, j))) == 1


def test_degree_one_transport():
    rng = random.Random(17)
    F = gf(5)
    for (n, k) in [(4, 2), (6, 4)]:
        maps = constructed_preservers(F, n, k, rng)
        for T in maps:
            for _ in range(3):
                u = [F.random_element(rng) for _ in range(n)]
                v = [F.random_element(rng) for _ in range(k)]
                B = RectMatrix.from_rows(F, [[a * b for b in v] for a in u])
                assert max_deg_over_all_A(B) <= 1
                assert max_deg_over_all_A(T.apply(B)) <= 1


def test_composition_closure_symbolic():
    rng = random.Random(18)
    F = gf(5)
    maps = constructed_preservers(F, 4, 2, rng)
    for _ in range(6):
        T = rng.choice(maps).compose(rng.choice(maps))
        assert is_preserver(T, "symbolic").preserves


def test_forward_direction_at_6x4():
    rng = random.Random(19)
    F = gf(5)
    pairs = [
        (identity(F, 6), identity(F, 4)),
        (identity(F, 6), unimodular(F, 4, rng)),
        (identity(F, 6).scale(2), unimodular(F, 4, rng)),
    ]
    s = make_s_shift(6, 4, 3, 2, F).compose(make_s_shift(6, 4, 5, 1, F))
    fact = factor_two_sided(s)
    assert fact is not None
    pairs.append(fact)
    for A, B in pairs:
        assert check_sign_condition(A, B)
        T = make_two_sided(A, B)
        assert is_preserver(T, "symbolic").preserves
        refact = factor_two_sided(T)
        assert refact is not None and check_sign_condition(*refact)


@pytest.mark.parametrize("field", [gf(5), Q])
def test_raw_map_builders_match_their_function_references(field):
    rng = random.Random(14)
    n, k = 4, 2
    A, B = random_matrix(field, n, n, rng), random_matrix(field, k, k, rng)
    T = make_two_sided(A, B)
    assert T == LinearMapNK.from_function(field, n, k, lambda X: A @ X @ B)
    S = make_s_shift(n, k, 3, 2, field)
    assert S == LinearMapNK.from_function(field, n, k, lambda X: s_shift_apply(X, 3, 2))
    assert S.compose(T) == LinearMapNK.from_function(field, n, k, lambda X: S.apply(T.apply(X)))
    A2, B2 = factor_two_sided(T)
    assert LinearMapNK.from_function(field, n, k, lambda X: A2 @ X @ B2) == T
    assert make_two_sided(A2, B2) == T
    X = random_matrix(field, n, k, rng)
    assert T.apply(X) == A @ X @ B
    with pytest.raises(FieldMismatch):
        T.compose(make_s_shift(n, k, 1, 1, gf(3) if field == Q else Q))
