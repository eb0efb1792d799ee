"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line.  Criterion 10 is split.  10a checks
the census counts and that the width-one column condition agrees with the
exhaustive preservation check on every 3x3 map over GF(2).  10b checks census
invertibility along the paper's dichotomy: every member of the square (2,2)
census over GF(2) is invertible, as the classical Frobenius case promises,
while a width-one census, whose determinant is the linear functional
sum (-1)**(i-1) x_i, holds exactly the p**(n(n-1)) maps fixing that
functional, of which only |GL_n(p)| / (p**n - 1) are invertible and at least
one singular member is a preserver.
"""

import random
from itertools import product


from cullis import (
    LinearMapNK,
    ParityError,
    RATIONALS,
    RectMatrix,
    basis_matrix,
    basis_selector,
    check_k1_form,
    check_sign_condition,
    det,
    det_definition,
    det_laplace,
    det_minorsum,
    det_product_rhs,
    detn2_partner,
    enumerate_preservers,
    factor_two_sided,
    gf,
    hjoin,
    identity,
    in_radical,
    is_preserver,
    k_subsets,
    lambda_coeffs,
    make_b_diffdiff,
    make_b_diffsum,
    make_b_plainsum,
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
    semicyclic_shift,
    zeros,
)
from cullis.lambdapoly import diffdiff_rhs, diffsum_rhs, plainsum_rhs

Q = RATIONALS


def report(number, slug, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {slug}: {status}{suffix}")
    return ok


def rand_shape(rng, max_n=7, max_k=4):
    n = rng.randrange(1, max_n + 1)
    return n, rng.randrange(1, min(n, max_k) + 1)


def rank_le1(field, n, k, rng):
    u = [field.random_element(rng) for _ in range(n)]
    v = [field.random_element(rng) for _ in range(k)]
    return RectMatrix.from_rows(field, [[a * b for b in v] for a in u])


def unimodular(field, k, rng):
    while True:
        B = random_matrix(field, k, k, rng)
        d = det(B)
        if d.value:
            return B.with_scaled_column(1, d.inverse())


def test_criterion_01_algorithm_agreement():
    ok = True
    F2 = gf(2)
    for flat in product(range(2), repeat=6):
        X = RectMatrix.from_rows(F2, [flat[0:2], flat[2:4], flat[4:6]])
        vals = {str(det_definition(X)), str(det_minorsum(X)),
                str(det_laplace(X, 1)), str(det_laplace(X, 2))}
        ok = ok and len(vals) == 1
    rng = random.Random(1001)
    for _ in range(500):
        field = rng.choice([gf(5), gf(7), Q])
        n, k = rand_shape(rng)
        X = random_matrix(field, n, k, rng)
        d0 = det_definition(X)
        ok = ok and det_minorsum(X) == d0 and det_laplace(X, 1 + rng.randrange(k)) == d0
    assert report(1, "algorithm-agreement", ok)


def test_criterion_02_identity_suite():
    rng = random.Random(1002)
    failures = []

    for trial in range(100):  # multilinearity
        field = rng.choice([gf(5), gf(7)])
        n, k = rand_shape(rng, 6, 4)
        X = random_matrix(field, n, k, rng)
        u = [field.random_element(rng) for _ in range(n)]
        v = [field.random_element(rng) for _ in range(n)]
        a, b = field.random_element(rng), field.random_element(rng)
        j = rng.randrange(k)
        cu, cv, cm = X.columns(), X.columns(), X.columns()
        cu[j], cv[j] = u, v
        cm[j] = [a * x + b * y for x, y in zip(u, v)]
        lhs = det(RectMatrix.from_columns(field, cm))
        rhs = a * det(RectMatrix.from_columns(field, cu)) + b * det(
            RectMatrix.from_columns(field, cv))
        if lhs != rhs:
            failures.append("multilinearity")

    for trial in range(100):  # column swap and duplicate columns
        field = rng.choice([gf(5), gf(7)])
        n = rng.randrange(2, 7)
        k = rng.randrange(2, min(n, 4) + 1)
        X = random_matrix(field, n, k, rng)
        j1 = rng.randrange(k)
        j2 = (j1 + 1 + rng.randrange(k - 1)) % k
        cols = X.columns()
        cols[j1], cols[j2] = cols[j2], cols[j1]
        if det(RectMatrix.from_columns(field, cols)) != -det(X):
            failures.append("column-swap")
        cols[j1] = cols[j2]
        if det(RectMatrix.from_columns(field, cols)).value:
            failures.append("duplicate-column")

    for trial in range(100):  # adding combinations of other columns
        field = rng.choice([gf(5), gf(7)])
        n = rng.randrange(2, 7)
        k = rng.randrange(2, min(n, 4) + 1)
        X = random_matrix(field, n, k, rng)
        j = rng.randrange(k)
        cols = X.columns()
        tweaked = list(cols[j])
        for jj in range(k):
            if jj != j:
                c = field.random_element(rng)
                tweaked = [t + c * x for t, x in zip(tweaked, cols[jj])]
        cols[j] = tweaked
        if det(RectMatrix.from_columns(field, cols)) != det(X):
            failures.append("column-combination")

    for trial in range(100):  # product expansion
        field = rng.choice([gf(5), gf(7), Q])
        n = rng.randrange(2, 7)
        k = rng.randrange(1, min(n, 4) + 1)
        l = rng.randrange(1, k + 1)
        X = random_matrix(field, n, k, rng)
        Y = random_matrix(field, k, l, rng)
        if det(X @ Y) != det_product_rhs(X, Y):
            failures.append("product-expansion")

    for trial in range(100):  # right multiplication by a square factor
        field = rng.choice([gf(5), gf(7)])
        n = rng.randrange(2, 7)
        k = rng.randrange(1, min(n, 4) + 1)
        X = random_matrix(field, n, k, rng)
        Y = random_matrix(field, k, k, rng)
        if det(X @ Y) != det_product_rhs(X, Y):
            failures.append("right-multiplication")

    for trial in range(100):  # Laplace vs definition
        field = rng.choice([gf(5), gf(7), Q])
        n, k = rand_shape(rng, 6, 4)
        X = random_matrix(field, n, k, rng)
        if det_laplace(X, 1 + rng.randrange(k)) != det_definition(X):
            failures.append("laplace-vs-definition")

    shift_shapes = [(4, 2), (5, 3), (6, 2)]
    for trial in range(100):  # semi-cyclic shifts, even parity
        field = rng.choice([gf(5), gf(7)])
        n, k = shift_shapes[trial % 3]
        X = random_matrix(field, n, k, rng)
        i = 1 + rng.randrange(n)
        v = det(semicyclic_shift(X, i))
        if ((n - i) * k) % 2:
            v = -v
        if v != det(X):
            failures.append("semicyclic")

    ones_shapes = [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)]
    for trial in range(100):  # joined ones column, both parities
        field = rng.choice([gf(5), gf(7)])
        n, k = ones_shapes[trial % 5]
        X = random_matrix(field, n, k, rng)
        joined = det(hjoin(X, ones(field, n, 1)))
        want = det(X) if (n + k) % 2 else field.zero
        if joined != want:
            failures.append("ones-column")

    assert report(2, "identity-suite", not failures, ";".join(sorted(set(failures))))


def test_criterion_03_basis_column_signs():
    ok = True
    F = gf(5)
    for n in range(1, 7):
        for k in range(1, min(n, 4) + 1):
            for c in k_subsets(n, k):
                ok = ok and det(basis_selector(F, n, c.elems)).value == c.sign % 5
    assert report(3, "basis-column-signs", ok)


def test_criterion_04_two_sided_criterion():
    rng = random.Random(1004)
    disagreements = 0
    for (n, k) in [(3, 2), (4, 2), (5, 3)]:
        for trial in range(50):
            field = gf(5) if trial % 2 == 0 else gf(7)
            if trial < 45:
                A = random_matrix(field, n, n, rng)
                B = random_matrix(field, k, k, rng)
            else:  # include pairs that satisfy the criterion
                A = identity(field, n)
                B = unimodular(field, k, rng)
            cond = check_sign_condition(A, B)
            verdict = is_preserver(make_two_sided(A, B), "symbolic").preserves
            if cond != verdict:
                disagreements += 1
    assert report(4, "two-sided-criterion", disagreements == 0,
                  f"{disagreements} disagreements")


def test_criterion_05_radical():
    members = radical_enumerate(4, 2, 3)
    ok = len(members) == 1 and members[0].is_zero()
    members = radical_enumerate(4, 1, 3)
    ok = ok and len(members) == 27
    ok = ok and any(w == ones(gf(3), 4, 1) for w in members)
    for (n, k) in [(3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3)]:
        want = (n - (k + 1)) % 2 == 0
        ok = ok and in_radical(ones(gf(5), n, k)) == want
    assert report(5, "radical", ok)


def test_criterion_06_shift_map_suite():
    ok = True
    for (n, k) in [(4, 2), (5, 3), (6, 4)]:
        F = gf(5)
        for i in range(1, n + 1):
            for j in range(1, k + 1):
                S = make_s_shift(n, k, i, j, F)
                ok = ok and S.is_invertible()
                ok = ok and is_preserver(S, "symbolic").preserves
    rng = random.Random(1006)
    for _ in range(30):
        n = rng.randrange(3, 7)
        A = random_matrix(gf(7), n, rng.randrange(1, 4), rng)
        B = random_matrix(gf(7), n, rng.randrange(1, 3), rng)
        i = 1 + rng.randrange(n)
        ok = ok and s_shift_apply(hjoin(A, B), i, 1) == hjoin(
            s_shift_apply(A, i, 1), s_shift_apply(B, i, 1))
    assert report(6, "shift-map-suite", ok)


def test_criterion_07_rank_degree():
    rng = random.Random(1007)
    ok = True
    for _ in range(200):
        field = rng.choice([gf(5), gf(7)])
        n = rng.randrange(2, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        ok = ok and max_deg_over_all_A(rank_le1(field, n, k, rng)) <= 1

    F = gf(5)
    pool = [rank_le1(F, 6, 4, rng) for _ in range(10)]
    pool += [random_matrix(F, 6, 4, rng) for _ in range(30)]
    pool.append(zeros(F, 6, 4))
    filtered = [B for B in pool if max_deg_over_all_A(B) <= 1]
    ok = ok and filtered and all(rank(B) <= 1 for B in filtered)

    for n in (5, 7, 9):
        rows = [[0] * 3 for _ in range(n)]
        rows[0][0], rows[4][0] = 1, -1
        rows[1][1], rows[3][1] = 1, -1
        B = RectMatrix.from_rows(F, rows)
        ok = ok and rank(B) == 2 and max_deg_over_all_A(B) <= 1

    F2 = gf(2)
    mats = [RectMatrix.from_rows(F2, [flat[0:2], flat[2:4], flat[4:6]])
            for flat in product(range(2), repeat=6)]
    for B in mats:
        brute = max(lambda_coeffs(A, B).degree() for A in mats)
        ok = ok and max_deg_over_all_A(B) == brute
    assert report(7, "rank-degree", ok)


def test_criterion_08_completion_constructors():
    rng = random.Random(1008)
    F = gf(7)
    bad = []
    for n in range(4, 9):
        for k in range(4, n + 1):
            for l in range(3, n):
                B = make_b_diffdiff(n, k, l, F)
                for _ in range(100):
                    X = random_matrix(F, n, 2, rng)
                    if det(hjoin(X, B)) != diffdiff_rhs(X, l):
                        bad.append(("diffdiff", n, k, l))
                        break
    for n in range(3, 9):
        for k in range(3, n + 1):
            B = make_b_diffsum(n, k, F)
            for _ in range(100):
                X = random_matrix(F, n, 2, rng)
                if det(hjoin(X, B)) != diffsum_rhs(X, k):
                    bad.append(("diffsum", n, k))
                    break
    for n in range(2, 9):
        for k in range(2, n + 1):
            B = make_b_plainsum(n, k, F)
            for _ in range(100):
                X = random_matrix(F, n, 2, rng)
                lhs = det(X) if B is None else det(hjoin(X, B))
                if lhs != plainsum_rhs(X, k):
                    bad.append(("plainsum", n, k))
                    break
    assert report(8, "completion-constructors", not bad, str(bad[:3]) if bad else "")


def test_criterion_09_width_two_counterexample():
    F = gf(3)
    T = make_k2_counterexample(4, F)
    ok = is_preserver(T, "exhaustive").preserves
    ok = ok and factor_two_sided(T) is None
    want = (basis_matrix(F, 4, 2, 1, 1) + basis_matrix(F, 4, 2, 2, 1)
            - basis_matrix(F, 4, 2, 4, 2))
    ok = ok and T.apply(basis_matrix(F, 4, 2, 2, 1)) == want
    rng = random.Random(1009)
    for n in (4, 5, 6):
        for _ in range(100):
            X = random_matrix(gf(7), n, 2, rng)
            if det(X) != det(detn2_partner(X)):
                ok = False
                break
    assert report(9, "width-two-counterexample", ok)


def test_criterion_10a_censuses():
    c21_2 = enumerate_preservers(2, 1, 2)
    c21_3 = enumerate_preservers(2, 1, 3)
    c31_2 = enumerate_preservers(3, 1, 2)
    ok = (c21_2.count, c21_3.count, c31_2.count) == (4, 9, 64)
    ok = ok and all(check_k1_form(T) for T in c31_2.maps)
    F = gf(2)
    for flat in product(range(2), repeat=9):
        rows = [[F.element(x) for x in flat[r * 3:(r + 1) * 3]] for r in range(3)]
        T = LinearMapNK(3, 1, RectMatrix.from_rows(F, rows))
        ok = ok and check_k1_form(T) == is_preserver(T, "exhaustive").preserves
    assert report("10a", "censuses-and-width-one-condition", ok)


def gl_order(n, p):
    order = 1
    for i in range(n):
        order *= p ** n - p ** i
    return order


def test_criterion_10b_census_invertibility():
    # Square shape: the Frobenius case, where every preserver is invertible.
    census = enumerate_preservers(2, 2, 2)
    invertible = sum(1 for T in census.maps if T.is_invertible())
    ok = census.count > 0 and invertible == census.count
    details = [f"(2,2,2) {invertible}/{census.count} invertible"]
    # Width one: det is f(x) = sum (-1)**(i-1) x_i and T preserves it exactly
    # when f o T = f, so the census is the stabiliser of a non-zero functional:
    # p**(n(n-1)) maps, of which |GL_n(p)| / (p**n - 1) are invertible.
    for n, k, p in ((2, 1, 2), (2, 1, 3), (3, 1, 2)):
        census = enumerate_preservers(n, k, p)
        singular = [T for T in census.maps if not T.is_invertible()]
        invertible = census.count - len(singular)
        ok = ok and census.count == p ** (n * (n - 1))
        ok = ok and invertible == gl_order(n, p) // (p ** n - 1)
        ok = ok and bool(singular) and is_preserver(singular[0], "exhaustive").preserves
        details.append(f"({n},{k},{p}) {invertible}/{census.count} invertible")
    detail = "; ".join(details)
    report("10b", "census-invertibility", ok, detail)
    assert ok, (
        "the square census must be wholly invertible; a width-one census must "
        "hold p**(n(n-1)) maps with |GL_n(p)| / (p**n - 1) invertible and a "
        f"singular preserver among them; got {detail}"
    )


def test_criterion_11_singular_preserver_parity():
    F3, F5 = gf(3), gf(5)
    T = make_singular_preserver(4, 1, F3)
    ok = not T.is_invertible() and is_preserver(T, "exhaustive").preserves
    T = make_singular_preserver(5, 2, F5)
    ok = ok and not T.is_invertible()
    ok = ok and is_preserver(T, "random", samples=200, seed=5).verdict == "inconclusive"
    ok = ok and is_preserver(T, "symbolic").preserves
    try:
        make_singular_preserver(4, 2, F3)
        ok = False
    except ParityError:
        pass
    members = radical_enumerate(4, 2, 3)
    ok = ok and len(members) == 1 and members[0].is_zero()
    assert report(11, "singular-preserver-parity", ok)
