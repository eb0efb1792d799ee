import random
import signal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis import (
    RATIONALS,
    RectMatrix,
    ResourceGuard,
    ShapeError,
    all_completions_vanish,
    basis_matrix,
    deg_witness,
    det,
    gf,
    hjoin,
    lambda_coeffs,
    make_b_diffdiff,
    make_b_diffsum,
    make_b_plainsum,
    max_deg_over_all_A,
    random_matrix,
    rank,
    zeros,
)
from cullis import lambdapoly
from cullis.determinant import _cheaper, sweep, sweep_count
from cullis.lambdapoly import diffdiff_rhs, diffsum_rhs, plainsum_rhs

Q = RATIONALS
# the completion identities hold over every field; GF(2) has -1 = 1
IDENTITY_FIELDS = (gf(7), Q, gf(2), gf(2 ** 127 - 1))


def mat(rows, field=Q):
    return RectMatrix.from_rows(field, rows)


def rank_le1(field, n, k, rng):
    u = [field.random_element(rng) for _ in range(n)]
    v = [field.random_element(rng) for _ in range(k)]
    return RectMatrix.from_rows(field, [[a * b for b in v] for a in u])


def low_degree_rank_two_matrix(field, n):
    rows = [[0] * 3 for _ in range(n)]
    rows[0][0], rows[4][0] = 1, -1
    rows[1][1], rows[3][1] = 1, -1
    return RectMatrix.from_rows(field, rows)


def test_coefficient_examples():
    A = mat([[1, 0], [0, 1], [0, 0]])
    B = basis_matrix(Q, 3, 2, 1, 1)
    assert [c.value for c in lambda_coeffs(A, B).coeffs] == [1, 1, 0]
    Z = zeros(Q, 3, 2)
    assert [c.value for c in lambda_coeffs(A, Z).coeffs] == [1, 0, 0]
    assert [c.value for c in lambda_coeffs(Z, A).coeffs] == [0, 0, 1]


def huge_rational_pair(n, k, rng):
    """Two n x k rational matrices of 8,300-digit entries, "<4000 digits>e4300"."""
    def entry():
        return str(rng.randrange(10 ** 3999, 10 ** 4000)) + "e4300"
    return [mat([[entry() for _ in range(k)] for _ in range(n)]) for _ in range(2)]


def test_lambda_budget_charges_packed_entry_size(monkeypatch):
    A, B = huge_rational_pair(12, 6, random.Random(12))

    def no_work(*args):
        raise AssertionError("the kernel ran")

    # the kernel `_cheaper` hands back never runs; its count is the real one
    monkeypatch.setattr(lambdapoly, "_cheaper", lambda n, k: (no_work, _cheaper(n, k)[1]))
    with pytest.raises(ResourceGuard, match="entry-weighted steps"):
        lambda_coeffs(A, B)
    # the unweighted count still refuses before anything is converted
    monkeypatch.setattr(lambdapoly, "raw_rows", no_work)
    with pytest.raises(ResourceGuard, match="elementary steps"):
        lambda_coeffs(A, B, budget=sweep_count(12, 6) - 1)


def test_lambda_budget_keeps_the_benchmark_shapes():
    # 8x5 over GF(10007) and over small fractions pack into entries of 65 to
    # 128 bits: weight 4, far inside the default budget
    rng = random.Random(13)

    def small():
        return mat([[Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(5)]
                    for _ in range(8)])

    F = gf(10007)
    for A, B in ((random_matrix(F, 8, 5, rng), random_matrix(F, 8, 5, rng)), (small(), small())):
        assert lambda_coeffs(A, B, budget=4 * sweep_count(8, 5)) == lambda_coeffs(A, B)


def test_evaluation_consistency_and_endpoints():
    rng = random.Random(20)
    for _ in range(30):
        field = rng.choice([gf(7), Q])
        n = rng.randrange(1, 7)
        k = rng.randrange(1, min(n, 4) + 1)
        A = random_matrix(field, n, k, rng)
        B = random_matrix(field, n, k, rng)
        poly = lambda_coeffs(A, B)
        assert len(poly.coeffs) == k + 1
        assert poly.degree() <= k
        assert poly.coeffs[0] == det(A)
        assert poly.coeffs[k] == det(B)
        for _ in range(5):
            lam = field.random_element(rng)
            assert poly.evaluate(lam) == det(A + B.scale(lam))


def test_max_deg_trivial_cases():
    assert max_deg_over_all_A(zeros(gf(5), 4, 2)) == 0
    rng = random.Random(21)
    B = rank_le1(gf(5), 5, 3, rng)
    assert max_deg_over_all_A(B) <= 1


def test_max_deg_equals_brute_force_on_gf2_3x2():
    F = gf(2)
    mats = [
        mat([flat[0:2], flat[2:4], flat[4:6]], field=F)
        for flat in product(range(2), repeat=6)
    ]
    for B in mats:
        brute = max(lambda_coeffs(A, B).degree() for A in mats)
        assert max_deg_over_all_A(B) == brute


def test_rank_one_implies_low_degree():
    rng = random.Random(22)
    for _ in range(40):
        field = rng.choice([gf(5), gf(7)])
        n = rng.randrange(2, 8)
        k = rng.randrange(1, min(n, 4) + 1)
        B = rank_le1(field, n, k, rng)
        assert max_deg_over_all_A(B) <= 1


def test_low_degree_implies_low_rank_at_6x4():
    F = gf(5)
    rng = random.Random(23)
    pool = [rank_le1(F, 6, 4, rng) for _ in range(12)]
    pool += [random_matrix(F, 6, 4, rng) for _ in range(25)]
    pool.append(zeros(F, 6, 4))
    filtered = [B for B in pool if max_deg_over_all_A(B) <= 1]
    assert filtered, "filter must keep the rank-one constructions"
    assert all(rank(B) <= 1 for B in filtered)


def test_width_three_exception_matrix():
    for n in (5, 7, 9):
        B = low_degree_rank_two_matrix(gf(5), n)
        assert rank(B) == 2
        assert max_deg_over_all_A(B) <= 1
    assert max_deg_over_all_A(low_degree_rank_two_matrix(gf(5), 6)) == 1


def test_degree_scans_start_at_rank(monkeypatch):
    scanned = []
    scan = lambdapoly._completion_scan

    def spy(cols, n, k, d, p):
        scanned.append(d)
        return scan(cols, n, k, d, p)

    monkeypatch.setattr(lambdapoly, "_completion_scan", spy)
    F = gf(5)
    rng = random.Random(25)
    B = rank_le1(F, 7, 5, rng)
    while B.is_zero():
        B = rank_le1(F, 7, 5, rng)
    assert max_deg_over_all_A(B) == 1 and scanned == []
    assert max_deg_over_all_A(zeros(F, 4, 3)) == 0 and scanned == []
    assert all(deg_witness(B, d) is None for d in range(2, 6)) and scanned == []
    assert deg_witness(low_degree_rank_two_matrix(F, 6), 2) is None and scanned == [2]


def test_completion_scans_refuse_before_any_kernel_call():
    # each scan counts every kernel call it may make before the first: the
    # rank-one 30x2 at k = 16 has C(30, 14) ~ 1.45e8 row subsets, and B's
    # C(16, 2) column pairs as many each
    F = gf(10007)
    X = mat([[i, 2 * i] for i in range(30)], F)
    B = mat([[1, i] + [0] * 14 for i in range(30)], F)

    def expire(signum, frame):
        raise TimeoutError("a scan ran past 10 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        for call, args in ((all_completions_vanish, (X, 16)), (max_deg_over_all_A, (B,)),
                           (deg_witness, (B, 2))):
            with pytest.raises(ResourceGuard, match="exceed budget 10000000"):
                call(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def first_basis_rows_by_dets(cols, n, m, p):
    """The completion scan by determinants: the exact row sweep of the rows
    outside each m-subset R, in lexicographic order."""
    rows = list(zip(*cols))
    for R in combinations(range(n), m):
        gone = set(R)
        val = sweep([rows[i] for i in range(n) if i not in gone], len(cols))
        if val % p if p else val:
            return R
    return None


@st.composite
def one_column_scans(draw):
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, n))
    p = draw(st.sampled_from([2, 3, 5, 7, None]))
    entries = st.one_of(st.integers(0, (p or 7) - 1), st.integers(-9, 9),
                        st.integers(-2 ** 70, 2 ** 70))
    column = draw(st.lists(entries, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["any", "constant", "zero alternating sum"]))
    if kind == "constant":
        column = [column[0]] * n
    elif kind == "zero alternating sum":  # move the last entry to cancel the sum
        s = sum(column[::2]) - sum(column[1::2])
        column[-1] += s if n % 2 == 0 else -s
    return column, n, k, p


@given(case=one_column_scans())
def test_one_column_scan_equals_determinants(case):
    # the closed form against the row sweep of every complement, over p <= n,
    # QQ (p = None), negative and big entries, constant columns and columns
    # of zero alternating sum
    column, n, k, p = case
    want = first_basis_rows_by_dets([column], n, k - 1, p) is None
    assert lambdapoly._radical_column(column, n, k, p) == want


def test_deg_witness():
    F = gf(5)
    rng = random.Random(24)
    while True:
        B = random_matrix(F, 6, 4, rng)
        if rank(B) >= 2:
            break
    A = deg_witness(B, 2)
    assert A is not None
    assert lambda_coeffs(A, B).coeffs[2].value
    assert deg_witness(rank_le1(F, 6, 4, rng), 2) is None
    assert deg_witness(zeros(F, 6, 4), 3) is None
    with pytest.raises(ShapeError):
        deg_witness(B, 1)


@pytest.mark.parametrize("field", [gf(3), gf(5), Q], ids=str)
@pytest.mark.parametrize("n, k", [(6, 4), (7, 5)])
def test_deg_witness_exists_exactly_up_to_the_max_degree(field, n, k):
    # rank-one, rank-two and random B: a witness at d exactly when d is at
    # most the maximal degree, and its degree-d coefficient is nonzero
    rng = random.Random(n * k)
    pool = [rank_le1(field, n, k, rng) for _ in range(3)]
    pool += [rank_le1(field, n, k, rng) + rank_le1(field, n, k, rng) for _ in range(3)]
    pool += [random_matrix(field, n, k, rng) for _ in range(3)]
    for B in pool:
        top = max_deg_over_all_A(B)
        for d in range(2, k + 1):
            A = deg_witness(B, d)
            assert (A is None) == (d > top)
            if A is not None:
                assert lambda_coeffs(A, B).coeffs[d].value


def test_deg_witness_is_pinned_on_one_matrix():
    # the first columns of B that basis columns complete, {1, 2} at d = 2 and
    # {1, 2, 3} at d = 3, completed by the first rows that do
    F = gf(5)
    B = mat([[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, 4], [2, 0, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]],
            F)
    assert max_deg_over_all_A(B) == 3
    assert deg_witness(B, 2) == basis_matrix(F, 6, 4, 1, 3) + basis_matrix(F, 6, 4, 2, 4)
    assert deg_witness(B, 3) == basis_matrix(F, 6, 4, 1, 4)
    assert deg_witness(B, 4) is None


# -- completion constructors ----------------------------------------------------


def admissible_diffdiff(max_n):
    for n in range(4, max_n + 1):
        for k in range(4, n + 1):
            for l in range(3, n):
                yield n, k, l


def test_diffdiff_identity():
    rng = random.Random(25)
    for F in IDENTITY_FIELDS:
        for (n, k, l) in [(6, 4, 3), (6, 4, 5), (7, 5, 4), (4, 4, 3), (8, 6, 3)]:
            B = make_b_diffdiff(n, k, l, F)
            assert (B.n, B.k) == (n, k - 2)
            for _ in range(25):
                X = random_matrix(F, n, 2, rng)
                assert det(hjoin(X, B)) == diffdiff_rhs(X, l)


def test_diffdiff_degenerate_inputs():
    F = gf(7)
    B = make_b_diffdiff(6, 4, 3, F)
    rng = random.Random(26)
    row = [F.random_element(rng), F.random_element(rng)]
    X = RectMatrix.from_rows(F, [row, row] + [[F.random_element(rng)] * 2 for _ in range(4)])
    assert det(hjoin(X, B)).value == 0  # equal first rows kill the difference
    rows = [[F.random_element(rng), F.random_element(rng)] for _ in range(6)]
    rows[3] = list(rows[2])  # rows l, l+1 equal for l = 3
    assert det(hjoin(RectMatrix.from_rows(F, rows), B)).value == 0
    with pytest.raises(ShapeError):
        make_b_diffdiff(5, 3, 3, F)
    with pytest.raises(ShapeError):
        make_b_diffdiff(6, 4, 2, F)


def test_diffsum_identity():
    rng = random.Random(27)
    for F in IDENTITY_FIELDS:
        for (n, k) in [(6, 4), (5, 3), (3, 3), (8, 5)]:
            B = make_b_diffsum(n, k, F)
            for _ in range(25):
                X = random_matrix(F, n, 2, rng)
                assert det(hjoin(X, B)) == diffsum_rhs(X, k)
        with pytest.raises(ShapeError):
            make_b_diffsum(4, 2, F)


def test_diffsum_vanishes_on_proportional_rows():
    F = gf(7)
    rng = random.Random(28)
    B = make_b_diffsum(6, 4, F)
    X = rank_le1(F, 6, 2, rng)
    assert det(hjoin(X, B)).value == 0
    rows = [[F.random_element(rng), F.random_element(rng)] for _ in range(6)]
    rows[1] = list(rows[0])  # equal first two rows kill every difference term
    assert det(hjoin(RectMatrix.from_rows(F, rows), B)).value == 0


def completion_keys(max_n):
    """(args, constructor, target) for every key with 3 <= k <= n <= max_n."""
    for n in range(3, max_n + 1):
        for k in range(3, n + 1):
            yield (n, k), make_b_plainsum, lambda X, k=k: plainsum_rhs(X, k)
            yield (n, k), make_b_diffsum, lambda X, k=k: diffsum_rhs(X, k)
    for n, k, l in admissible_diffdiff(max_n):
        yield (n, k, l), make_b_diffdiff, lambda X, l=l: diffdiff_rhs(X, l)


def test_completion_identity_exact_on_every_basis_pair():
    # Both sides are bilinear and alternating in the two columns of X, so the
    # basis pairs (e_a | e_b), a < b, decide the identity; this reaches every
    # sign class of the closed-form last-column signs, diffsum's -1 (n odd,
    # k even) included.
    keys = pairs = 0
    for args, make, rhs in completion_keys(9):
        B = make(*args, Q)
        n = args[0]
        assert (B.n, B.k) == (n, args[1] - 2)
        for a, b in combinations(range(n), 2):
            X = RectMatrix.from_columns(Q, [[Q.element(int(i == a)) for i in range(n)],
                                            [Q.element(int(i == b)) for i in range(n)]])
            assert det(hjoin(X, B)) == rhs(X), (make.__name__, args, a, b)
            pairs += 1
        keys += 1
    assert (keys, pairs) == (147, 3773)


def test_plainsum_identity():
    rng = random.Random(29)
    for F in IDENTITY_FIELDS:
        for (n, k) in [(6, 4), (4, 3), (8, 5), (3, 3)]:
            B = make_b_plainsum(n, k, F)
            for _ in range(25):
                X = random_matrix(F, n, 2, rng)
                assert det(hjoin(X, B)) == plainsum_rhs(X, k)
        assert det(hjoin(zeros(F, 6, 2), make_b_plainsum(6, 4, F))).value == 0


def test_plainsum_degenerate_width_two():
    F = gf(7)
    assert make_b_plainsum(5, 2, F) is None
    rng = random.Random(30)
    for _ in range(25):
        X = random_matrix(F, 5, 2, rng)
        assert det(X) == plainsum_rhs(X, 2)


def test_plainsum_equals_truncated_determinant():
    rng = random.Random(31)
    from cullis import submatrix_keep

    for F in IDENTITY_FIELDS:
        for (n, k) in [(6, 4), (7, 3)]:
            for _ in range(10):
                X = random_matrix(F, n, 2, rng)
                truncated = submatrix_keep(X, range(1, n - k + 3), [1, 2])
                assert plainsum_rhs(X, k) == det(truncated)


def test_completion_identities_refuse_out_of_range_arguments():
    # each identity is stated only where its completion exists, and refuses
    # exactly the arguments its constructor refuses: 2 < l < n for diffdiff,
    # 3 <= k <= n for diffsum, 2 <= k <= n for plainsum
    F = gf(7)
    X = random_matrix(F, 5, 2, random.Random(33))

    def accepted(call, args):
        ok = []
        for a in range(-1, 8):
            try:
                call(*args(a))
            except ShapeError:
                continue
            ok.append(a)
        return ok

    assert accepted(diffdiff_rhs, lambda l: (X, l)) == [3, 4]
    assert accepted(make_b_diffdiff, lambda l: (5, 4, l, F)) == [3, 4]
    assert accepted(diffsum_rhs, lambda k: (X, k)) == [3, 4, 5]
    assert accepted(make_b_diffsum, lambda k: (5, k, F)) == [3, 4, 5]
    assert accepted(plainsum_rhs, lambda k: (X, k)) == [2, 3, 4, 5]
    assert accepted(make_b_plainsum, lambda k: (5, k, F)) == [2, 3, 4, 5]


def test_all_completions_vanish():
    F = gf(5)
    rng = random.Random(32)
    for _ in range(10):
        X = rank_le1(F, 6, 2, rng)
        assert all_completions_vanish(X, 4)
    hits = 0
    for _ in range(10):
        X = random_matrix(F, 6, 2, rng)
        if rank(X) == 2:
            hits += 1
            assert not all_completions_vanish(X, 4)
    assert hits


def test_all_completions_vanish_exhaustive_gf2():
    F = gf(2)
    for flat in product(range(2), repeat=12):
        X = RectMatrix.from_rows(F, [flat[2 * i : 2 * i + 2] for i in range(6)])
        if all_completions_vanish(X, 4):
            assert rank(X) <= 1
        elif rank(X) <= 1:
            pytest.fail(f"rank <= 1 but a completion is nonzero: {X!r}")


def test_arithmetic_progression_rows_have_witness():
    # consecutive-row differences are constant, yet some completion detects rank 2
    X = mat([[i, i + 3] for i in range(1, 7)])
    assert rank(X) == 2
    assert not all_completions_vanish(X, 4)
    for l in range(3, 6):
        assert diffdiff_rhs(X, l).value == 0
