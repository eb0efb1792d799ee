"""Independent brute-force reference implementations used to pin expected
values.  Everything here works on plain lists of ints or Fractions and never
touches the package under test."""

from fractions import Fraction
from itertools import combinations, permutations


def oracle_subset_sign(elems):
    total = sum(e - pos for pos, e in enumerate(sorted(elems), start=1))
    return -1 if total % 2 else 1


def oracle_det(rows, p=None):
    """Injection-sum determinant; mod p when given, exact Fractions otherwise."""
    n, k = len(rows), len(rows[0])
    assert n >= k
    total = 0 if p else Fraction(0)
    for images in permutations(range(1, n + 1), k):
        inv = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if images[a] > images[b]
        )
        sign = (-1) ** inv * oracle_subset_sign(images)
        prod = 1 if p else Fraction(1)
        for j, i in enumerate(images):
            prod *= rows[i - 1][j]
        total += sign * prod
    return total % p if p else total


def oracle_square_det(rows, p=None):
    n = len(rows)
    total = 0 if p else Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        prod = 1 if p else Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += (-1) ** inv * prod
    return total % p if p else total


def oracle_rank(rows, p=None):
    """Largest r admitting a nonzero r-by-r minor."""
    n, k = len(rows), len(rows[0])
    for r in range(min(n, k), 0, -1):
        for rsel in combinations(range(n), r):
            for csel in combinations(range(k), r):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                if oracle_square_det(minor, p):
                    return r
    return 0


def oracle_sweep_products(rows, n, k, p=None):
    """Products the row sweep of det(M X) makes, M given by its n*k integer
    rows, row j*n + i giving entry (i, j) of M X as a form in the
    column-major entries of X.  Row i (0-based) goes into each unused column
    c of every set S of used columns that the rows after it can still fill,
    with sign (-1)**(#{d in S: d > c} + i - |S|), multiplying each term held
    at S by each term of the form; after each row the coefficients are taken
    mod p (when given) and zero ones dropped.  The sweep's last set holds
    det(M X), returned with the count."""
    forms = [[{v: c for v, c in enumerate(rows[j * n + i]) if c} for j in range(k)]
             for i in range(n)]
    held = {frozenset(): {(): 1}}
    count = 0
    for i in range(n):
        grown = {used: dict(poly) for used, poly in held.items()}
        for used, poly in held.items():
            if not poly or k - len(used) - 1 > n - i - 1:  # nothing held, or unfillable
                continue
            for c in range(k):
                form = forms[i][c]
                if c in used or not form:
                    continue
                count += len(poly) * len(form)
                sign = (-1) ** (sum(1 for d in used if d > c) + i - len(used))
                out = grown.setdefault(used | {c}, {})
                for mono, a in poly.items():
                    for v, b in form.items():
                        key = tuple(sorted(mono + (v,)))
                        out[key] = out.get(key, 0) + sign * a * b
        held = {used: {mono: a % p if p else a for mono, a in poly.items() if (a % p if p else a)}
                for used, poly in grown.items()}
    return count, held.get(frozenset(range(k)), {})
