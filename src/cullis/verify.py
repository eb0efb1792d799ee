"""One-shot verification suite: every identity the library is built around,
re-checked end to end on fixed shapes and fields.

Each check is registered with the shapes and prime moduli it exercises so the
command line can filter the table; checks draw their randomness from a seed
plus their own identifier, which makes reports byte-stable for a given seed.
"""

from __future__ import annotations

import random
from itertools import product

from . import jsonio
from .combinatorics import k_subsets
from .determinant import (
    det,
    det_definition,
    det_laplace,
    det_minorsum,
    det_product_rhs,
    semicyclic_shift,
)
from .errors import ParityError
from .fields import RATIONALS, gf
from .lambdapoly import (
    all_completions_vanish,
    diffdiff_rhs,
    diffsum_rhs,
    in_radical,
    lambda_coeffs,
    make_b_diffdiff,
    make_b_diffsum,
    make_b_plainsum,
    max_deg_over_all_A,
    plainsum_rhs,
    radical_enumerate,
)
from .matrix import (
    RectMatrix,
    basis_matrix,
    basis_selector,
    hjoin,
    identity,
    ones,
    rank,
    random_matrix,
    zeros,
)
from .preserver import (
    LinearMapNK,
    _sweep_report,
    check_k1_form,
    check_sign_condition,
    detn2_partner,
    enumerate_preservers,
    factor_two_sided,
    is_preserver,
    make_k2_counterexample,
    make_s_shift,
    make_singular_preserver,
    make_two_sided,
    s_shift_apply,
)

_REGISTRY = []


def _check(ident, shapes=None, primes=None):
    def deco(fn):
        _REGISTRY.append((ident, shapes, primes, fn))
        return fn

    return deco


def _w(msg, **extra):
    out = {"message": msg}
    for key, val in extra.items():
        if isinstance(val, RectMatrix):
            val = jsonio.matrix_to_dict(val)
        out[key] = val
    return out


def _rand_rank_le1(field, n, k, rng):
    u = [field.random_element(rng) for _ in range(n)]
    v = [field.random_element(rng) for _ in range(k)]
    return RectMatrix.from_rows(field, [[a * b for b in v] for a in u])


def _unimodular(field, k, rng):
    while True:
        B = random_matrix(field, k, k, rng)
        d = det(B)
        if d.value:
            return B.with_scaled_column(1, d.inverse())


def _cases(shapes, primes, rng, draws, keep=lambda n, k: True):
    """(F, n, k, X) for `draws` random n x k matrices X over each GF(p), for
    every kept shape and modulus in order.  X is drawn only when the next
    case is asked for, so a check's own draws in between come from rng in
    the order it makes them."""
    for (n, k), p in product(shapes, primes):
        if keep(n, k):
            F = gf(p)
            for _ in range(draws):
                yield F, n, k, random_matrix(F, n, k, rng)


def _sign_pairs(field, n, k, rng):
    """A few (A, B) pairs satisfying the two-sided sign condition."""
    pairs = [(identity(field, n), identity(field, k)),
             (identity(field, n), _unimodular(field, k, rng))]
    if (n + k) % 2 == 0:
        s1 = make_s_shift(n, k, 1 + rng.randrange(n), 1 + rng.randrange(k), field)
        s2 = make_s_shift(n, k, 1 + rng.randrange(n), 1 + rng.randrange(k), field)
        fact = factor_two_sided(s1.compose(s2))
        if fact is not None:
            pairs.append(fact)
    return pairs


# -- determinant layer -----------------------------------------------------------


@_check("determinant-algorithm-agreement", shapes=((3, 2), (4, 2), (5, 3), (6, 4)),
        primes=(2, 5, 7))
def _chk_agreement(shapes, primes, rng):
    if (3, 2) in shapes and 2 in primes:
        F = gf(2)
        for flat in product(range(2), repeat=6):
            X = RectMatrix.from_rows(F, [flat[0:2], flat[2:4], flat[4:6]])
            vals = {str(det_definition(X)), str(det_minorsum(X)), str(det(X))}
            vals |= {str(det_laplace(X, j)) for j in (1, 2)}
            if len(vals) != 1:
                return _w("algorithms disagree", matrix=X)
    fields = [gf(p) for p in primes if p > 2] + [RATIONALS]
    for (n, k), F in product(shapes, fields):
        for _ in range(12):
            X = random_matrix(F, n, k, rng)
            d0 = det_definition(X)
            if any(det_laplace(X, j) != d0 for j in range(1, k + 1)):
                return _w("laplace disagrees", matrix=X)
            if det_minorsum(X) != d0 or det(X) != d0:
                return _w("minor sum disagrees", matrix=X)
    return None


@_check("basis-column-determinant-sign", primes=(5,))
def _chk_basis_sign(shapes, primes, rng):
    F = gf(primes[0])
    for n in range(1, 6):
        for k in range(1, min(n, 3) + 1):
            for c in k_subsets(n, k):
                X = basis_selector(F, n, c.elems)
                if det(X) != F.element(c.sign):
                    return _w("sign mismatch", subset=list(c.elems), n=n)
    return None


@_check("column-multilinearity", shapes=((4, 2), (5, 3)), primes=(5, 7))
def _chk_multilinear(shapes, primes, rng):
    for F, n, k, X in _cases(shapes, primes, rng, 10):
        u = [F.random_element(rng) for _ in range(n)]
        v = [F.random_element(rng) for _ in range(n)]
        a, b = F.random_element(rng), F.random_element(rng)
        j = 1 + rng.randrange(k)
        cols = X.columns()
        cu, cv, cm = list(cols), list(cols), list(cols)
        cu[j - 1], cv[j - 1] = u, v
        cm[j - 1] = [a * x + b * y for x, y in zip(u, v)]
        lhs = det(RectMatrix.from_columns(F, cm))
        rhs = a * det(RectMatrix.from_columns(F, cu)) + b * det(RectMatrix.from_columns(F, cv))
        if lhs != rhs:
            return _w("multilinearity fails", matrix=X, column=j)
    return None


@_check("column-swap-antisymmetry", shapes=((4, 2), (5, 3)), primes=(5, 7))
def _chk_swap(shapes, primes, rng):
    for F, n, k, X in _cases(shapes, primes, rng, 10, lambda n, k: k >= 2):
        j1 = 1 + rng.randrange(k)
        j2 = 1 + rng.randrange(k)
        if j1 == j2:
            j2 = 1 + (j1 % k)
        cols = X.columns()
        cols[j1 - 1], cols[j2 - 1] = cols[j2 - 1], cols[j1 - 1]
        if det(RectMatrix.from_columns(F, cols)) != -det(X):
            return _w("swap does not negate", matrix=X)
    return None


@_check("duplicate-column-vanishing", shapes=((4, 2), (5, 3)), primes=(5, 7))
def _chk_duplicate(shapes, primes, rng):
    for F, n, k, X in _cases(shapes, primes, rng, 10, lambda n, k: k >= 2):
        j1 = rng.randrange(k)
        j2 = (j1 + 1 + rng.randrange(k - 1)) % k
        cols = X.columns()
        cols[j1] = cols[j2]
        if det(RectMatrix.from_columns(F, cols)).value:
            return _w("duplicate columns do not vanish", matrix=X)
    return None


@_check("linear-combination-invariance", shapes=((4, 2), (5, 3)), primes=(5, 7))
def _chk_combination(shapes, primes, rng):
    for F, n, k, X in _cases(shapes, primes, rng, 10, lambda n, k: k >= 2):
        j = 1 + rng.randrange(k)
        cols = X.columns()
        target = list(cols[j - 1])
        for jj in range(k):
            if jj == j - 1:
                continue
            c = F.random_element(rng)
            target = [t + c * x for t, x in zip(target, cols[jj])]
        cols[j - 1] = target
        if det(RectMatrix.from_columns(F, cols)) != det(X):
            return _w("column operation changed the value", matrix=X)
    return None


@_check("product-expansion", primes=(5, 7))
def _chk_product(shapes, primes, rng):
    for p in primes:
        F = gf(p)
        for _ in range(12):
            n = 2 + rng.randrange(4)
            k = 1 + rng.randrange(min(n, 3))
            l = 1 + rng.randrange(k)
            X = random_matrix(F, n, k, rng)
            Y = random_matrix(F, k, l, rng)
            if det(X @ Y) != det_product_rhs(X, Y):
                return _w("product expansion fails", matrix=X)
    return None


@_check("right-multiplication", primes=(5, 7))
def _chk_rightmul(shapes, primes, rng):
    for p in primes:
        F = gf(p)
        for _ in range(12):
            n = 2 + rng.randrange(4)
            k = 1 + rng.randrange(min(n, 3))
            X = random_matrix(F, n, k, rng)
            Y = random_matrix(F, k, k, rng)
            if det(X @ Y) != det(X) * det(Y):
                return _w("right multiplication fails", matrix=X)
    return None


@_check("semicyclic-shift-invariance", shapes=((4, 2), (5, 3), (6, 2)), primes=(5, 7))
def _chk_semicyclic(shapes, primes, rng):
    for F, n, k, X in _cases(shapes, primes, rng, 4, lambda n, k: (n + k) % 2 == 0):
        base = det(X)
        for i in range(1, n + 1):
            v = det(semicyclic_shift(X, i))
            if ((n - i) * k) % 2:
                v = -v
            if v != base:
                return _w("shifted value differs", matrix=X, row=i)
    return None


@_check("ones-column-parity", shapes=((3, 1), (4, 1), (4, 2), (5, 2), (5, 3)),
        primes=(5, 7))
def _chk_ones_column(shapes, primes, rng):
    for F, n, k, X in _cases(shapes, primes, rng, 8, lambda n, k: n > k):
        joined = det(hjoin(X, ones(F, n, 1)))
        want = det(X) if (n + k) % 2 else F.zero
        if joined != want:
            return _w("ones column parity fails", matrix=X)
    return None


# -- lambda layer ------------------------------------------------------------------


@_check("lambda-evaluation-consistency", shapes=((4, 2), (5, 3)), primes=(7,))
def _chk_lambda_eval(shapes, primes, rng):
    for (n, k), F in product(shapes, [gf(primes[0]), RATIONALS]):
        for _ in range(6):
            A = random_matrix(F, n, k, rng)
            B = random_matrix(F, n, k, rng)
            poly = lambda_coeffs(A, B)
            if len(poly.coeffs) != k + 1:
                return _w("wrong coefficient count")
            if poly.coeffs[0] != det(A) or poly.coeffs[k] != det(B):
                return _w("endpoint coefficients wrong", matrix=A)
            for _ in range(4):
                lam = F.random_element(rng)
                if poly.evaluate(lam) != det(A + B.scale(lam)):
                    return _w("evaluation mismatch", matrix=A, at=str(lam))
    return None


@_check("rank-one-degree-bound", shapes=((5, 3), (6, 4)), primes=(5,))
def _chk_rank1_deg(shapes, primes, rng):
    F = gf(primes[0])
    for (n, k) in shapes:
        for _ in range(10):
            B = _rand_rank_le1(F, n, k, rng)
            if max_deg_over_all_A(B) > 1:
                return _w("rank one matrix with high degree", matrix=B)
    return None


@_check("degree-bound-rank-converse", shapes=((6, 4),), primes=(5,))
def _chk_deg_rank(shapes, primes, rng):
    F = gf(primes[0])
    n, k = shapes[0]
    candidates = [_rand_rank_le1(F, n, k, rng) for _ in range(6)]
    candidates += [random_matrix(F, n, k, rng) for _ in range(8)]
    candidates.append(zeros(F, n, k))
    for B in candidates:
        if max_deg_over_all_A(B) <= 1 and rank(B) > 1:
            return _w("low degree but rank above one", matrix=B)
    return None


@_check("width-three-exception", primes=(5,))
def _chk_width3(shapes, primes, rng):
    F = gf(primes[0])
    for n in (5, 7):
        rows = [[0] * 3 for _ in range(n)]
        rows[0][0], rows[4][0] = 1, -1
        rows[1][1], rows[3][1] = 1, -1
        B = RectMatrix.from_rows(F, rows)
        if rank(B) != 2 or max_deg_over_all_A(B) > 1:
            return _w("exception matrix misbehaves", matrix=B, n=n)
    return None


@_check("completion-diff-vs-diff", shapes=((6, 4), (5, 4)), primes=(7,))
def _chk_diffdiff(shapes, primes, rng):
    F = gf(primes[0])
    for (n, k) in shapes:
        for l in range(3, n):
            B = make_b_diffdiff(n, k, l, F)
            for _ in range(8):
                X = random_matrix(F, n, 2, rng)
                if det(hjoin(X, B)) != diffdiff_rhs(X, l):
                    return _w("difference pair identity fails", matrix=X, l=l)
    return None


@_check("completion-diff-vs-rows", shapes=((6, 4), (5, 3)), primes=(7,))
def _chk_diffsum(shapes, primes, rng):
    F = gf(primes[0])
    for (n, k) in shapes:
        B = make_b_diffsum(n, k, F)
        for _ in range(10):
            X = random_matrix(F, n, 2, rng)
            if det(hjoin(X, B)) != diffsum_rhs(X, k):
                return _w("difference sum identity fails", matrix=X)
    return None


@_check("completion-leading-block", shapes=((6, 4), (5, 2), (4, 3)), primes=(7,))
def _chk_plainsum(shapes, primes, rng):
    F = gf(primes[0])
    for (n, k) in shapes:
        B = make_b_plainsum(n, k, F)
        for _ in range(10):
            X = random_matrix(F, n, 2, rng)
            lhs = det(X) if B is None else det(hjoin(X, B))
            if lhs != plainsum_rhs(X, k):
                return _w("leading block identity fails", matrix=X)
    return None


@_check("vanishing-completions-rank", shapes=((6, 2),), primes=(5,))
def _chk_completions_rank(shapes, primes, rng):
    F = gf(primes[0])
    n = shapes[0][0]
    for _ in range(10):
        X = _rand_rank_le1(F, n, 2, rng)
        if not all_completions_vanish(X, 4):
            return _w("rank one matrix has a nonvanishing completion", matrix=X)
    for _ in range(10):
        X = random_matrix(F, n, 2, rng)
        if rank(X) == 2 and all_completions_vanish(X, 4):
            return _w("rank two matrix with all completions vanishing", matrix=X)
    return None


# -- preserver layer ------------------------------------------------------------------


@_check("two-sided-criterion", shapes=((3, 2), (4, 2)), primes=(5, 7))
def _chk_two_sided(shapes, primes, rng):
    for (n, k), p in product(shapes, primes):
        F = gf(p)
        pairs = [(random_matrix(F, n, n, rng), random_matrix(F, k, k, rng)) for _ in range(8)]
        pairs += _sign_pairs(F, n, k, rng)
        for A, B in pairs:
            cond = check_sign_condition(A, B)
            # the row sweep, kept apart from the sign weights that decide
            # two-sided maps in `is_preserver`
            verdict = _sweep_report(make_two_sided(A, B), None).preserves
            if cond != verdict:
                return _w("criterion and verdict disagree", matrix=A, cond=cond)
    return None


@_check("shift-maps-preserve", shapes=((4, 2), (5, 3)), primes=(5, 7))
def _chk_shift_preserve(shapes, primes, rng):
    for (n, k), p in product(shapes, primes):
        if (n + k) % 2:
            continue
        F = gf(p)
        for i in range(1, n + 1):
            for j in range(1, k + 1):
                S = make_s_shift(n, k, i, j, F)
                if not S.is_invertible():
                    return _w("shift map not invertible", i=i, j=j)
                if not is_preserver(S, "symbolic").preserves:
                    return _w("shift map does not preserve", i=i, j=j)
    return None


@_check("shift-join-commutation", shapes=((5, 2), (6, 3)), primes=(7,))
def _chk_shift_join(shapes, primes, rng):
    F = gf(primes[0])
    for (n, k) in shapes:
        for _ in range(8):
            A = random_matrix(F, n, k, rng)
            B = random_matrix(F, n, 1 + rng.randrange(2), rng)
            i = 1 + rng.randrange(n)
            lhs = s_shift_apply(hjoin(A, B), i, 1)
            rhs = hjoin(s_shift_apply(A, i, 1), s_shift_apply(B, i, 1))
            if lhs != rhs:
                return _w("join commutation fails", matrix=A, row=i)
    return None


@_check("radical-trivial-even-width", shapes=((4, 2),), primes=(3,))
def _chk_radical_even(shapes, primes, rng):
    rad = radical_enumerate(4, 2, 3)
    if len(rad) != 1 or not rad[0].is_zero():
        return _w("radical is not trivial", size=len(rad))
    return None


@_check("radical-width-one-hyperplane", shapes=((4, 1),), primes=(3,))
def _chk_radical_k1(shapes, primes, rng):
    rad = radical_enumerate(4, 1, 3)
    F = gf(3)
    if len(rad) != 27:
        return _w("unexpected radical size", size=len(rad))
    if not any(w == ones(F, 4, 1) for w in rad):
        return _w("all-ones vector missing from radical")
    return None


@_check("radical-ones-parity",
        shapes=((3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3)), primes=(5,))
def _chk_radical_parity(shapes, primes, rng):
    F = gf(primes[0])
    for (n, k) in shapes:
        want = (n - (k + 1)) % 2 == 0
        if in_radical(ones(F, n, k)) != want:
            return _w("ones matrix membership has wrong parity", n=n, k=k)
    return None


@_check("singular-preserver-parity", shapes=((4, 1), (5, 2), (4, 2)), primes=(3, 5))
def _chk_singular(shapes, primes, rng):
    F3, F5 = gf(3), gf(5)
    T = make_singular_preserver(4, 1, F3)
    if T.is_invertible() or not is_preserver(T, "exhaustive").preserves:
        return _w("width one singular preserver broken")
    T = make_singular_preserver(5, 2, F5)
    if T.is_invertible() or not is_preserver(T, "symbolic").preserves:
        return _w("five by two singular preserver broken")
    try:
        make_singular_preserver(4, 2, F3)
        return _w("even parity construction did not fail")
    except ParityError:
        pass
    return None


@_check("width-one-preserver-census", shapes=((3, 1),), primes=(2,))
def _chk_k1_census(shapes, primes, rng):
    census = enumerate_preservers(3, 1, 2)
    if census.count != 64:
        return _w("unexpected census size", size=census.count)
    for flat in product(range(2), repeat=9):
        rows = [flat[r * 3 : (r + 1) * 3] for r in range(3)]
        T = LinearMapNK(3, 1, RectMatrix.from_rows(gf(2), rows))
        if check_k1_form(T) != is_preserver(T, "exhaustive").preserves:
            return _w("column condition and preservation disagree",
                      rows=[[str(v) for v in r] for r in rows])
    return None


@_check("census-counts", shapes=((2, 1),), primes=(2, 3))
def _chk_census_counts(shapes, primes, rng):
    want = {2: 4, 3: 9}
    for p in primes:
        got = enumerate_preservers(2, 1, p).count
        if got != want[p]:
            return _w("census count differs", p=p, got=got)
    return None


@_check("corner-swap-preserver", shapes=((4, 2),), primes=(3,))
def _chk_corner_swap(shapes, primes, rng):
    F = gf(3)
    T = make_k2_counterexample(4, F)
    want = basis_matrix(F, 4, 2, 1, 1) + basis_matrix(F, 4, 2, 2, 1) - basis_matrix(F, 4, 2, 4, 2)
    if T.apply(basis_matrix(F, 4, 2, 2, 1)) != want:
        return _w("unit image differs")
    if not is_preserver(T, "exhaustive").preserves:
        return _w("corner swap map does not preserve")
    if factor_two_sided(T) is not None:
        return _w("corner swap map unexpectedly factors")
    return None


@_check("corner-swap-identity", shapes=((4, 2), (5, 2), (6, 2)), primes=(7,))
def _chk_corner_identity(shapes, primes, rng):
    F = gf(primes[0])
    for (n, _) in shapes:
        for _ in range(10):
            X = random_matrix(F, n, 2, rng)
            if det(X) != det(detn2_partner(X)):
                return _w("corner swap changes the value", matrix=X)
    return None


@_check("factor-roundtrip", shapes=((4, 2),), primes=(7,))
def _chk_factor(shapes, primes, rng):
    F = gf(primes[0])
    n, k = shapes[0]
    for _ in range(8):
        A0 = random_matrix(F, n, n, rng)
        B0 = random_matrix(F, k, k, rng)
        T = make_two_sided(A0, B0)
        fact = factor_two_sided(T)
        if fact is None:
            return _w("two sided map failed to factor", matrix=A0)
        A, B = fact
        if LinearMapNK.from_function(F, n, k, lambda X: A @ X @ B) != T:
            return _w("factored action differs", matrix=A0)
    return None


@_check("rank-one-transport", shapes=((6, 4),), primes=(5,))
def _chk_rank1_transport(shapes, primes, rng):
    F = gf(primes[0])
    n, k = shapes[0]
    maps = [make_two_sided(*pair) for pair in _sign_pairs(F, n, k, rng)]
    maps.append(make_s_shift(n, k, 2, 2, F).compose(make_s_shift(n, k, 4, 1, F)))
    for T in maps:
        for i in range(1, n + 1):
            for j in range(1, k + 1):
                if rank(T.apply(basis_matrix(F, n, k, i, j))) != 1:
                    return _w("unit image lost rank one", i=i, j=j)
    return None


@_check("degree-one-transport", shapes=((6, 4),), primes=(5,))
def _chk_deg1_transport(shapes, primes, rng):
    F = gf(primes[0])
    n, k = shapes[0]
    maps = [make_two_sided(*pair) for pair in _sign_pairs(F, n, k, rng)]
    maps.append(make_s_shift(n, k, 3, 2, F))
    for T in maps:
        for _ in range(3):
            B = _rand_rank_le1(F, n, k, rng)
            if max_deg_over_all_A(B) <= 1 and max_deg_over_all_A(T.apply(B)) > 1:
                return _w("degree bound not transported", matrix=B)
    return None


@_check("composition-closure", shapes=((4, 2),), primes=(5,))
def _chk_composition(shapes, primes, rng):
    F = gf(primes[0])
    n, k = shapes[0]
    parts = [make_two_sided(*pair) for pair in _sign_pairs(F, n, k, rng)]
    parts.append(make_s_shift(n, k, 2, 1, F))
    for _ in range(4):
        T = rng.choice(parts).compose(rng.choice(parts))
        if not is_preserver(T, "symbolic").preserves:
            return _w("composition stopped preserving")
    return None


@_check("sign-condition-roundtrip", shapes=((6, 4),), primes=(5,))
def _chk_forward(shapes, primes, rng):
    F = gf(primes[0])
    n, k = shapes[0]
    for A, B in _sign_pairs(F, n, k, rng):
        if not check_sign_condition(A, B):
            return _w("constructed pair misses the sign condition")
        T = make_two_sided(A, B)
        if not _sweep_report(T, None).preserves:
            return _w("sign condition pair does not preserve")
        fact = factor_two_sided(T)
        if fact is None or not check_sign_condition(*fact):
            return _w("refactored pair misses the sign condition")
    return None


# -- runner -------------------------------------------------------------------------


def run_verification(shapes=None, primes=None, seed: int = 0) -> dict:
    """Run the registered checks, filtered by shape and modulus.

    Returns {"seed", "results": {id: {"status": ...}}, "all_pass"}; a check
    whose declared shapes or moduli are disjoint from the filter is omitted,
    as is a check that declares no shapes when shapes are filtered, and a
    filter that leaves no check raises ValueError.
    """
    results = {}
    for ident, check_shapes, check_primes, fn in _REGISTRY:
        use_shapes = check_shapes
        if shapes is not None:
            use_shapes = tuple(s for s in check_shapes or () if s in shapes)
            if not use_shapes:
                continue
        use_primes = check_primes
        if primes is not None and check_primes is not None:
            use_primes = tuple(p for p in check_primes if p in primes)
            if not use_primes:
                continue
        rng = random.Random(f"{seed}:{ident}")
        witness = fn(use_shapes, use_primes, rng)
        if witness is None:
            results[ident] = {"status": "pass"}
        else:
            results[ident] = {"status": "fail", "witness": witness}
    if not results:
        raise ValueError(f"no check matches the filter shapes={shapes}, primes={primes}")
    return {
        "seed": seed,
        "results": results,
        "all_pass": all(r["status"] == "pass" for r in results.values()),
    }
