"""Sparse multivariate polynomial expansion of the determinant of a linear image.

Entries of X are numbered by their column-major position (0-based).  A
monomial is a tuple of (variable, exponent) pairs sorted by variable; a
polynomial is a dict from monomials to nonzero integer coefficients,
residues over GF(p) (p None stands for QQ).

`det_change` expands s**k * D = det(M X) - s**k det(X) with one row sweep,
for a map T given as the integers M = s T (`preserver._cleared`: s = 1 over
GF(p), the least common multiple of T's denominators over QQ).  That is D
times a nonzero integer, so it is zero exactly when D is, and
`nonzero_point` picks the same point on both.  The symbolic check loads this module only for a map that
does not factor: a two-sided map is decided from its sign weights in
`preserver`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, perm

from .determinant import DEFAULT_TERM_GUARD, _guard, sweep_count, sweep_plan


Monomial = tuple[tuple[int, int], ...]
Poly = dict[Monomial, int]


@lru_cache(maxsize=16)
def _identity_sweep(n: int, k: int, p: int | None) -> dict[int, int]:
    """`_sweep` of the identity map, under its own exact count, which its
    bound never exceeds: `det_change` checks that count against the caller's
    guard first.  Cached, so callers must not modify it."""
    nk = n * k
    rows = [[int(r == c) for c in range(nk)] for r in range(nk)]
    return _sweep(rows, n, k, p, _identity_products(n, k))


def _sweep(mat_rows: list[list[int]], n: int, k: int, p: int | None,
           guard: int | None, owed: int = 0) -> dict[int, int]:
    """det(M X) with packed monomials, for M given by integer rows: integer
    coefficients, residues over GF(p).

    One row sweep over `sweep_plan(n, k)` whose values are sparse integer
    polynomials.  A monomial is packed into one integer, the exponent of
    variable v in bits [v*b, (v+1)*b) with 2**b > k, so that multiplying by
    a variable is an integer addition.  Row j*n + i of M gives entry (i, j)
    of M X.  Its products, plus the `owed` ones its caller makes besides,
    are bounded and checked before the first is made.
    """
    # a plan with more moves than allowed products is not built
    _guard(sweep_count(n, k), guard, DEFAULT_TERM_GUARD, f"sweep-plan moves at {n}x{k}")
    b = k.bit_length()
    # forms[i][j]: entry (i, j) of M X as (packed variable, coefficient) pairs
    forms = [[[(1 << (v * b), c) for v, c in enumerate(mat_rows[j * n + i]) if c]
              for j in range(k)] for i in range(n)]
    # the products, bounded before the first: the sweep only merges and drops
    # terms, so d used columns hold at most the terms sent there, one product
    # each, and the degree-d monomials in the variables sent there (`seen`)
    terms, seen = [0] * (1 << k), [0] * (1 << k)
    terms[0] = 1
    for row, moves in zip(forms, sweep_plan(n, k)):
        sizes = [(len(form), sum(var for var, _ in form)) for form in row]
        for src, dst, col, _ in moves:
            if terms[src] and sizes[col][0]:
                size, mask = sizes[col]
                d = src.bit_count()
                live = min(terms[src], comb(seen[src].bit_count() + d - 1, d)) if d else 1
                terms[dst] += live * size
                seen[dst] |= seen[src] | mask
    _guard(sum(terms) - 1 + owed, guard, DEFAULT_TERM_GUARD, f"symbolic products at {n}x{k}")

    val: list[dict | None] = [None] * (1 << k)
    val[0] = {0: 1}
    for row, moves in zip(forms, sweep_plan(n, k)):
        written = set()
        for src, dst, col, neg in moves:
            sub, form = val[src], row[col]
            if not sub or not form:
                continue
            acc = val[dst]
            if acc is None:
                acc = val[dst] = {}
            written.add(dst)
            for mono, cf in sub.items():
                if neg:
                    cf = -cf
                for var, a in form:
                    key = mono + var
                    acc[key] = acc.get(key, 0) + cf * a
        for m in written:
            val[m] = ({mo: c % p for mo, c in val[m].items() if c % p} if p
                      else {mo: c for mo, c in val[m].items() if c})
    return val[-1] or {}


def _identity_products(n: int, k: int) -> int:
    """`_sweep`'s products on the identity map: a row-r move from u used
    columns meets one term per injection of them into the earlier rows."""
    return sum(comb(k, u) * (k - u) * perm(r - 1, u) for r in range(1, n + 1)
               for u in range(max(0, k - 1 - (n - r)), min(r, k)))


def det_change(mat_rows: list[list[int]], n: int, k: int, s: int, p: int | None,
               guard: int | None = None) -> Poly:
    """s**k * (det(T(X)) - det(X)), folded (`fold`), for T given by the
    integer rows of M = s T (`_sweep`).  det(X) is taken off in packed form,
    so terms that cancel are never unpacked.  One check against the guard
    (default DEFAULT_TERM_GUARD), before the first product, covers both
    halves: det(M X)'s bound and det(X)'s count, cached or not."""
    diff = _sweep(mat_rows, n, k, p, guard, _identity_products(n, k))
    sk = s ** k
    for key, c in _identity_sweep(n, k, p).items():
        diff[key] = diff.get(key, 0) - c * sk
    b = k.bit_length()
    emask = (1 << b) - 1
    poly: Poly = {}
    for key, cf in diff.items():
        if p:
            cf %= p
        if not cf:
            continue
        mono, v = [], 0
        while key:
            if key & emask:
                mono.append((v, key & emask))
            key >>= b
            v += 1
        poly[tuple(mono)] = cf
    # exponents are at most k, so below p folding only drops zero coefficients
    return fold(poly, p) if p and p <= k else poly


def fold(poly: Poly, p: int | None) -> Poly:
    """poly without zero terms, over GF(p) reduced by x**p = x (exponent e
    becomes 1 + (e - 1) % (p - 1)): empty exactly when poly is zero at every
    point, small fields included."""
    if p is None:
        return {mono: c for mono, c in poly.items() if c}
    out: Poly = {}
    for mono, c in poly.items():
        key = tuple((v, 1 + (e - 1) % (p - 1)) for v, e in mono)
        out[key] = (out.get(key, 0) + c) % p
    return {mono: c for mono, c in out.items() if c}


def nonzero_point(poly: Poly, nvars: int, p: int | None) -> list[int] | None:
    """Integer coordinates where the folded poly is nonzero over GF(p), or
    over QQ for p None; None if poly is empty.

    Variables outside the support of the term with fewest variables are 0,
    which keeps that term.  The rest are fixed one at a time to the first
    value in range(d + 1), d the variable's degree, leaving poly nonzero: it
    has at most d roots (Alon's Combinatorial Nullstellensatz).  Every step
    only asks which values leave poly nonzero, so a nonzero multiple of poly
    gives the same point.  For det(T(X)) every value is below min(p, k + 1),
    or k + 1 over QQ.
    """
    if not poly:
        return None
    support = {v for v, _ in min(poly, key=lambda mono: (len(mono), mono))}
    poly = {mono: c for mono, c in poly.items() if all(v in support for v, _ in mono)}
    point = [0] * nvars
    for v in sorted(support):
        if len(poly) == 1:  # it has every variable left, so 0 drops it and 1 keeps it
            point[v] = 1
            continue
        split = [(tuple(t for t in mono if t[0] != v), dict(mono).get(v, 0), c)
                 for mono, c in poly.items()]
        for a in range(max(e for _, e, _ in split) + 1):
            sub: Poly = {}
            for rest, e, c in split:
                sub[rest] = sub.get(rest, 0) + c * a ** e
            if sub := fold(sub, p):
                break
        point[v], poly = a, sub
    return point
