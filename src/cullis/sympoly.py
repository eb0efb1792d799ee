"""Sparse multivariate polynomial expansion of the determinant of a linear image.

Entries of X are numbered by their column-major position (0-based).  A
monomial is a tuple of (variable, exponent) pairs sorted by variable; a
polynomial is a dict from monomials to nonzero raw coefficients (residues for
GF(p), Fractions otherwise).  Raw coefficients keep the hot loops free of
wrapper objects; the public preserver API still speaks in scalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .determinant import sweep_count, sweep_plan
from .errors import BudgetExceeded
from .fields import FieldSpec

DEFAULT_TERM_GUARD = 200_000_000

Monomial = tuple[tuple[int, int], ...]
Poly = dict[Monomial, object]


@lru_cache(maxsize=16)
def det_poly_identity(n: int, k: int, field: FieldSpec) -> Poly:
    """det(X) as a polynomial in the nk entry variables of X: `det_poly_of_map`
    of the identity map; cached, so callers must not modify it."""
    one = 1 if field.kind == "prime" else Fraction(1)
    nk = n * k
    return det_poly_of_map([[one * (r == c) for c in range(nk)] for r in range(nk)], n, k, field)


def det_poly_of_map(mat_rows: list[list], n: int, k: int, field: FieldSpec,
                    guard: int | None = None) -> Poly:
    """det(T(X)) as a polynomial in X's entries, where T acts on the
    column-major flattening by the given (nk)x(nk) raw coefficient rows.

    One row sweep over `sweep_plan(n, k)` whose values are sparse integer
    polynomials.  Inside the sweep a monomial is packed into one integer, the
    exponent of variable v in bits [v*b, (v+1)*b) with 2**b > k, so that
    multiplying by a variable is an integer addition.  Over QQ the block of
    map rows giving column j of T(X) is cleared by the lcm of its
    denominators, and the result divided by the product of those lcms.
    """
    prime = field.kind == "prime"
    p = field.p
    limit = DEFAULT_TERM_GUARD if guard is None else guard
    if sweep_count(n, k) > limit:  # a plan with more moves than allowed products is not built
        raise BudgetExceeded(f"{n}x{k} sweep plan beyond {limit} products")
    b = k.bit_length()
    scale = 1
    # forms[i][j]: entry (i, j) of T(X) as (packed variable, coefficient) pairs
    forms = [[None] * k for _ in range(n)]
    for j in range(k):
        block = mat_rows[j * n:(j + 1) * n]
        clear = 1 if prime else lcm(*(c.denominator for row in block for c in row))
        scale *= clear
        for i, row in enumerate(block):
            forms[i][j] = [(1 << (v * b), c if prime else c.numerator * (clear // c.denominator))
                           for v, c in enumerate(row) if c]

    cost = 0
    val: list[dict | None] = [None] * (1 << k)
    val[0] = {0: 1}
    for row, moves in zip(forms, sweep_plan(n, k)):
        written = set()
        for src, dst, col, neg in moves:
            sub, form = val[src], row[col]
            if not sub or not form:
                continue
            cost += len(sub) * len(form)
            if cost > limit:
                raise BudgetExceeded(f"symbolic expansion beyond {limit} products")
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
            val[m] = ({mo: c % p for mo, c in val[m].items() if c % p} if prime
                      else {mo: c for mo, c in val[m].items() if c})

    emask = (1 << b) - 1
    total: Poly = {}
    for key, cf in (val[-1] or {}).items():
        mono, v = [], 0
        while key:
            if key & emask:
                mono.append((v, key & emask))
            key >>= b
            v += 1
        total[tuple(mono)] = cf if prime else Fraction(cf, scale)
    return total


def fold(poly: Poly, field: FieldSpec) -> Poly:
    """poly without zero terms, over GF(p) reduced by x**p = x (exponent e
    becomes 1 + (e - 1) % (p - 1)): empty exactly when poly is zero at every
    point, small fields included."""
    p = field.p
    if p is None:
        return {mono: c for mono, c in poly.items() if c}
    out: Poly = {}
    for mono, c in poly.items():
        key = tuple((v, 1 + (e - 1) % (p - 1)) for v, e in mono)
        out[key] = (out.get(key, 0) + c) % p
    return {mono: c for mono, c in out.items() if c}


def nonzero_point(poly: Poly, nvars: int, field: FieldSpec) -> list[int] | None:
    """Integer coordinates where the folded poly is nonzero; None if empty.

    Variables outside the support of the term with fewest variables are 0,
    which keeps that term.  The rest are fixed one at a time to the first
    value in range(d + 1), d the variable's degree, leaving poly nonzero: it
    has at most d roots (Alon's Combinatorial Nullstellensatz).  For det(T(X))
    every value is below min(p, k + 1), or k + 1 over QQ.
    """
    if not poly:
        return None
    support = {v for v, _ in min(poly, key=lambda mono: (len(mono), mono))}
    poly = {mono: c for mono, c in poly.items() if all(v in support for v, _ in mono)}
    point = [0] * nvars
    for v in sorted(support):
        split = [(tuple(t for t in mono if t[0] != v), dict(mono).get(v, 0), c)
                 for mono, c in poly.items()]
        for a in range(max(e for _, e, _ in split) + 1):
            sub: Poly = {}
            for rest, e, c in split:
                sub[rest] = sub.get(rest, 0) + c * a ** e
            if sub := fold(sub, field):
                break
        point[v], poly = a, sub
    return point
