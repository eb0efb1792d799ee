"""Sparse multivariate polynomial expansion of the determinant of a linear image.

Entries of X are numbered by their column-major position (0-based).  A
monomial is a tuple of (variable, exponent) pairs sorted by variable; a
polynomial is a dict from monomials to nonzero raw coefficients (residues for
GF(p), Fractions otherwise).  Raw coefficients keep the hot loops free of
wrapper objects; the public preserver API still speaks in scalars.

`det_change` expands det(T(X)) - det(X) for any map T with one row sweep,
and `nonzero_point` finds a point where it is nonzero.  The symbolic check
loads this module only for a map that does not factor: a two-sided map is
decided from its sign weights in `preserver`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .determinant import DEFAULT_TERM_GUARD, _guard, sweep_count, sweep_plan
from .errors import BudgetExceeded
from .fields import FieldSpec


Monomial = tuple[tuple[int, int], ...]
Poly = dict[Monomial, object]


@lru_cache(maxsize=16)
def _identity_sweep(n: int, k: int, p: int | None) -> dict[int, int]:
    """`_sweep` of the identity map; cached, so callers must not modify it."""
    nk = n * k
    return _sweep([[int(r == c) for c in range(nk)] for r in range(nk)], n, k, p, None)[0]


def _sweep(mat_rows: list[list], n: int, k: int, p: int | None,
           guard: int | None) -> tuple[dict[int, int], int]:
    """(P, s): P is s * det(T(X)) with packed monomials and integer
    coefficients (residues over GF(p)), for T given by raw coefficient rows.

    One row sweep over `sweep_plan(n, k)` whose values are sparse integer
    polynomials.  A monomial is packed into one integer, the exponent of
    variable v in bits [v*b, (v+1)*b) with 2**b > k, so that multiplying by
    a variable is an integer addition.  Over QQ the block of map rows giving
    column j of T(X) is cleared by the lcm of its denominators, and s is the
    product of those lcms; over GF(p), s = 1.
    """
    # a plan with more moves than allowed products is not built
    limit = _guard(sweep_count(n, k), guard, DEFAULT_TERM_GUARD, BudgetExceeded,
                   f"sweep-plan moves at {n}x{k}")
    b = k.bit_length()
    scale = 1
    # forms[i][j]: entry (i, j) of T(X) as (packed variable, coefficient) pairs
    forms = [[None] * k for _ in range(n)]
    for j in range(k):
        block = mat_rows[j * n:(j + 1) * n]
        clear = 1 if p else lcm(*(c.denominator for row in block for c in row))
        scale *= clear
        for i, row in enumerate(block):
            forms[i][j] = [(1 << (v * b), c if p else c.numerator * (clear // c.denominator))
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
            val[m] = ({mo: c % p for mo, c in val[m].items() if c % p} if p
                      else {mo: c for mo, c in val[m].items() if c})
    return val[-1] or {}, scale


def _unpacked(packed: dict[int, int], k: int, p: int | None, scale: int) -> Poly:
    """The nonzero terms of packed / scale (`_sweep`), with monomials as tuples."""
    b = k.bit_length()
    emask = (1 << b) - 1
    total: Poly = {}
    for key, cf in packed.items():
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
        total[tuple(mono)] = cf if p else Fraction(cf, scale)
    return total


def det_poly_of_map(mat_rows: list[list], n: int, k: int, field: FieldSpec,
                    guard: int | None = None) -> Poly:
    """det(T(X)) as a polynomial in X's entries, where T acts on the
    column-major flattening by the given (nk)x(nk) raw coefficient rows
    (`_sweep`)."""
    packed, scale = _sweep(mat_rows, n, k, field.p, guard)
    return _unpacked(packed, k, field.p, scale)


def det_change(mat_rows: list[list], n: int, k: int, field: FieldSpec,
               guard: int | None = None) -> Poly:
    """D = det(T(X)) - det(X), folded (`fold`), for the map T given by its
    raw coefficient rows as in `det_poly_of_map`.  det(X) is taken off in
    packed form, so terms that cancel are never unpacked."""
    p = field.p
    diff, scale = _sweep(mat_rows, n, k, p, guard)
    for key, c in _identity_sweep(n, k, p).items():
        diff[key] = diff.get(key, 0) - c * scale
    poly = _unpacked(diff, k, p, scale)
    # exponents are at most k, so below p folding only drops zero coefficients
    return fold(poly, field) if p and p <= k else poly


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
        if len(poly) == 1:  # it has every variable left, so 0 drops it and 1 keeps it
            point[v] = 1
            continue
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
