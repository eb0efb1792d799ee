"""The exhaustive check on byte lanes against brute force.

For every map, the verdict and the witness of `is_preserver(T, "exhaustive")`
must be the first X in product(range(p), repeat=nk) order (of vec(X)) with
det(T X) != det(X), or none.  Brute force walks the inputs in that order,
adding one column of T per step to the image, and reads det off the
injection sum (`tests/oracles.py` signs); no package kernel is involved.
Each map is checked with the default block of 2**15 inputs and with blocks
of at most 64, so block boundaries, heads and shifts are crossed often.
The lane arithmetic is also checked on the first blocks of shapes far past
any budget, and the counts in BENCH_preserver.json are recomputed.
"""

import json
import random
from functools import lru_cache
from itertools import islice, permutations, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cullis import (
    LinearMapNK,
    RectMatrix,
    check_k1_form,
    det,
    gf,
    identity,
    is_preserver,
    make_k2_counterexample,
    make_s_shift,
    make_singular_preserver,
    make_two_sided,
    random_matrix,
)
from cullis import lanes
from cullis.determinant import sweep_plan
from oracles import oracle_subset_sign

LIMIT = 20_000
# (p, n, k): every shape with p**(nk) <= LIMIT over the small fields (byte
# lanes up to GF(13), lists of ints from GF(17)), and the first two widths
# over two wide fields
CASES = [(p, n, k) for p in (2, 3, 5, 7, 13, 17, 31)
         for k in range(1, 5) for n in range(k, 15) if p ** (n * k) <= LIMIT]
CASES += [(p, n, 1) for p in (131, 1009) for n in (1, 2)]
KINDS = ("two_sided", "random_two_sided", "s_shift", "corner", "singular", "dense",
         "one_changed")


@lru_cache(maxsize=None)
def injection_terms(n, k):
    """(sign, positions in vec(X)) of each term of the injection sum."""
    out = []
    for images in permutations(range(n), k):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if images[a] > images[b])
        out.append(((-1) ** inv * oracle_subset_sign([i + 1 for i in images]),
                    tuple(j * n + i for j, i in enumerate(images))))
    return out


@lru_cache(maxsize=4)
def det_values(n, k, p):
    """det(X) mod p for every X, in product order of vec(X)."""
    terms = injection_terms(n, k)
    return [sum(s * prod(v[i] for i in at) for s, at in terms) % p
            for v in product(range(p), repeat=n * k)]


def brute_force_witness(T):
    """vec(X) of the first input in product order whose image changes det,
    or None.  An odometer adds column m of T to the image each time digit m
    steps; p additions of a column give the image back, so a digit that
    turns over needs no correction."""
    n, k, p = T.n, T.k, T.field.p
    nk = n * k
    cols = [T.mat.values[m::nk] for m in range(nk)]
    if p ** nk > LIMIT:  # only GF(1009) at 2x1, which cannot store the table
        terms = injection_terms(n, k)

        def det_of(v):
            return sum(s * prod(v[i] for i in at) for s, at in terms) % p
    else:
        dets = det_values(n, k, p)

        def det_of(v):
            code = 0
            for x in v:
                code = code * p + x
            return dets[code]
    digits, image = [0] * nk, [0] * nk
    while True:
        if det_of(image) != det_of(digits):
            return digits
        m = nk - 1
        while m >= 0:
            digits[m] = (digits[m] + 1) % p
            image = [(a + c) % p for a, c in zip(image, cols[m])]
            if digits[m]:
                break
            m -= 1
        if m < 0:
            return None


def sign_pair(F, n, k, rng):
    """X -> c X B with det(B) = c**-k, which preserves det."""
    c = rng.randrange(1, F.p)
    while True:
        B = random_matrix(F, k, k, rng)
        d = det(B)
        if d.value:
            scale = (d * F.element(pow(c, k, F.p))).inverse()
            return make_two_sided(identity(F, n).scale(c), B.with_scaled_column(1, scale))


def build(kind, F, n, k, rng):
    """A map of the named kind at n x k, or None where there is none."""
    nk = n * k
    if kind == "two_sided":
        return sign_pair(F, n, k, rng)
    if kind == "random_two_sided":
        return make_two_sided(random_matrix(F, n, n, rng), random_matrix(F, k, k, rng))
    if kind == "s_shift":
        return make_s_shift(n, k, 1 + rng.randrange(n), 1 + rng.randrange(k), F)
    if kind == "corner":
        return make_k2_counterexample(n, F) if k == 2 and n >= 4 else None
    if kind == "singular":
        return make_singular_preserver(n, k, F) if (n + k) % 2 else None
    if kind == "dense":
        return LinearMapNK(n, k, random_matrix(F, nk, nk, rng))
    # a preserving product with one entry changed
    T = sign_pair(F, n, k, rng).compose(make_s_shift(n, k, 1 + rng.randrange(n), 1, F))
    values = list(T.mat.values)
    at = rng.randrange(nk * nk)
    values[at] = (values[at] + rng.randrange(1, F.p)) % F.p
    return LinearMapNK(n, k, RectMatrix._of(F, nk, nk, tuple(values)))


def check_against_brute_force(T, monkeypatch):
    n, k, p = T.n, T.k, T.field.p
    budget = max(p ** (n * k), 1)
    if p ** (n * k) > LIMIT and check_k1_form(T):
        want = None  # a full brute-force sweep of 10**6 inputs: the closed form instead
    else:
        want = brute_force_witness(T)
    # blocks of 64 change the blocks wherever p < 64 or p**2 fits a block
    for block in [lanes.BLOCK] + [64] * (p < 64 or p * p <= lanes.BLOCK):
        with monkeypatch.context() as m:
            m.setattr(lanes, "BLOCK", block)
            rep = is_preserver(T, "exhaustive", budget=budget)
        assert rep.preserves == (want is None), (T, block)
        if want is not None:
            W = rep.witness
            assert [W.values[i * k + j] for j in range(k) for i in range(n)] == want, (T, block)


def worst_entries(n, p):
    """n x 2 entries, vec order, whose row sweep adds p - 1 into the full
    mask at every product whose source is nonzero mod p."""
    y, v = [[1, 1] for _ in range(n)], [0, 0, 0]
    for row, moves in zip(y, sweep_plan(n, 2)):
        for src, _, col, s in moves:
            if src and v[src] % p:
                row[col] = (-1) ** (s + 1) * pow(v[src], -1, p) % p
        for src, dst, col, s in moves:
            if not src:
                v[dst] += (-1) ** s * row[col]
    return [row[c] for c in range(2) for row in y]


@pytest.mark.parametrize("p, n, k, worst", [
    (3, 44, 2, False), (5, 12, 3, False), (13, 30, 2, False), (13, 4, 3, False),
    (17, 3, 2, False), (31, 5, 2, False), (67, 3, 2, False), (101, 3, 2, False),
    (127, 4, 2, False), (127, 3, 3, False), (2, 9, 4, False), (131, 3, 2, False),
    (3, 44, 2, True), (13, 30, 2, True)])
def test_lane_arithmetic_on_the_first_blocks(p, n, k, worst, monkeypatch):
    # shapes far past any search budget, where byte-lane sums grow until the
    # kernel must reduce them before a product reads them or a byte
    # overflows (44 rows over GF(3), 30 over GF(13), 9 x 4 over GF(2)), and
    # list lanes with products from GF(17) on: the first blocks of det(T v),
    # p inputs each, against the injection sum.  A random map reaches about
    # half of each bound.  The worst map is T v = v[-2] * Y, so every byte
    # of block 1 holds the sweep of Y, whose products all add p - 1 where
    # they can: over GF(13) the full mask's sum runs to 252 (21 adds of 12)
    # before each reduction, and a bound of 264 lets a byte carry into its
    # neighbour.  Over GF(3) the sources hit 0 mod 3 too often for the sum
    # to pass 3/4 of its bound.
    F, nk = gf(p), n * k
    if worst:
        cols = [[0] * nk for _ in range(nk)]
        cols[-2] = worst_entries(n, p)
    else:
        T = LinearMapNK(n, k, random_matrix(F, nk, nk, random.Random(p * n * k)))
        cols = [T.mat.values[m::nk] for m in range(nk)]
    monkeypatch.setattr(lanes, "BLOCK", p)
    terms = injection_terms(n, k)
    for b, lane in enumerate(islice(lanes.det_lanes(cols, n, k, p), 8)):
        for j, got in enumerate(lane):
            code, v = b * p + j, []
            for _ in range(nk):
                code, digit = divmod(code, p)
                v.insert(0, digit)
            image = [sum(x * y for x, y in zip(row, v)) for row in zip(*cols)]
            assert got == sum(s * prod(image[i] for i in at) for s, at in terms) % p, (b, j)


@pytest.mark.parametrize("p, n, k", CASES)
def test_exhaustive_equals_brute_force(p, n, k, monkeypatch):
    rng = random.Random(p * 1000 + n * 10 + k)
    F = gf(p)
    for kind in KINDS:
        T = build(kind, F, n, k, rng)
        if T is not None:
            check_against_brute_force(T, monkeypatch)


@given(case=st.sampled_from(CASES), kind=st.sampled_from(KINDS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exhaustive_equals_brute_force_on_drawn_maps(case, kind, seed):
    p, n, k = case
    T = build(kind, gf(p), n, k, random.Random(seed))
    if T is not None:
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_against_brute_force(T, monkeypatch)


def test_bench_counts_follow_from_the_plan_and_the_block_rule():
    # BENCH_preserver.json's times are for reading only; its counts are
    # recomputed here: a block varies the last L coordinates, L the largest
    # with p**L <= 2**15 (at least 1), and each sweep move from a nonempty
    # mask is one lane product
    bench = json.loads((Path(__file__).parents[1] / "BENCH_preserver.json").read_text())
    assert len(bench["cases"]) == 7
    for case in bench["cases"]:
        n, k, p = case["n"], case["k"], case["p"]
        nk = n * k
        tail = max([1] + [t for t in range(1, nk + 1) if p ** t <= 2 ** 15])
        assert case["inputs"] == p ** nk
        assert case["blocks"] == p ** (nk - tail)
        assert case["lane_products_per_block"] == sum(
            1 for moves in sweep_plan(n, k) for src, *_ in moves if src)
        identity_cols = [[int(r == m) for r in range(nk)] for m in range(nk)]
        blocks = list(lanes.det_lanes(identity_cols, n, k, p))
        assert len(blocks) == case["blocks"] and {len(x) for x in blocks} == {p ** tail}
