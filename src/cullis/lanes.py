"""Byte lanes: det(T v) for a whole block of inputs v over GF(p) at once.

The exhaustive preservation check and its det table (`preserver`) run on
this kernel.  Inputs go in product order of vec(v), in blocks of at most
`BLOCK` that share their leading coordinates.  For each coordinate of T v a
block is one lane, one byte per input (p <= 13), worked on as a big int:
`translate` tables give shifts, reductions and products, big-int adds give
sums, and the row sweep's cached plan (`sweep_plan`) strings them into a
determinant.  Larger p take lists of ints in the same function.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import chain, product
from operator import add

from .determinant import sweep_plan

BLOCK = 1 << 15  # inputs per lane, at most
BYTE_P = 13  # the largest p whose lanes are bytes: a pair index a * p + b fits one


def tail_len(p: int, nk: int) -> int:
    """Coordinates a block varies: the largest L <= nk with p**L <= BLOCK,
    and at least 1.  A block is a run of p**L inputs sharing the rest."""
    tail = 1
    while tail < nk and p ** (tail + 1) <= BLOCK:
        tail += 1
    return tail


@lru_cache(maxsize=16)
def _byte_tables(p: int) -> tuple:
    """`translate` tables on byte lanes over GF(p), p <= BYTE_P: x + y mod p
    for each y, and per sign s the product (-1)**s * a * b at the pair index
    x = a * p + b.  Any byte is an index, so a may be an unreduced sum while
    the index stays below 256."""
    add_to = [bytes((x + y) % p for x in range(256)) for y in range(p)]
    prod = [bytes((x // p) * (x % p) * (-1) ** s % p for x in range(256)) for s in (0, 1)]
    return add_to, prod


def det_lanes(cols: list, n: int, k: int, p: int):
    """det(T v) for every input v over GF(p) in product order, one lane per
    block (`tail_len`), where T has raw columns `cols`.

    A lane holds one digit per input.  For p <= BYTE_P that is one byte, and
    a lane is yielded as bytes and worked on as a little-endian int: a sum is
    an int add, reduced by `translate` only before a byte could overflow, a
    negation is p - x bytewise, and a product is one `translate` of the pair
    index a * p + b.  Larger p take lists of ints, yielded as tuples.  Each
    coordinate of T v is its image of the tail coordinates, built once,
    shifted per block by the image of the head; the lanes then run
    `sweep_plan`, one lane product per move from a nonempty mask.
    """
    nk = n * k
    tail = tail_len(p, nk)
    size = p ** tail
    # bounds on a lane's largest byte: a sum is reduced before it could pass
    # `top`, and before a product reads it above `most`
    top = most = float("inf")
    byte = p <= BYTE_P
    if byte:
        add_to, prod = _byte_tables(p)
        load = partial(int.from_bytes, byteorder="little")

        def tr(v, table):
            return load(v.to_bytes(size, "little").translate(table))

        def shift(lane, y):
            return lane.translate(add_to[y]) if y else lane

        def out(v):
            return v.to_bytes(size, "little").translate(add_to[0])

        red, neg = partial(tr, table=add_to[0]), load(bytes([p]) * size).__sub__
        join, plus, zero = b"".join, add, 0
        top, most = 255, (256 - p) // p

        def mul(a, b, s):
            return tr(a * p + b, prod[s])
        lanes = [b"\0"] * nk
    else:
        def shift(lane, y):
            return [(x + y) % p for x in lane] if y else lane

        def join(parts):
            return list(chain.from_iterable(parts))

        def plus(a, b):
            return list(map(add, a, b))

        def mul(a, b, s):
            return [-x * y if s else x * y for x, y in zip(a, b)]

        def neg(v):
            return [-x for x in v]

        def red(v):
            return [x % p for x in v]

        def out(v):
            return tuple(red(v))

        load, zero = list, [0] * size
        lanes = [[0]] * nk
    # each coordinate of T v over the tail inputs, last tail coordinate first
    for m in range(nk - 1, nk - tail - 1, -1):
        lanes = [join(shift(lane, d * c % p) for d in range(p)) if c else lane * p
                 for lane, c in zip(lanes, cols[m])]
    rows = list(zip(*cols))
    plan = sweep_plan(n, k)
    loaded: dict = {}  # (coordinate, shift) -> byte lane, at most nk * p of them
    for head in product(range(p), repeat=nk - tail):
        x = []
        for key in enumerate(sum(c * d for c, d in zip(r, head)) % p for r in rows):
            lane = loaded.get(key)
            if lane is None:
                lane = load(shift(lanes[key[0]], key[1]))
                if byte:  # list blocks are large and rarely meet a shift twice
                    loaded[key] = lane
            x.append(lane)
        val, bound = [zero] * (1 << k), [0] * (1 << k)
        for i, moves in enumerate(plan):
            for src, dst, col, s in moves:
                b, t = x[col * n + i], p - 1
                if src:
                    if not bound[src]:
                        continue
                    if bound[src] > most:
                        val[src], bound[src] = red(val[src]), p - 1
                    b = mul(val[src], b, s)
                elif s:
                    b, t = neg(b), p
                if bound[dst] + t > top:
                    val[dst], bound[dst] = red(val[dst]), p - 1
                val[dst] = plus(val[dst], b)
                bound[dst] += t
        yield out(val[-1])
