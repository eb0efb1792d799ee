"""Signed index combinatorics: k-subsets of [n] and injections [k] -> [n].

The sign of a subset c = {i_1 < ... < i_k} is (-1)**sum(i_a - a); it does not
depend on the ambient size n.  The sign of an injection is the sign of the
permutation rearranging its images into increasing order times the sign of
the image set.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterator, Sequence

from .errors import IndexOutOfRange
from .record import Record, set_field


def sgn_of_subset(elems: Sequence[int]) -> int:
    """(-1)**sum(i_a - a) for a strictly increasing index tuple."""
    s = sum(e - a for a, e in enumerate(elems, start=1))
    return -1 if s & 1 else 1


def perm_sign_of(seq: Sequence[int]) -> int:
    """Sign of the permutation sorting seq (distinct values), via inversions."""
    inv = 0
    for a in range(len(seq)):
        sa = seq[a]
        for b in range(a + 1, len(seq)):
            if sa > seq[b]:
                inv += 1
    return -1 if inv & 1 else 1


class KSubset(Record):
    """A k-element subset of [n] with its cached sign."""

    __slots__ = ("n", "elems", "sign")

    def __init__(self, n: int, elems: tuple[int, ...], sign: int):
        set_field(self, "n", n)
        set_field(self, "elems", elems)
        set_field(self, "sign", sign)

    @classmethod
    def of(cls, n: int, elems: Sequence[int]) -> "KSubset":
        elems = tuple(sorted(elems))
        if not elems:
            raise IndexOutOfRange("subset must be nonempty")
        if len(set(elems)) != len(elems):
            raise IndexOutOfRange("subset elements must be distinct")
        if elems[0] < 1 or elems[-1] > n:
            raise IndexOutOfRange(f"subset {elems} outside [1..{n}]")
        return cls(n, elems, sgn_of_subset(elems))

    def __call__(self, alpha: int) -> int:
        """The alpha-th smallest element, 1-based."""
        return self.elems[alpha - 1]


class Injection(Record):
    """An injection [k] -> [n], stored as its image tuple."""

    __slots__ = ("n", "images")

    def __init__(self, n: int, images: tuple[int, ...]):
        set_field(self, "n", n)
        set_field(self, "images", images)

    @classmethod
    def of(cls, n: int, images: Sequence[int]) -> "Injection":
        images = tuple(images)
        if len(set(images)) != len(images):
            raise IndexOutOfRange("images must be distinct")
        if images and (min(images) < 1 or max(images) > n):
            raise IndexOutOfRange(f"images {images} outside [1..{n}]")
        return cls(n, images)


def sgn_injection(sigma: Injection) -> int:
    return perm_sign_of(sigma.images) * sgn_of_subset(sorted(sigma.images))


def k_subsets(n: int, k: int) -> Iterator[KSubset]:
    """All k-subsets of [n] in lexicographic order."""
    for elems in combinations(range(1, n + 1), k):
        yield KSubset(n, elems, sgn_of_subset(elems))


def injections(n: int, k: int) -> Iterator[Injection]:
    """All injections [k] -> [n] in lexicographic image order."""
    for images in permutations(range(1, n + 1), k):
        yield Injection(n, images)
