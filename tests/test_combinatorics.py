import pytest

from cullis import Injection, KSubset, injections, k_subsets, sgn_injection
from cullis.errors import IndexOutOfRange
from oracles import oracle_subset_sign


def test_subset_sign_examples():
    assert KSubset.of(3, [1, 2]).sign == 1
    assert KSubset.of(3, [1, 3]).sign == -1
    assert KSubset.of(3, [2, 3]).sign == 1
    # independence of the ambient size
    for n in (3, 5, 9):
        assert KSubset.of(n, [2, 3]).sign == 1


def test_subset_sign_matches_oracle():
    for c in k_subsets(6, 3):
        assert c.sign == oracle_subset_sign(c.elems)


def test_subset_access_and_validation():
    c = KSubset.of(5, [4, 1, 3])
    assert c.elems == (1, 3, 4)
    assert c(2) == 3
    with pytest.raises(IndexOutOfRange):
        KSubset.of(3, [0, 1])
    with pytest.raises(IndexOutOfRange):
        KSubset.of(3, [1, 1])


def test_injection_sign_examples():
    assert sgn_injection(Injection.of(5, (1, 2, 3))) == 1
    assert sgn_injection(Injection.of(3, (3, 1))) == 1
    assert sgn_injection(Injection.of(3, (1, 3))) == -1


def test_injection_sign_consistency_with_subsets():
    # an increasing injection has the sign of its image set
    for c in k_subsets(5, 2):
        assert sgn_injection(Injection.of(5, c.elems)) == c.sign
    # swapping two images flips the sign
    for c in k_subsets(5, 2):
        swapped = (c.elems[1], c.elems[0])
        assert sgn_injection(Injection.of(5, swapped)) == -c.sign


def test_enumeration_order_and_counts():
    subs = list(k_subsets(4, 2))
    assert [s.elems for s in subs] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)
    ]
    injs = list(injections(3, 2))
    assert len(injs) == 6
    assert injs[0].images == (1, 2) and injs[-1].images == (3, 2)
    with pytest.raises(IndexOutOfRange):
        Injection.of(3, (1, 4))
