"""The package root loads each public name on first access, and the value
records behave as the frozen dataclasses they replaced."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

import cullis
from cullis import (
    RATIONALS,
    Census,
    FieldSpec,
    Injection,
    KSubset,
    LambdaPoly,
    LinearMapNK,
    PreserverReport,
    RectMatrix,
    ZeroInverse,
    enumerate_preservers,
    gf,
    identity,
    is_preserver,
    make_two_sided,
    submatrix_drop,
    vec,
)


def test_every_public_name_is_its_home_modules_object():
    assert cullis.__all__ == sorted(set(cullis.__all__))
    for name in cullis.__all__:
        value = getattr(cullis, name)
        assert value.__module__.startswith("cullis.")
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_root_namespace_is_complete_and_closed():
    assert set(cullis.__all__) <= set(dir(cullis))
    namespace = {}
    exec("from cullis import *", namespace)
    assert all(namespace[name] is getattr(cullis, name) for name in cullis.__all__)
    with pytest.raises(AttributeError):
        cullis.no_such_name
    assert not hasattr(cullis, "run_verification")


F = gf(5)
RECORDS = [
    (KSubset(4, (1, 3), -1), KSubset(n=4, elems=(1, 3), sign=-1), KSubset(4, (1, 3), 1),
     "KSubset(n=4, elems=(1, 3), sign=-1)"),
    (Injection(3, (2, 1)), Injection(images=(2, 1), n=3), Injection(3, (1, 2)),
     "Injection(n=3, images=(2, 1))"),
    (LambdaPoly((F.one, F.zero), F), LambdaPoly(field=F, coeffs=(F.one, F.zero)),
     LambdaPoly((F.one,), F), "LambdaPoly(coeffs=(1 in GF(5), 0 in GF(5)), field=GF(5))"),
    (PreserverReport("preserves", "symbolic"),
     PreserverReport(verdict="preserves", method="symbolic", witness=None, samples=None),
     PreserverReport("preserves", "random", None, 10, 0),
     "PreserverReport(verdict='preserves', method='symbolic', witness=None, samples=None,"
     " seed=None)"),
    (Census(0, ()), Census(count=0, maps=()), Census(1, (make_two_sided(identity(F, 1),
                                                                        identity(F, 1)),)),
     "Census(count=0, maps=())"),
    (gf(5), FieldSpec(kind="prime", p=5), gf(7), "GF(5)"),
    (RATIONALS, FieldSpec("rational"), gf(5), "QQ"),
    (RectMatrix.from_rows(F, [[1, 2], [3, 4]]),
     RectMatrix(field=F, n=2, k=2, entries=[F.element(v) for v in (1, 2, 3, 4)]),
     RectMatrix.from_rows(F, [[1, 2], [3, 0]]), "RectMatrix(2x2 over GF(5): 1 2; 3 4)"),
    (RectMatrix.from_rows(RATIONALS, [["1/2"], ["-3"]]),
     RectMatrix.from_columns(RATIONALS, [[Fraction(1, 2), -3]]),
     RectMatrix.from_rows(RATIONALS, [["1/2"], ["3"]]), "RectMatrix(2x1 over QQ: 1/2; -3)"),
    (LinearMapNK.identity_map(F, 2, 1), LinearMapNK(n=2, k=1, mat=identity(F, 2)),
     LinearMapNK(2, 1, identity(F, 2).scale(2)), "LinearMapNK(2x1 over GF(5))"),
]


def round_trips(value):
    """copy, deepcopy and a pickle round trip of value under every protocol."""
    return (copy.copy(value), copy.deepcopy(value),
            *(pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)))


@pytest.mark.parametrize("record, same, other, text", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_keep_their_dataclass_behaviour(record, same, other, text):
    fields = type(record).__match_args__
    assert record == same and hash(record) == hash(same)
    assert record != other and record != tuple(getattr(record, f) for f in fields)
    assert repr(record) == text
    for twin in round_trips(record):
        assert twin == record and hash(twin) == hash(record)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def test_copies_keep_fields_interned_and_hashes_unchanged():
    M = RectMatrix.from_rows(F, [[1, 2], [3, 4]])
    Q = RectMatrix.from_rows(RATIONALS, [["1/2"], ["-3"]])
    T = LinearMapNK(2, 1, identity(F, 2).scale(2))
    for field in (F, gf(2**127 - 1), RATIONALS, FieldSpec("prime", 5), FieldSpec("rational")):
        interned = RATIONALS if field.p is None else gf(field.p)
        assert field is interned
        assert all(twin is interned for twin in round_trips(field))
    poly = LambdaPoly((F.one, F.element(3)), F)
    for value in (M, Q, T, F.one, RATIONALS.element("-2/3"), poly):
        for twin in round_trips(value):
            assert twin == value and hash(twin) == hash(value)
            assert twin.field is value.field
    assert hash(F) == hash(("prime", 5)) and hash(RATIONALS) == hash(("rational", None))
    assert hash(M) == hash((M.n, M.k, M.values)) and hash(Q) == hash((Q.n, Q.k, Q.values))
    assert hash(T) == hash((T.n, T.k, T.mat)) and T.field is F
    # results that hold maps and matrices survive as well
    report = is_preserver(T)
    census = enumerate_preservers(2, 1, 3)
    assert report.verdict == "violates" and census.count == 9
    for result in (report, census):
        for twin in round_trips(result):
            assert twin == result and hash(twin) == hash(result)
    assert all(twin.witness.field is F for twin in round_trips(report))
    assert all(twin.maps[-1].field is gf(3) for twin in round_trips(census))


def test_report_defaults_and_field_order():
    report = PreserverReport("violates", "random", "W", 7, 3)
    assert (report.verdict, report.method, report.witness, report.samples, report.seed) == (
        "violates", "random", "W", 7, 3)
    bare = PreserverReport("inconclusive", "random")
    assert (bare.witness, bare.samples, bare.seed) == (None, None, None)
    assert not bare.preserves and PreserverReport("preserves", "exhaustive").preserves
    with pytest.raises(TypeError):
        PreserverReport("preserves")


@pytest.mark.parametrize("F", [gf(5), RATIONALS], ids=str)
def test_scalar_and_matrix_api_against_raw_values(F):
    # each method against the same arithmetic on the raw values: residues
    # mod 5 over GF(5), Fractions over QQ
    def raw(v):
        return v % F.p if F.p else Fraction(v)

    s, zero = F.element(3), F.zero
    assert (1 - s).value == raw(1 - 3) and (s - 1).value == raw(3 - 1)
    assert (s / 2).value == raw(3 * (pow(2, -1, 5) if F.p else Fraction(1, 2)))
    assert (2 / s).value == raw(2 * (pow(3, -1, 5) if F.p else Fraction(1, 3)))
    assert (1 / s) * s == F.one and (s / s) == F.one
    for divide in (lambda: s / 0, lambda: 1 / zero, lambda: zero / zero):
        with pytest.raises(ZeroInverse):
            divide()
    assert bool(s) and not bool(zero) and zero.is_zero and not s.is_zero
    values = [[1, 2, 3], [4, 0, 6]]
    X = RectMatrix.from_rows(F, values)
    assert [e.value for e in X.entries] == [raw(v) for row in values for v in row]
    assert all(e.field is F for e in X.entries)
    assert (-X).values == tuple(raw(-v) for row in values for v in row)
    assert [e.value for e in vec(X)] == [raw(v) for col in zip(*values) for v in col]
    assert submatrix_drop(X, [2], [1]).values == (raw(2), raw(3))
    assert submatrix_drop(X, [], [2]) == RectMatrix.from_rows(F, [[1, 3], [4, 6]])
