"""The package root loads each public name on first access, and the value
records behave as the frozen dataclasses they replaced."""

import copy
import sys

import pytest

import cullis
from cullis import (
    Census,
    Injection,
    KSubset,
    LambdaPoly,
    PreserverReport,
    gf,
    identity,
    make_two_sided,
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
]


@pytest.mark.parametrize("record, same, other, text", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_keep_their_dataclass_behaviour(record, same, other, text):
    fields = type(record).__match_args__
    assert record == same and hash(record) == hash(same)
    assert record != other and record != tuple(getattr(record, f) for f in fields)
    assert repr(record) == text
    assert copy.copy(record) == record
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert repr(record) == text


def test_report_defaults_and_field_order():
    report = PreserverReport("violates", "random", "W", 7, 3)
    assert (report.verdict, report.method, report.witness, report.samples, report.seed) == (
        "violates", "random", "W", 7, 3)
    bare = PreserverReport("inconclusive", "random")
    assert (bare.witness, bare.samples, bare.seed) == (None, None, None)
    assert not bare.preserves and PreserverReport("preserves", "exhaustive").preserves
    with pytest.raises(TypeError):
        PreserverReport("preserves")
