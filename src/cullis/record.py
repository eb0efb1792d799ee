"""Immutable value records without `dataclasses`, whose import loads
`inspect`: about 10 ms of every command's start-up (Python 3.11, 2-core
x86-64, no bytecode cache).

Every value type of the package except `Scalar` is a record.  A record
lists its two or more fields in `__slots__`, in order, and its own `__init__`
sets each of them once through `set_field`; `FieldSpec`, which interns every
field, does so in `__new__` instead.  As for a frozen dataclass, equality and
hash go by the field values, the repr is `Name(field=value, ...)`, assigning
or deleting an attribute raises AttributeError, and copy, deepcopy and pickle
rebuild a record from its field values (`__reduce__`).  A subclass may bring
its own equality, hash, repr or `__reduce__`, as the fields and matrices do,
but never its own assignment.
"""

from operator import attrgetter

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._values = staticmethod(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
