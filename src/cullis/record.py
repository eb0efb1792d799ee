"""Immutable value records without `dataclasses`, whose import loads
`inspect`: about 10 ms of every command's start-up (Python 3.11, 2-core
x86-64, no bytecode cache).

A record lists its fields in `__slots__`, in order, and its own `__init__`
sets each of them once through `set_field`.  As for a frozen dataclass,
equality and hash go by the field values, the repr is `Name(field=value, ...)`,
and assigning or deleting an attribute raises AttributeError.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
