"""Exact scalar arithmetic over prime fields GF(p) and the rationals.

Scalars carry their field with them and are kept in a unique canonical form:
residues in [0, p) for GF(p), reduced fractions with positive denominator for
the rationals.  Equality and hashing are therefore structural, so scalars can
be used as dict keys and set members.  Fields are interned, one `FieldSpec`
per modulus, so two fields are equal exactly when they are the same object.

`fractions` is imported only where a rational value is handled: in the
rationals' branches below, and through `rational` for every other module, so
a command over GF(p) loads none of `fractions`, `decimal` or `numbers`.
`_value_to_str` is the one exact writer of raw values, for the JSON documents
and for scalar and matrix text past the interpreter's int-to-str digit limit.
"""

from __future__ import annotations

from .errors import FieldMismatch, ZeroInverse
from .record import Record, set_field

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# largest decimal exponent a rational string may carry: the interpreter's
# default digit limit for an integer literal
MAX_EXPONENT = 4300


def is_prime(n: int) -> bool:
    """Miller-Rabin test with the twelve prime bases 2..37.

    The answer is proven exact only for n < 318665857834031151167461
    (about 3.18e23; Sorenson and Webster, 2015).  Above that bound, for
    instance for the Mersenne prime 2**127 - 1, it is a strong probable-prime
    test: no composite is known to pass it, but a pass is not a proof.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(Record):
    """Ground field descriptor: GF(p) for a prime p, or the rationals.

    Each field is one object, built and copied through `__new__`:
    `FieldSpec("prime", p)` is `gf(p)`, `FieldSpec("rational")` is `RATIONALS`."""

    __slots__ = ("kind", "p")
    _fields: dict = {}  # the one object per field, keyed by p (None for QQ)

    def __new__(cls, kind: str, p: int | None = None):
        if kind == "prime":
            # a bool or a float is no modulus; a known prime skips the test
            if type(p) is not int or (p not in cls._fields and not is_prime(p)):
                raise ValueError(f"modulus {p!r} is not prime")
        elif kind != "rational":
            raise ValueError(f"unknown field kind {kind!r}")
        elif p is not None:
            raise ValueError(f"the rationals take no modulus, got {p!r}")
        if p not in cls._fields:
            field = object.__new__(cls)
            set_field(field, "kind", kind)
            set_field(field, "p", p)
            cls._fields.setdefault(p, field)
        return cls._fields[p]

    __eq__ = object.__eq__

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.kind == "prime" else "QQ"

    def element(self, value) -> "Scalar":
        """Coerce an int, Fraction, decimal/fraction string, or Scalar."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatch(f"scalar from {value.field} used in {self}")
            return value
        if self.kind == "prime":
            if isinstance(value, str):
                value = int(value.strip(), 10)
            elif not isinstance(value, int):
                import fractions

                if not isinstance(value, fractions.Fraction):
                    raise TypeError(f"cannot coerce {value!r} into {self}")
                if value.denominator != 1:
                    raise ValueError(f"{value} is not an integer residue")
                value = value.numerator
            return Scalar(value % self.p, self)
        import fractions

        if isinstance(value, (int, str)):
            if isinstance(value, str) and ("e" in value or "E" in value):
                _check_exponent(value)
            try:
                value = fractions.Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"{value!r} has a zero denominator") from None
        if not isinstance(value, fractions.Fraction):
            raise TypeError(f"cannot coerce {value!r} into {self}")
        return Scalar(value, self)

    @property
    def zero(self) -> "Scalar":
        return self.element(0)

    @property
    def one(self) -> "Scalar":
        return self.element(1)

    def raw_values(self, items, check=None) -> list:
        """`element(v).value` for every v in items, in one pass.

        Ints and Scalars of this field are read directly, and so are strings
        that `int` reads over GF(p) and plain ASCII "-digits" or
        "-digits/digits" strings with a nonzero denominator over QQ.  Every
        other item goes to `element`, after check(v) when check is given, so
        the grammar accepted is still the interpreter's.
        """
        out = []
        add = out.append
        p = self.p
        if not p:
            import fractions

            Fraction = fractions.Fraction
        for v in items:
            t = type(v)
            if t is str:
                if p:
                    try:
                        add(int(v) % p)
                        continue
                    except ValueError:  # int's spaces are only some of strip's
                        pass
                elif v.isascii():  # "-digits" or "-digits/digits" skip Fraction's parser
                    num, slash, den = v.partition("/")
                    if (num[1:] if num[:1] == "-" else num).isdigit() and (
                            den.isdigit() or not slash):
                        d = int(den) if slash else 1
                        if d:  # a zero denominator takes element's error
                            add(Fraction(int(num), d) if slash else Fraction(int(num)))
                            continue
            elif t is int:
                add(v % p if p else Fraction(v))
                continue
            elif t is Scalar and v.field is self and check is None:
                add(v.value)
                continue
            add(self.element(v if check is None else check(v)).value)
        return out

    def random_value(self, rng):
        """Draw a raw value from `rng`; small mixed-sign fractions over QQ."""
        if self.kind == "prime":
            return rng.randrange(self.p)
        return rational(rng.randrange(-9, 10), rng.randrange(1, 10))

    def random_element(self, rng) -> "Scalar":
        """`random_value` as a scalar."""
        return Scalar(self.random_value(rng), self)


def rational(numerator: int, denominator: int = 1):
    """numerator / denominator as a raw rational value; `fractions` is
    imported on the first call."""
    import fractions

    return fractions.Fraction(numerator, denominator)


def _check_exponent(text: str):
    """Refuse a decimal exponent above MAX_EXPONENT in magnitude before
    Fraction builds its power of ten; Fraction judges the rest of the text."""
    exp = text.lower().partition("e")[2]
    digits = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    if digits.isdecimal() and int(digits[:5]) > MAX_EXPONENT:  # no leading zeros left
        raise ValueError(f"decimal exponent in {text[:40]!r} exceeds {MAX_EXPONENT}")


def _int_str(v: int) -> str:
    try:
        return str(v)
    except ValueError:  # past the interpreter's int-to-str digit limit
        from decimal import Decimal

        return str(Decimal(v))


def _value_to_str(v) -> str:
    """The exact decimal text of a raw value, "num/den" for a non-integer
    fraction, whatever the interpreter's int-to-str digit limit."""
    if isinstance(v, int):
        return _int_str(v)
    num = _int_str(v.numerator)
    return num if v.denominator == 1 else f"{num}/{_int_str(v.denominator)}"


def gf(p: int) -> FieldSpec:
    """The prime field GF(p), the one object for modulus p."""
    return FieldSpec("prime", p)


RATIONALS = FieldSpec("rational")


class Scalar:
    """A field element in canonical form, closed under arithmetic."""

    __slots__ = ("value", "field")

    def __init__(self, value, field: FieldSpec):
        # value must already be canonical; use FieldSpec.element to coerce
        self.value = value
        self.field = field

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is self.field:
                return other
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return self.field.element(other)

    def _make(self, value) -> "Scalar":
        """value, reduced mod p over GF(p), as a scalar of self's field."""
        f = self.field
        return Scalar(value % f.p if f.p else value, f)

    def __add__(self, other):
        return self._make(self.value + self._coerce(other).value)

    def __sub__(self, other):
        return self._make(self.value - self._coerce(other).value)

    def __mul__(self, other):
        return self._make(self.value * self._coerce(other).value)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._make(-self.value)

    def inverse(self) -> "Scalar":
        if not self.value:
            raise ZeroInverse(f"zero has no inverse in {self.field}")
        p = self.field.p
        return Scalar(pow(self.value, -1, p) if p else 1 / self.value, self.field)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __bool__(self):
        return bool(self.value)

    @property
    def is_zero(self) -> bool:
        return not self.value

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.kind, self.field.p, self.value))

    def __str__(self):
        try:
            return str(self.value)
        except ValueError:  # past the interpreter's int-to-str digit limit
            return _value_to_str(self.value)

    def __repr__(self):
        return f"{self} in {self.field!r}"

    def __reduce__(self):
        return Scalar, (self.value, self.field)
