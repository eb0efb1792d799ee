"""JSON wire formats for matrices and linear maps.

Scalars always travel as strings (decimal residues, or "num/den" fractions)
so that values of any size round-trip exactly; JSON integers are read too,
but floats, booleans and zero denominators are refused.  Matrices are
row-major:

    {"n": 3, "k": 2, "field": {"type": "gfp", "p": 5}, "entries": [["1","2"], ...]}

Linear maps carry their (nk) x (nk) matrix the same way under "mat".
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from .errors import CullisError
from .fields import FieldSpec, RATIONALS, Scalar, _value_to_str, gf
from .matrix import RectMatrix, _check_shape

if TYPE_CHECKING:  # matrix commands do not load the map module
    from .preserver import LinearMapNK


def field_to_dict(field: FieldSpec) -> dict:
    if field.kind == "prime":
        return {"type": "gfp", "p": field.p}
    return {"type": "rational"}


def _checked(v, what: str):
    """v itself when it is a JSON integer or string; floats and booleans are
    refused rather than truncated or read as 0 and 1."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"{what} must be an integer or a string, got {v!r}")
    return v


def field_from_dict(d) -> FieldSpec:
    if not isinstance(d, dict) or "type" not in d:
        raise ValueError(f"bad field descriptor {d!r}")
    if d["type"] == "gfp":
        if "p" not in d:
            raise ValueError('field type "gfp" needs a modulus "p"')
        return gf(int(_checked(d["p"], "p")))
    if d["type"] == "rational":
        return RATIONALS
    raise ValueError(f"unknown field type {d['type']!r}")


def scalar_to_str(s: Scalar) -> str:
    """The exact decimal text of s, "num/den" for a non-integer fraction,
    whatever the interpreter's int-to-str digit limit."""
    return _value_to_str(s.value)


def _text_rows(X: RectMatrix) -> list[list[str]]:
    text = list(map(_value_to_str, X.values))
    return [text[i:i + X.k] for i in range(0, len(text), X.k)]


def matrix_to_dict(X: RectMatrix) -> dict:
    return {
        "n": X.n,
        "k": X.k,
        "field": field_to_dict(X.field),
        "entries": _text_rows(X),
    }


def _entry(v):
    return _checked(v, "entry")


def _read(d, key: str, what: str, size) -> tuple[int, int, RectMatrix]:
    """n, k and the matrix under `key` of a matrix or map document, whose
    row count and row length are size(n, k).  The entries are coerced to raw
    values in one pass (`FieldSpec.raw_values`)."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} document must be a JSON object")
    try:
        n, k = int(_checked(d["n"], "n")), int(_checked(d["k"], "k"))
        field = field_from_dict(d["field"])
        body = d[key]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} document: {exc}") from exc
    rows, width = size(n, k)
    if not isinstance(body, list) or len(body) != rows:
        raise ValueError(f"expected {rows} {what} rows")
    if any(not isinstance(row, list) or len(row) != width for row in body):
        raise ValueError(f"expected {what} rows of {width} entries")
    _check_shape(rows, width)
    values = field.raw_values(chain.from_iterable(body), _entry)
    return n, k, RectMatrix._of(field, rows, width, tuple(values))


def matrix_from_dict(d) -> RectMatrix:
    return _read(d, "entries", "matrix", lambda n, k: (n, k))[2]


def map_to_dict(T: LinearMapNK) -> dict:
    return {
        "n": T.n,
        "k": T.k,
        "field": field_to_dict(T.field),
        "mat": _text_rows(T.mat),
    }


def map_from_dict(d) -> LinearMapNK:
    n, k, mat = _read(d, "mat", "map", lambda n, k: (n * k, n * k))
    from .preserver import LinearMapNK  # once the document is read: a malformed one never loads it

    return LinearMapNK(n, k, mat)


def coerce_map_to_prime(T: LinearMapNK, p: int) -> LinearMapNK:
    """Reinterpret a map's entries in GF(p); fractions reduce via modular
    inverse of the denominator."""
    from .preserver import LinearMapNK

    field = gf(p)
    if T.field.kind == "prime":
        values = [v % p for v in T.mat.values]
    else:
        values = []
        for v in T.mat.values:
            if not v.denominator % p:
                raise CullisError(f"denominator of {_value_to_str(v)} vanishes mod {p}")
            values.append(v.numerator * pow(v.denominator, -1, p) % p)
    nk = T.n * T.k
    return LinearMapNK(T.n, T.k, RectMatrix._of(field, nk, nk, tuple(values)))
