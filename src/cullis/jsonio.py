"""JSON wire formats for matrices and linear maps.

Scalars always travel as strings (decimal residues, or "num/den" fractions)
so that values of any size round-trip exactly; JSON integers are read too,
but floats, booleans and zero denominators are refused.  Matrices are
row-major:

    {"n": 3, "k": 2, "field": {"type": "gfp", "p": 5}, "entries": [["1","2"], ...]}

Linear maps carry their (nk) x (nk) matrix the same way under "mat".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import CullisError
from .fields import FieldSpec, RATIONALS, Scalar, gf
from .matrix import RectMatrix

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
        return gf(int(_checked(d["p"], "p")))
    if d["type"] == "rational":
        return RATIONALS
    raise ValueError(f"unknown field type {d['type']!r}")


def _int_str(v: int) -> str:
    try:
        return str(v)
    except ValueError:  # past the interpreter's int-to-str digit limit
        from decimal import Decimal

        return str(Decimal(v))


def scalar_to_str(s: Scalar) -> str:
    """The exact decimal text of s, "num/den" for a non-integer fraction,
    whatever the interpreter's int-to-str digit limit."""
    v = s.value
    if isinstance(v, int):
        return _int_str(v)
    num = _int_str(v.numerator)
    return num if v.denominator == 1 else f"{num}/{_int_str(v.denominator)}"


def matrix_to_dict(X: RectMatrix) -> dict:
    return {
        "n": X.n,
        "k": X.k,
        "field": field_to_dict(X.field),
        "entries": [[scalar_to_str(v) for v in X.row(i)] for i in range(1, X.n + 1)],
    }


def _read(d, key: str, what: str, size) -> tuple[int, int, RectMatrix]:
    """n, k and the matrix under `key` of a matrix or map document, whose
    row count and row length are size(n, k)."""
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
    return n, k, RectMatrix.from_rows(field, [[_checked(v, "entry") for v in row] for row in body])


def matrix_from_dict(d) -> RectMatrix:
    return _read(d, "entries", "matrix", lambda n, k: (n, k))[2]


def map_to_dict(T: LinearMapNK) -> dict:
    nk = T.n * T.k
    return {
        "n": T.n,
        "k": T.k,
        "field": field_to_dict(T.field),
        "mat": [[scalar_to_str(v) for v in T.mat.row(i)] for i in range(1, nk + 1)],
    }


def map_from_dict(d) -> LinearMapNK:
    from .preserver import LinearMapNK

    n, k, mat = _read(d, "mat", "map", lambda n, k: (n * k, n * k))
    return LinearMapNK(n, k, mat)


def coerce_map_to_prime(T: LinearMapNK, p: int) -> LinearMapNK:
    """Reinterpret a map's entries in GF(p); fractions reduce via modular
    inverse of the denominator."""
    from .preserver import LinearMapNK

    field = gf(p)

    def conv(s: Scalar) -> Scalar:
        if T.field.kind == "prime":
            return field.element(s.value)
        num = field.element(s.value.numerator)
        den = field.element(s.value.denominator)
        if den.is_zero:
            raise CullisError(f"denominator of {s} vanishes mod {p}")
        return num * den.inverse()

    nk = T.n * T.k
    rows = [[conv(v) for v in T.mat.row(i)] for i in range(1, nk + 1)]
    return LinearMapNK(T.n, T.k, RectMatrix.from_rows(field, rows))
