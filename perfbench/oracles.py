"""Reference arithmetic and result checks for the benchmark.

Nothing here imports cullis.  Scalars are plain ints reduced mod p for GF(p)
and Fractions for the rationals (p is None).  Every check takes a request and
the canonical result the benchmark recorded for it, and returns None when the
result is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

# -- scalars and matrices -----------------------------------------------------


def field_p(field: dict):
    """Modulus of a wire field descriptor; None for the rationals."""
    return field["p"] if field["type"] == "gfp" else None


def parse_scalar(text, p):
    return int(text) % p if p else Fraction(text)


def red(x, p):
    return x % p if p else x


def parse_rows(doc: dict):
    """(rows, p) of a well-formed matrix document, or of a map's "mat"."""
    p = field_p(doc["field"])
    key = "entries" if "entries" in doc else "mat"
    return [[parse_scalar(v, p) for v in row] for row in doc[key]], p


def columns(rows):
    return [list(c) for c in zip(*rows)]


def from_columns(cols):
    return [list(r) for r in zip(*cols)]


def rect_det(rows, p):
    """Rectangular determinant by a sweep over rows that tracks, for each set
    of used columns, the signed partial sum over injections.  Placing row r
    (1-based) in column c after `used` rows costs (#used columns right of c)
    + (r - used - 1) sign flips: the inversion count plus the image-set sign.
    """
    k = len(rows[0])
    full = (1 << k) - 1
    dp = {0: 1}
    for r, row in enumerate(rows):
        nxt = dict(dp)
        for mask, val in dp.items():
            used = bin(mask).count("1")
            if used == k:
                continue
            for c in range(k):
                bit = 1 << c
                if mask & bit or not row[c]:
                    continue
                term = val * row[c]
                if (bin(mask >> (c + 1)).count("1") + r - used) & 1:
                    term = -term
                nxt[mask | bit] = nxt.get(mask | bit, 0) + term
        dp = {m: red(v, p) for m, v in nxt.items()}
    return red(dp.get(full, 0), p)


def rank(rows, p):
    m = [[red(x, p) for x in r] for r in rows]
    nr, nc = len(m), len(m[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        for i in range(r + 1, nr):
            f = red(m[i][c] * inv, p)
            if f:
                m[i] = [red(a - f * b, p) for a, b in zip(m[i], m[r])]
        r += 1
    return r


def square_det(rows, p):
    """Ordinary determinant by the permutation expansion (k <= 6 here)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        prod = 1
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += -prod if inv & 1 else prod
    return red(total, p)


def subset_sign(elems) -> int:
    return -1 if sum(e - a for a, e in enumerate(elems, start=1)) & 1 else 1


# -- linear maps on vec(X), column-major ----------------------------------------


def vec(rows):
    return [x for col in zip(*rows) for x in col]


def unvec(v, n, k):
    return [[v[j * n + i] for j in range(k)] for i in range(n)]


def apply_map(mat, rows, p):
    v = vec(rows)
    return unvec([red(sum(a * x for a, x in zip(mrow, v)), p) for mrow in mat], len(rows), len(rows[0]))


def map_of(fn, n, k, p):
    """Matrix of a linear function on n x k matrices from its unit images."""
    cols = []
    for j in range(k):
        for i in range(n):
            unit = [[1 if (r, c) == (i, j) else 0 for c in range(k)] for r in range(n)]
            cols.append(vec(fn(unit)))
    return [[red(x, p) for x in row] for row in zip(*cols)]


def two_sided_map(a, b, p):
    """Matrix of X -> A X B: entry ((j,i),(l,m)) is A[i][m] * B[l][j]."""
    n, k = len(a), len(b)
    return [[red(a[i][m] * b[l][j], p) for l in range(k) for m in range(n)]
            for j in range(k) for i in range(n)]


def s_shift(rows, i, j):
    """Rows i..n, then negated rows 1..i-1; columns 1 and j exchanged with the
    new first column negated unless j = 1; all scaled by (-1)**(n-i)."""
    n = len(rows)
    out = [list(r) for r in rows[i - 1:]] + [[-x for x in r] for r in rows[: i - 1]]
    if j != 1:
        for r in out:
            r[0], r[j - 1] = -r[j - 1], r[0]
    if (n - i) & 1:
        out = [[-x for x in r] for r in out]
    return out


def shifted(rows, shifts):
    """The composition of s-shifts, the last listed applied first."""
    for i, j in reversed(shifts):
        rows = s_shift(rows, i, j)
    return rows


def corner_partner(rows):
    """The corner-swapped partner of a two-column matrix."""
    n = len(rows)
    s1 = sum(rows[r][0] if (r + 1) % 2 == 0 else -rows[r][0] for r in range(1, n - 1))
    s2 = sum(rows[r][1] if (r + 1) % 2 == 0 else -rows[r][1] for r in range(1, n - 1))
    d = s1 + s2 if n % 2 == 0 else s1 - s2
    out = [list(r) for r in rows]
    out[0] = [d + rows[n - 1][1], rows[0][1]]
    out[n - 1] = [rows[n - 1][0], -d + rows[0][0]]
    return out


def singular_image(rows):
    c = rows[0][0]
    return [[x - c for x in r] for r in rows]


def sign_condition(a, b, p) -> bool:
    """det(columns d of A) * det(B) equals sgn(d) for every column k-subset d."""
    n, k = len(a), len(b)
    db = square_det(b, p)
    acols = columns(a)
    return all(
        red(rect_det(from_columns([acols[c - 1] for c in d]), p) * db - subset_sign(d), p) == 0
        for d in combinations(range(1, n + 1), k)
    )


# -- the det(A + tB) machinery -------------------------------------------------------


def coefficient(acols, bcols, d, p):
    """Coefficient of t**d in det(A + tB): B's columns at each d-subset S."""
    k = len(acols)
    total = 0
    for S in combinations(range(k), d):
        total += rect_det(from_columns([bcols[j] if j in S else acols[j] for j in range(k)]), p)
    return red(total, p)


def _basis_sweep(n, value_cols: dict, free: list, p):
    """A basis assignment to the free column slots making the determinant
    nonzero, or None.  Exact by multilinearity in the free columns."""
    k = len(value_cols) + len(free)
    for assign in permutations(range(n), len(free)):
        cols = [None] * k
        for j, col in value_cols.items():
            cols[j] = col
        for j, t in zip(free, assign):
            cols[j] = [1 if r == t else 0 for r in range(n)]
        if rect_det(from_columns(cols), p):
            return assign
    return None


def coefficient_vanishes(bcols, n, d, p) -> bool:
    """True when the t**d coefficient of det(A + tB) is zero for every A.
    Summands for distinct S have disjoint monomial supports, so each one is
    swept on its own."""
    k = len(bcols)
    for S in combinations(range(k), d):
        free = [j for j in range(k) if j not in S]
        if _basis_sweep(n, {j: bcols[j] for j in S}, free, p) is not None:
            return False
    return True


def max_degree(brows, p) -> int:
    """Exact maximum over A of deg det(A + tB).  Coefficients above rank(B)
    vanish because the determinant is alternating in the columns."""
    n = len(brows)
    bcols = columns(brows)
    for d in range(rank(brows, p), 0, -1):
        if not coefficient_vanishes(bcols, n, d, p):
            return d
    return 0


def completions_vanish(xrows, k, p) -> bool:
    n = len(xrows)
    if rank(xrows, p) < 2:
        return True
    return _basis_sweep(n, {0: [r[0] for r in xrows], 1: [r[1] for r in xrows]},
                        list(range(2, k)), p) is None


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def completion_rhs(form, rows, n, k, l, p):
    """Target value of det(X|B) for the three completion constructors."""
    r = rows
    u = [r[0][0] - r[1][0], r[0][1] - r[1][1]]
    if form == "diffdiff":
        return red(det2(u, [r[l - 1][0] - r[l][0], r[l - 1][1] - r[l][1]]), p)
    if form == "diffsum":
        return red(sum(det2(u, r[m - 1]) * (1 if m % 2 == 0 else -1)
                       for m in range(3, n - k + 4)), p)
    m = n - k + 2
    acc = det2(r[0], r[1])
    acc += sum(det2(u, r[a - 1]) * (1 if a % 2 == 0 else -1) for a in range(3, m + 1))
    acc += sum(det2(r[a - 1], r[b - 1]) * (1 if (a + b) % 2 == 1 else -1)
               for a in range(3, m + 1) for b in range(a + 1, m + 1))
    return red(acc, p)


# -- checks on recorded results ---------------------------------------------------------


def _rng(req) -> random.Random:
    return random.Random(json.dumps(req, sort_keys=True))


def rand_scalar(rng, p):
    """A residue mod p, or a small mixed-sign fraction for the rationals."""
    return rng.randrange(p) if p else Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))


def _doc_rows(text):
    return parse_rows(json.loads(text))


def _violation_ok(mat, witness, p):
    """A recorded witness really is an input whose determinant the map moves."""
    if witness is None:
        return False
    x = [[parse_scalar(v, p) for v in row] for row in witness]
    return rect_det(apply_map(mat, x, p), p) != rect_det(x, p)


def _verdict(mat, got, expect, p, what):
    verdict, witness = got
    if verdict != expect:
        return f"{what} verdict {verdict}, built to {expect}"
    if verdict == "violates" and not _violation_ok(mat, witness, p):
        return f"{what} witness does not move the determinant"
    return None


def built_map(spec, p):
    """Reference matrix of the map a check request asks the package to build."""
    build, n, k = spec["build"], spec["n"], spec["k"]
    if build == "two_sided":
        return two_sided_map(_doc_rows(spec["a"])[0], _doc_rows(spec["b"])[0], p)
    if build == "s_shift":
        return map_of(lambda x: shifted(x, spec["shifts"]), n, k, p)
    if build == "singular":
        return map_of(singular_image, n, k, p)
    return map_of(corner_partner, n, k, p)


def check_inprocess(req, res):
    kind = req["kind"]
    if kind in ("det", "rank"):
        rows, p = _doc_rows(req["doc"])
        want = rect_det(rows, p) if kind == "det" else rank(rows, p)
        got = parse_scalar(res, p) if kind == "det" else res
        return None if got == want else f"{kind} {res}, reference {want}"
    if kind == "lambda":
        (a, p), (b, _) = _doc_rows(req["a"]), _doc_rows(req["b"])
        coeffs = [parse_scalar(c, p) for c in res]
        if len(coeffs) != len(a[0]) + 1:
            return f"{len(coeffs)} coefficients for width {len(a[0])}"
        for lam in range(len(coeffs)):
            direct = rect_det([[x + lam * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], p)
            if red(sum(c * lam ** e for e, c in enumerate(coeffs)), p) != direct:
                return f"coefficients disagree with det(A + {lam}B)"
        return None
    if kind == "max_deg":
        rows, p = _doc_rows(req["b"])
        want = max_degree(rows, p)
        return None if res == want else f"max degree {res}, reference {want}"
    if kind == "deg_witness":
        rows, p = _doc_rows(req["b"])
        n, d = len(rows), req["d"]
        if res is None:
            vanishes = d > rank(rows, p) or coefficient_vanishes(columns(rows), n, d, p)
            return None if vanishes else f"no witness, yet degree {d} is reachable"
        acols = columns([[parse_scalar(v, p) for v in r] for r in res])
        if coefficient(acols, columns(rows), d, p):
            return None
        return f"witness gives a zero degree-{d} coefficient"
    if kind == "completions":
        rows, p = _doc_rows(req["x"])
        want = completions_vanish(rows, req["k"], p)
        return None if res == want else f"completions vanish {res}, reference {want}"
    if kind == "in_radical":
        rows, p = _doc_rows(req["w"])
        want = max_degree(rows, p) == 0
        return None if res == want else f"in radical {res}, reference {want}"
    if kind == "make_b":
        return _check_make_b(req, res)
    if kind == "check":
        return _check_map(req, res)
    if kind == "factor":
        mat, p = parse_rows(json.loads(req["map"]))
        if res is None:
            return None if req["expect"] is None else "two-sided map did not factor"
        if req["expect"] is None:
            return "corner swap map factored"
        a = [[parse_scalar(v, p) for v in r] for r in res[0]]
        b = [[parse_scalar(v, p) for v in r] for r in res[1]]
        return None if two_sided_map(a, b, p) == mat else "factors do not reproduce the map"
    if kind == "sign_condition":
        (a, p), (b, _) = _doc_rows(req["a"]), _doc_rows(req["b"])
        want = sign_condition(a, b, p)
        return None if res == want else f"sign condition {res}, reference {want}"
    if kind in ("census", "radical"):
        return None if res == req["expect"] else f"{kind} size {res}, expected {req['expect']}"
    return f"unknown request kind {kind}"


def _check_make_b(req, res):
    p = field_p(req["field"])
    n, k, l = req["n"], req["k"], req.get("l")
    if res is None or len(res) != n or len(res[0]) != k - 2:
        return "completion has the wrong shape"
    b = [[parse_scalar(v, p) for v in r] for r in res]
    rng = _rng(req)
    for _ in range(3):
        x = [[rand_scalar(rng, p) for _ in range(2)] for _ in range(n)]
        lhs = rect_det([xr + br for xr, br in zip(x, b)], p)
        if lhs != completion_rhs(req["form"], x, n, k, l, p):
            return f"det(X|B) misses the {req['form']} target"
    return None


def _check_map(req, res):
    spec = req["map"]
    p = field_p(spec["field"])
    mat = [[parse_scalar(v, p) for v in r] for r in res["map"]]
    if mat != built_map(spec, p):
        return f"built {spec['build']} map differs from its definition"
    why = _verdict(mat, res["symbolic"], req["expect"], p, "symbolic")
    if why is None and req["exhaustive"]:
        why = _verdict(mat, res["exhaustive"], req["expect"], p, "exhaustive")
    return why


# -- command line contract ------------------------------------------------------------


def single_json(stdout: str):
    """The one JSON document on stdout, or raise ValueError."""
    doc, end = json.JSONDecoder().raw_decode(stdout.lstrip())
    if stdout.lstrip()[end:].strip():
        raise ValueError("trailing output after the JSON document")
    return doc


# behaviour of the documented input defects: "1/0" ends in a traceback with no
# output; floats and booleans are accepted as integers
DEFECT_EXIT = {"zero-denominator": 1, "float": 0, "boolean": 0}


def check_cli(req, res):
    """None when the call met the contract and returned the right value,
    "defect:<name>" when it showed one of the known input defects exactly,
    otherwise the reason it failed."""
    rc, out = res["rc"], res["stdout"]
    expect = req["expect"]
    if rc != expect["rc"]:
        defect = req.get("defect")
        if defect and rc == DEFECT_EXIT[defect] and (rc == 0) == bool(out):
            return f"defect:{defect}"
        return f"exit code {rc}, contract says {expect['rc']}"
    if rc not in (0, 1):
        return None
    if req["site"] == "cli.startup":
        return None if out.startswith("usage:") else "help text missing"
    try:
        doc = single_json(out)
    except ValueError as exc:
        return f"stdout is not one JSON document: {exc}"
    return _check_cli_value(req, doc)


def _check_cli_value(req, doc):
    expect = req["expect"]
    what = expect.get("value")
    if what == "det":
        rows, p = _doc_rows(req["files"]["in.json"])
        return None if parse_scalar(doc["det"], p) == rect_det(rows, p) else "det value wrong"
    if what == "lambda":
        return check_inprocess({"kind": "lambda", "a": req["files"]["a.json"],
                                "b": req["files"]["b.json"]}, doc["coeffs"])
    if what == "verdict":
        mat, p = parse_rows(json.loads(req["files"]["map.json"]))
        if "p" in expect:
            p = expect["p"]
            mat = [[red(x, p) for x in r] for r in mat]
        witness = doc.get("witness", {}).get("entries")
        return _verdict(mat, (doc["verdict"], witness), expect["verdict"], p, doc["method"])
    if what == "factor":
        res = [doc["A"]["entries"], doc["B"]["entries"]] if doc["factorable"] else None
        return check_inprocess({"kind": "factor", "map": req["files"]["map.json"],
                                "expect": expect["factor"]}, res)
    if what == "map":
        mat, p = parse_rows(doc)
        return None if mat == built_map(expect["map"], p) else "constructed map differs from its definition"
    if what == "count":
        return None if doc == expect["doc"] else f"{doc} instead of {expect['doc']}"
    if what == "verify":
        if doc.get("all_pass") is not True or not doc.get("results"):
            return "verification table did not pass"
        bad = [k for k, v in doc["results"].items() if v.get("status") != "pass"]
        return f"failing rows {bad}" if bad else None
    return f"unknown expectation {what}"
