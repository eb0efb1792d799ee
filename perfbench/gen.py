"""Seeded request streams for the four workloads.

Generation never imports cullis: a request is plain JSON-ready data, and
matrices travel as the package's wire documents (JSON text).  Every round of
a workload has the same kinds, shapes and fields in a seed-shuffled order;
only the values change with the seed and the round index, so shape-level work
repeats within a stream and every work count is the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from math import comb

from oracles import (
    built_map,
    corner_partner,
    map_of,
    rand_scalar,
    red,
    sign_condition,
    square_det,
    two_sided_map,
)

QQ = None
M127 = 2**127 - 1


def field_doc(p) -> dict:
    return {"type": "gfp", "p": p} if p else {"type": "rational"}


def nonzero(rng, p):
    while True:
        x = rand_scalar(rng, p)
        if x:
            return x


def rand_rows(rng, n, k, p):
    return [[rand_scalar(rng, p) for _ in range(k)] for _ in range(n)]


def outer_sum(rng, n, k, r, p):
    """A sum of r random rank-one n x k matrices."""
    us = [[rand_scalar(rng, p) for _ in range(n)] for _ in range(r)]
    vs = [[rand_scalar(rng, p) for _ in range(k)] for _ in range(r)]
    return [[red(sum(u[i] * v[j] for u, v in zip(us, vs)), p) for j in range(k)] for i in range(n)]


def doc(rows, p) -> str:
    return json.dumps({"n": len(rows), "k": len(rows[0]), "field": field_doc(p),
                       "entries": [[str(x) for x in r] for r in rows]})


def map_doc(mat, n, k, p) -> str:
    return json.dumps({"n": n, "k": k, "field": field_doc(p),
                       "mat": [[str(x) for x in r] for r in mat]})


def rng_for(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


# -- det-tall -----------------------------------------------------------------------

RANK_SHAPES = ((12, 6), (8, 8), (10, 9), (6, 4), (9, 4), (8, 4), (7, 3))
DET_FIELDS = (10007, M127, QQ)
# Per round: (kind, n, k, p, count).  Repeats of equal-cost requests (8x8 over
# GF(2^127-1), 12x6 over GF(10007)) keep the latency quantiles off the gaps
# between request groups, so they do not jump from seed to seed.
DET_TALL_MIX = (
    [("rank", n, k, p, 1) for n, k in RANK_SHAPES for p in DET_FIELDS]
    + [("det", 8, 8, 10007, 1), ("det", 8, 8, M127, 4), ("det", 8, 8, QQ, 1)]
    + [("det", n, k, p, 1) for n, k in ((10, 9), (8, 4), (9, 4), (10, 5), (11, 5)) for p in DET_FIELDS]
    + [("det", 12, 6, 10007, 4), ("det", 12, 6, M127, 1), ("det", 12, 6, QQ, 1)]
)


def det_tall_round(rng):
    reqs = []
    for kind, n, k, p, count in DET_TALL_MIX:
        for _ in range(count):
            if kind == "det":
                reqs.append({"kind": "det", "doc": doc(rand_rows(rng, n, k, p), p),
                             "work": {"row_subsets": comb(n, k)}})
            else:
                rows = outer_sum(rng, n, k, 1 + rng.randrange(k), p)
                reqs.append({"kind": "rank", "doc": doc(rows, p)})
    return reqs


# -- lambda-degree -----------------------------------------------------------------

LAMBDA_SHAPES = ((6, 4, 10007), (6, 4, QQ), (7, 4, QQ), (7, 5, 7), (8, 5, 10007), (8, 5, QQ))
# (n, k, l) keys of the completion constructors; each is calibrated once
MAKE_B_KEYS = (("diffdiff", 6, 4, 3), ("diffdiff", 7, 5, 4), ("diffsum", 6, 4, None),
               ("diffsum", 7, 5, None), ("plainsum", 6, 3, None), ("plainsum", 7, 5, None))
# B of each class over GF(5): rank-one B makes the degree sweeps try every
# completion, a random B exits early.  (class, n, k, count): the repeated
# rank-two 7x5 sweeps and ones 6x3 radical checks cost the same on every seed.
MAX_DEG_MIX = (("rank1", 6, 4, 1), ("rank1", 7, 4, 1), ("rank1", 7, 5, 1), ("rank2", 6, 4, 1),
               ("rank2", 7, 5, 4), ("random", 6, 4, 1), ("random", 7, 4, 1), ("random", 7, 5, 1))
RADICAL_MIX = (("ones", 5, 2, 1), ("ones", 5, 3, 1), ("ones", 6, 3, 5), ("ones", 6, 4, 1),
               ("random", 6, 4, 1), ("random", 5, 3, 1))
RANKS = {"rank1": 1, "rank2": 2, "random": None}


def _b_matrix(rng, cls, n, k, p):
    r = RANKS[cls]
    return rand_rows(rng, n, k, p) if r is None else outer_sum(rng, n, k, r, p)


def lambda_degree_round(rng):
    F5 = 5
    reqs = []
    for n, k, p in LAMBDA_SHAPES:
        reqs.append({"kind": "lambda", "a": doc(rand_rows(rng, n, k, p), p),
                     "b": doc(rand_rows(rng, n, k, p), p), "work": {"column_subsets": 2**k}})
    for cls, n, k, count in MAX_DEG_MIX:
        for _ in range(count):
            reqs.append({"kind": "max_deg", "class": cls, "b": doc(_b_matrix(rng, cls, n, k, F5), F5)})
    for cls, n, k, d in (("rank1", 6, 4, 2), ("rank1", 7, 4, 2), ("rank2", 7, 5, 2), ("random", 7, 5, 3)):
        reqs.append({"kind": "deg_witness", "class": cls, "d": d,
                     "b": doc(_b_matrix(rng, cls, n, k, F5), F5)})
    for r, n, k in ((1, 6, 4), (1, 7, 5), (2, 6, 5), (2, 7, 4)):
        reqs.append({"kind": "completions", "k": k, "x": doc(outer_sum(rng, n, 2, r, F5), F5)})
    for cls, n, k, count in RADICAL_MIX:
        for _ in range(count):
            rows = [[1] * k for _ in range(n)] if cls == "ones" else rand_rows(rng, n, k, F5)
            reqs.append({"kind": "in_radical", "w": doc(rows, F5)})
    for form, n, k, l in MAKE_B_KEYS:
        p = rng.choice((F5, 10007, QQ))
        reqs.append({"kind": "make_b", "form": form, "n": n, "k": k, "l": l, "field": field_doc(p)})
    return reqs


# -- preserver-check ------------------------------------------------------------------

# (n, k, p, builds).  Exhaustive checks run where p**(nk) fits the package's
# default search budget; the shapes keep every such sweep small enough to
# repeat each round.
CHECK_SHAPES = (
    (3, 2, 3, ("two_sided", "violating", "singular")),
    (4, 2, 3, ("two_sided", "corner", "s_shift")),
    (4, 2, 7, ("s_shift", "corner", "violating")),
    (5, 3, 5, ("two_sided", "s_shift", "violating")),
    (4, 3, 5, ("singular", "violating")),
    (6, 4, 5, ("two_sided", "s_shift", "violating")),
    (3, 2, QQ, ("singular", "violating")),
    (4, 2, QQ, ("corner", "two_sided", "violating")),
    (5, 3, QQ, ("s_shift", "violating")),
)
SEARCH_BUDGET = 1_000_000
CENSUS = (((2, 1, 3), 9), ((3, 1, 2), 64), ((2, 2, 2), 72))
RADICAL = (((3, 2, 3), 9), ((3, 1, 5), 25), ((4, 2, 3), 1))


def sign_pair(rng, n, k, p):
    """(c I, B) with det(B) = c**-k: satisfies the two-sided sign condition."""
    c = nonzero(rng, p)
    while True:
        b = rand_rows(rng, k, k, p)
        db = square_det(b, p)
        if db:
            break
    scale = pow(c, -k, p) * pow(db, -1, p) % p if p else 1 / (c**k * db)
    b = [[red(r[0] * scale, p)] + r[1:] for r in b]
    a = [[c if i == j else 0 for j in range(n)] for i in range(n)]
    return a, b


def violating_pair(rng, n, k, p):
    while True:
        a, b = rand_rows(rng, n, n, p), rand_rows(rng, k, k, p)
        if not sign_condition(a, b, p):
            return a, b


def map_spec(rng, build, n, k, p):
    spec = {"build": "two_sided" if build == "violating" else build,
            "n": n, "k": k, "field": field_doc(p)}
    if build in ("two_sided", "violating"):
        a, b = (sign_pair if build == "two_sided" else violating_pair)(rng, n, k, p)
        spec["a"], spec["b"] = doc(a, p), doc(b, p)
    elif build == "s_shift":
        spec["shifts"] = [[1 + rng.randrange(n), 1 + rng.randrange(k)] for _ in range(2)]
    return spec


# (n, k, p, corner): random two-sided maps factor, the corner swap does not
FACTOR_MAPS = ((4, 2, 7, False), (5, 3, 5, False), (4, 2, QQ, False), (5, 2, 7, True))


def factor_map(rng, n, k, p, corner):
    """A map document and whether it factors as X -> A X B."""
    if corner:
        return map_doc(map_of(corner_partner, n, k, p), n, k, p), None
    a, b = rand_rows(rng, n, n, p), rand_rows(rng, k, k, p)
    return map_doc(two_sided_map(a, b, p), n, k, p), True


def preserver_check_round(rng):
    reqs = []
    for n, k, p, builds in CHECK_SHAPES:
        exhaustive = bool(p) and p ** (n * k) <= SEARCH_BUDGET
        for build in builds:
            reqs.append({"kind": "check", "map": map_spec(rng, build, n, k, p),
                         "expect": "violates" if build == "violating" else "preserves",
                         "exhaustive": exhaustive,
                         "work": {"exhaustive_inputs": p ** (n * k) if exhaustive else 0}})
    for n, k, p, corner in FACTOR_MAPS:
        doc_text, expect = factor_map(rng, n, k, p, corner)
        reqs.append({"kind": "factor", "map": doc_text, "expect": expect})
    for n, k, p, good in ((4, 2, 7, True), (5, 3, 5, False), (6, 4, 5, True), (5, 3, QQ, False)):
        a, b = (sign_pair if good else violating_pair)(rng, n, k, p)
        reqs.append({"kind": "sign_condition", "a": doc(a, p), "b": doc(b, p)})
    for (n, k, p), count in CENSUS:
        reqs.append({"kind": "census", "n": n, "k": k, "p": p, "expect": count,
                     "work": {"census_maps": p ** ((n * k) ** 2)}})
    for (n, k, p), size in RADICAL:
        reqs.append({"kind": "radical", "n": n, "k": k, "p": p, "expect": size,
                     "work": {"radical_inputs": p ** (n * k)}})
    return reqs


# -- cli-batch ------------------------------------------------------------------------------


def _cli(site, argv, expect, files=None, defect=None):
    req = {"kind": "cli", "site": site, "argv": argv, "files": files or {}, "expect": expect}
    if defect:
        req["defect"] = defect
    return req


def _bad_doc(p_text, entry) -> str:
    return '{"n": 2, "k": 1, "field": {"type": "%s"%s}, "entries": [[%s], ["1"]]}' % (
        "gfp" if p_text else "rational", f', "p": {p_text}' if p_text else "", entry)


def cli_round(rng):
    """About 100 process calls.  Six calls cost well over the rest and twelve
    (4 x det 11x5 over GF(2^127-1), 4 x det 12x6 over GF(10007), 4 x lambda
    8x5 over GF(10007)) form the block that holds the 90th percentile."""
    reqs = [_cli("cli.startup", ["--help"], {"rc": 0}) for _ in range(5)]
    shapes = [(n, k, p) for n, k in ((6, 3), (7, 3), (8, 4), (9, 4), (10, 5)) for p in DET_FIELDS]
    for n, k, p in shapes + [(11, 5, M127)] * 4 + [(12, 6, 10007)] * 4:
        reqs.append(_cli("cli.det", ["det", "--input", "in.json"], {"rc": 0, "value": "det"},
                         {"in.json": doc(rand_rows(rng, n, k, p), p)}))
    for n, k, p, algo in ((12, 6, QQ, "auto"), (12, 4, 10007, "auto"), (10, 5, 10007, "laplace"),
                          (9, 4, QQ, "laplace"), (6, 3, 10007, "def"), (8, 4, M127, "minorsum")):
        reqs.append(_cli("cli.det", ["det", "--input", "in.json", "--algo", algo],
                         {"rc": 0, "value": "det"}, {"in.json": doc(rand_rows(rng, n, k, p), p)}))
    for n, k, p in ((6, 4, 10007), (7, 4, QQ), (7, 5, 7), (8, 5, QQ), (6, 4, 5), (5, 3, QQ),
                    (6, 3, 10007), (7, 4, 10007), (5, 2, QQ), (6, 3, 7), (7, 3, QQ)) + ((8, 5, 10007),) * 4:
        reqs.append(_cli("cli.lambda", ["lambda", "--a", "a.json", "--b", "b.json"],
                         {"rc": 0, "value": "lambda"},
                         {"a.json": doc(rand_rows(rng, n, k, p), p),
                          "b.json": doc(rand_rows(rng, n, k, p), p)}))
    reqs += _cli_preserver(rng)
    reqs += _cli_refused(rng)
    for extra in ([], ["--p", "7"], ["--shapes", "6x2"], ["--shapes", "3x2", "--p", "3,5"]):
        reqs.append(_cli("cli.verify_paper", ["verify-paper", "--seed", str(rng.randrange(100))] + extra,
                         {"rc": 0, "value": "verify"}))
    return reqs


def _check_call(spec, method, expect, extra=(), site="cli.preserver"):
    n, k, p = spec["n"], spec["k"], spec["field"].get("p")
    if expect == "over-budget":
        exp = {"rc": 3}
    else:
        exp = {"rc": 1 if expect == "violates" else 0, "value": "verdict", "verdict": expect}
    return _cli(site, ["preserver", "check", "--map", "map.json", "--method", method, *extra],
                exp, {"map.json": map_doc(built_map(spec, p), n, k, p)})


def _cli_preserver(rng):
    reqs = []
    for n, k, p, build in ((4, 2, 7, "two_sided"), (4, 2, 7, "violating"), (5, 3, 5, "s_shift"),
                           (5, 3, 5, "violating"), (4, 3, 5, "singular"), (5, 2, 7, "corner"),
                           (4, 2, QQ, "two_sided"), (4, 2, QQ, "violating"), (6, 4, 5, "s_shift"),
                           (3, 2, 5, "two_sided"), (5, 2, 7, "violating"), (4, 3, 5, "violating")):
        expect = "violates" if build == "violating" else "preserves"
        reqs.append(_check_call(map_spec(rng, build, n, k, p), "symbolic", expect))
    for n, k, p, build in ((3, 2, 3, "two_sided"), (3, 2, 3, "violating"), (4, 2, 3, "corner")):
        expect = "violates" if build == "violating" else "preserves"
        reqs.append(_check_call(map_spec(rng, build, n, k, p), "exhaustive", expect))
    for build, expect in (("s_shift", "inconclusive"), ("violating", "violates")):
        reqs.append(_check_call(map_spec(rng, build, 4, 2, 7), "random", expect,
                                ("--samples", "50", "--seed", str(rng.randrange(1000)))))
    # an integer-entry map over the rationals, reinterpreted over GF(3)
    req = _check_call(map_spec(rng, "s_shift", 3, 1, QQ), "exhaustive", "preserves", ("--p", "3"))
    req["expect"]["p"] = 3
    reqs.append(req)
    for n, k, p, corner in FACTOR_MAPS:
        doc_text, expect = factor_map(rng, n, k, p, corner)
        reqs.append(_cli("cli.preserver", ["preserver", "factor", "--map", "map.json"],
                         {"rc": 0 if expect else 1, "value": "factor", "factor": expect},
                         {"map.json": doc_text}))
    for n, k, p in ((4, 2, 7), (5, 3, QQ), (3, 2, 5)):
        spec = map_spec(rng, "violating", n, k, p)
        reqs.append(_cli("cli.preserver", ["preserver", "make-two-sided", "--a", "a.json", "--b", "b.json"],
                         {"rc": 0, "value": "map", "map": spec}, {"a.json": spec["a"], "b.json": spec["b"]}))
    for n, k, p in ((4, 2, 5), (5, 3, QQ), (6, 4, 7)):
        i, j = 1 + rng.randrange(n), 1 + rng.randrange(k)
        spec = {"build": "s_shift", "n": n, "k": k, "field": field_doc(p), "shifts": [[i, j]]}
        argv = ["preserver", "make-s-shift", "--n", str(n), "--k", str(k), "--i", str(i), "--j", str(j)]
        reqs.append(_cli("cli.preserver", argv + (["--p", str(p)] if p else []),
                         {"rc": 0, "value": "map", "map": spec}))
    for n, p in ((4, 3), (6, QQ)):
        spec = {"build": "corner", "n": n, "k": 2, "field": field_doc(p)}
        reqs.append(_cli("cli.preserver", ["preserver", "make-k2", "--n", str(n)] + (["--p", str(p)] if p else []),
                         {"rc": 0, "value": "map", "map": spec}))
    reqs.append(_cli("cli.preserver", ["preserver", "enumerate", "--n", "2", "--k", "1", "--p", "3"],
                     {"rc": 0, "value": "count", "doc": {"count": 9}}))
    reqs.append(_cli("cli.preserver", ["preserver", "radical", "--n", "3", "--k", "2", "--p", "3"],
                     {"rc": 0, "value": "count", "doc": {"contains_ones": True, "size": 9}}))
    return reqs


def _cli_refused(rng):
    det_in = ["det", "--input", "in.json"]
    x = rng.randrange(1, 9)
    reqs = [
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": '{"n": 2, "k": 1, "field": '}),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": '{"n": 2, "k": 1, "entries": [["1"], ["2"]]}'}),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc("5", '"1", "2"')}),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc("6", f'"{x}"')}),
        _cli("cli.refused", det_in, {"rc": 2},
             {"in.json": '{"n": 3, "k": 1, "field": {"type": "rational"}, "entries": [["1"], ["2"]]}'}),
        _cli("cli.refused", det_in, {"rc": 2},
             {"in.json": '{"n": 1, "k": 1, "field": {"type": "gfp", "p": 5}, "entries": "1"}'}),
        _cli("cli.refused", ["preserver", "check", "--map", "map.json"], {"rc": 2},
             {"map.json": '{"n": 2, "k": 1, "field": {"type": "gfp", "p": 5}, "mat": [["1"]]}'}),
        _cli("cli.refused", ["det"], {"rc": 2}),
        _cli("cli.refused", ["det", "--algo", "fast", "--input", "in.json"], {"rc": 2},
             {"in.json": _bad_doc("5", f'"{x}"')}),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc(None, f'"{x}/0"')}, "zero-denominator"),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc(None, '"0/0"')}, "zero-denominator"),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc(None, f"{x}.5")}, "float"),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc("7", f"{x}.25")}, "float"),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc("5.9", f'"{x}"')}, "float"),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc("5", "true")}, "boolean"),
        _cli("cli.refused", det_in, {"rc": 2}, {"in.json": _bad_doc(None, "false")}, "boolean"),
        _cli("cli.refused", det_in + ["--budget", "1000"], {"rc": 3},
             {"in.json": doc(rand_rows(rng, 12, 6, 10007), 10007)}),
        _cli("cli.refused", ["preserver", "enumerate", "--n", "2", "--k", "2", "--p", "3"], {"rc": 3}),
        _cli("cli.refused", ["preserver", "radical", "--n", "4", "--k", "3", "--p", "5"], {"rc": 3}),
    ]
    reqs.append(_check_call(map_spec(rng, "two_sided", 4, 3, 5), "exhaustive", "over-budget",
                            site="cli.refused"))
    return reqs


def library_round(rng):
    """Every in-process request family: large and near-square determinants,
    the det(A + tB) machinery, and preserver checks and enumerations."""
    return det_tall_round(rng) + lambda_degree_round(rng) + preserver_check_round(rng)


ROUNDS = {"library": library_round, "cli-batch": cli_round}


def generate(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    """The request stream: `rounds` lists, each shuffled by its own seed."""
    out = []
    for rnd in range(rounds):
        rng = rng_for(workload, seed, rnd)
        reqs = ROUNDS[workload](rng)
        rng.shuffle(reqs)
        out.append(reqs)
    return out
