"""The benchmark's calls into the package, one request at a time.

Each executor decodes the request's documents, calls the package's public
functions inside spans named `<layer>.<call>`, and returns a canonical result
made of plain strings, ints, booleans and lists, which the oracles check and
the output digest covers.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import gen


class Package:
    """A fresh import of cullis from the checkout's src directory."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "cullis" or m.startswith("cullis.")]:
            del sys.modules[name]
        self.c = importlib.import_module("cullis")
        self.jsonio = importlib.import_module("cullis.jsonio")
        if Path(self.c.__file__).resolve().parent != (src / "cullis").resolve():
            raise ImportError(f"cullis imported from {self.c.__file__}, not from {src}")
        self.make_b = {"diffdiff": self.c.make_b_diffdiff, "diffsum": self.c.make_b_diffsum,
                       "plainsum": self.c.make_b_plainsum}

    def matrix(self, text):
        return self.jsonio.matrix_from_dict(json.loads(text))

    def field(self, desc):
        return self.jsonio.field_from_dict(desc)


def rows(X):
    return [[str(v) for v in r] for r in X.rows()]


def _report(rep):
    return [rep.verdict, None if rep.witness is None else rows(rep.witness)]


def _build(pkg, tr, spec):
    c, n, k = pkg.c, spec["n"], spec["k"]
    F = pkg.field(spec["field"])
    if spec["build"] == "two_sided":
        with tr.span("jsonio.decode"):
            A, B = pkg.matrix(spec["a"]), pkg.matrix(spec["b"])
        with tr.span("preserver.build"):
            return c.make_two_sided(A, B)
    with tr.span("preserver.build"):
        if spec["build"] == "s_shift":
            maps = [c.make_s_shift(n, k, i, j, F) for i, j in spec["shifts"]]
            T = maps[0]
            for S in maps[1:]:
                T = T.compose(S)
            return T
        if spec["build"] == "singular":
            return c.make_singular_preserver(n, k, F)
        return c.make_k2_counterexample(n, F)


def run_request(pkg, tr, req):
    """Execute one in-process request; returns its canonical result."""
    c, kind = pkg.c, req["kind"]
    if kind in ("det", "rank"):
        with tr.span("jsonio.decode"):
            X = pkg.matrix(req["doc"])
        if kind == "det":
            with tr.span("determinant.det"):
                return str(c.det(X))
        with tr.span("matrix.rank"):
            return c.rank(X)
    if kind == "lambda":
        with tr.span("jsonio.decode"):
            A, B = pkg.matrix(req["a"]), pkg.matrix(req["b"])
        with tr.span("lambdapoly.lambda_coeffs"):
            poly = c.lambda_coeffs(A, B)
        return [str(x) for x in poly.coeffs]
    if kind in ("max_deg", "deg_witness", "completions", "in_radical"):
        with tr.span("jsonio.decode"):
            X = pkg.matrix(req[{"max_deg": "b", "deg_witness": "b", "completions": "x"}.get(kind, "w")])
        if kind == "max_deg":
            with tr.span("lambdapoly.max_deg_" + req["class"]):
                return c.max_deg_over_all_A(X)
        if kind == "deg_witness":
            with tr.span("lambdapoly.deg_witness"):
                A = c.deg_witness(X, req["d"])
            return None if A is None else rows(A)
        if kind == "completions":
            with tr.span("lambdapoly.completions_vanish"):
                return c.all_completions_vanish(X, req["k"])
        with tr.span("preserver.in_radical"):
            return c.in_radical(X)
    if kind == "make_b":
        F = pkg.field(req["field"])
        args = (req["n"], req["k"]) + ((req["l"],) if req["form"] == "diffdiff" else ())
        with tr.span("lambdapoly.make_b"):
            B = pkg.make_b[req["form"]](*args, F)
        return rows(B)
    if kind == "check":
        T = _build(pkg, tr, req["map"])
        with tr.span("preserver.symbolic_" + req["expect"]):
            rep = c.is_preserver(T, "symbolic")
        res = {"map": rows(T.mat), "symbolic": _report(rep)}
        if req["exhaustive"]:
            with tr.span("preserver.exhaustive"):
                rep = c.is_preserver(T, "exhaustive")
            res["exhaustive"] = _report(rep)
        return res
    if kind == "factor":
        with tr.span("jsonio.decode"):
            T = pkg.jsonio.map_from_dict(json.loads(req["map"]))
        with tr.span("preserver.factor"):
            fact = c.factor_two_sided(T)
        return None if fact is None else [rows(fact[0]), rows(fact[1])]
    if kind == "sign_condition":
        with tr.span("jsonio.decode"):
            A, B = pkg.matrix(req["a"]), pkg.matrix(req["b"])
        with tr.span("preserver.sign_condition"):
            return c.check_sign_condition(A, B)
    if kind == "census":
        with tr.span("preserver.census"):
            return c.enumerate_preservers(req["n"], req["k"], req["p"]).count
    if kind == "radical":
        with tr.span("preserver.radical_enumerate"):
            return len(c.radical_enumerate(req["n"], req["k"], req["p"]))
    raise ValueError(f"unknown request kind {kind}")


def warm_up(pkg) -> int:
    """Fill the package's caches before timing; returns the number of
    completion-constructor calls that ran with a cold calibration cache."""
    c = pkg.c
    for p in gen.DET_FIELDS:
        X = pkg.matrix(gen.doc([[1, 2], [3, 4], [5, 7]], p))
        c.det(X), c.rank(X)
    F = c.gf(5)
    for form, n, k, l in gen.MAKE_B_KEYS:
        pkg.make_b[form](*((n, k, l) if form == "diffdiff" else (n, k)), F)
    B = pkg.matrix(gen.doc([[1, 2], [2, 4], [0, 0]], 5))
    c.lambda_coeffs(B, B), c.max_deg_over_all_A(B), c.in_radical(B)
    F = c.gf(3)
    T = c.make_two_sided(c.identity(F, 2), c.identity(F, 1))
    c.is_preserver(T, "symbolic"), c.is_preserver(T, "exhaustive"), c.factor_two_sided(T)
    c.enumerate_preservers(2, 1, 2), c.radical_enumerate(2, 1, 2)
    return len(gen.MAKE_B_KEYS)


# -- command line ---------------------------------------------------------------------


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("CULLIS_BUDGET", None)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_files(stream, workdir: Path) -> list[Path]:
    """One directory per request holding its input files; written before timing."""
    dirs = []
    for idx, req in enumerate(r for rnd in stream for r in rnd):
        d = workdir / f"r{idx:05d}"
        d.mkdir(parents=True)
        for name, text in req["files"].items():
            (d / name).write_text(text, encoding="utf-8")
        dirs.append(d)
    return dirs


CLI_TIMEOUT_S = 150


def run_cli(tr, req, cwd: Path, env: dict):
    """One `python -m cullis` process, waited for before the next is issued."""
    with tr.span(req["site"]):
        proc = subprocess.run([sys.executable, "-m", "cullis", *req["argv"]], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return {"rc": proc.returncode, "stdout": proc.stdout}
