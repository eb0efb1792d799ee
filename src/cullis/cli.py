"""Batch command line front end.

Exit codes: 0 success, 1 a checked property is false (the payload carries the
witness), 2 usage or data error, 3 resource budget exceeded.  Results are a
single JSON document on stdout; diagnostics go to stderr.  The environment
variable CULLIS_BUDGET overrides the default search and operation budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# each command imports the modules it runs, so start-up pays for no others
from .errors import BudgetExceeded, CullisError, ResourceGuard


def _budget_arg(text: str) -> int:
    """A budget as `--budget` or CULLIS_BUDGET gives it: an int of at least
    0.  A budget of 0 stays a budget: it refuses any call that does work."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"budget {text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be at least 0, got {value}")
    return value


def _budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("CULLIS_BUDGET")
    return _budget_arg(env) if env else None


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _read_matrix(path: str):
    """The matrix document at path: read first, then `jsonio` is loaded to
    decode it, and no kernel yet, so a malformed document costs neither."""
    doc = _read_json(path)
    from . import jsonio

    return jsonio.matrix_from_dict(doc)


def _read_map(path: str):
    """The map document at path, read and decoded as by `_read_matrix`."""
    doc = _read_json(path)
    from . import jsonio

    return jsonio.map_from_dict(doc)


# the oracle routes `det --algo` names, by their function in `routes`
_ROUTES = {"def": "det_definition", "laplace": "det_laplace", "minorsum": "det_minorsum"}


def _cmd_det(args) -> int:
    X = _read_matrix(args.input)
    budget = _budget(args)
    if args.algo == "auto":
        from .determinant import det as algo
    else:
        from . import routes

        algo = getattr(routes, _ROUTES[args.algo])
    from . import jsonio

    _emit({"det": jsonio.scalar_to_str(algo(X, budget=budget))})
    return 0


def _cmd_lambda(args) -> int:
    A = _read_matrix(args.a)
    B = _read_matrix(args.b)
    from . import jsonio
    from .lambdapoly import lambda_coeffs

    poly = lambda_coeffs(A, B, _budget(args))
    _emit({"coeffs": [jsonio.scalar_to_str(c) for c in poly.coeffs],
           "degree": poly.degree()})
    return 0


def _field_from_args(args):
    from .fields import RATIONALS, gf

    return gf(args.p) if args.p is not None else RATIONALS


def _guard_map_entries(n: int, k: int, budget: int | None) -> None:
    """Refuse a map on n x k matrices whose (nk)**2 entries exceed the search
    budget, before any is made; a shape with no rows or columns is left for
    the constructor to refuse."""
    from .determinant import DEFAULT_SEARCH_BUDGET, _guard

    _guard((max(n, 0) * max(k, 0)) ** 2, budget, DEFAULT_SEARCH_BUDGET, BudgetExceeded,
           "map entries")


def _cmd_preserver(args) -> int:
    budget = _budget(args)
    sub = args.preserver_cmd
    if sub == "radical":  # the radical in closed form: no map, no JSON document
        from .lambdapoly import radical_enumerate
        from .matrix import ones

        members = radical_enumerate(args.n, args.k, args.p, budget)
        J = ones(_field_from_args(args), args.n, args.k)
        _emit({"size": len(members), "contains_ones": any(w == J for w in members)})
        return 0
    if sub == "check":
        T = _read_map(args.map)
        from . import jsonio
        from .preserver import is_preserver

        if args.p is not None and T.field is not _field_from_args(args):
            T = jsonio.coerce_map_to_prime(T, args.p)
        report = is_preserver(T, method=args.method, budget=budget,
                              samples=args.samples, seed=args.seed)
        payload = {"verdict": report.verdict, "method": report.method}
        if report.witness is not None:
            payload["witness"] = jsonio.matrix_to_dict(report.witness)
        if report.samples is not None:
            payload["samples"] = report.samples
            payload["seed"] = report.seed
        _emit(payload)
        return 1 if report.verdict == "violates" else 0
    if sub == "make-two-sided":
        A = _read_matrix(args.a)
        B = _read_matrix(args.b)
        from . import jsonio
        from .preserver import _check_factors, make_two_sided

        _guard_map_entries(*_check_factors(A, B), budget)
        _emit(jsonio.map_to_dict(make_two_sided(A, B)))
        return 0
    if sub == "make-s-shift":
        _guard_map_entries(args.n, args.k, budget)
        from . import jsonio
        from .preserver import make_s_shift

        _emit(jsonio.map_to_dict(make_s_shift(args.n, args.k, args.i, args.j,
                                              _field_from_args(args))))
        return 0
    if sub == "make-k2":
        _guard_map_entries(args.n, 2, budget)
        from . import jsonio
        from .preserver import make_k2_counterexample

        _emit(jsonio.map_to_dict(make_k2_counterexample(args.n, _field_from_args(args))))
        return 0
    if sub == "factor":
        T = _read_map(args.map)
        from . import jsonio
        from .preserver import factor_two_sided

        fact = factor_two_sided(T)
        if fact is None:
            _emit({"factorable": False})
            return 1
        A, B = fact
        _emit({"factorable": True, "A": jsonio.matrix_to_dict(A),
               "B": jsonio.matrix_to_dict(B)})
        return 0
    if sub == "enumerate":
        from .preserver import enumerate_preservers

        census = enumerate_preservers(args.n, args.k, args.p, budget)
        _emit({"count": census.count})
        return 0
    raise CullisError(f"unknown preserver subcommand {sub!r}")


def _parse_shapes(text: str):
    shapes = []
    for part in text.split(","):
        n, _, k = part.strip().lower().partition("x")
        try:
            shapes.append((int(n), int(k)))
        except ValueError:
            raise ValueError(f"shape {part.strip()!r} is not of the form NxK, like 4x2") from None
    return tuple(shapes)


def _cmd_verify(args) -> int:
    from .verify import run_verification

    # an empty filter is malformed, not absent
    shapes = _parse_shapes(args.shapes) if args.shapes is not None else None
    primes = tuple(int(p) for p in args.p.split(",")) if args.p is not None else None
    report = run_verification(shapes=shapes, primes=primes, seed=args.seed)
    _emit(report)
    return 0 if report["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cullis",
        description="Exact rectangular determinants and their linear preservers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_det = subs.add_parser("det", help="determinant of a matrix JSON file")
    p_det.add_argument("--input", required=True, help="matrix JSON path, or - for stdin")
    p_det.add_argument("--algo", choices=("auto", *_ROUTES), default="auto")
    p_det.add_argument("--budget", type=_budget_arg)
    p_det.set_defaults(fn=_cmd_det)

    p_lam = subs.add_parser("lambda", help="coefficients of det(A + t*B)")
    p_lam.add_argument("--a", required=True)
    p_lam.add_argument("--b", required=True)
    p_lam.set_defaults(fn=_cmd_lambda)

    p_pre = subs.add_parser("preserver", help="construct, check, factor, enumerate")
    psubs = p_pre.add_subparsers(dest="preserver_cmd", required=True)

    pc = psubs.add_parser("check")
    pc.add_argument("--map", required=True)
    pc.add_argument("--method", choices=("exhaustive", "symbolic", "random"),
                    default="symbolic")
    pc.add_argument("--p", type=int, help="reinterpret the map over GF(p)")
    pc.add_argument("--samples", type=int, default=200)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--budget", type=_budget_arg)

    pm2 = psubs.add_parser("make-two-sided")
    pm2.add_argument("--a", required=True)
    pm2.add_argument("--b", required=True)

    pms = psubs.add_parser("make-s-shift")
    pms.add_argument("--n", type=int, required=True)
    pms.add_argument("--k", type=int, required=True)
    pms.add_argument("--i", type=int, required=True)
    pms.add_argument("--j", type=int, required=True)
    pms.add_argument("--p", type=int, help="prime modulus; rationals when absent")

    pmk = psubs.add_parser("make-k2")
    pmk.add_argument("--n", type=int, required=True)
    pmk.add_argument("--p", type=int, help="prime modulus; rationals when absent")

    pf = psubs.add_parser("factor")
    pf.add_argument("--map", required=True)

    pe = psubs.add_parser("enumerate")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--p", type=int, required=True)
    pe.add_argument("--budget", type=_budget_arg)

    pr = psubs.add_parser("radical")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--p", type=int, required=True)
    pr.add_argument("--budget", type=_budget_arg)

    p_pre.set_defaults(fn=_cmd_preserver)

    p_ver = subs.add_parser("verify-paper", help="run the identity verification table")
    p_ver.add_argument("--shapes", help="comma list like 4x2,5x3")
    p_ver.add_argument("--p", help="comma list of prime moduli")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BudgetExceeded, ResourceGuard) as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except (CullisError, ValueError, KeyError, OSError, json.JSONDecodeError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
