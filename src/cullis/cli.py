"""Batch command line front end.

Exit codes: 0 success, 1 a checked property is false (the payload carries the
witness), 2 usage or data error, 3 resource budget exceeded.  Results are a
single JSON document on stdout, written by `main` alone from the payload a
command's handler returns; diagnostics go to stderr.  The environment
variable CULLIS_BUDGET overrides the default search and operation budgets;
`main` reads the budget once, before any command's work.  `python -m cullis`
and the `cullis` script both end through `run`.
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
    """The budget of a parsed command: its `--budget`, else CULLIS_BUDGET,
    else None for the defaults."""
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


def _cmd_det(args):
    X = _read_matrix(args.input)
    if args.algo == "auto":
        from .determinant import det as algo
    else:
        from . import routes

        algo = getattr(routes, _ROUTES[args.algo])
    from . import jsonio

    return {"det": jsonio.scalar_to_str(algo(X, budget=args.budget))}, True


def _cmd_lambda(args):
    A = _read_matrix(args.a)
    B = _read_matrix(args.b)
    from . import jsonio
    from .lambdapoly import lambda_coeffs

    poly = lambda_coeffs(A, B, args.budget)
    return {"coeffs": [jsonio.scalar_to_str(c) for c in poly.coeffs],
            "degree": poly.degree()}, True


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


def _cmd_radical(args):  # the radical in closed form: no map, no JSON document
    from .lambdapoly import radical_enumerate
    from .matrix import ones

    members = radical_enumerate(args.n, args.k, args.p, args.budget)
    J = ones(_field_from_args(args), args.n, args.k)
    return {"size": len(members), "contains_ones": any(w == J for w in members)}, True


def _cmd_check(args):
    T = _read_map(args.map)
    from . import jsonio
    from .preserver import is_preserver

    if args.p is not None and T.field is not _field_from_args(args):
        T = jsonio.coerce_map_to_prime(T, args.p)
    report = is_preserver(T, method=args.method, budget=args.budget,
                          samples=args.samples, seed=args.seed)
    payload = {"verdict": report.verdict, "method": report.method}
    if report.witness is not None:
        payload["witness"] = jsonio.matrix_to_dict(report.witness)
    if report.samples is not None:
        payload.update(samples=report.samples, seed=report.seed)
    return payload, report.verdict != "violates"


def _cmd_make_two_sided(args):
    A = _read_matrix(args.a)
    B = _read_matrix(args.b)
    from . import jsonio
    from .preserver import _check_factors, make_two_sided

    _guard_map_entries(*_check_factors(A, B), args.budget)
    return jsonio.map_to_dict(make_two_sided(A, B)), True


def _cmd_make_s_shift(args):
    _guard_map_entries(args.n, args.k, args.budget)
    from . import jsonio
    from .preserver import make_s_shift

    T = make_s_shift(args.n, args.k, args.i, args.j, _field_from_args(args))
    return jsonio.map_to_dict(T), True


def _cmd_make_k2(args):
    _guard_map_entries(args.n, 2, args.budget)
    from . import jsonio
    from .preserver import make_k2_counterexample

    return jsonio.map_to_dict(make_k2_counterexample(args.n, _field_from_args(args))), True


def _cmd_factor(args):
    T = _read_map(args.map)
    from . import jsonio
    from .preserver import factor_two_sided

    fact = factor_two_sided(T)
    if fact is None:
        return {"factorable": False}, False
    A, B = map(jsonio.matrix_to_dict, fact)
    return {"factorable": True, "A": A, "B": B}, True


def _cmd_enumerate(args):
    from .preserver import enumerate_preservers

    return {"count": enumerate_preservers(args.n, args.k, args.p, args.budget).count}, True


def _parse_shapes(text: str):
    shapes = []
    for part in text.split(","):
        n, _, k = part.strip().lower().partition("x")
        try:
            shapes.append((int(n), int(k)))
        except ValueError:
            raise ValueError(f"shape {part.strip()!r} is not of the form NxK, like 4x2") from None
    return tuple(shapes)


def _cmd_verify(args):
    from .verify import run_verification

    # an empty filter is malformed, not absent
    shapes = _parse_shapes(args.shapes) if args.shapes is not None else None
    primes = tuple(int(p) for p in args.p.split(",")) if args.p is not None else None
    report = run_verification(shapes=shapes, primes=primes, seed=args.seed)
    return report, report["all_pass"]


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
    pc.set_defaults(fn=_cmd_check)

    pm2 = psubs.add_parser("make-two-sided")
    pm2.add_argument("--a", required=True)
    pm2.add_argument("--b", required=True)
    pm2.set_defaults(fn=_cmd_make_two_sided)

    pms = psubs.add_parser("make-s-shift")
    pms.add_argument("--n", type=int, required=True)
    pms.add_argument("--k", type=int, required=True)
    pms.add_argument("--i", type=int, required=True)
    pms.add_argument("--j", type=int, required=True)
    pms.add_argument("--p", type=int, help="prime modulus; rationals when absent")
    pms.set_defaults(fn=_cmd_make_s_shift)

    pmk = psubs.add_parser("make-k2")
    pmk.add_argument("--n", type=int, required=True)
    pmk.add_argument("--p", type=int, help="prime modulus; rationals when absent")
    pmk.set_defaults(fn=_cmd_make_k2)

    pf = psubs.add_parser("factor")
    pf.add_argument("--map", required=True)
    pf.set_defaults(fn=_cmd_factor)

    for name, fn in (("enumerate", _cmd_enumerate), ("radical", _cmd_radical)):
        pe = psubs.add_parser(name)
        for option in ("--n", "--k", "--p"):
            pe.add_argument(option, type=int, required=True)
        pe.add_argument("--budget", type=_budget_arg)
        pe.set_defaults(fn=fn)

    p_ver = subs.add_parser("verify-paper", help="run the identity verification table")
    p_ver.add_argument("--shapes", help="comma list like 4x2,5x3")
    p_ver.add_argument("--p", help="comma list of prime moduli")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def _say(line: str) -> None:
    """Write one diagnostic line to stderr.  As argparse does with its own
    messages, a line that stderr cannot take (closed, a full device) is
    dropped, so the exit code stands."""
    try:
        sys.stderr.write(line + "\n")
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    """Run the command argv names (sys.argv[1:] when None) and return its
    exit code, argparse's for `--help` and usage errors too: main raises no
    SystemExit."""
    try:  # the one write to stdout and its flushes, inside the try: a failed one exits 2
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse has printed --help or a usage error
            if sys.stdout is not None:  # None when descriptor 1 is closed
                sys.stdout.flush()
            return exc.code
        args.budget = _budget(args)
        payload, holds = args.fn(args)
        if sys.stdout is None:
            raise OSError("stdout is closed")
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        sys.stdout.flush()
        return 0 if holds else 1
    except (BudgetExceeded, ResourceGuard) as exc:
        _say(f"budget: {exc}")
        return 3
    except (CullisError, ValueError, KeyError, OSError, argparse.ArgumentTypeError) as exc:
        _say(f"error: {exc}")
        return 2


def run() -> None:
    """The entry point of `python -m cullis` and of the `cullis` script: end
    the process with main's exit code through `os._exit`, once main has
    flushed its output.  That skips the interpreter's teardown, which would
    only free the modules the call loaded, and so also `atexit` handlers; a
    tool that needs those calls `main` in process."""
    os._exit(main())
