import contextlib
import hashlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cullis import (RATIONALS, RectMatrix, basis_matrix, gf, make_k2_counterexample,
                    make_s_shift, make_two_sided, random_matrix)
import cullis
from cullis import cli, jsonio
from cullis.preserver import LinearMapNK
import cullis.combinatorics as comb_mod

import random


def run_cli(*args, stdin=None, env=None, stdout=subprocess.PIPE):
    """`python -m cullis` on args with env's variables set, and with the
    interpreter's default buffering (no PYTHONUNBUFFERED), as users run it."""
    child = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "cullis", *args], input=stdin, text=True,
                          stdout=stdout, stderr=subprocess.PIPE, env={**child, **(env or {})})


def write_matrix(tmp_path, name, X):
    path = tmp_path / name
    path.write_text(json.dumps(jsonio.matrix_to_dict(X)))
    return str(path)


def write_map(tmp_path, name, T):
    path = tmp_path / name
    path.write_text(json.dumps(jsonio.map_to_dict(T)))
    return str(path)


def test_matrix_json_roundtrip():
    rng = random.Random(40)
    for field in (gf(11), RATIONALS):
        X = random_matrix(field, 4, 3, rng)
        assert jsonio.matrix_from_dict(jsonio.matrix_to_dict(X)) == X
    doc = {
        "n": 3,
        "k": 2,
        "field": {"type": "gfp", "p": 5},
        "entries": [["1", "2"], ["3", "4"], ["0", "1"]],
    }
    X = jsonio.matrix_from_dict(doc)
    assert X.entry(2, 2).value == 4
    assert jsonio.matrix_to_dict(X) == doc


def test_map_json_roundtrip():
    T = make_s_shift(3, 2, 2, 1, gf(7))
    assert jsonio.map_from_dict(jsonio.map_to_dict(T)) == T


def test_rational_entries_roundtrip_exactly():
    X = RectMatrix.from_rows(RATIONALS, [["1/3", "-22/7"], ["0", "100000000000000001/3"]])
    assert jsonio.matrix_from_dict(jsonio.matrix_to_dict(X)) == X


def test_cli_det_and_exit_codes(tmp_path):
    X = RectMatrix.from_rows(RATIONALS, [["1"], ["2"], ["3"], ["4"]])
    path = write_matrix(tmp_path, "m.json", X)
    for algo in ("auto", "def", "laplace", "minorsum"):
        proc = run_cli("det", "--input", path, "--algo", algo)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"det": "-2"}

    sel = write_matrix(
        tmp_path, "sel.json",
        RectMatrix.from_rows(RATIONALS, [["1", "0"], ["0", "1"], ["0", "0"]]))
    proc = run_cli("det", "--input", sel)
    assert json.loads(proc.stdout) == {"det": "1"}

    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({
        "n": 2, "k": 3, "field": {"type": "rational"},
        "entries": [["1", "0", "0"], ["0", "1", "0"]],
    }))
    assert run_cli("det", "--input", str(wide)).returncode == 2
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    assert run_cli("det", "--input", str(garbage)).returncode == 2
    assert run_cli("det", "--input", str(tmp_path / "missing.json")).returncode == 2


def test_cli_det_budget_exit(tmp_path):
    X = random_matrix(gf(5), 6, 3, random.Random(1))
    path = write_matrix(tmp_path, "m.json", X)
    proc = run_cli("det", "--input", path, "--algo", "def", "--budget", "5")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_cli_det_budget_counts_the_chosen_route(tmp_path):
    # a 12x6 input takes the row sweep, 1344 steps
    path = write_matrix(tmp_path, "m.json", random_matrix(gf(10007), 12, 6, random.Random(5)))
    refused = run_cli("det", "--input", path, "--budget", "1000")
    assert refused.returncode == 3
    assert refused.stdout == ""
    assert run_cli("det", "--input", path, "--budget", "1344").returncode == 0


def test_cli_budget_env_override(tmp_path):
    X = random_matrix(gf(5), 6, 3, random.Random(2))
    path = write_matrix(tmp_path, "m.json", X)
    proc = run_cli("det", "--input", path, "--algo", "def", env={"CULLIS_BUDGET": "5"})
    assert proc.returncode == 3
    # an explicit flag beats the environment
    proc = run_cli("det", "--input", path, "--algo", "def", "--budget", "1000000",
                   env={"CULLIS_BUDGET": "5"})
    assert proc.returncode == 0


def test_cli_negative_budget_is_bad_usage(tmp_path):
    # a negative --budget or CULLIS_BUDGET is refused as usage; a budget of
    # 0 is a budget, which refuses the work
    path = write_matrix(tmp_path, "m.json", random_matrix(gf(5), 4, 1, random.Random(0)))
    for budget, code in (("-5", 2), ("0", 3)):
        for proc in (run_cli("det", "--input", path, "--budget", budget),
                     run_cli("det", "--input", path, env={"CULLIS_BUDGET": budget})):
            assert proc.returncode == code and proc.stdout == "", budget
            if code == 2:
                assert "budget must be at least 0, got -5" in proc.stderr


def test_cli_lambda(tmp_path):
    A = RectMatrix.from_rows(RATIONALS, [["1", "0"], ["0", "1"], ["0", "0"]])
    B = basis_matrix(RATIONALS, 3, 2, 1, 1)
    pa = write_matrix(tmp_path, "a.json", A)
    pb = write_matrix(tmp_path, "b.json", B)
    proc = run_cli("lambda", "--a", pa, "--b", pb)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"coeffs": ["1", "1", "0"], "degree": 1}


def test_cli_preserver_workflow(tmp_path):
    proc = run_cli("preserver", "enumerate", "--n", "2", "--k", "1", "--p", "2")
    assert proc.returncode == 0 and json.loads(proc.stdout) == {"count": 4}

    proc = run_cli("preserver", "radical", "--n", "4", "--k", "2", "--p", "3")
    assert json.loads(proc.stdout) == {"size": 1, "contains_ones": False}

    proc = run_cli("preserver", "radical", "--n", "4", "--k", "1", "--p", "3")
    assert json.loads(proc.stdout) == {"size": 27, "contains_ones": True}

    proc = run_cli("preserver", "radical", "--n", "2", "--k", "3", "--p", "2")
    assert proc.returncode == 2 and proc.stdout == ""

    proc = run_cli("preserver", "radical", "--n", "4", "--k", "3", "--p", "5")
    assert proc.returncode == 3 and proc.stdout == ""

    proc = run_cli("preserver", "make-k2", "--n", "4", "--p", "3")
    assert proc.returncode == 0
    k2_path = tmp_path / "k2.json"
    k2_path.write_text(proc.stdout)

    proc = run_cli("preserver", "check", "--map", str(k2_path),
                   "--method", "exhaustive", "--p", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"method": "exhaustive", "verdict": "preserves"}

    proc = run_cli("preserver", "factor", "--map", str(k2_path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"factorable": False}

    proc = run_cli("preserver", "make-s-shift", "--n", "4", "--k", "2",
                   "--i", "3", "--j", "2", "--p", "5")
    s_path = tmp_path / "s.json"
    s_path.write_text(proc.stdout)
    proc = run_cli("preserver", "factor", "--map", str(s_path))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["factorable"] is True and "A" in payload and "B" in payload

    proc = run_cli("preserver", "check", "--map", str(s_path), "--method", "symbolic")
    assert proc.returncode == 0

    proc = run_cli("preserver", "enumerate", "--n", "3", "--k", "2", "--p", "5")
    assert proc.returncode == 3


def test_cli_enumerate_shape_and_budget():
    # more columns than rows is bad usage, refused before the budget is read
    for budget in ((), ("--budget", "1")):
        proc = run_cli("preserver", "enumerate", "--n", "1", "--k", "2", "--p", "2", *budget)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
    proc = run_cli("preserver", "enumerate", "--n", "2", "--k", "2", "--p", "3")
    assert proc.returncode == 3 and proc.stdout == ""
    proc = run_cli("preserver", "enumerate", "--n", "2", "--k", "2", "--p", "3",
                   "--budget", str(3 ** 16))
    assert proc.returncode == 0 and json.loads(proc.stdout) == {"count": 1152}


def test_cli_shape_needs_a_column(tmp_path):
    # k < 1 is a shape error, not a message leaked from math.perm or itertools
    for cmd in (["enumerate", "--n", "0", "--k", "0"], ["enumerate", "--n", "2", "--k", "0"],
                ["radical", "--n", "2", "--k", "0"]):
        proc = run_cli("preserver", *cmd, "--p", "2")
        assert proc.returncode == 2 and proc.stdout == "", cmd
        assert "need n >= k >= 1" in proc.stderr, cmd
    # so is a map document whose negative sides multiply to its matrix's size
    doc = jsonio.map_to_dict(LinearMapNK.identity_map(gf(5), 4, 1))
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({**doc, "n": -2, "k": -2}))
    for cmd in (["check", "--method", "symbolic"], ["check", "--method", "exhaustive"],
                ["factor"]):
        proc = run_cli("preserver", *cmd, "--map", str(path))
        assert proc.returncode == 2 and proc.stdout == "", cmd
        assert "matrix shape -2x-2 must be at least 1x1" in proc.stderr, cmd


def test_cli_check_violates_carries_witness(tmp_path):
    F = gf(5)
    doubled = LinearMapNK.identity_map(F, 3, 2).mat.scale(2)
    T = LinearMapNK(3, 2, doubled)
    path = write_map(tmp_path, "t.json", T)
    proc = run_cli("preserver", "check", "--map", path, "--method", "symbolic")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "violates"
    W = jsonio.matrix_from_dict(payload["witness"])
    assert (T.apply(W)).field == F  # witness parses back into the field


def test_cli_check_p_keeps_a_prime_map_in_its_field(tmp_path):
    # reducing GF(3) residues mod 2 is no ring map (the entry -1 = 2 becomes 0),
    # so --p 2 is refused, where it reported a false `violates`
    proc = run_cli("preserver", "make-s-shift", "--n", "3", "--k", "1", "--i", "2", "--j", "1",
                   "--p", "3")
    path = tmp_path / "m.json"
    path.write_text(proc.stdout)
    proc = run_cli("preserver", "check", "--map", str(path))
    assert proc.returncode == 0 and json.loads(proc.stdout)["verdict"] == "preserves"
    proc = run_cli("preserver", "check", "--map", str(path), "--p", "2")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "GF(3)" in proc.stderr and "GF(2)" in proc.stderr, proc.stderr


def test_cli_verify_paper_deterministic():
    args = ["verify-paper", "--shapes", "4x2,3x2", "--p", "5", "--seed", "11"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["all_pass"] is True
    assert all(r["status"] == "pass" for r in report["results"].values())


def test_cli_verify_paper_filter_selecting_nothing_exits_2():
    # no check declares modulus 4 or 11, or shape 9x9 (checks that declare no
    # shapes are left out by a shape filter): an empty table is not a pass
    for args in (["--p", "4"], ["--p", "11"], ["--shapes", "9x9"]):
        proc = run_cli("verify-paper", *args)
        assert proc.returncode == 2 and proc.stdout == "", args
        assert "no check matches" in proc.stderr
    # an empty filter is malformed, not absent: it does not run the whole table
    for args in (["--p", ""], ["--shapes", ""]):
        proc = run_cli("verify-paper", *args)
        assert proc.returncode == 2 and proc.stdout == "", args
        assert proc.stderr.startswith("error:"), args
    # a malformed shape is named, with the form expected
    for shape in ("4x", "x2"):
        proc = run_cli("verify-paper", "--shapes", shape)
        assert proc.returncode == 2 and proc.stdout == "", shape
        assert f"shape {shape!r} is not of the form NxK, like 4x2" in proc.stderr


# run in a fresh process: `import cullis`, which loads no submodule, then
# one command, then its exit code, the package's submodules it loaded and
# which of the watched standard modules it loaded
LOADS = """
import contextlib, io, json, sys
before = set(sys.modules)
import cullis
bare = [m for m in sys.modules if m.startswith("cullis.")]
assert not bare, f"import cullis loaded {bare}"
from cullis import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
new = set(sys.modules) - before
watched = ("dataclasses", "decimal", "fractions", "inspect", "numbers")
print(json.dumps([code, sorted(m[len("cullis."):] for m in new if m.startswith("cullis.")),
                  sorted(m for m in new if m in watched)]))
"""

FRONT = ("cli", "errors")
DECODE = FRONT + ("fields", "record", "matrix", "jsonio")
DET = DECODE + ("determinant",)
MAPS = DET + ("preserver",)
RATIONAL = ["decimal", "fractions", "numbers"]
EVERY = tuple(m.name for m in pkgutil.iter_modules(cullis.__path__) if m.name != "__main__")
# (id, argv, exit code, the submodules loaded, the watched modules loaded);
# each *.json is a document in `table_documents`
TABLE = [
    ("help", ["--help"], 0, FRONT, []),
    ("det", ["det", "--input", "x.json"], 0, DET, []),
    ("det-qq", ["det", "--input", "xq.json"], 0, DET, RATIONAL),
    *((f"det-{algo}", ["det", "--input", "x.json", "--algo", algo], 0,
       DET + ("routes", "combinatorics"), []) for algo in ("def", "laplace", "minorsum")),
    ("det-over-budget", ["det", "--input", "tall.json", "--budget", "1000"], 3, DET, []),
    ("det-malformed", ["det", "--input", "broken.json"], 2, FRONT, []),
    ("det-float-entry", ["det", "--input", "float.json"], 2, DECODE, []),
    ("lambda", ["lambda", "--a", "x.json", "--b", "x.json"], 0, DET + ("lambdapoly",), []),
    ("lambda-qq", ["lambda", "--a", "xq.json", "--b", "xq.json"], 0, DET + ("lambdapoly",),
     RATIONAL),
    ("check", ["preserver", "check", "--map", "v.json"], 1, MAPS + ("combinatorics",), []),
    ("check-shift", ["preserver", "check", "--map", "t.json"], 0, MAPS + ("combinatorics",), []),
    ("check-k2", ["preserver", "check", "--map", "c.json"], 0, MAPS + ("sympoly",), []),
    ("check-exhaustive", ["preserver", "check", "--map", "w.json", "--method", "exhaustive"], 1,
     MAPS + ("lanes",), []),
    ("check-exhaustive-preserves", ["preserver", "check", "--map", "t.json", "--method",
                                    "exhaustive"], 0, MAPS + ("lanes",), []),
    ("check-random", ["preserver", "check", "--map", "v.json", "--method", "random",
                      "--samples", "50"], 1, MAPS, []),
    ("check-malformed", ["preserver", "check", "--map", "bad_map.json"], 2, DECODE, []),
    ("factor", ["preserver", "factor", "--map", "v.json"], 0, MAPS, []),
    ("make-two-sided", ["preserver", "make-two-sided", "--a", "a.json", "--b", "b.json"], 0,
     MAPS, []),
    ("make-s-shift", ["preserver", "make-s-shift", "--n", "4", "--k", "2", "--i", "2", "--j",
                      "1", "--p", "5"], 0, MAPS, []),
    ("make-s-shift-qq", ["preserver", "make-s-shift", "--n", "4", "--k", "2", "--i", "2",
                         "--j", "1"], 0, MAPS, RATIONAL),
    ("make-k2", ["preserver", "make-k2", "--n", "4", "--p", "3"], 0, MAPS, []),
    *((name, ["preserver", "enumerate", "--n", "2", "--k", "1", "--p", p], 0,
       FRONT + ("fields", "record", "matrix", "determinant", "preserver", "lanes"), [])
      for name, p in (("enumerate", "3"), ("enumerate-gf2", "2"))),
    ("radical", ["preserver", "radical", "--n", "4", "--k", "2", "--p", "3"], 0,
     FRONT + ("fields", "record", "matrix", "determinant", "lambdapoly"), []),
    ("verify-paper", ["verify-paper"], 0, EVERY, RATIONAL),
]


@pytest.fixture(scope="module")
def table_documents(tmp_path_factory):
    """A directory holding every document TABLE's commands read."""
    where = tmp_path_factory.mktemp("table")
    F = gf(7)
    rng = random.Random(4)
    A, B = random_matrix(F, 4, 4, rng), random_matrix(F, 2, 2, rng)
    for name, X in (("x", random_matrix(F, 4, 2, random.Random(3))),
                    ("xq", random_matrix(RATIONALS, 4, 2, random.Random(3))),
                    ("tall", random_matrix(gf(10007), 12, 6, random.Random(5))),
                    ("a", A), ("b", B)):
        write_matrix(where, f"{name}.json", X)
    for name, T in (("t", make_s_shift(3, 1, 2, 1, gf(3))), ("v", make_two_sided(A, B)),
                    ("w", make_s_shift(3, 2, 2, 1, gf(3))),
                    ("c", make_k2_counterexample(4, gf(3)))):
        write_map(where, f"{name}.json", T)
    (where / "broken.json").write_text('{"n": 2, "k": 1, "field": ')
    (where / "float.json").write_text(bad_doc('{"type": "gfp", "p": 7}', "2.5"))
    (where / "bad_map.json").write_text(
        '{"n": 2, "k": 1, "field": {"type": "gfp", "p": 5}, "mat": [["1"]]}')
    return where


@pytest.mark.parametrize("argv, code, modules, watched",
                         [case[1:] for case in TABLE], ids=[case[0] for case in TABLE])
def test_verify_table_loads_only_for_verify_paper(table_documents, argv, code, modules,
                                                  watched):
    # the README's module table, and the one pin of what each command loads:
    # exactly these submodules.  The verification table loads only for
    # verify-paper, the oracle routes only for --algo def|laplace|minorsum,
    # the polynomial expander only for symbolic checks of maps that do not
    # factor, the lane kernel only for exhaustive checks and censuses, the
    # degree machinery only for lambda and radical, and the subset signs
    # only for the routes and the sign weights; radical loads neither the
    # maps, their JSON documents nor the lanes.  A document that does not parse
    # loads no module, one that does not decode no kernel.  The rationals'
    # modules load only for a rational value, and no record loads
    # `dataclasses` (which imports `inspect`).
    argv = [str(table_documents / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", LOADS, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, sorted(modules), watched]


# the `cullis` script's entry point, as pyproject.toml names it (no tomllib on 3.10)
SCRIPT = re.search(r'^cullis\s*=\s*"([\w.]+):(\w+)"\s*$',
                   (Path(__file__).parents[1] / "pyproject.toml").read_text(), re.M).groups()
# a child that registers an atexit handler, then runs its argv through an
# entry: `python -m cullis`, or the `cullis` script as pip's wrapper runs it
ENTRIES = {
    "module": "runpy.run_module('cullis', run_name='__main__')",
    "script": "from %s import %s as entry; sys.exit(entry())" % SCRIPT,
}
EXIT_PROBE = "import atexit, runpy, sys\natexit.register(lambda: sys.stderr.write('atexit ran'))\n"


def run_entry(entry, argv, where, **streams):
    """The exit probe of entry on argv, each *.json in argv a document in
    where, with the interpreter's default buffering (no PYTHONUNBUFFERED);
    streams are subprocess.run's stdout, stderr and preexec_fn."""
    argv = [str(where / a) if a.endswith(".json") else a for a in argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-c", EXIT_PROBE + ENTRIES[entry], *argv],
                          text=True, env=env, **streams)


EXITS = [
    ("det", ["det", "--input", "x.json"], 0),
    ("violates", ["preserver", "check", "--map", "v.json"], 1),
    ("malformed", ["det", "--input", "broken.json"], 2),
    ("usage", ["det", "--algo", "gauss"], 2),
    ("over-budget", ["det", "--input", "x.json", "--budget", "0"], 3),
    ("help", ["--help"], 0),
]


@pytest.mark.parametrize("entry, argv, code",
                         [(entry, argv, code) for entry in ENTRIES for _, argv, code in EXITS],
                         ids=[name + ("" if entry == "module" else f"-{entry}")
                              for entry in ENTRIES for name, _, _ in EXITS])
def test_cli_exits_without_interpreter_teardown(table_documents, entry, argv, code):
    # both entries end in cli.run: every exit, argparse's too, leaves by
    # os._exit once the output is flushed, with the exit code main returned,
    # and no atexit handler runs
    proc = run_entry(entry, argv, table_documents)
    assert proc.returncode == code, proc.stderr
    assert "atexit ran" not in proc.stderr
    assert proc.stdout.endswith("\n") if code in (0, 1) else proc.stdout == ""


@pytest.mark.parametrize("entry", ENTRIES)
def test_cli_payload_that_stdout_cannot_take_exits_2(table_documents, entry):
    # on a full device the flush fails inside main's try, and no teardown
    # flushes it again (which gave the script exit 120); with descriptor 1
    # closed sys.stdout is None, which main refuses rather than a traceback
    argv = ["det", "--input", "x.json"]
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = run_entry(entry, argv, table_documents, stdout=full)
        assert proc.returncode == 2 and proc.stderr.startswith("error:"), proc.stderr
        assert "atexit ran" not in proc.stderr
    proc = run_entry(entry, argv, table_documents, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 2 and proc.stderr == "error: stdout is closed\n", proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("entry", ENTRIES)
def test_cli_error_line_stderr_cannot_take_keeps_the_code(table_documents, entry):
    # the error and budget lines are dropped, as argparse drops its own
    # messages, and the exit code stands
    for argv, code in ((["det", "--input", "broken.json"], 2),
                       (["det", "--input", "x.json", "--budget", "0"], 3)):
        with open("/dev/full", "w") as full:
            proc = run_entry(entry, argv, table_documents, stderr=full)
        assert proc.returncode == code and proc.stdout == "", argv


@pytest.mark.parametrize("fd, argv", [(1, ["--help"]), (2, ["det", "--input", "x.json"])],
                         ids=["stdout", "stderr"])
def test_cli_exit_code_stands_with_a_stream_closed(table_documents, fd, argv):
    # with descriptor 1 or 2 closed, sys.stdout or sys.stderr is None and
    # there is nothing to flush on it (argparse then writes --help to stderr)
    proc = run_entry("module", argv, table_documents, preexec_fn=lambda: os.close(fd))
    assert proc.returncode == 0, proc.stderr
    assert (proc.stderr if fd == 1 else proc.stdout).startswith(("usage: cullis", '{"det"'))


def test_cli_main_returns_argparse_codes(capsys):
    # main returns every exit code, argparse's too, and raises no SystemExit
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cullis")
    assert cli.main(["det"]) == 2
    assert "the following arguments are required: --input" in capsys.readouterr().err


def test_cli_reads_the_budget_once_before_any_work(tmp_path, capsys):
    # every command reads --budget, else CULLIS_BUDGET, before its handler
    # runs: verify-paper, which takes no budget, refuses a malformed one, and
    # a malformed budget is reported before a malformed document is read
    assert run_with_env_budget(["verify-paper", "--shapes", "3x2", "--p", "2"], "x") == (2, "")
    broken = tmp_path / "broken.json"
    broken.write_text('{"n": 2, "k": 1, "field": ')
    with mock.patch.dict(os.environ, {"CULLIS_BUDGET": "-5"}):
        assert cli.main(["det", "--input", str(broken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: budget must be at least 0, got -5\n"


@pytest.mark.parametrize("script", sorted(
    p.name for p in (Path(__file__).parents[1] / "bench").glob("*.py") if p.name != "harness.py"))
def test_bench_script_runs(script):
    # each layer bench imports the shared harness and parses its arguments
    path = Path(__file__).parents[1] / "bench" / script
    proc = subprocess.run([sys.executable, str(path), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "--before" in proc.stdout


def test_cli_stdout_is_json_on_failure_paths(tmp_path):
    F = gf(5)
    T = LinearMapNK(3, 2, LinearMapNK.identity_map(F, 3, 2).mat.scale(3))
    path = write_map(tmp_path, "t.json", T)
    proc = run_cli("preserver", "check", "--map", path)
    assert proc.returncode == 1
    json.loads(proc.stdout)  # must parse


def test_fault_injection_surfaces_in_verification(monkeypatch):
    # a deliberately corrupted subset sign must be caught with a witness
    original = comb_mod.sgn_of_subset
    monkeypatch.setattr(comb_mod, "sgn_of_subset", lambda elems: -original(elems))
    from cullis.verify import run_verification

    report = run_verification(shapes=((3, 2),), primes=(2,), seed=0)
    assert report["all_pass"] is False
    failing = [r for r in report["results"].values() if r["status"] == "fail"]
    assert failing and "witness" in failing[0]


def test_fault_injection_exit_code(monkeypatch, capsys):
    original = comb_mod.sgn_of_subset
    monkeypatch.setattr(comb_mod, "sgn_of_subset", lambda elems: -original(elems))
    code = cli.main(["verify-paper", "--shapes", "3x2", "--p", "2"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["all_pass"] is False


# -- input boundary: malformed scalars exit 2 without a traceback -----------------


def bad_doc(field, entry):
    return '{"n": 2, "k": 1, "field": %s, "entries": [[%s], ["1"]]}' % (field, entry)


def assert_refused(doc):
    proc = run_cli("det", "--input", "-", stdin=doc)
    assert proc.returncode == 2, doc
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_cli_zero_denominator_exits_2():
    for entry in ('"1/0"', '"0/0"', '"-3/0"'):
        assert_refused(bad_doc('{"type": "rational"}', entry))


def test_cli_floats_exit_2():
    # neither truncated (1.5 -> 1) nor used as a modulus (5.9 -> GF(5))
    assert_refused(bad_doc('{"type": "rational"}', "1.5"))
    assert_refused(bad_doc('{"type": "gfp", "p": 7}', "2.0"))
    assert_refused(bad_doc('{"type": "gfp", "p": 5.9}', '"1"'))
    assert_refused('{"n": 2.0, "k": 1, "field": {"type": "rational"}, "entries": [["1"], ["1"]]}')


def test_cli_booleans_exit_2():
    assert_refused(bad_doc('{"type": "gfp", "p": 5}', "true"))
    assert_refused(bad_doc('{"type": "rational"}', "false"))
    assert_refused(bad_doc('{"type": "gfp", "p": true}', '"1"'))


def test_cli_huge_decimal_exponent_exits_2_before_any_work():
    # Fraction would build 10**30000000 first; the exponent is refused at 4300
    for entry in ("1e30000000", "-2.5E+4301", "1e-4301", "1e0000000000009999"):
        doc = '{"n": 1, "k": 1, "field": {"type": "rational"}, "entries": [["%s"]]}' % entry
        assert run_in_process(["det", "--input", "x.json"], {"x.json": doc}) == (2, "")
    doc = '{"n": 1, "k": 1, "field": {"type": "rational"}, "entries": [["-1e-4300"]]}'
    code, out = run_in_process(["det", "--input", "x.json"], {"x.json": doc})
    assert code == 0 and json.loads(out)["det"] == "-1/1" + "0" * 4300


def test_cli_prints_a_det_past_the_int_to_str_digit_limit():
    doc = ('{"n": 2, "k": 2, "field": {"type": "rational"}, '
           '"entries": [["1e3000", "0"], ["0", "1e3000"]]}')
    code, out = run_in_process(["det", "--input", "x.json"], {"x.json": doc})
    assert code == 0
    assert json.loads(out)["det"] == "1" + "0" * 6000


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_cli_failed_write_to_stdout_exits_2(tmp_path):
    # main writes the document inside its try, so a closed pipe is an error, not a traceback
    path = write_matrix(tmp_path, "x.json", RectMatrix.from_rows(gf(5), [[1, 2], [3, 4]]))
    err = io.StringIO()
    with contextlib.redirect_stdout(_BrokenPipe()), contextlib.redirect_stderr(err):
        code = cli.main(["det", "--input", path])
    assert code == 2 and err.getvalue().startswith("error:"), err.getvalue()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_failed_flush_to_stdout_exits_2(tmp_path):
    # block-buffered stdout reaches the device only when flushed, after the
    # write: main's flush and the help text's flush both fail inside a check
    path = write_matrix(tmp_path, "x.json", RectMatrix.from_rows(gf(5), [[1, 2], [3, 4]]))
    for argv in (["det", "--input", path], ["--help"]):
        with open("/dev/full", "w") as full:
            proc = run_cli(*argv, stdout=full)
        assert proc.returncode == 2 and proc.stderr.startswith("error:"), (argv, proc.stderr)


def test_cli_det_budget_weighs_entry_size():
    # 20x20 diagonal, 8,300 digits per entry: 4,940 elimination steps, each
    # charged ceil(27,572 / 64) ** 2, far past the default budget
    import time

    rows = [["9" * 4000 + "e4300" if i == j else "0" for j in range(20)] for i in range(20)]
    doc = json.dumps({"n": 20, "k": 20, "field": {"type": "rational"}, "entries": rows})
    assert len(doc) > 80_000
    start = time.perf_counter()
    assert run_in_process(["det", "--input", "x.json"], {"x.json": doc}) == (3, "")
    assert time.perf_counter() - start < 1.0
    # a 2x2 with 3,001-digit entries is still well inside it
    doc = ('{"n": 2, "k": 2, "field": {"type": "rational"}, '
           '"entries": [["1e3000", "0"], ["0", "1e3000"]]}')
    assert run_in_process(["det", "--input", "x.json"], {"x.json": doc})[0] == 0


def test_cli_lambda_budget_weighs_entry_size():
    # a 12x6 pair of 8,300-digit rational entries: 1,344 sweep moves, each
    # charged for the packed entries of about 190,000 bits
    import time

    rng = random.Random(30)
    docs = {name: json.dumps({"n": 12, "k": 6, "field": {"type": "rational"}, "entries": [
        [str(rng.randrange(10 ** 3999, 10 ** 4000)) + "e4300" for _ in range(6)]
        for _ in range(12)]}) for name in ("a.json", "b.json")}
    start = time.perf_counter()
    assert run_in_process(["lambda", "--a", "a.json", "--b", "b.json"], docs) == (3, "")
    assert time.perf_counter() - start < 2.0


def test_cli_deep_nesting_exits_2():
    deep = "[" * 100_000
    for cmd in (["det", "--input", "-"], ["preserver", "check", "--map", "-"]):
        proc = run_cli(*cmd, stdin=deep)
        assert proc.returncode == 2, cmd
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr


def test_cli_lambda_budget_env(tmp_path):
    rng = random.Random(6)
    pa = write_matrix(tmp_path, "a.json", random_matrix(gf(7), 8, 5, rng))
    pb = write_matrix(tmp_path, "b.json", random_matrix(gf(7), 8, 5, rng))
    for cmd in (["det", "--input", pa], ["lambda", "--a", pa, "--b", pb]):
        proc = run_cli(*cmd, env={"CULLIS_BUDGET": "5"})
        assert proc.returncode == 3, cmd
        assert proc.stdout == ""
    assert run_cli("lambda", "--a", pa, "--b", pb).returncode == 0


VERIFY_PAPER_DIGESTS = {
    0: "3d0452905060f1fbf48a4c89becd65c6b9f5f4d02943d20618b4d389f3a6f422",
    1: "221a6a484ba8f59c3dcc2cadb92da0ebd7a77ab65f6a30dbf8e0e52a7bffdc0a",
    7: "34458347cf241673ceb922ba549bbae3123c7ae802cc959e6ea36d1b5d7e8874",
    42: "e85fd011f349223c4aa3ded792c1830038451da4dd50740853400f08a3e6efdc",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_PAPER_DIGESTS))
def test_cli_verify_paper_golden_digest(seed):
    # pins the whole default table for each seed, byte for byte
    proc = run_cli("verify-paper", "--seed", str(seed))
    assert proc.returncode == 0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == VERIFY_PAPER_DIGESTS[seed]


# the filtered tables that perfbench's cli-batch workload runs, at seed 5
FILTERED_VERIFY_PAPER_DIGESTS = {
    "--p 7": "c30c7f4dfc4e19781c41941af9a5edf295bd5c6bc105c5dea5d0ad950801d6d3",
    "--shapes 6x2": "4f700bfb57b7719085e787157b7839685d89e9bde1ec1ac51926616f84d16a4b",
    "--shapes 3x2 --p 3,5": "f7de69c9995a20daa954f273839ad4e2915bd20988affc36c1bdb92594a16fed",
}


@pytest.mark.parametrize("filters", sorted(FILTERED_VERIFY_PAPER_DIGESTS))
def test_cli_verify_paper_filtered_digest(filters):
    proc = run_cli("verify-paper", "--seed", "5", *filters.split())
    assert proc.returncode == 0
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == FILTERED_VERIFY_PAPER_DIGESTS[filters]


def test_failing_report_digest(monkeypatch):
    # every row of the seed-0 table passes, so its digest cannot see the order
    # in which checks draw; this pins a report whose witnesses are those draws
    import cullis.verify as verify

    real = verify.det

    def off_by_one(X, *args, **kwargs):
        d = real(X, *args, **kwargs)
        return d + X.field.one if (X.n, X.k) == (5, 3) else d

    monkeypatch.setattr(verify, "det", off_by_one)
    report = verify.run_verification(seed=0)
    assert sum(r["status"] == "fail" for r in report["results"].values()) == 10
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "ffb4de00efb1c18b81cbf27a396865ddb7b472be46380202ddc59b1ac6c8f276"


# -- in-process fuzz: every document meets the exit-code contract ------------------

_FIELDS = st.sampled_from([{"type": "rational"}, {"type": "gfp", "p": 2},
                           {"type": "gfp", "p": 3}, {"type": "gfp", "p": "5"}])
_BAD_FIELDS = st.sampled_from([{"type": "gfp", "p": 4}, {"type": "gfp", "p": -5},
                               {"type": "gfp"}, {"type": "complex"}, "QQ"])
_BAD_ENTRIES = st.one_of(st.sampled_from(["1/0", "x", "", "1.5", "nan", "1/2", "1e30000000"]),
                         st.floats(allow_nan=False), st.booleans(), st.none())
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["n", "k", "type", "p"]), st.integers(0, 3), max_size=2),
)


@st.composite
def documents(draw, key, size, square=False):
    """JSON text of a matrix ("entries") or map ("mat") document of a small
    shape, n x n if square: well formed about half the time, else with a bad
    entry or field, a part dropped or replaced by junk, rows cut short, or the
    text truncated."""
    n = draw(st.integers(1, 3))
    k = n if square else draw(st.integers(1, 3))
    rows, width = size(n, k)
    field = draw(_FIELDS)
    entry = st.one_of(st.integers(-3, 3), st.integers(-30, 30).map(str),
                      st.sampled_from(["1/2", "-2/3", " 4 "] if field["type"] == "rational"
                                      else [" 4 "]))
    doc = {"n": n, "k": k, "field": field,
           key: [[draw(entry) for _ in range(width)] for _ in range(rows)]}
    how = draw(st.sampled_from(["whole"] * 6 + ["entry", "field", "drop", "junk", "short",
                                                "text"]))
    part = draw(st.sampled_from(sorted(doc)))
    if how == "entry":
        doc[key][draw(st.integers(0, rows - 1))][draw(st.integers(0, width - 1))] = \
            draw(_BAD_ENTRIES)
    elif how == "field":
        doc["field"] = draw(_BAD_FIELDS)
    elif how == "drop":
        del doc[part]
    elif how == "junk":
        doc[part] = draw(_JUNK)
    elif how == "short":
        doc[key] = doc[key][1:] if draw(st.booleans()) else [r[1:] for r in doc[key]]
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text) - 1))] if how == "text" else text


_MATRIX = documents("entries", lambda n, k: (n, k))
_SQUARE = documents("entries", lambda n, k: (n, k), square=True)
_MAP = documents("mat", lambda n, k: (n * k, n * k))
_BUDGET = st.sampled_from([[], ["--budget", "0"], ["--budget", "10"], ["--budget", "100000"]])


def run_in_process(argv, files):
    """cli.main on argv with the named files written to a fresh directory;
    returns the exit code and stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [os.path.join(tmp, a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue()


def assert_contract(code, out):
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)
    else:
        assert out == ""


@settings(max_examples=60)
@given(doc=_MATRIX, algo=st.sampled_from(["auto", "def", "laplace", "minorsum"]), budget=_BUDGET)
def test_fuzz_det_documents(doc, algo, budget):
    assert_contract(*run_in_process(["det", "--input", "x.json", "--algo", algo, *budget],
                                    {"x.json": doc}))


@settings(max_examples=60)
@given(a=_MATRIX, b=_MATRIX)
def test_fuzz_lambda_documents(a, b):
    assert_contract(*run_in_process(["lambda", "--a", "a.json", "--b", "b.json"],
                                    {"a.json": a, "b.json": b}))


@settings(max_examples=60)
@given(doc=_MAP, method=st.sampled_from(["symbolic", "exhaustive", "random"]),
       p=st.sampled_from([[], ["--p", "3"], ["--p", "5"], ["--p", "4"], ["--p", "-1"]]),
       budget=_BUDGET)
def test_fuzz_preserver_check_documents(doc, method, p, budget):
    argv = ["preserver", "check", "--map", "t.json", "--method", method, "--samples", "5"]
    assert_contract(*run_in_process(argv + p + budget, {"t.json": doc}))


# few examples in the suite; CI runs more on every Python:
#   pytest --hypothesis-profile cli tests/test_cli.py::test_fuzz_make_two_sided_documents
@given(a=_SQUARE, b=_SQUARE,
       budget=st.sampled_from([None, None, "0", "10", "100", "100000", "x"]))
def test_fuzz_make_two_sided_documents(a, b, budget):
    argv = ["preserver", "make-two-sided", "--a", "a.json", "--b", "b.json"]
    code, out = run_with_env_budget(argv, budget, {"a.json": a, "b.json": b})
    assert_contract(code, out)
    if code == 0:
        nk = len(json.loads(out)["mat"])
        assert nk * nk <= (int(budget) if budget else 10 ** 6)


#   pytest --hypothesis-profile cli tests/test_cli.py::test_fuzz_factor_documents
@given(doc=_MAP)
def test_fuzz_factor_documents(doc):
    code, out = run_in_process(["preserver", "factor", "--map", "t.json"], {"t.json": doc})
    assert_contract(code, out)
    if code in (0, 1):
        assert json.loads(out)["factorable"] == (code == 0)


# -- argument vectors ------------------------------------------------------------------

_JUNK_ARGS = st.sampled_from(["", "x", "3.0", "1e3", "0x5", " 7", "٣", "--", "-"])
_PRIMES = st.sampled_from([2, 3, 5, 7, 131, 1009]).map(str)
_NON_PRIMES = st.sampled_from([0, 1, 4, 9, -7, 10 ** 6]).map(str)
_SIZES = st.one_of(st.integers(-2, 6), st.sampled_from([300, 3000, 10 ** 6])).map(str)
_BUDGETS = st.one_of(st.just([]), st.sampled_from(["0", "1", "100", "10000", "1000000", "-1"])
                     .map(lambda b: ["--budget", b]), _JUNK_ARGS.map(lambda b: ["--budget", b]))
_SMALL_MAPS = st.sampled_from([
    json.dumps(jsonio.map_to_dict(make_s_shift(2, 1, 1, 1, RATIONALS))),
    json.dumps(jsonio.map_to_dict(make_s_shift(2, 2, 2, 1, gf(5)))),
    json.dumps(jsonio.map_to_dict(make_s_shift(3, 1, 2, 1, gf(7)))),
    json.dumps(jsonio.map_to_dict(make_s_shift(3, 1, 2, 1, gf(3)))),
    '{"n": 1, "k": 1, "field": {"type": "rational"}, "mat": [["2"]]}',
])


@settings(max_examples=60)
@given(doc=_SMALL_MAPS, p=st.one_of(_PRIMES, _NON_PRIMES, _JUNK_ARGS), budget=_BUDGETS)
def test_fuzz_exhaustive_check_arguments(doc, p, budget):
    argv = ["preserver", "check", "--map", "t.json", "--method", "exhaustive", "--p", p]
    code, out = run_in_process(argv + budget, {"t.json": doc})
    assert_contract(code, out)
    field = json.loads(doc)["field"]
    if field["type"] == "gfp" and code != 2:  # --p keeps a prime map in its own field
        assert int(p) == field["p"]


@settings(max_examples=60)
@given(cmd=st.sampled_from(["enumerate", "radical"]), n=st.one_of(_SIZES, _JUNK_ARGS),
       k=_SIZES, p=st.one_of(_PRIMES, _NON_PRIMES, _JUNK_ARGS), budget=_BUDGETS)
def test_fuzz_enumeration_arguments(cmd, n, k, p, budget):
    code, out = run_in_process(["preserver", cmd, "--n", n, "--k", k, "--p", p] + budget, {})
    assert_contract(code, out)
    if code == 0 and budget == []:
        # the default budget admits only small searches
        assert int(p) ** (int(n) * int(k)) <= 10 ** 6


def run_with_env_budget(argv, budget, files=None):
    """`run_in_process` with CULLIS_BUDGET set to budget, or unset for None."""
    with mock.patch.dict(os.environ):
        os.environ.pop("CULLIS_BUDGET", None)
        if budget is not None:
            os.environ["CULLIS_BUDGET"] = budget
        return run_in_process(argv, files or {})


def test_cli_random_check_refuses_before_the_first_draw():
    # no samples is a usage error, and the two dets per sample are counted
    # against the operation budget before any matrix is drawn
    doc = json.dumps(jsonio.map_to_dict(make_s_shift(4, 2, 2, 1, gf(5))))
    argv = ["preserver", "check", "--map", "t.json", "--method", "random"]
    for samples in ("-5", "0"):
        assert run_with_env_budget(argv + ["--samples", samples], None, {"t.json": doc}) == (2, "")
    start = time.perf_counter()
    argv_big = argv + ["--samples", "100000000", "--budget", "10"]
    assert run_with_env_budget(argv_big, None, {"t.json": doc}) == (3, "")
    assert time.perf_counter() - start < 1
    code, out = run_with_env_budget(argv + ["--samples", "50"], None, {"t.json": doc})
    assert code == 0 and json.loads(out)["verdict"] == "inconclusive"


def test_cli_constructions_refuse_over_budget_before_any_entry():
    # the (nk)**2 map entries are counted against the search budget, so an
    # 8.1e13-entry s-shift and a 30000-row k = 2 map exit 3 at once
    tracemalloc.start()
    try:
        for argv in (["make-s-shift", "--n", "3000", "--k", "3000", "--i", "1", "--j", "1"],
                     ["make-k2", "--n", "30000"]):
            assert run_with_env_budget(["preserver", *argv], None) == (3, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # CULLIS_BUDGET applies: 6x4 has 576 entries and make-k2 at n = 6 has 144
    for argv, entries in ((["make-s-shift", "--n", "6", "--k", "4", "--i", "2", "--j", "3"], 576),
                          (["make-k2", "--n", "6", "--p", "3"], 144)):
        assert run_with_env_budget(["preserver", *argv], str(entries - 1)) == (3, "")
        code, out = run_with_env_budget(["preserver", *argv], str(entries))
        assert code == 0 and len(json.loads(out)["mat"]) ** 2 == entries


def test_cli_make_two_sided_refuses_over_budget_before_any_entry():
    # two 120x120 factors, about 70 KB of JSON each, would make (nk)**2 = 2.1e8
    # map entries: the count is refused once both are decoded and square
    rng = random.Random(15)
    A, B = (json.dumps(jsonio.matrix_to_dict(random_matrix(gf(7), 120, 120, rng)))
            for _ in range(2))
    argv = ["preserver", "make-two-sided", "--a", "a.json", "--b", "b.json"]
    tracemalloc.start()
    try:
        assert run_with_env_budget(argv, None, {"a.json": A, "b.json": B}) == (3, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21
    # a factor that is not square is a data error at any size
    wide = json.dumps(jsonio.matrix_to_dict(random_matrix(gf(7), 120, 119, rng)))
    assert run_with_env_budget(argv, None, {"a.json": A, "b.json": wide}) == (2, "")
    # CULLIS_BUDGET applies: a 4x2 map has 64 entries
    files = {"a.json": json.dumps(jsonio.matrix_to_dict(random_matrix(gf(7), 4, 4, rng))),
             "b.json": json.dumps(jsonio.matrix_to_dict(random_matrix(gf(7), 2, 2, rng)))}
    assert run_with_env_budget(argv, "63", files) == (3, "")
    code, out = run_with_env_budget(argv, "64", files)
    assert code == 0 and len(json.loads(out)["mat"]) == 8


# mostly shapes that are built, then some refused as bad (exit 2) or too big (exit 3)
_CONSTRUCTION_SIZES = st.one_of(st.integers(1, 6), st.integers(4, 6),
                                st.sampled_from([-1, 0, 3000, 10 ** 6])).map(str)


# few examples in the suite; CI runs more on every Python:
#   pytest --hypothesis-profile cli tests/test_cli.py::test_fuzz_construction_arguments
@given(cmd=st.sampled_from(["make-s-shift", "make-k2"]),
       n=_CONSTRUCTION_SIZES, k=_CONSTRUCTION_SIZES,
       i=st.integers(1, 4).map(str), j=st.integers(0, 3).map(str),
       p=st.one_of(st.none(), _PRIMES, st.one_of(_NON_PRIMES, _JUNK_ARGS)),
       budget=st.sampled_from([None, None, "10000", "1000000", "100", "0", "-1", "x"]))
def test_fuzz_construction_arguments(cmd, n, k, i, j, p, budget):
    argv = ["preserver", cmd, "--n", n]
    if cmd == "make-s-shift":
        argv += ["--k", k, "--i", i, "--j", j]
    code, out = run_with_env_budget(argv + ([] if p is None else ["--p", p]), budget)
    assert_contract(code, out)
    if code == 0:
        doc = json.loads(out)
        nk = doc["n"] * doc["k"]
        assert len(doc["mat"]) == nk and nk * nk <= (int(budget) if budget else 10 ** 6)


_SHAPE_ITEMS = st.sampled_from(["3x2", "4x2", "5x3", "6x4", "6x2", "3x1", "5x2", "5x4",
                                "x", "0x0", "2x3", "9x9", "4X2", " 4x2 ", "4x", "-1x2", "1e3x2"])


@settings(max_examples=10)
@given(shapes=st.one_of(st.none(), st.lists(_SHAPE_ITEMS, min_size=1, max_size=3).map(",".join)),
       primes=st.one_of(st.none(), st.lists(st.one_of(_PRIMES, _NON_PRIMES, _JUNK_ARGS),
                                           min_size=1, max_size=2).map(",".join)))
def test_fuzz_verify_paper_filters(shapes, primes):
    argv = ["verify-paper"] + (["--shapes", shapes] if shapes is not None else [])
    assert_contract(*run_in_process(argv + (["--p", primes] if primes is not None else []), {}))
