"""Tests of the benchmark itself: seeded inputs and the oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import execute  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from tracing import NullTracer  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return execute.Package(ROOT / "src")


@pytest.mark.parametrize("workload", sorted(gen.ROUNDS))
def test_seed_fixes_the_inputs(workload):
    first = json.dumps(gen.generate(workload, 7, 2))
    assert json.dumps(gen.generate(workload, 7, 2)) == first
    assert json.dumps(gen.generate(workload, 8, 2)) != first
    kinds = [[(r["kind"], r.get("site")) for r in rnd] for rnd in gen.generate(workload, 7, 2)]
    assert sorted(kinds[0]) == sorted(kinds[1])


def _injection_det(rows, p):
    n, k = len(rows), len(rows[0])
    total = 0
    for images in permutations(range(n), k):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if images[a] > images[b])
        prod = 1
        for j, i in enumerate(images):
            prod *= rows[i][j]
        sign = (-1) ** (inv + sum(e - a for a, e in enumerate(sorted(images))))
        total += sign * prod
    return oracles.red(total, p)


def test_reference_determinant_matches_the_definition():
    rng = random.Random(5)
    for n, k in ((1, 1), (3, 2), (4, 4), (5, 3), (6, 2)):
        for p in (7, None):
            rows = gen.rand_rows(rng, n, k, p)
            assert oracles.rect_det(rows, p) == _injection_det(rows, p)


def _first(workload, pred):
    for req in gen.generate(workload, 3, 1)[0]:
        if pred(req):
            return req
    raise LookupError(workload)


def _cheap(req):
    spec = req.get("map")
    small = not isinstance(spec, dict) or spec["n"] * spec["k"] <= 8
    return small and all(v <= 1000 for v in req.get("work", {}).values())


def _corrupt(kind, res, req):
    if kind == "det":
        return str(Fraction(res) + 1)
    if kind in ("rank", "max_deg", "census", "radical"):
        return res + 1
    if kind == "lambda":
        return res[:-1] + [str(Fraction(res[-1]) + 1)]
    if kind in ("completions", "in_radical", "sign_condition"):
        return not res
    if kind == "deg_witness":
        b = json.loads(req["b"])
        return [["0"] * b["k"] for _ in range(b["n"])]
    if kind == "make_b":
        return [r[:-1] + [str(-Fraction(r[-1]))] for r in res]
    if kind == "check":
        verdict, witness = res["symbolic"]
        flipped = "preserves" if verdict == "violates" else "violates"
        return dict(res, symbolic=[flipped, [["0"] * req["map"]["k"]] * req["map"]["n"]])
    if kind == "factor":
        return None if res else [[["1"]], [["1"]]]
    raise AssertionError(kind)


INPROCESS_KINDS = [
    ("library", "det"), ("library", "rank"), ("library", "lambda"),
    ("library", "max_deg"), ("library", "deg_witness"),
    ("library", "completions"), ("library", "in_radical"),
    ("library", "make_b"), ("library", "check"), ("library", "factor"),
    ("library", "sign_condition"), ("library", "census"),
    ("library", "radical"),
]


@pytest.mark.parametrize("workload,kind", INPROCESS_KINDS)
def test_oracle_accepts_the_package_and_rejects_a_corruption(pkg, workload, kind):
    req = _first(workload, lambda r: r["kind"] == kind and _cheap(r))
    res = execute.run_request(pkg, NullTracer(), req)
    assert oracles.check_inprocess(req, res) is None
    assert oracles.check_inprocess(req, _corrupt(kind, res, req)) is not None


def test_violation_witness_is_rechecked(pkg):
    req = _first("library", lambda r: r["kind"] == "check" and r["expect"] == "violates"
                 and r["exhaustive"])
    res = execute.run_request(pkg, NullTracer(), req)
    assert oracles.check_inprocess(req, res) is None
    zero = [["0"] * req["map"]["k"]] * req["map"]["n"]
    assert oracles.check_inprocess(req, dict(res, exhaustive=["violates", zero])) is not None


def _run_cli(req, tmp_path):
    for name, text in req["files"].items():
        (tmp_path / name).write_text(text)
    return execute.run_cli(NullTracer(), req, tmp_path, execute.child_env(ROOT / "src"))


def test_cli_contract_checks(tmp_path):
    req = _first("cli-batch", lambda r: r["site"] == "cli.det")
    res = _run_cli(req, tmp_path)
    assert oracles.check_cli(req, res) is None
    wrong = json.dumps({"det": str(oracles.parse_scalar(json.loads(res["stdout"])["det"], None) + 1)})
    assert oracles.check_cli(req, dict(res, stdout=wrong)) is not None
    assert oracles.check_cli(req, dict(res, stdout=res["stdout"] * 2)) is not None
    assert oracles.check_cli(req, dict(res, rc=2)) is not None


def test_cli_known_defects_are_classified(tmp_path):
    req = _first("cli-batch", lambda r: r.get("defect") == "zero-denominator")
    res = _run_cli(req, tmp_path)
    assert oracles.check_cli(req, res) == "defect:zero-denominator"
    # the fixed behaviour meets the contract; any other outcome is a failure
    assert oracles.check_cli(req, {"rc": 2, "stdout": ""}) is None
    assert oracles.check_cli(req, {"rc": 1, "stdout": '{"det": "0"}\n'}).startswith("exit code")
    refused = _first("cli-batch", lambda r: r["site"] == "cli.refused" and "defect" not in r
                       and r["expect"]["rc"] == 2)
    assert oracles.check_cli(refused, {"rc": 0, "stdout": '{"det": "1"}'}) is not None


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.ROUNDS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_names()


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench(ROOT, "--workload", "library", "--seed", "4", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [name for name, _, _ in run.per_layer_names()]
    det_calls = sum(mix[-1] for mix in gen.DET_TALL_MIX if mix[0] == "det")
    assert out["metrics"]["determinant.det.calls"]["value"] == det_calls


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "library", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
