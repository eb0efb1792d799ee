"""Benchmark runner for cullis.

    python3 perfbench/run.py --workload library --seed 1 --seconds 40 --trace 0

Runs one seeded workload as a closed loop with one client in one process: the
next request is issued only after the previous one returned, and no threads
are started (`cli-batch` runs one child process at a time).  A run is a whole
number of rounds, round(seconds / nominal round time), so every count and the
output digest repeat exactly for a seed.  Each result is checked by an
independent oracle outside the timed region.  With --trace 0 the last stdout
line reports the end-to-end metrics; with --trace 1 it reports per-layer
metrics from spans around the benchmark's own calls into the package, plus
the tracing overhead measured on a replay of the first requests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

import execute
import gen
import oracles
from tracing import NullTracer, Tracer

# seconds one round takes at the baseline commit on a 2-core x86-64 container
ROUND_SECONDS = {"library": 9.5, "cli-batch": 24.0}
SETUPS = 11
REPLAY_JOBS = 20

END_TO_END = (("throughput_jobs_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

SITES = (
    "jsonio.decode", "determinant.det", "matrix.rank", "lambdapoly.lambda_coeffs",
    "lambdapoly.max_deg_rank1", "lambdapoly.max_deg_rank2", "lambdapoly.max_deg_random",
    "lambdapoly.deg_witness", "lambdapoly.completions_vanish", "preserver.in_radical",
    "lambdapoly.make_b", "preserver.build", "preserver.symbolic_preserves",
    "preserver.symbolic_violates", "preserver.exhaustive", "preserver.census",
    "preserver.radical_enumerate", "preserver.factor", "preserver.sign_condition",
    "cli.startup", "cli.det", "cli.lambda", "cli.preserver", "cli.refused", "cli.verify_paper",
)
COUNTS = ("lambdapoly.make_b.cold_calls", "preserver.exhaustive.inputs", "preserver.census.maps",
          "preserver.radical_enumerate.inputs", "work.row_subsets", "work.column_subsets",
          "cli.known_defects", "job.calls")


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for site in SITES:
        out += [(f"{site}.calls", "count", "lower"), (f"{site}.busy_s", "s", "lower"),
                (f"{site}.p50_ms", "ms", "lower")]
    out += [(name, "count", "lower") for name in COUNTS]
    out += [("preserver.exhaustive.inputs_per_s", "1/s", "higher"), ("job.self_s", "s", "lower"),
            ("trace.overhead_pct", "%", "lower")]
    return out


class Loop:
    """Latencies, canonical results and check outcomes of one closed loop."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.latency_ns: list[int] = []
        self.results: list = []
        self.failures: list[tuple[int, str]] = []
        self.defects = 0


def closed_loop(reqs, call, check, tr) -> Loop:
    loop = Loop(tr)
    for idx, req in enumerate(reqs):
        tr.job_id = idx
        t0 = perf_counter_ns()
        with tr.span("job"):
            try:
                res = call(idx, req)
            except Exception as exc:  # an unexpected exception is a counted failure
                res = {"exception": repr(exc)}
        loop.latency_ns.append(perf_counter_ns() - t0)
        loop.results.append(res)
        if isinstance(res, dict) and "exception" in res:
            why = res["exception"]
        else:
            try:
                why = check(req, res)
            except Exception as exc:  # a result the oracle cannot read is wrong
                why = f"unreadable result: {exc!r}"
        if why is None:
            continue
        if why.startswith("defect:"):
            loop.defects += 1
        else:
            loop.failures.append((idx, why))
    return loop


def digest(results) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def replay_overhead(stream, call, check) -> float:
    """Tracing overhead in percent.  After the measured pass, each of the first
    REPLAY_JOBS requests runs untraced and then traced, back to back, so a
    change of machine speed affects both sides alike."""
    plain = traced = 0
    tr = Tracer()
    for req in stream[0][:REPLAY_JOBS]:
        plain += closed_loop([req], call(NullTracer()), check, NullTracer()).latency_ns[0]
        traced += closed_loop([req], call(tr), check, tr).latency_ns[0]
    return 100.0 * (traced - plain) / plain


def run_inprocess(stream, src, trace):
    setups = []
    for _ in range(SETUPS):
        gc.collect()
        t0 = perf_counter()
        pkg = execute.Package(src)
        cold = execute.warm_up(pkg)
        setups.append(perf_counter() - t0)
    tr = Tracer() if trace else NullTracer()
    reqs = [r for rnd in stream for r in rnd]

    def call(t):
        return lambda i, r: execute.run_request(pkg, t, r)

    loop = closed_loop(reqs, call(tr), oracles.check_inprocess, tr)
    overhead = replay_overhead(stream, call, oracles.check_inprocess) if trace else None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return loop, overhead, setups, cold, rss_kb, pkg.c.__file__


def run_cli_batch(stream, src, trace, workdir: Path):
    env = execute.child_env(src)
    setups = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import cullis; print(cullis.__file__)"],
                              env=env, capture_output=True, text=True, timeout=execute.CLI_TIMEOUT_S)
        setups.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise ImportError(proc.stderr.strip() or f"exit code {proc.returncode}")
    cullis_file = proc.stdout.strip()
    if Path(cullis_file).resolve().parent != (src / "cullis").resolve():
        raise ImportError(f"cullis imported from {cullis_file}, not from {src}")
    dirs = execute.write_files(stream, workdir)
    tr = Tracer() if trace else NullTracer()
    reqs = [r for rnd in stream for r in rnd]

    def call(t):
        return lambda i, r: execute.run_cli(t, r, dirs[i], env)

    loop = closed_loop(reqs, call(tr), oracles.check_cli, tr)
    overhead = replay_overhead(stream, call, oracles.check_cli) if trace else None
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return loop, overhead, setups, 0, rss_kb, cullis_file


def end_to_end(loop: Loop, setups, rss_kb) -> dict:
    lat = loop.latency_ns
    values = {
        "throughput_jobs_per_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] / 1e6 if len(lat) > 1 else lat[0] / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(loop: Loop, overhead: float, stream, cold: int) -> dict:
    stats = loop.tracer.stats()
    work: dict[str, int] = {}
    for rnd in stream:
        for req in rnd:
            for key, val in req.get("work", {}).items():
                work[key] = work.get(key, 0) + val
    exhaustive_busy = stats.get("preserver.exhaustive", {}).get("busy_s", 0.0)
    values = {
        "lambdapoly.make_b.cold_calls": cold,
        "preserver.exhaustive.inputs": work.get("exhaustive_inputs", 0),
        "preserver.census.maps": work.get("census_maps", 0),
        "preserver.radical_enumerate.inputs": work.get("radical_inputs", 0),
        "work.row_subsets": work.get("row_subsets", 0),
        "work.column_subsets": work.get("column_subsets", 0),
        "cli.known_defects": loop.defects,
        "job.calls": stats["job"]["calls"],
        "preserver.exhaustive.inputs_per_s":
            work.get("exhaustive_inputs", 0) / exhaustive_busy if exhaustive_busy else 0.0,
        "job.self_s": stats["job"]["busy_s"],
        "trace.overhead_pct": overhead,
    }
    for site in SITES:
        s = stats.get(site, {"calls": 0, "busy_s": 0.0, "p50_ms": 0.0})
        for key in ("calls", "busy_s", "p50_ms"):
            values[f"{site}.{key}"] = s[key]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_names()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Run one seeded cullis benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "cullis" / "__init__.py").is_file():
        print(f"perfbench: no cullis package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    stream = gen.generate(args.workload, args.seed, rounds)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        if args.workload == "cli-batch":
            measured = run_cli_batch(stream, src, args.trace, workdir)
        else:
            measured = run_inprocess(stream, src, args.trace)
    except ImportError as exc:
        print(f"perfbench: cannot import cullis from {src}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop, overhead, setups, cold, rss_kb, cullis_file = measured

    attempted, failed = len(loop.results), len(loop.failures)
    meta = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds, "samples": attempted,
        "failed": failed, "known_defects": loop.defects,
        "error_rate": (failed + loop.defects) / attempted,
        "digest": digest(loop.results), "cullis_file": cullis_file,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
    }
    for idx, why in loop.failures[:20]:
        print(f"perfbench: request {idx} failed: {why}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(loop, overhead, stream, cold)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"meta": meta, "spans": loop.tracer.spans}))
        meta["trace_file"] = str(trace_file.relative_to(root))
    else:
        metrics = end_to_end(loop, setups, rss_kb)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
