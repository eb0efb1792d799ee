"""What the layer benches share: two source trees, timed in alternating pairs.

A layer bench is a script in this directory, run as

    python bench/<layer>.py --before OLD/src --after src > BENCH_<layer>.json

It keeps only its own cases, its timed body and its counts.  `trees` parses
`--before` and `--after`, and the hidden `--time MODE` with which `child`
runs the script's timed body for MODE in a fresh process whose PYTHONPATH is
one tree.  `pairs` runs one child per tree per pair, the tree whose child
runs first alternating from pair to pair; `median` reads one side's results,
and `emit` writes the document with the `machine` block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("before", "after")


def trees(doc: str, bodies: dict | None = None) -> dict[str, str]:
    """The absolute `--before` and `--after` trees, by side.  With the hidden
    `--time MODE`, print what bodies[MODE]() returns as JSON and exit: that
    is the child that `child` starts."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--before", help="src directory of the old tree")
    ap.add_argument("--after", help="src directory of the new tree")
    if bodies:
        ap.add_argument("--time", choices=bodies, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if getattr(args, "time", None):
        print(json.dumps(bodies[args.time]()))
        raise SystemExit(0)
    if not (args.before and args.after):
        ap.error("--before and --after are both needed")
    return {side: os.path.abspath(getattr(args, side)) for side in SIDES}


def child(tree: str, mode: str) -> object:
    """What the running script's timed body for mode returns, run in a fresh
    process on the source tree `tree`."""
    env = dict(os.environ, PYTHONPATH=tree)
    proc = subprocess.run([sys.executable, os.path.abspath(sys.argv[0]), "--time", mode],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def pairs(count: int, run, first: int = 0) -> dict[str, list]:
    """run(side) for both sides in each of `count` pairs, numbered from
    `first`, the side that runs first alternating from pair to pair; the
    results by side, in the order they ran."""
    runs: dict[str, list] = {side: [] for side in SIDES}
    for pair in range(first, first + count):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(run(side))
    return runs


def median(results: list, read, digits: int) -> float:
    """The median of read(result) over one side's results, rounded."""
    return round(statistics.median(read(r) for r in results), digits)


def emit(layer: str, what: str, **rest) -> int:
    """Print the bench document: its layer, what it holds, the machine it
    ran on, then the bench's own fields."""
    print(json.dumps({
        "layer": layer,
        "what": what,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        **rest,
    }, indent=1))
    return 0
