"""Time the two soft-scheme optimizers per call and record them in a BENCH json.

Usage (from the root of a source checkout):

    python3 bench/optimizer.py --side change --out BENCH_3.json
    python3 bench/optimizer.py --side parent --src /path/to/other/checkout/src \
        --out BENCH_3.json

At every point of the analytic_sweep lambda grid (lambda_p = i * 0.005,
i = 0..50, the reference network otherwise) and for n = 2, 4 and 8
energy bins, it times solve_feedback and solve_nofb on
default_sensing(cfg, n) and records the median seconds per call over
five calls, the objective, feasibility and the optimizer's evaluation
count, after one untimed warm-up call of each. Per bin count it also
records the sum of the medians. The result goes under sides[<side>] of
the --out file, keeping the other sides already there, so two checkouts
of the package can be compared on one machine. The process pins itself to
one allowed CPU before it imports numpy.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

# Pin before importing numpy: sched_setaffinity(0, ...) pins only the
# calling thread, and a thread takes its creator's mask when it starts, so
# the BLAS threads numpy starts at import are pinned only if this runs first.
if __name__ == "__main__" and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
LAMBDAS = tuple(i * 0.005 for i in range(51))
BINS = (2, 4, 8)
REPEAT = 5


def time_solver(solver, cfg, sensing, repeat: int) -> dict:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        res = solver(cfg, sensing)
        times.append(time.perf_counter() - start)
    return {"seconds": statistics.median(times), "objective": res.objective,
            "feasible": res.feasible, "iterations": res.iterations}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, help="name of this record, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the softaccess package to time")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to record into; other entries in it are kept")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    sa = importlib.import_module("softaccess")
    solvers = {"fb": sa.solve_feedback, "nofb": sa.solve_nofb}

    warm_cfg = sa.NetworkConfig(lambda_p=LAMBDAS[1])
    warm_sensing = sa.default_sensing(warm_cfg, n=BINS[0])
    for solver in solvers.values():  # lazy imports and first-call set-up stay out of the record
        solver(warm_cfg, warm_sensing)

    record = {}
    for n in BINS:
        points = []
        for lam in LAMBDAS:
            cfg = sa.NetworkConfig(lambda_p=lam)
            sensing = sa.default_sensing(cfg, n=n)
            point = {"lambda_p": lam}
            for name, solver in solvers.items():
                point[name] = time_solver(solver, cfg, sensing, REPEAT)
            points.append(point)
        totals = {name: sum(p[name]["seconds"] for p in points) for name in solvers}
        print(json.dumps({"n": n, "total_seconds": totals}), flush=True)
        record[f"n{n}"] = {"total_seconds": totals, "points": points}

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench.setdefault("machine", {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    })
    bench.setdefault("sides", {})[args.side] = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeat": REPEAT,
        "optimize": record,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
