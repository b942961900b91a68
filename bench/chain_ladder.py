"""Time the chain oracle up a load-ratio ladder and record it in a BENCH json.

Usage (from the root of a source checkout):

    python3 bench/chain_ladder.py --side change --out BENCH_2.json
    python3 bench/chain_ladder.py --side parent --src /path/to/other/checkout/src \
        --out BENCH_2.json

For each psi on the ladder it solves numeric_distribution on
chain_params_from_rates(0.2, 0.75, lambda_p) at K = default_truncation(psi)
and records the median seconds over five solves, K and the largest
entrywise gap to closed_form_distribution, after one untimed warm-up
solve on the first rung. A rung that raises is recorded
once as a failure with its time to failure. The result goes under
sides[<side>] of the --out file, keeping the other sides already there,
so two checkouts of the package can be compared on one machine. The ladder's
lambda_p comes from perfbench/workloads.py. The process pins itself to
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
LADDER = (0.5, 0.9, 0.95, 0.98, 0.985, 0.99, 0.995, 0.999)
GAMMA_P, DELTA = 0.2, 0.75
REPEAT = 5


def time_rung(sa, ladder_lambda, psi: float, repeat: int) -> dict:
    lam = ladder_lambda(psi, GAMMA_P, DELTA)
    params = sa.chain_params_from_rates(GAMMA_P, DELTA, lam)
    K = sa.default_truncation(params.psi)
    rung = {"psi": psi, "lambda_p": lam, "K": K}
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        try:
            numeric = sa.numeric_distribution(params, lam, K=K)
        except (ArithmeticError, ValueError) as exc:
            rung.update(status="failed", error=repr(exc),
                        seconds=time.perf_counter() - start)
            return rung
        times.append(time.perf_counter() - start)
    closed = sa.closed_form_distribution(params, lam, K=K)
    gap = max(float(abs(closed.pi - numeric.pi).max()),
              float(abs(closed.eps - numeric.eps).max()))
    rung.update(status="ok" if gap <= 1e-9 else "inaccurate",
                seconds=statistics.median(times), gap=gap)
    return rung


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
    sys.path.insert(1, str(ROOT / "perfbench"))
    from workloads import ladder_lambda  # imports the softaccess loaded above

    time_rung(sa, ladder_lambda, LADDER[0], 1)  # lazy imports and first-call set-up stay out of the record
    rungs = []
    for psi in LADDER:
        rung = time_rung(sa, ladder_lambda, psi, REPEAT)
        print(json.dumps(rung), flush=True)
        rungs.append(rung)

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
        "chain.numeric_distribution": rungs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
