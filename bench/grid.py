"""Time the grid_search oracle on oracle_check's networks and record it in a BENCH json.

Usage (from the root of a source checkout):

    python3 bench/grid.py --side change --out BENCH_7.json
    python3 bench/grid.py --side parent --src /path/to/other/checkout/src \
        --out BENCH_7.json

It draws the 30 networks of the oracle_check workload for seed 1
(perfbench/workloads.py's sample_networks at its FULL sizes, n
alternating 2 and 3 energy bins) and runs grid_search on each for both
soft schemes at the workload's grid step, as that workload does. After
one untimed warm-up pass it times five passes. For each pass and each n
it records the wall seconds, the minor page faults and the system time
(getrusage ru_minflt and ru_stime) of that n's searches; the record keeps
the median of each over the passes, plus a sha256 of every result so two
sides can be checked for equal outputs. The result goes under
sides[<side>] of the --out file, keeping the other sides already there.
The process pins itself to one allowed CPU before it imports numpy.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
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
REPEAT = 5
SEED = 1  # oracle_check seed of the networks


def search_all(sa, cases, step):
    """grid_search on every (cfg, sensing) for both soft schemes; the results in order."""
    out = []
    for cfg, sensing in cases:
        for scheme in (sa.Scheme.NO_FEEDBACK, sa.Scheme.FEEDBACK):
            out.append(sa.grid_search(cfg, sensing, scheme, step=step))
    return out


def digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(b"none" if res is None else res[0].tobytes() + repr(res[1]).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", required=True, help="name of this record, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the softaccess package to time")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to record into; other entries in it are kept")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(1, str(ROOT))
    sa = importlib.import_module("softaccess")
    workloads = importlib.import_module("perfbench.workloads")
    step = workloads.FULL.grid_step

    by_n = {}
    for net in workloads.sample_networks(SEED, workloads.FULL.networks):
        cfg = sa.NetworkConfig(**net["network"])
        sensing = sa.default_sensing(cfg, n=net["n"], idle_tail=net["idle_tail"])
        by_n.setdefault(net["n"], []).append((cfg, sensing))

    results = {n: search_all(sa, cases, step) for n, cases in sorted(by_n.items())}  # warm-up
    passes = {n: [] for n in by_n}
    for _ in range(REPEAT):
        for n, cases in sorted(by_n.items()):
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            search_all(sa, cases, step)
            seconds = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            passes[n].append({"seconds": seconds,
                              "minflt": after.ru_minflt - before.ru_minflt,
                              "stime_s": after.ru_stime - before.ru_stime})

    record = {}
    for n in sorted(by_n):
        record[f"n{n}"] = {
            "searches": 2 * len(by_n[n]),
            **{key: statistics.median(p[key] for p in passes[n]) for key in passes[n][0]},
            "sha256": digest(results[n]),
        }
    record["total"] = {key: sum(record[f"n{n}"][key] for n in by_n)
                       for key in ("searches", "seconds", "minflt", "stime_s")}
    print(json.dumps(record), flush=True)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench.setdefault("machine", {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    })
    bench.setdefault("sides", {})[args.side] = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": SEED,
        "step": step,
        "repeat": REPEAT,
        "grid_search": record,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
