"""Time the slot simulator per scheme and record microseconds per slot in a BENCH json.

Usage (from the root of a source checkout):

    python3 bench/simulator.py --side change --out BENCH_6.json
    python3 bench/simulator.py --side parent --src /path/to/other/checkout/src \
        --out BENCH_6.json

At the reference network (NetworkConfig(), lambda_p = 0.1, default
sensing with four bins) it takes each scheme's optimal policy from
`optimize.evaluate` and times `run` for fb, nofb, hard and genie in two
shapes: the mc_validate shape (20 replications of 5,000 slots, 500 of
them warm-up) and one 10^6-slot replication with 10,000 warm-up slots.
It records the median seconds over the shape's repeats, microseconds per
simulated slot and the sha256 of the report's repr, after one untimed
2,000-slot warm-up run of each scheme. The result goes under
sides[<side>] of the --out file, keeping the other sides already there,
so two checkouts of the package can be compared on one machine. The
process pins itself to one allowed CPU before it imports numpy.
"""
from __future__ import annotations

import argparse
import hashlib
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

ROOT = Path(__file__).resolve().parent.parent
SCHEMES = ("fb", "nofb", "hard", "genie")
# name: (slots, warmup, replications, timed repeats)
SHAPES = {
    "mc_validate": (5_000, 500, 20, 5),
    "long": (1_000_000, 10_000, 1, 3),
}


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

    cfg = sa.NetworkConfig()
    sensing = sa.default_sensing(cfg)
    cases = {}
    for name in SCHEMES:
        scheme = sa.Scheme(name)
        point = sa.optimize.evaluate(cfg, sensing, scheme)
        cases[name] = (point.sensing, point.result.policy, scheme)
        # lazy imports and first-call set-up stay out of the record
        sa.run(cfg, point.sensing, point.result.policy,
               sa.SimConfig(slots=2_000, warmup=0, replications=1, scheme=scheme))

    record = {}
    for shape, (slots, warmup, replications, repeat) in SHAPES.items():
        sim_slots = slots * replications
        entry = {"slots": slots, "warmup": warmup, "replications": replications,
                 "repeat": repeat, "schemes": {}}
        for name, (case_sensing, policy, scheme) in cases.items():
            sim = sa.SimConfig(slots=slots, warmup=warmup, replications=replications,
                               seed=1, scheme=scheme)
            times = []
            for _ in range(repeat):
                start = time.perf_counter()
                report = sa.run(cfg, case_sensing, policy, sim)
                times.append(time.perf_counter() - start)
            seconds = statistics.median(times)
            entry["schemes"][name] = {
                "seconds": seconds, "us_per_slot": seconds / sim_slots * 1e6,
                "report_sha256": hashlib.sha256(repr(report).encode()).hexdigest(),
            }
            print(json.dumps({"shape": shape, "scheme": name,
                              "us_per_slot": entry["schemes"][name]["us_per_slot"]}), flush=True)
        record[shape] = entry

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench.setdefault("machine", {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    })
    bench.setdefault("sides", {})[args.side] = {
        "numpy": np.__version__,
        "simulator": record,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
