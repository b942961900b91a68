"""Time one layer of the package on the benchmark's traffic and record it in a BENCH json.

Usage (from the root of a source checkout):

    python3 bench/layers.py --layer simulator --side change --out BENCH_11.json
    python3 bench/layers.py --layer chain --side parent \
        --src /path/to/other/checkout/src --out BENCH_11.json

Layers, each recorded under its own key of sides[<side>] in the --out
file, so layers and sides recorded into one file merge and the rest of
the file is kept:

- chain (`chain.numeric_distribution`): numeric_distribution on
  chain_params_from_rates(0.2, 0.75, lambda_p) up the psi ladder
  0.5-0.999 (longer than oracle_check's), at K = default_truncation(psi),
  lambda_p from perfbench's ladder_lambda. Per rung: K, the seconds, and
  the largest entrywise gap to closed_form_distribution; a rung that
  raises is recorded as failed with its time to failure. Medians of one
  rung move by up to +-30% from one process to the next on a 2-CPU host,
  so this layer cannot resolve a 10% per-rung change: a per-rung claim
  needs both packages timed alternately inside one process.
- grid (`grid_search`): grid_search for both soft schemes on the
  oracle_check networks of seed 1 at the workload's grid step, grouped
  by bin count n. Per n: the seconds, minor page faults and system time
  (getrusage) of that n's searches, and a sha256 of every result.
- optimizer (`optimize`): solve_feedback, solve_nofb and
  baseline_hard_decision per call at every analytic_sweep lambda (the
  reference network otherwise) and bin count.
  Per point: the seconds, objective, feasibility and evaluation count;
  per bin count, the sum of the seconds.
- simulator (`simulator`): `run` for each scheme, with the policy
  `optimize.evaluate` gives at the reference network, in the mc_validate
  shape and in Criterion 1's shape of one 10^6-slot replication; and
  `run` under feedback in the `stressed_*` shapes, on a network whose
  busy slots the secondaries nearly always disturb (M_p = 1, M_s = 5,
  r_ps = 300, lambda_p = 0.45, every a_k = 1, idle_tail 0.01), as
  997 slots x 20 replications, 4,096 x 5 and 262,144 x 1, so each chunk
  holds 997, 4,096 and 131,072 slots. Per shape and scheme: the seconds,
  microseconds per simulated slot, minor page faults and a sha256 of the
  report's repr.

Inputs come from perfbench/workloads.py at its FULL sizes. Every timed
case runs once untimed, then `repeat` times, and the record keeps the
median of each measure. The process pins itself to one allowed CPU before
it imports numpy.
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
LADDER = (0.5, 0.9, 0.95, 0.98, 0.985, 0.99, 0.995, 0.999)
GRID_SEED = 1  # oracle_check seed of the networks
# Criterion 1's simulation: (slots, warmup, replications, timed repeats)
LONG_SHAPE = (1_000_000, 10_000, 1, 3)
# tests/test_simulate.py's rare_first_ok network, whose feedback departures
# take the most fixpoint passes, in one chunk per replication of 997 and
# 4,096 slots and two chunks of 131,072
STRESSED_NETWORK = dict(M_p=1, M_s=5, r_ps=300.0, lambda_p=0.45)
STRESSED_SHAPES = {"stressed_997": (997, 0, 20, REPEAT), "stressed_4096": (4_096, 0, 5, REPEAT),
                   "stressed_131072": (262_144, 0, 1, REPEAT)}


def measure(call, repeat: int = REPEAT):
    """Medians of seconds, minor faults and system time over `repeat` calls, and the last result.

    One untimed call comes first, so lazy imports and first-call set-up
    stay out of the record.
    """
    result = call()
    runs = []
    for _ in range(repeat):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        runs.append({"seconds": seconds, "minflt": after.ru_minflt - before.ru_minflt,
                     "stime_s": after.ru_stime - before.ru_stime})
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}, result


def chain(sa, workloads):
    gamma_p, delta = 0.2, 0.75
    rungs = []
    for psi in LADDER:
        lam = workloads.ladder_lambda(psi, gamma_p, delta)
        params = sa.chain_params_from_rates(gamma_p, delta, lam)
        K = sa.default_truncation(params.psi)
        rung = {"psi": psi, "lambda_p": lam, "K": K}
        start = time.perf_counter()
        try:
            medians, numeric = measure(lambda: sa.numeric_distribution(params, lam, K=K))
        except (ArithmeticError, ValueError) as exc:
            rung.update(status="failed", error=repr(exc), seconds=time.perf_counter() - start)
        else:
            closed = sa.closed_form_distribution(params, lam, K=K)
            gap = max(float(abs(closed.pi - numeric.pi).max()),
                      float(abs(closed.eps - numeric.eps).max()))
            rung.update(status="ok" if gap <= 1e-9 else "inaccurate",
                        seconds=medians["seconds"], gap=gap)
        print(json.dumps(rung), flush=True)
        rungs.append(rung)
    return "chain.numeric_distribution", {"repeat": REPEAT, "rungs": rungs}


def grid(sa, workloads):
    step = workloads.FULL.grid_step
    by_n = {}
    for net in workloads.sample_networks(GRID_SEED, workloads.FULL.networks):
        cfg = sa.NetworkConfig(**net["network"])
        sensing = sa.default_sensing(cfg, n=net["n"], idle_tail=net["idle_tail"])
        by_n.setdefault(net["n"], []).append((cfg, sensing))

    def search_all(cases):
        return [sa.grid_search(cfg, sensing, scheme, step=step) for cfg, sensing in cases
                for scheme in (sa.Scheme.NO_FEEDBACK, sa.Scheme.FEEDBACK)]

    record = {"seed": GRID_SEED, "step": step, "repeat": REPEAT}
    for n, cases in sorted(by_n.items()):
        medians, results = measure(lambda: search_all(cases))
        h = hashlib.sha256()
        for res in results:
            h.update(b"none" if res is None else res[0].tobytes() + repr(res[1]).encode())
        record[f"n{n}"] = {"searches": len(results), **medians, "sha256": h.hexdigest()}
    record["total"] = {key: sum(record[f"n{n}"][key] for n in by_n)
                       for key in ("searches", "seconds", "minflt", "stime_s")}
    print(json.dumps(record), flush=True)
    return "grid_search", record


def optimizer(sa, workloads):
    solvers = {"fb": sa.solve_feedback, "nofb": sa.solve_nofb, "hard": sa.baseline_hard_decision}
    record = {"repeat": REPEAT}
    for n in workloads.FULL.bins:
        points = []
        for i in workloads.FULL.lambda_steps:
            lam = i * 0.005
            cfg = sa.NetworkConfig(lambda_p=lam)
            sensing = sa.default_sensing(cfg, n=n)
            point = {"lambda_p": lam}
            for name, solver in solvers.items():
                medians, res = measure(lambda: solver(cfg, sensing))
                point[name] = {"seconds": medians["seconds"], "objective": res.objective,
                               "feasible": res.feasible, "iterations": res.iterations}
            points.append(point)
        totals = {name: sum(p[name]["seconds"] for p in points) for name in solvers}
        print(json.dumps({"n": n, "total_seconds": totals}), flush=True)
        record[f"n{n}"] = {"total_seconds": totals, "points": points}
    return "optimize", record


def simulator(sa, workloads):
    full = workloads.FULL
    cfg = sa.NetworkConfig()
    sensing = sa.default_sensing(cfg)
    reference = {}
    for name in workloads.SCHEMES:
        point = sa.optimize.evaluate(cfg, sensing, sa.Scheme(name))
        reference[name] = (cfg, point.sensing, point.result.policy)
    stressed = sa.NetworkConfig(**STRESSED_NETWORK)
    stressed_fb = {"fb": (stressed, sa.default_sensing(stressed, idle_tail=0.01),
                          sa.AccessPolicy((1.0,) * 4, sa.Scheme.FEEDBACK))}
    shapes = {"mc_validate": (reference, full.mc_slots, full.mc_warmup, full.mc_replications,
                              REPEAT),
              "long": (reference, *LONG_SHAPE),
              **{shape: (stressed_fb, *sizes) for shape, sizes in STRESSED_SHAPES.items()}}
    record = {}
    for shape, (cases, slots, warmup, replications, repeat) in shapes.items():
        entry = {"slots": slots, "warmup": warmup, "replications": replications,
                 "repeat": repeat, "schemes": {}}
        for name, (net, sens, policy) in cases.items():
            sim = sa.SimConfig(slots=slots, warmup=warmup, replications=replications,
                               seed=1, scheme=sa.Scheme(name))
            medians, report = measure(lambda: sa.run(net, sens, policy, sim), repeat)
            entry["schemes"][name] = {
                "seconds": medians["seconds"],
                "us_per_slot": medians["seconds"] / (slots * replications) * 1e6,
                "minflt": medians["minflt"],
                "report_sha256": hashlib.sha256(repr(report).encode()).hexdigest(),
            }
            print(json.dumps({"shape": shape, "scheme": name,
                              "us_per_slot": entry["schemes"][name]["us_per_slot"],
                              "minflt": medians["minflt"]}), flush=True)
        record[shape] = entry
    return "simulator", record


LAYERS = {f.__name__: f for f in (chain, grid, optimizer, simulator)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layer", required=True, choices=LAYERS)
    parser.add_argument("--side", required=True, help="name of this record, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the softaccess package to time")
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to record into; other entries in it are kept")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    sa = importlib.import_module("softaccess")
    sys.path.insert(1, str(ROOT))
    workloads = importlib.import_module("perfbench.workloads")  # imports the softaccess above
    key, record = LAYERS[args.layer](sa, workloads)

    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench.setdefault("machine", {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    })
    side = bench.setdefault("sides", {}).setdefault(args.side, {})
    side.update({"numpy": np.__version__, "scipy": scipy.__version__, key: record})
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
