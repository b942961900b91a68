"""Run the benchmark in alternating pairs on two checkouts and record the comparison.

Usage (from the root of a source checkout):

    python3 bench/pairs.py --parent /path/to/parent/checkout --change . \
        --workload oracle_check --out BENCH_4.json

Each of ten pairs, i = 0..9, runs the BENCHMARK.json command untraced
for its run_seconds on seed i + 1, once in each checkout through that
checkout's own perfbench/steady.py, parent first on even i and change
first on odd i, so slow drift of the machine falls on both sides alike. For every end-to-end
metric of BENCHMARK.json it records each side's median and quartiles and
how many pairs the change won (ties count for neither), plus each run's
correct/attempted/failed, the wall time of its first timed repetition
(`first_wall_s`, which pays for any import the package defers to first use),
its number of timed repetitions and the minor page faults of its child
processes (`minor_faults`, the getrusage(RUSAGE_CHILDREN) delta over the
run), with each side's quartiles of the faults per repetition. A run
repeats its workload for a fixed time, so a faster run takes more faults;
per repetition, the faults tell a move of the heap apart from a change of
the code: code that hands its heap back to the OS and faults it in again
reads slower with more faults per repetition. The result goes under
end_to_end[W] of the --out file, keeping the rest of the file.

An A/A pair measures the noise floor: pass two copies of one commit, e.g.

    git clone -q . /tmp/a && git clone -q . /tmp/b
    python3 bench/pairs.py --parent /tmp/a --change /tmp/b \
        --workload mc_validate --out aa.json
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def load_steady(side: str, checkout: Path):
    """perfbench/steady.py of one checkout; its run_once runs that checkout's benchmark."""
    spec = importlib.util.spec_from_file_location(
        f"steady_{side}", checkout.resolve() / "perfbench" / "steady.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True, type=Path,
                        help="JSON file to record into; other entries in it are kept")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    steady = {"parent": load_steady("parent", args.parent),
              "change": load_steady("change", args.change)}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        seed = i + 1
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            result, record = steady[side].run_once(command, args.workload, seed,
                                                   spec["run_seconds"], 0)
            faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
            runs[side].append({
                "seed": seed, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                **{name: m["value"] for name, m in result["metrics"].items()},
                "first_wall_s": record["manifest"]["walls_s"][0],
                "repetitions": len(record["manifest"]["walls_s"]), "minor_faults": faults})
            print(side, json.dumps(runs[side][-1]), flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": quartiles(parent), "change": quartiles(change),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": PAIRS,
        }
    faults = {side: quartiles([r["minor_faults"] / r["repetitions"] for r in runs[side]])
              for side in runs}
    bench = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    bench.setdefault("end_to_end", {})[args.workload] = {
        "run_seconds": spec["run_seconds"], "summary": summary,
        "minor_faults_per_repetition": faults,
        "runs": runs,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    for name, s in summary.items():
        print(f"{args.workload} {name}: parent {s['parent']['median']:.4g} "
              f"change {s['change']['median']:.4g} {s['unit']}, "
              f"change won {s['change_wins']}/{s['pairs']}")
    print(f"{args.workload} minor faults per repetition: parent {faults['parent']['median']:.0f} "
          f"change {faults['change']['median']:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
