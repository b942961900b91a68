"""Steadiness check for the benchmark: run-to-run spread and exact counts.

Usage (from the root of a source checkout):

    python3 perfbench/steady.py --runs 10 [--workloads analytic_sweep,...] [--exact]

For each workload, runs the benchmark untraced once per seed (1..runs)
and prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles over the median. A spread above the
metric's bound in BENCHMARK.json fails the check (setup_s is reported,
not judged). With --exact it also makes two traced runs on seed 1 and
requires every count metric (unit `count`), every CSV digest and the
attempted and failed operation counts to repeat exactly. Exits 1 when a check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(command, workload: str, seed: int, seconds: int, trace: int):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    return json.loads(lines[-1]), record


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--exact", action="store_true")
    args = parser.parse_args(argv)
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.runs + 1):
            result, _ = run_once(command, workload, seed, spec["run_seconds"], 0)
            line = []
            for name, v in values.items():
                v.append(result["metrics"][name]["value"])
                line.append(f"{name}={v[-1]:.5g}")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {' '.join(line)}", flush=True)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            s = spread(v) if len(v) >= 2 else 0.0
            judged = m["name"] != "setup_s"
            bad = judged and s > m["bound"]
            ok &= not bad
            print(f"{workload} {m['name']}: median {statistics.median(v):.6g} {m['unit']}, "
                  f"spread {s:.4f} (bound {m['bound']}, a third {m['bound'] / 3:.4f})"
                  f"{' FAIL' if bad else ''}", flush=True)
        if args.exact:
            counts = [s["name"] for s in spec["per_layer"] if s["unit"] == "count"]
            (r1, rec1), (r2, rec2) = (run_once(command, workload, 1, spec["run_seconds"], 1)
                                      for _ in range(2))
            moved = [n for n in counts if r1["metrics"][n]["value"] != r2["metrics"][n]["value"]]
            for name in moved:
                print(f"{workload} {name}: {r1['metrics'][name]['value']} then "
                      f"{r2['metrics'][name]['value']} FAIL")
            for key in ("attempted", "failed"):
                if r1[key] != r2[key]:
                    moved.append(key)
                    print(f"{workload} {key}: {r1[key]} then {r2[key]} FAIL")
            same = not moved and rec1["manifest"]["csv_sha256"] == rec2["manifest"]["csv_sha256"]
            ok &= same
            print(f"{workload}: {len(counts)} counts, attempted, failed and CSV digests "
                  f"{'repeat exactly' if same else 'DIFFER'}; traced correct "
                  f"{r1['correct']}/{r2['correct']}; overhead "
                  f"{r1['metrics']['trace.overhead_s']['value']:.3g} s", flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
