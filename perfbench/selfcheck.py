"""Smoke and planted-fault checks for the benchmark itself.

Usage (from the root of a source checkout): python3 perfbench/selfcheck.py

Runs every workload at the SMOKE sizes, traced, and requires every metric
that BENCHMARK.json names to come out as a number, and the untraced run
to emit exactly the end-to-end metrics. Then plants two faults into
analytic_sweep, one at a time: a solver that reports a wrong mu_s, and a
solver that raises. Each must raise failed_frac above the clean run's and
make the run incorrect. Exits 1 on the first check that fails.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys

from run import ROOT, bench, load_package


def fail(message: str) -> int:
    print(f"selfcheck FAILED: {message}")
    return 1


def planted(sa, attr: str, fault):
    """Run analytic_sweep at SMOKE sizes with softaccess.cli.<attr> replaced by fault(original)."""
    from workloads import SMOKE

    original = getattr(sa.cli, attr)
    setattr(sa.cli, attr, fault(original))
    try:
        return bench("analytic_sweep", 1, 0.01, False, SMOKE)
    finally:
        setattr(sa.cli, attr, original)


def main() -> int:
    sa = load_package()
    from workloads import SMOKE

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    clean = {}
    for w in spec["workloads"]:
        result, record = bench(w["name"], 1, 0.01, True, SMOKE)
        missing = [n for n in names
                   if not isinstance(record["metrics"].get(n), (int, float))
                   or not math.isfinite(record["metrics"][n])]
        if missing:
            return fail(f"{w['name']} did not emit {missing}")
        if sorted(result["metrics"]) != sorted(m["name"] for m in spec["per_layer"]):
            return fail(f"{w['name']} traced result holds {sorted(result['metrics'])}")
        clean[w["name"]] = record["metrics"]["failed_frac"]
        print(f"smoke {w['name']}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")

    result, record = bench("analytic_sweep", 1, 0.01, False, SMOKE)
    if sorted(result["metrics"]) != sorted(m["name"] for m in spec["end_to_end"]):
        return fail(f"untraced result holds {sorted(result['metrics'])}")
    if not result["correct"] or result["failed"]:
        return fail(f"clean analytic_sweep failed: {record['breaches']}")

    def wrong_mu_s(solver):
        def solve(*args, **kwargs):
            res = solver(*args, **kwargs)
            return dataclasses.replace(res, objective=res.objective * (1.0 + 1e-6))
        return solve

    def raises(solver):
        def solve(*args, **kwargs):
            raise RuntimeError("planted fault")
        return solve

    for label, attr, fault in (("wrong mu_s", "solve_nofb", wrong_mu_s),
                               ("exception", "solve_feedback", raises)):
        result, record = planted(sa, attr, fault)
        frac = record["metrics"]["failed_frac"]
        print(f"planted {label}: correct={result['correct']} failed_frac={frac:.3f}")
        if result["correct"] or not frac > clean["analytic_sweep"]:
            return fail(f"planted {label} left failed_frac at {frac}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
