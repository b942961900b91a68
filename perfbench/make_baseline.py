"""Write baseline_mu_s.json: every analytic_sweep row as the current source computes it.

Usage: python3 perfbench/make_baseline.py

The committed file was written at the seed commit; analytic_sweep fails a
row whose mu_s falls below it by more than 1e-9 relative. Rewrite it only
to record a commit whose optimum is at least as good on every row.
"""
import hashlib
import json
import shutil
import sys

from run import ROOT, load_package


def main() -> int:
    load_package()
    from workloads import FULL, AnalyticSweep

    workdir = ROOT / ".perfbench_out" / "baseline-work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = AnalyticSweep(0, workdir, FULL)
    try:
        results = workload.execute()
        mu_s, digests = {}, {}
        for key, code, exc, rows in results:
            if exc is not None or code != 0:
                raise SystemExit(f"{key}: exit {code}, {exc!r}")
            table = mu_s.setdefault(key, {})
            for row in rows:
                table.setdefault(repr(row["sweep_value"]), {})[row["scheme"]] = (
                    row["mu_s"] if row["feasible"] else None)
            digests[key] = hashlib.sha256((workdir / f"{key}.csv").read_bytes()).hexdigest()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    data = {"csv_sha256": digests, "mu_s": mu_s}
    (ROOT / "perfbench" / "baseline_mu_s.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
