"""softaccess benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's `src/`; without it the
benchmark exits with a nonzero code and prints no result. Workloads and metrics
are listed in BENCHMARK.json and explained in perfbench/README.md.

The process pins itself to one of its allowed CPUs (see pin_to_one_cpu).
--trace 0 repeats the workload untraced until half a repetition more
would reach --seconds and reports the end-to-end metrics. --trace 1 alternates an untraced and a
traced repetition and reports the per-layer metrics; the difference
between the two medians is the tracing overhead. Every repetition is
checked. The last stdout line is the JSON result; the line before it,
prefixed `record `, holds the run manifest and every metric computed.
Spans of the last traced repetition are written to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5
# stop starting repetitions when the next one might end past this
TIME_CAP_S = 150.0


def pin_to_one_cpu():
    """Keep this process, its threads and its children on one of its allowed CPUs.

    The CLI's pool threads take turns holding the GIL; on two cores the
    hand-over bounces between them and its cost follows the other tenants'
    load, which spread run-to-run times about twice as wide as on one core.
    Does nothing where the platform cannot set affinity.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_package():
    """Import softaccess from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "softaccess" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import softaccess

    if Path(softaccess.__file__).resolve().parent != (src / "softaccess").resolve():
        raise SystemExit(f"perfbench: imported softaccess from {softaccess.__file__}, not {src}")
    return softaccess


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def time_setup(workload) -> float:
    """Median wall time of fresh interpreters that import the package and validate the inputs."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), workload.name,
            *workload.config_files()]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed ({proc.returncode}): {proc.stderr}")
    return statistics.median(times)


def git_commit():
    """HEAD commit read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "softaccess").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tracer_hooks(sa):
    def iterations(args, kwargs, result):
        return {"iterations": result.iterations} if result is not None else {}

    def numeric(args, kwargs, result):
        params = args[0] if args else kwargs["params"]
        K = args[2] if len(args) > 2 else kwargs.get("K")
        return {"psi": params.psi, "K": K}

    def simulation(args, kwargs, result):
        policy = args[2] if len(args) > 2 else kwargs["policy"]
        sim = (args[3] if len(args) > 3 else kwargs.get("sim")) or sa.SimConfig()
        scheme = sim.scheme or policy.scheme
        return {"scheme": scheme.value, "slots": sim.slots * sim.replications}

    return {
        "optimize.solve_feedback": iterations,
        "optimize.solve_nofb": iterations,
        "chain.numeric_distribution": numeric,
        "simulate.run": simulation,
    }


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced repetition."""
    from workloads import LADDER

    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    name, dur, self_s = a["name"], a["dur_s"], a["self_s"]
    errors = np.zeros(name.size, dtype=bool)
    errors[tracer.errors] = True

    def mask(span):
        return name == ids.get(span, -1)

    def notes(span):
        return [tracer.notes[i] for i in np.flatnonzero(mask(span)) if i in tracer.notes]

    m = {}
    for layer in LAYERS:
        in_layer = np.isin(name, [i for n, i in ids.items() if n.startswith(layer + ".")])
        m[f"{layer}.calls"] = int(in_layer.sum())
        m[f"{layer}.self_s"] = float(self_s[in_layer].sum())
    for span in ("model.bin_probabilities", "rates.log_secondary_throughput_fb",
                 "optimize.solve_feedback", "optimize.solve_nofb",
                 "optimize.baseline_hard_decision", "optimize.grid_search",
                 "chain.numeric_distribution", "chain.closed_form_distribution",
                 "chain.delay_fb", "cli.sweep_rows", "cli.run_sweep"):
        sel = mask(span)
        m[f"{span}.calls"] = int(sel.sum())
        m[f"{span}.self_s"] = float(self_s[sel].sum())
    for span in ("optimize.solve_feedback", "optimize.solve_nofb"):
        ms = dur[mask(span)] * 1e3
        m[f"{span}.iterations"] = int(sum(n.get("iterations", 0) for n in notes(span)))
        m[f"{span}.p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
        m[f"{span}.p90_ms"] = float(np.percentile(ms, 90)) if ms.size else 0.0

    nd = "chain.numeric_distribution"
    m[f"{nd}.failed"] = int((mask(nd) & errors).sum())
    m[f"{nd}.max_K"] = int(max((n["K"] for n in notes(nd) if n["K"] is not None), default=0))
    nd_idx = np.flatnonzero(mask(nd))
    for psi in LADDER:
        m[f"{nd}.psi_{psi}_s"] = float(sum(
            dur[i] for i in nd_idx if abs(tracer.notes[i]["psi"] - psi) < 1e-9))

    run_idx = np.flatnonzero(mask("simulate.run"))
    for scheme in ("fb", "nofb"):
        mine = [i for i in run_idx if tracer.notes[i]["scheme"] == scheme]
        slots = sum(tracer.notes[i]["slots"] for i in mine)
        m[f"simulate.run.{scheme}.calls"] = len(mine)
        m[f"simulate.run.{scheme}.slots"] = int(slots)
        m[f"simulate.run.{scheme}.us_per_slot"] = float(dur[mine].sum() / slots * 1e6) if slots else 0.0

    sweeps = np.flatnonzero(mask("cli.sweep_rows"))
    m["cli.threads"] = max((np.unique(a["thread"][a["parent"] == i]).size for i in sweeps),
                           default=0)
    union = float(a["child_union_s"][sweeps].sum())
    m["cli.sweep_rows.child_overlap"] = float(a["child_sum_s"][sweeps].sum()) / union if union else 0.0
    m["cli.validate_config_s"] = float(dur[mask("cli.validate_config")].sum())
    m["cli.write_s"] = m.pop("cli.run_sweep.self_s")
    return m


def measure(sa, workload, seconds: float, trace: bool):
    """Repeat the workload; return untraced walls, outcomes and traced metrics."""
    tracer = Tracer(tracer_hooks(sa)) if trace else None
    walls, traced_walls, outcomes, layer = [], [], [], []
    started = prev = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = workload.execute()
        walls.append(time.perf_counter() - t0)
        outcomes.append(workload.check(results))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                t1 = time.perf_counter()
                results = workload.execute()
                traced_walls.append(time.perf_counter() - t1)
            finally:
                tracer.uninstall()
            outcomes.append(workload.check(results))
            layer.append(layer_metrics(tracer))
        now = time.perf_counter()
        elapsed, last, prev = now - started, now - prev, now
        # stop once half a repetition more would reach --seconds
        enough = len(walls) >= workload.min_repetitions and elapsed + last / 2 >= seconds
        if enough or elapsed + last > TIME_CAP_S:
            break
    return walls, traced_walls, outcomes, layer, tracer


def summarize(walls, traced_walls, outcomes, layer, count_names):
    """End-to-end and per-layer metrics, plus any counts that did not repeat."""
    med = statistics.median
    untraced = outcomes[::2] if traced_walls else outcomes
    m = {
        "wall_s": med(walls),
        "rows_per_s": med(o.rows / w for o, w in zip(untraced, walls)),
    }
    # every repetition attempts the same operations: count each once, and
    # count it failed if it failed in any repetition
    attempted = max(o.attempted for o in outcomes)
    failed = len(set().union(*(o.failed_ops for o in outcomes)))
    m["failed_frac"] = failed / attempted if attempted else 1.0
    for key in ("sim_fb_slots_per_s", "sim_nofb_slots_per_s"):
        m[key] = med(o.extra.get(key, 0.0) for o in untraced)
    m["simulate.max_abs_z"] = max(o.extra.get("max_abs_z", 0.0) for o in outcomes)
    unsteady = []
    if layer:
        for key in layer[0]:
            values = [lm[key] for lm in layer]
            if key in count_names:
                if len(set(values)) > 1:
                    unsteady.append(f"{key} took values {values} across traced repetitions")
                m[key] = values[0]
            else:
                m[key] = med(values)
        m["trace.overhead_s"] = med(traced_walls) - med(walls)
    return m, attempted, failed, unsteady


def bench(workload_name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Set up, measure and check one workload; return (result, record)."""
    sa = load_package()
    import scipy

    from workloads import FULL, WORKLOADS

    end_to_end, per_layer = metric_specs()
    specs = per_layer if trace else end_to_end
    count_names = {s["name"] for s in per_layer if s["unit"] == "count"}

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[workload_name](seed, workdir, sizes or FULL)
    try:
        setup_s = time_setup(workload)
        walls, traced_walls, outcomes, layer, tracer = measure(sa, workload, seconds, trace)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, attempted, failed, unsteady = summarize(
        walls, traced_walls, outcomes, layer, count_names)
    metrics["setup_s"] = setup_s
    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.dump(out_dir / f"spans-{tag}.npz")
    breaches = [b for o in outcomes for b in o.breaches] + unsteady
    manifest = {
        "workload": workload_name, "seed": seed, "trace": int(trace),
        "config_hash": workload.config_hash(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel": "numba" if getattr(sa.simulate, "_sim_chunk_jit", None) is not None else "python",
        "nproc": os.cpu_count(),
        "cpu_affinity": (sorted(os.sched_getaffinity(0))
                         if hasattr(os, "sched_getaffinity") else None),
        "cli_pool_observed": metrics.get("cli.threads"),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "walls_s": walls, "traced_walls_s": traced_walls,
        "csv_sha256": outcomes[-1].extra.get("csv_sha256", {}),
    }
    metrics["simulate.numba_kernel"] = int(manifest["kernel"] == "numba")
    record = {"manifest": manifest, "metrics": metrics, "attempted": attempted,
              "failed": failed, "breaches": breaches[:50],
              "counted_failures": sorted({n for o in outcomes for n in o.notes})[:50]}
    (out_dir / f"record-{tag}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": not breaches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analytic_sweep", "mc_validate", "oracle_check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    pin_to_one_cpu()
    result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    end_to_end, per_layer = metric_specs()
    units = {s["name"]: s["unit"] for s in end_to_end + per_layer}
    metrics = record["metrics"]
    for key in sorted(metrics):
        unit = units.get(key, "s" if key.endswith("_s") else "count")
        print(f"{key:48s} {metrics[key]:.6g} {unit}")
    print(f"{'attempted':48s} {record['attempted']}")
    print(f"{'failed':48s} {record['failed']}")
    for line in record["breaches"][:20] + record["counted_failures"][:20]:
        print(f"failure: {line}")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
