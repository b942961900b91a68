"""Capture the outputs the package keeps bit-identical, and compare two captures.

Usage (from the root of a source checkout):

    python3 bench/identity.py --src /path/to/parent/checkout/src --out parent.json
    python3 bench/identity.py --out change.json --against parent.json

It imports softaccess from --src (default: this checkout's src/) and
records, each under its own key:

- for the four analytic_sweep configs (lambda = 0..0.25 step 0.005 at
  n = 2, 4, 8; M_s = 1..10 at lambda = 0.1), a fine lambda grid at n = 6
  and one small sim.* config: the resolved Experiment, the CLI exit code,
  the sha256 of the CSV and .gp files and the repr of every sweep row;
- on NETWORKS seeded random networks (n 1-8, M_s 1-10, lambda/delta_bar
  near 0, near 1 or uniform): repr of `evaluate` for all four schemes,
  plus `grid_search` (both soft schemes) where n <= 3;
- the `run` and `run_traced` reports and the sha256 of the trace bytes
  for fb, nofb, genie, hard and round-robin;
- the sha256 of the `--sim` CSV of each mc_validate invocation (fb and
  nofb apart) at seeds 1-3, through perfbench/workloads.py's own
  MCValidate at its FULL sizes;
- for each rung of oracle_check's psi ladder (perfbench/workloads.py's
  `ladder_lambda`, gamma_p = 0.2, delta = 0.75, FULL sizes): the sha256
  of the closed-form and of the numeric pi and eps at the rung's default
  truncation, `delay_fb` and the Little's-law delay, as oracle_check
  computes them.

An exception is recorded as its type and message. With --against FILE it
exits 1 when any key's value differs from FILE's, else 0. On a difference
it prints, for each top-level group (sweep/<config>, evaluate, grid,
run, run_traced, mc_validate, chain), how many of its keys differ, then names the
first key that differs, with both values.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
NETWORKS = 300
GRID_STEP = 0.02
_LAMBDAS = ", ".join(repr(i * 0.005) for i in range(51))
CONFIGS = {
    "n2": f"sensing.n = 2\nsweep.values = {_LAMBDAS}\n",
    "n4": f"sensing.n = 4\nsweep.values = {_LAMBDAS}\n",
    "n8": f"sensing.n = 8\nsweep.values = {_LAMBDAS}\n",
    "ms": "network.lambda_p = 0.1\nsweep.variable = M_s\nsweep.values = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n",
    "fine_n6": "sensing.n = 6\nsweep.start = 0\nsweep.stop = 0.25\nsweep.step = 0.0007\n",
    "sim": ("sweep.values = 0.02, 0.14\nnetwork.omega_p = 0.4, 0.3, 0.2, 0.05\n"
            "sim.slots = 3000\nsim.warmup = 300\nsim.replications = 2\nsim.seed = 7\n"),
}
MC_SEEDS = (1, 2, 3)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def group(key: str) -> str:
    """Top-level group of a key: sweep/<config> for the sweeps, else its first part."""
    parts = key.split("/")
    return "/".join(parts[:2]) if parts[0] == "sweep" else parts[0]


def capture(sa, workdir: Path) -> dict:
    record = {}

    def put(key, fn):
        try:
            record[key] = fn()
        except Exception as exc:  # an exception is an output too
            record[key] = f"raise {type(exc).__name__}: {exc}"

    # sweeps through the CLI, capturing the full-precision rows run_sweep returns
    orig_run_sweep = sa.cli.run_sweep
    captured = []

    def run_sweep(exp):
        rows = orig_run_sweep(exp)
        captured.append(rows)
        return rows

    sa.cli.run_sweep = run_sweep
    try:
        for key, text in CONFIGS.items():
            conf, out = workdir / f"{key}.conf", workdir / f"{key}.csv"
            conf.write_text(text, encoding="utf-8")
            put(f"sweep/{key}/experiment", lambda: repr(sa.validate_config(str(conf))))
            captured.clear()
            put(f"sweep/{key}/exit", lambda: sa.cli.main(
                ["sweep", "--config", str(conf), "--out", str(out)]))
            put(f"sweep/{key}/csv", lambda: sha(out.read_bytes()))
            put(f"sweep/{key}/gp", lambda: sha(out.with_suffix(".gp").read_bytes()))
            for row in captured[0] if captured else ():
                record[f"sweep/{key}/{row['sweep_value']!r}/{row['scheme']}"] = repr(row)
    finally:
        sa.cli.run_sweep = orig_run_sweep

    schemes = tuple(sa.Scheme)
    rng = np.random.default_rng(20120408)
    for i in range(NETWORKS):
        M_p = int(rng.integers(1, 7))
        M_s = int(rng.integers(1, 11))
        n = int(rng.integers(1, 9))
        probe = sa.NetworkConfig(M_p=M_p, M_s=M_s, r_ps=float(rng.uniform(100.0, 250.0)))
        delta_bar = (1.0 - sa.primary_outage(probe)) / M_p
        kind = i % 3
        if kind == 0:
            ratio = float(10.0 ** rng.uniform(-9.0, -3.0))
        elif kind == 1:
            ratio = 1.0 - float(10.0 ** rng.uniform(-9.0, -3.0))
        else:
            ratio = float(rng.uniform(0.0, 1.0))
        cfg = replace(probe, lambda_p=ratio * delta_bar)
        sensing = sa.default_sensing(cfg, n=n, idle_tail=float(rng.uniform(0.02, 0.5)))
        for scheme in schemes:
            put(f"evaluate/{i}/{scheme.value}",
                lambda: repr(sa.optimize.evaluate(cfg, sensing, scheme)))
        if n <= 3:
            for scheme in (sa.Scheme.FEEDBACK, sa.Scheme.NO_FEEDBACK):
                put(f"grid/{i}/{scheme.value}", lambda: repr(
                    sa.grid_search(cfg, sensing, scheme, step=GRID_STEP)))

    cfg = sa.NetworkConfig(lambda_p=0.1, omega_p=(0.3, 0.3, 0.2, 0.1))
    sensing = sa.default_sensing(cfg)
    cases = {
        "fb": sa.SimConfig(slots=3000, warmup=300, replications=3, seed=11),
        "nofb": sa.SimConfig(slots=3000, warmup=300, replications=3, seed=12),
        "genie": sa.SimConfig(slots=3000, warmup=300, replications=3, seed=13),
        "hard": sa.SimConfig(slots=3000, warmup=300, replications=3, seed=14),
        "round_robin": sa.SimConfig(slots=3000, warmup=300, replications=3, seed=15,
                                    round_robin=True, scheme=sa.Scheme.FEEDBACK),
    }
    for label, sim in cases.items():
        scheme = sim.scheme or sa.Scheme(label)
        point = sa.optimize.evaluate(cfg, sensing, scheme)
        policy = point.result.policy
        put(f"run/{label}", lambda: repr(sa.run(cfg, point.sensing, policy, sim)))
        one = replace(sim, replications=1, slots=2000, warmup=200)

        def traced_run():
            report, trace = sa.run_traced(cfg, point.sensing, policy, one)
            record[f"run_traced/{label}/trace"] = sha(trace.tobytes())
            return repr(report)

        put(f"run_traced/{label}", traced_run)

    # the benchmark's own mc_validate config and CLI calls; workloads.py
    # imports the softaccess already loaded from --src
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in MC_SEEDS:
        mc_dir = workdir / f"mc{seed}"
        mc_dir.mkdir()
        mc = workloads.MCValidate(seed, mc_dir, workloads.FULL)
        for scheme, code, exc, _ in mc.execute():
            record[f"mc_validate/{seed}/{scheme}/exit"] = (
                code if exc is None else f"raise {type(exc).__name__}: {exc}")
            put(f"mc_validate/{seed}/{scheme}/csv",
                lambda: sha((mc_dir / f"mc_{scheme}.csv").read_bytes()))

    def dist_sha(dist):
        return sha(dist.pi.tobytes() + dist.eps.tobytes())

    # oracle_check's chain values, computed as its execute() does
    for psi in workloads.FULL.ladder:
        lam = workloads.ladder_lambda(psi)
        params = sa.chain_params_from_rates(0.2, 0.75, lam)
        K = sa.default_truncation(params.psi)
        put(f"chain/{psi!r}/closed", lambda: dist_sha(sa.closed_form_distribution(params, lam, K=K)))
        put(f"chain/{psi!r}/numeric", lambda: dist_sha(sa.numeric_distribution(params, lam, K=K)))
        put(f"chain/{psi!r}/delay_fb", lambda: repr(sa.delay_fb(params, lam)))
        put(f"chain/{psi!r}/little", lambda: repr(
            sa.littles_law_delay(sa.closed_form_distribution(params, lam), lam)))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the softaccess package to capture")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write the capture to")
    parser.add_argument("--against", type=Path, default=None,
                        help="capture to compare with; exit 1 at the first differing key")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    sa = importlib.import_module("softaccess")
    with tempfile.TemporaryDirectory() as tmp:
        record = capture(sa, Path(tmp))
    args.out.write_text(json.dumps(record, indent=0) + "\n", encoding="utf-8")
    print(f"captured {len(record)} keys from {Path(sa.__file__).parent}")
    if args.against is None:
        return 0
    other = json.loads(args.against.read_text(encoding="utf-8"))
    keys = list(other) + [k for k in record if k not in other]
    differ = [k for k in keys if record.get(k, "<missing>") != other.get(k, "<missing>")]
    if not differ:
        print(f"identical to {args.against}: {len(record)} keys")
        return 0
    for name in dict.fromkeys(map(group, keys)):
        moved = sum(group(k) == name for k in differ)
        print(f"{name}: {moved} of {sum(group(k) == name for k in keys)} keys differ")
    key = differ[0]
    print(f"first differs at {key}:\n  {args.against}: {other.get(key, '<missing>')}\n"
          f"  {args.out}: {record.get(key, '<missing>')}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
