"""Experiment harness: config parsing, scheme sweeps, CSV emission.

Configs are flat `section.key = value` text files; unknown keys and bad
values produce (field, reason) diagnostics rather than exceptions. A
sweep runs the per-scheme optimizer at every grid point, optionally
attaches Monte Carlo estimates, and writes one deterministic CSV row per
(sweep value, scheme) plus a small gnuplot script alongside.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .chain import SolveError, delay_fb, delay_nofb
from .model import NetworkConfig, Scheme, SensingConfig
from .optimize import (
    baseline_genie,
    baseline_hard_decision,
    hard_decision_sensing,
    solve_feedback,
    solve_nofb,
)
from .rates import (
    chain_params,
    pi0_feedback,
    pi0_nofb,
    primary_outage,
    primary_service_rate_nofb,
)
from .simulate import CapacityError, SimConfig, run

__all__ = ["Experiment", "validate_config", "run_sweep", "sweep_rows", "main"]

_SCHEME_TOKENS = {
    "fb": Scheme.FEEDBACK,
    "nofb": Scheme.NO_FEEDBACK,
    "hard": Scheme.HARD_DECISION,
    "genie": Scheme.GENIE,
}
_DEFAULT_SCHEMES = (Scheme.FEEDBACK, Scheme.NO_FEEDBACK,
                    Scheme.HARD_DECISION, Scheme.GENIE)

_INT_KEYS = {
    "network.M_p", "network.M_s", "sensing.n",
    "sim.slots", "sim.warmup", "sim.seed", "sim.replications",
}
_FLOAT_KEYS = {
    "network.lambda_p", "network.G_p", "network.G_s", "network.r_pd",
    "network.r_sd", "network.r_ps", "network.gamma", "network.N_0",
    "network.zeta_db", "sensing.eta", "sensing.sigma0_sq",
    "sensing.sigma1_sq", "sensing.idle_tail",
    "sweep.start", "sweep.stop", "sweep.step",
}
_LIST_KEYS = {"network.omega_p", "sweep.values"}
_STR_KEYS = {"sweep.variable", "schemes", "output"}
_ALL_KEYS = _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS | _STR_KEYS


@dataclass(frozen=True)
class Experiment:
    base: NetworkConfig
    sensing: SensingConfig
    sweep_variable: str = "lambda_p"
    sweep_values: tuple = ()
    schemes: tuple = _DEFAULT_SCHEMES
    sim: Optional[SimConfig] = None
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.sweep_variable not in ("lambda_p", "M_s"):
            raise ValueError("sweep_variable must be 'lambda_p' or 'M_s'")
        if not self.sweep_values:
            raise ValueError("sweep grid must be nonempty")
        if not self.schemes:
            raise ValueError("schemes must be nonempty")


def _parse_lines(path):
    values = {}
    diagnostics = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                diagnostics.append((f"line {lineno}", "expected 'key = value'"))
                continue
            key, _, rhs = line.partition("=")
            key = key.strip()
            rhs = rhs.strip()
            if key not in _ALL_KEYS:
                diagnostics.append((key, f"unknown key (line {lineno})"))
                continue
            try:
                if key in _INT_KEYS:
                    values[key] = int(rhs)
                elif key in _FLOAT_KEYS:
                    values[key] = float(rhs)
                elif key in _LIST_KEYS:
                    values[key] = tuple(float(tok) for tok in rhs.split(",") if tok.strip())
                else:
                    values[key] = rhs
            except ValueError:
                diagnostics.append((key, f"cannot parse {rhs!r} (line {lineno})"))
    return values, diagnostics


def parse_schemes(text: str):
    """Map a comma list of scheme tokens to Scheme members; raises on unknowns."""
    schemes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in _SCHEME_TOKENS:
            raise ValueError(f"unknown scheme {tok!r} (expected fb, nofb, hard, genie)")
        schemes.append(_SCHEME_TOKENS[tok])
    if not schemes:
        raise ValueError("schemes list is empty")
    return tuple(schemes)


def validate_config(path):
    """Resolve a config file into an Experiment, or a list of diagnostics.

    Missing keys fall back to the default experiment (the reference
    four-primary, two-secondary network with derived sensing thresholds
    and a lambda sweep from 0 to 0.25 in steps of 0.005).
    """
    values, diagnostics = _parse_lines(path)

    net_kwargs = {}
    for key, field in (
        ("network.M_p", "M_p"), ("network.M_s", "M_s"),
        ("network.lambda_p", "lambda_p"), ("network.G_p", "G_p"),
        ("network.G_s", "G_s"), ("network.r_pd", "r_pd"),
        ("network.r_sd", "r_sd"), ("network.r_ps", "r_ps"),
        ("network.gamma", "gamma"), ("network.N_0", "N_0"),
    ):
        if key in values:
            net_kwargs[field] = values[key]
    if "network.zeta_db" in values:
        net_kwargs["zeta"] = 10.0 ** (values["network.zeta_db"] / 10.0)
    if "network.omega_p" in values:
        net_kwargs["omega_p"] = values["network.omega_p"]
    try:
        base = NetworkConfig(**net_kwargs)
    except (ValueError, TypeError) as exc:
        diagnostics.append(("network", str(exc)))
        base = NetworkConfig()

    sigma0 = values.get("sensing.sigma0_sq", base.N_0 / 2.0)
    sigma1 = values.get("sensing.sigma1_sq",
                        (base.N_0 + base.G_p * base.r_ps ** -base.gamma) / 2.0)
    tail = values.get("sensing.idle_tail", 0.1)
    if not 0.0 < tail < 1.0:
        diagnostics.append(("sensing.idle_tail", "must lie in (0, 1)"))
        tail = 0.1
    eta = values.get("sensing.eta", -2.0 * sigma0 * math.log(tail))
    n = values.get("sensing.n", 4)
    try:
        sensing = SensingConfig(eta=eta, n=n, sigma0_sq=sigma0, sigma1_sq=sigma1)
    except ValueError as exc:
        diagnostics.append(("sensing", str(exc)))
        sensing = None

    variable = values.get("sweep.variable", "lambda_p")
    if variable not in ("lambda_p", "M_s"):
        diagnostics.append(("sweep.variable", "must be 'lambda_p' or 'M_s'"))
        variable = "lambda_p"
    if "sweep.values" in values:
        sweep_values = values["sweep.values"]
        if not sweep_values:
            diagnostics.append(("sweep.values", "grid must be nonempty"))
    else:
        start = values.get("sweep.start", 0.0)
        stop = values.get("sweep.stop", 0.25)
        step = values.get("sweep.step", 0.005)
        if step <= 0.0:
            diagnostics.append(("sweep.step", "must be positive"))
            sweep_values = ()
        elif stop < start:
            diagnostics.append(("sweep.stop", "must be >= sweep.start"))
            sweep_values = ()
        else:
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            sweep_values = tuple(start + i * step for i in range(count))
    if variable == "lambda_p":
        for v in sweep_values:
            if not 0.0 <= v < 1.0:
                diagnostics.append(("sweep.values", f"lambda_p value {v!r} outside [0, 1)"))
                break
    else:
        for v in sweep_values:
            if v < 1 or abs(v - round(v)) > 1e-9:
                diagnostics.append(("sweep.values", f"M_s value {v!r} is not a positive integer"))
                break

    schemes = _DEFAULT_SCHEMES
    if "schemes" in values:
        try:
            schemes = parse_schemes(values["schemes"])
        except ValueError as exc:
            diagnostics.append(("schemes", str(exc)))

    sim = None
    if any(k.startswith("sim.") for k in values):
        try:
            sim = SimConfig(
                slots=values.get("sim.slots", 1_000_000),
                warmup=values.get("sim.warmup", 10_000),
                seed=values.get("sim.seed", 0),
                replications=values.get("sim.replications", 10),
            )
        except ValueError as exc:
            diagnostics.append(("sim", str(exc)))

    if diagnostics:
        return diagnostics
    return Experiment(base=base, sensing=sensing, sweep_variable=variable,
                      sweep_values=tuple(sweep_values), schemes=schemes,
                      sim=sim, output_path=values.get("output"))


def _point_rows(exp: Experiment, value: float):
    if exp.sweep_variable == "lambda_p":
        cfg = replace(exp.base, lambda_p=float(value))
    else:
        cfg = replace(exp.base, M_s=int(round(value)))
    rows = []
    for scheme in exp.schemes:
        if scheme is Scheme.FEEDBACK:
            res = solve_feedback(cfg, exp.sensing)
            sens = exp.sensing
        elif scheme is Scheme.NO_FEEDBACK:
            res = solve_nofb(cfg, exp.sensing)
            sens = exp.sensing
        elif scheme is Scheme.HARD_DECISION:
            res = baseline_hard_decision(cfg, exp.sensing)
            sens = hard_decision_sensing(exp.sensing)
        else:
            res = baseline_genie(cfg)
            sens = None
        row = {"sweep_value": float(value), "scheme": scheme.value,
               "feasible": res.feasible}
        if not res.feasible:
            rows.append(row)
            continue
        policy = res.policy
        if scheme is Scheme.FEEDBACK:
            params = chain_params(cfg, sens, policy)
            mu_p = params.gamma_p
            pi0 = float(pi0_feedback(cfg, sens, policy))
            delay = float(delay_fb(params, cfg.lambda_p))
        elif scheme is Scheme.GENIE:
            mu_p = (1.0 - primary_outage(cfg)) / cfg.M_p
            pi0 = 1.0 - cfg.lambda_p / mu_p
            delay = float(delay_nofb(cfg.lambda_p, mu_p))
        else:
            mu_p = primary_service_rate_nofb(cfg, sens, policy)
            pi0 = float(pi0_nofb(cfg, sens, policy))
            delay = float(delay_nofb(cfg.lambda_p, mu_p))
        row.update(mu_s=res.objective, network_throughput=cfg.M_s * res.objective,
                   mu_p=mu_p, delay=delay, pi0=pi0, a=policy.a)
        if exp.sim is not None:
            report = run(cfg, sens, policy, exp.sim)
            row.update(mu_s_hat=report.mu_s_hat, se_mu_s=report.se_mu_s,
                       delay_hat=report.delay_hat, se_delay=report.se_delay,
                       pi0_hat=report.pi0_hat, seed=report.seed_used)
        rows.append(row)
    return rows


def sweep_rows(exp: Experiment):
    """Compute all sweep rows, sorted by sweep value then scheme listing order."""
    rows = [row for value in exp.sweep_values for row in _point_rows(exp, value)]
    order = {s.value: i for i, s in enumerate(exp.schemes)}
    rows.sort(key=lambda r: (r["sweep_value"], order[r["scheme"]]))
    return rows


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _csv_text(exp: Experiment, rows) -> str:
    n = exp.sensing.n
    header = ["sweep_value", "scheme", "feasible", "mu_s", "network_throughput",
              "mu_p", "delay", "pi0"]
    header += [f"a_{i + 1}" for i in range(n)]
    if exp.sim is not None:
        header += ["mu_s_hat", "se_mu_s", "delay_hat", "se_delay", "pi0_hat", "seed"]
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(row["sweep_value"]), row["scheme"],
                 "true" if row["feasible"] else "false"]
        if row["feasible"]:
            cells += [_fmt(row["mu_s"]), _fmt(row["network_throughput"]),
                      _fmt(row["mu_p"]), _fmt(row["delay"]), _fmt(row["pi0"])]
            a = row["a"]
            cells += [_fmt(a[i]) if i < len(a) else "" for i in range(n)]
            if exp.sim is not None:
                cells += [_fmt(row["mu_s_hat"]), _fmt(row["se_mu_s"]),
                          _fmt(row["delay_hat"]), _fmt(row["se_delay"]),
                          _fmt(row["pi0_hat"]), str(row["seed"])]
        else:
            pad = 5 + n + (6 if exp.sim is not None else 0)
            cells += [""] * pad
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _gnuplot_text(csv_path: str, exp: Experiment) -> str:
    name = Path(csv_path).name
    xlabel = exp.sweep_variable
    plots = ", \\\n  ".join(
        f'"< awk -F, \'NR==1 || $2==\\"{s.value}\\"\' {name}"'
        f' using 1:4 with linespoints title "{s.value}"'
        for s in exp.schemes
    )
    delay_plots = ", \\\n#   ".join(
        f'"< awk -F, \'NR==1 || $2==\\"{s.value}\\"\' {name}"'
        f' using 1:7 with linespoints title "{s.value}"'
        for s in exp.schemes
    )
    return (
        f"# companion plot script for {name}\n"
        'set datafile separator ","\n'
        "set key top right\n"
        f'set xlabel "{xlabel}"\n'
        'set ylabel "mu_s"\n'
        f"plot \\\n  {plots}\n"
        "# packet delay variant:\n"
        '# set ylabel "delay"\n'
        f"# plot \\\n#   {delay_plots}\n"
    )


def run_sweep(exp: Experiment):
    """Run the sweep, write the CSV and gnuplot script, return the rows."""
    if exp.output_path is None:
        raise ValueError("output_path is not set")
    rows = sweep_rows(exp)
    text = _csv_text(exp, rows)
    out = Path(exp.output_path)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    with open(out.with_suffix(".gp"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_gnuplot_text(str(out), exp))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="softaccess",
        description="Soft-sensing cognitive access sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = sub.add_parser("sweep", help="run a sweep and write CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--sim", action="store_true",
                         help="attach Monte Carlo estimates")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the simulation seed")
    p_sweep.add_argument("--schemes", default=None,
                         help="comma list: fb,nofb,hard,genie")
    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        result = validate_config(args.config)
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, list):
        for field, reason in result:
            print(f"{field}: {reason}", file=sys.stderr)
        return 2
    exp = result

    if args.command == "validate":
        sim_desc = "off" if exp.sim is None else f"slots={exp.sim.slots} seed={exp.sim.seed}"
        print(f"ok: {len(exp.sweep_values)} x {len(exp.schemes)} sweep over "
              f"{exp.sweep_variable} ({exp.sweep_values[0]:g} to {exp.sweep_values[-1]:g}), "
              f"sim {sim_desc}")
        return 0

    if args.schemes is not None:
        try:
            exp = replace(exp, schemes=parse_schemes(args.schemes))
        except ValueError as exc:
            print(f"schemes: {exc}", file=sys.stderr)
            return 2
    sim = exp.sim
    if args.sim and sim is None:
        sim = SimConfig()
    if args.seed is not None and sim is not None:
        sim = replace(sim, seed=args.seed)
    exp = replace(exp, sim=sim, output_path=args.out)

    try:
        rows = run_sweep(exp)
    except OSError as exc:
        print(f"output: {exc}", file=sys.stderr)
        return 2
    except (SolveError, CapacityError) as exc:
        print(f"sweep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if not any(row["feasible"] for row in rows):
        print("no feasible sweep point", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
