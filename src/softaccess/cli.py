"""Experiment harness: config parsing, scheme sweeps, CSV emission.

Configs are flat `section.key = value` text files; unknown keys and bad
values produce (field, reason) diagnostics rather than exceptions. A
sweep calls `optimize.evaluate` for every scheme at every grid point,
optionally simulates the chosen policy for Monte Carlo estimates, and
writes one deterministic CSV row per (sweep value, scheme) plus a small
gnuplot script alongside. The CLI itself holds no per-scheme logic.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .model import NetworkConfig, Scheme, SensingConfig
from .optimize import evaluate, solve_feedback, solve_nofb
from .simulate import CapacityError, SimConfig, run

__all__ = ["Experiment", "validate_config", "run_sweep", "sweep_rows", "main"]

_DEFAULT_SCHEMES = (Scheme.FEEDBACK, Scheme.NO_FEEDBACK,
                    Scheme.HARD_DECISION, Scheme.GENIE)


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# every config key, with the parser of its value
_KEYS = {
    **dict.fromkeys(("network.M_p", "network.M_s", "sensing.n",
                     "sim.slots", "sim.warmup", "sim.seed", "sim.replications"), int),
    **dict.fromkeys(("network.lambda_p", "network.G_p", "network.G_s", "network.r_pd",
                     "network.r_sd", "network.r_ps", "network.gamma", "network.N_0",
                     "network.zeta_db", "sensing.eta", "sensing.sigma0_sq",
                     "sensing.sigma1_sq", "sensing.idle_tail",
                     "sweep.start", "sweep.stop", "sweep.step"), float),
    **dict.fromkeys(("network.omega_p", "sweep.values"), _floats),
    **dict.fromkeys(("sweep.variable", "schemes"), str),
}
MAX_COUNT = 1_000_000  # sweep points, primaries, bins or replications; each is built in memory


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
        out = self.output_path and Path(self.output_path)
        if out and out.with_suffix(".gp") == out:  # the gnuplot script's path; raises on an empty name
            raise ValueError(f"{out}: the gnuplot script would overwrite the CSV; use another suffix")


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
            parse = _KEYS.get(key)
            if parse is None:
                diagnostics.append((key, f"unknown key (line {lineno})"))
                continue
            try:
                value = parse(rhs)
            except ValueError:
                diagnostics.append((key, f"cannot parse {rhs!r} (line {lineno})"))
                continue
            floats = (value,) if parse is float else value if parse is _floats else ()
            if not all(map(math.isfinite, floats)):
                diagnostics.append((key, f"must be finite (line {lineno})"))
                continue
            values[key] = value
    return values, diagnostics


def parse_schemes(text: str):
    """Map a comma list of scheme tokens to Scheme members; raises on unknowns and repeats."""
    schemes = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            scheme = Scheme(tok)
        except ValueError:
            expected = ", ".join(s.value for s in _DEFAULT_SCHEMES)
            raise ValueError(f"unknown scheme {tok!r} (expected {expected})") from None
        if scheme in schemes:
            raise ValueError(f"scheme {tok!r} is listed twice")
        schemes.append(scheme)
    if not schemes:
        raise ValueError("schemes list is empty")
    return tuple(schemes)


def _section(values, prefix: str) -> dict:
    # "<prefix><field> = value" keys as keyword arguments of that section's config type
    return {key[len(prefix):]: value for key, value in values.items() if key.startswith(prefix)}


def validate_config(path):
    """Resolve a config file into an Experiment, or a list of diagnostics.

    Missing keys fall back to the default experiment (the reference
    four-primary, two-secondary network with derived sensing thresholds
    and a lambda sweep from 0 to 0.25 in steps of 0.005).
    """
    values, diagnostics = _parse_lines(path)
    for key in ("network.M_p", "sensing.n", "sim.replications"):
        if values.get(key, 0) > MAX_COUNT:
            diagnostics.append((key, f"must be at most {MAX_COUNT:,}"))
            del values[key]

    def resolve(field, build, fallback):
        # build one section; a bad value becomes a (field, reason) diagnostic and the fallback
        try:
            return build()
        except (ValueError, TypeError) as exc:
            diagnostics.append((field, str(exc)))
            return fallback

    # every network.<field> key names a NetworkConfig field, except the dB threshold
    net_kwargs = _section(values, "network.")
    if "zeta_db" in net_kwargs:
        try:
            net_kwargs["zeta"] = 10.0 ** (net_kwargs.pop("zeta_db") / 10.0)
        except OverflowError:
            diagnostics.append(("network.zeta_db", "10^(zeta_db/10) overflows a float"))
    base = resolve("network", lambda: NetworkConfig(**net_kwargs), NetworkConfig())

    sigma0 = values.get("sensing.sigma0_sq", base.N_0 / 2.0)
    sigma1 = values.get("sensing.sigma1_sq",
                        (base.N_0 + base.G_p * base.r_ps ** -base.gamma) / 2.0)
    tail = values.get("sensing.idle_tail", 0.1)
    if not 0.0 < tail < 1.0:
        diagnostics.append(("sensing.idle_tail", "must lie in (0, 1)"))
        tail = 0.1
    eta = values.get("sensing.eta", -2.0 * sigma0 * math.log(tail))
    n = values.get("sensing.n", 4)
    sensing = resolve("sensing", lambda: SensingConfig(eta=eta, n=n, sigma0_sq=sigma0,
                                                        sigma1_sq=sigma1), None)

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
        sweep_values = ()
        if step <= 0.0:
            diagnostics.append(("sweep.step", "must be positive"))
        elif stop < start:
            diagnostics.append(("sweep.stop", "must be >= sweep.start"))
        elif (stop - start) / step + 1e-9 >= MAX_COUNT:  # before building; may be inf
            diagnostics.append(("sweep.step", f"grid has more than {MAX_COUNT:,} points"))
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
        schemes = resolve("schemes", lambda: parse_schemes(values["schemes"]), schemes)
    sim_kwargs = _section(values, "sim.")
    sim = resolve("sim", lambda: SimConfig(**sim_kwargs), None) if sim_kwargs else None

    if diagnostics:
        return diagnostics
    return Experiment(base=base, sensing=sensing, sweep_variable=variable,
                      sweep_values=tuple(sweep_values), schemes=schemes, sim=sim)


def _point_rows(exp: Experiment, value: float):
    if exp.sweep_variable == "lambda_p":
        cfg = replace(exp.base, lambda_p=float(value))
    else:
        cfg = replace(exp.base, M_s=int(round(value)))
    rows = []
    for scheme in exp.schemes:
        point = evaluate(cfg, exp.sensing, scheme, fb_solver=solve_feedback, nofb_solver=solve_nofb)
        res = point.result
        row = {"sweep_value": float(value), "scheme": scheme.value,
               "feasible": res.feasible}
        if res.feasible:
            row.update(mu_s=res.objective, network_throughput=cfg.M_s * res.objective,
                       mu_p=point.mu_p, delay=point.delay, pi0=point.pi0, a=res.policy.a)
            if exp.sim is not None:
                report = run(cfg, point.sensing, res.policy, exp.sim)
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


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # the scheme token and the seed


def _csv_text(exp: Experiment, rows) -> str:
    a_columns = [f"a_{i + 1}" for i in range(exp.sensing.n)]
    header = ["sweep_value", "scheme", "feasible", "mu_s", "network_throughput",
              "mu_p", "delay", "pi0", *a_columns]
    if exp.sim is not None:
        header += ["mu_s_hat", "se_mu_s", "delay_hat", "se_delay", "pi0_hat", "seed"]
    lines = [",".join(header)]
    for row in rows:
        cells = {**row, **dict(zip(a_columns, row.get("a", ())))}
        lines.append(",".join([_cell(cells[key]) if key in cells else "" for key in header]))
    return "\n".join(lines) + "\n"


def _gnuplot_text(csv_path: str, exp: Experiment) -> str:
    name = Path(csv_path).name
    xlabel = exp.sweep_variable

    def plots(column, indent):  # one plot per scheme, on its rows and the header
        return f", \\\n{indent}".join(
            f'"< awk -F, \'NR==1 || $2==\\"{s.value}\\"\' {name}"'
            f' using 1:{column} with linespoints title "{s.value}"' for s in exp.schemes)

    return (
        f"# companion plot script for {name}\n"
        'set datafile separator ","\n'
        "set key top right\n"
        f'set xlabel "{xlabel}"\n'
        'set ylabel "mu_s"\n'
        f"plot \\\n  {plots(4, '  ')}\n"
        "# packet delay variant:\n"
        '# set ylabel "delay"\n'
        f"# plot \\\n#   {plots(7, '#   ')}\n"
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
    except (OSError, UnicodeDecodeError) as exc:
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
        try:
            sim = replace(sim, seed=args.seed)
        except ValueError as exc:
            print(f"seed: {exc}", file=sys.stderr)
            return 2
    try:
        exp = replace(exp, sim=sim, output_path=args.out)
    except ValueError as exc:
        print(f"output: {exc}", file=sys.stderr)
        return 2

    try:
        rows = run_sweep(exp)
    except OSError as exc:
        print(f"output: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"sweep: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if not any(row["feasible"] for row in rows):
        print("no feasible sweep point", file=sys.stderr)
        return 3
    return 0
