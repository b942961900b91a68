"""The three benchmark workloads: inputs from a seed, the timed calls, the checks.

Each workload is a closed loop with a single client: the benchmark issues
one call into the package, waits for it to return, then issues the next.
`execute` is the timed part; `check` runs afterwards and turns the outputs
into the operations attempted and the set of those that failed. Every
operation has a name that does not depend on the repetition, so a run
counts each operation once however many repetitions fit in its time.

A failed operation is an exception, a nonzero exit code or a failed check.
A failure that also breaks a guarantee the package documents (its README
and acceptance criteria) is a breach and makes the run incorrect. The
others are counted but leave the run correct: a |z| > 3 Monte Carlo event,
which a correct simulator produces at a known rate, the strict 1e-12
optimality ratchet against the grid oracle, and an ArithmeticError the
chain solver documents as its refusal.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import softaccess as sa

BENCH_DIR = Path(__file__).resolve().parent
SCHEMES = ("fb", "nofb", "hard", "genie")
LADDER = (0.5, 0.9, 0.95, 0.98, 0.985)


@dataclass(frozen=True)
class Sizes:
    lambda_steps: tuple = tuple(range(51))  # lambda = i * 0.005
    bins: tuple = (2, 4, 8)
    ms_values: tuple = tuple(range(1, 11))
    mc_lambdas: tuple = (0.02, 0.06, 0.10, 0.14)
    mc_slots: int = 5000
    mc_warmup: int = 500
    mc_replications: int = 20
    ladder: tuple = LADDER
    networks: int = 30
    grid_step: float = 0.01


FULL = Sizes()
# every value is a subset of FULL, so the seed-commit baseline still applies
SMOKE = Sizes(lambda_steps=(0, 20, 50), bins=(2, 8), ms_values=(1, 3),
              mc_lambdas=(0.06, 0.14), mc_slots=600, mc_warmup=60,
              mc_replications=4, ladder=(0.5, 0.9), networks=2,
              grid_step=0.05)


@dataclass
class Outcome:
    rows: int = 0
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    breaches: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, ops, message: str, breach: bool):
        """Mark the named operations failed."""
        self.failed_ops.update(ops)
        (self.breaches if breach else self.notes).append(message)


def _rel_close(x: float, ref: float, rel: float) -> bool:
    return x == ref or abs(x - ref) <= rel * abs(ref)


def _invoke(argv):
    """Call the CLI in-process; return (exit code or None, exception or None)."""
    try:
        return sa.cli.main(argv), None
    except Exception as exc:  # a traceback out of main is a failed operation
        return None, exc


class Workload:
    name = ""
    # the sweeps repeat to check that the CSV bytes repeat
    min_repetitions = 2

    def __init__(self, seed: int, workdir: Path, sizes: Sizes = FULL):
        self.seed = seed
        self.workdir = workdir
        self.sizes = sizes
        self.first_digests: dict = {}

    def close(self):
        """Undo what the constructor did to the package."""

    def config_hash(self) -> str:
        blob = json.dumps({"workload": self.name, "sizes": repr(self.sizes),
                           "inputs": self.describe()}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def _same_bytes(self, key: str, data: bytes, out: Outcome) -> bool:
        """Record the CSV digest; False when it differs from the first repetition's."""
        digest = hashlib.sha256(data).hexdigest()
        out.extra.setdefault("csv_sha256", {})[key] = digest
        return self.first_digests.setdefault(key, digest) == digest


class AnalyticSweep(Workload):
    """Four analytic sweeps through the CLI: lambda at n = 2, 4, 8 and M_s at lambda = 0.1.

    The grid is fixed, so that every mu_s can be held against the value
    the seed commit produced. The seed permutes the order in which each
    config lists its points and the order of the four invocations.
    """

    name = "analytic_sweep"

    def __init__(self, seed, workdir, sizes=FULL):
        super().__init__(seed, workdir, sizes)
        rng = random.Random(seed)
        self.invocations = []
        for n in sizes.bins:
            values = [i * 0.005 for i in sizes.lambda_steps]
            rng.shuffle(values)
            text = f"sensing.n = {n}\nsweep.values = {', '.join(map(repr, values))}\n"
            self.invocations.append((f"n{n}", text, values))
        ms = list(sizes.ms_values)
        rng.shuffle(ms)
        self.invocations.append(("ms", "network.lambda_p = 0.1\nsweep.variable = M_s\n"
                                       f"sweep.values = {', '.join(map(str, ms))}\n", ms))
        rng.shuffle(self.invocations)
        for key, text, _ in self.invocations:
            (workdir / f"{key}.conf").write_text(text, encoding="utf-8")
        self._baseline = None
        self._captured = None
        self._orig_run_sweep = sa.cli.run_sweep

        @functools.wraps(self._orig_run_sweep)
        def capture(exp):
            rows = self._orig_run_sweep(exp)
            self._captured = rows
            return rows

        # the CLI calls run_sweep through its module global; the rows it
        # returns carry the full-precision mu_s and policy that the CSV rounds
        sa.cli.run_sweep = capture

    def close(self):
        sa.cli.run_sweep = self._orig_run_sweep

    def describe(self):
        return [[k, t] for k, t, _ in self.invocations]

    def config_files(self):
        return [str(self.workdir / f"{k}.conf") for k, _, _ in self.invocations]

    def execute(self):
        results = []
        for key, _, _ in self.invocations:
            self._captured = None
            argv = ["sweep", "--config", str(self.workdir / f"{key}.conf"),
                    "--out", str(self.workdir / f"{key}.csv")]
            code, exc = _invoke(argv)
            results.append((key, code, exc, self._captured))
        return results

    def baseline(self, key: str, value: float, scheme: str):
        """mu_s the seed commit produced for this row, or None where it was infeasible."""
        if self._baseline is None:
            self._baseline = json.loads((BENCH_DIR / "baseline_mu_s.json").read_text())
        return self._baseline["mu_s"][key][repr(value)][scheme]

    def check(self, results) -> Outcome:
        out = Outcome()
        for key, code, exc, rows in results:
            values = next(v for k, _, v in self.invocations if k == key)
            count = len(values) * len(SCHEMES)
            out.attempted += count
            if exc is not None or code != 0 or rows is None:
                out.fail([(key, v, s) for v in values for s in SCHEMES],
                         f"{key}: exit {code}, {exc!r}", True)
                continue
            out.rows += len(rows)

            def reject(hit, message):
                out.fail([(key, r["sweep_value"], r["scheme"]) for r in hit], message, True)

            if len(rows) != count:
                reject(rows, f"{key}: {len(rows)} rows, expected {count}")
            if not self._same_bytes(key, (self.workdir / f"{key}.csv").read_bytes(), out):
                reject(rows, f"{key}: CSV bytes differ from the first repetition")
            exp = sa.cli.validate_config(str(self.workdir / f"{key}.conf"))
            by_value: dict = {}
            for row in rows:
                by_value.setdefault(row["sweep_value"], {})[row["scheme"]] = row
                tag = f"{key} {row['sweep_value']!r} {row['scheme']}"
                base = self.baseline(key, row["sweep_value"], row["scheme"])
                if not row["feasible"]:
                    if base is not None:
                        reject([row], f"{tag}: infeasible, seed commit had mu_s {base!r}")
                    continue
                formula = _formula_mu_s(exp, row)
                if not _rel_close(row["mu_s"], formula, 1e-12):
                    reject([row], f"{tag}: mu_s {row['mu_s']!r} but the rates formula gives {formula!r}")
                elif base is not None and row["mu_s"] < base * (1.0 - 1e-9):
                    reject([row], f"{tag}: mu_s {row['mu_s']!r} below the seed commit's {base!r}")
            for value, point in by_value.items():
                if not all(point.get(s, {}).get("feasible") for s in SCHEMES):
                    continue
                chain = [point[s] for s in ("hard", "nofb", "fb", "genie")]
                for lo, hi in zip(chain, chain[1:]):
                    if lo["mu_s"] > hi["mu_s"] + 1e-12:
                        reject([hi], f"{key} {value!r}: {lo['scheme']} {lo['mu_s']!r} > "
                                     f"{hi['scheme']} {hi['mu_s']!r}")
        return out


def _formula_mu_s(exp, row) -> float:
    """Secondary throughput of the row's policy by the public rates formulas."""
    if exp.sweep_variable == "lambda_p":
        cfg = replace(exp.base, lambda_p=float(row["sweep_value"]))
    else:
        cfg = replace(exp.base, M_s=int(round(row["sweep_value"])))
    scheme = row["scheme"]
    if scheme == "genie":
        a = row["a"][0]
        delta_bar = (1.0 - sa.rates.primary_outage(cfg)) / cfg.M_p
        pi0 = 1.0 - cfg.lambda_p / delta_bar
        return pi0 * (1.0 - sa.rates.secondary_outage(cfg)) * a * (1.0 - a) ** (cfg.M_s - 1)
    if scheme == "fb":
        policy = sa.AccessPolicy(row["a"], sa.Scheme.FEEDBACK)
        return float(sa.rates.secondary_throughput_fb(cfg, exp.sensing, policy))
    sensing = exp.sensing if scheme == "nofb" else sa.optimize.hard_decision_sensing(exp.sensing)
    policy = sa.AccessPolicy(row["a"], sa.Scheme.NO_FEEDBACK)
    return float(sa.rates.secondary_throughput_nofb(cfg, sensing, policy))


class MCValidate(Workload):
    """Monte Carlo validation at the Criterion-1 loads, once per scheme.

    The seed is the simulation seed handed to the CLI.
    """

    name = "mc_validate"
    SPLIT = ("fb", "nofb")

    def __init__(self, seed, workdir, sizes=FULL):
        super().__init__(seed, workdir, sizes)
        s = sizes
        self.text = (f"sweep.values = {', '.join(repr(v) for v in s.mc_lambdas)}\n"
                     f"sim.slots = {s.mc_slots}\nsim.warmup = {s.mc_warmup}\n"
                     f"sim.replications = {s.mc_replications}\nsim.seed = {seed}\n")
        (workdir / "mc.conf").write_text(self.text, encoding="utf-8")
        self.slots_per_invocation = len(s.mc_lambdas) * s.mc_slots * s.mc_replications

    def describe(self):
        return [self.text, list(self.SPLIT)]

    def config_files(self):
        return [str(self.workdir / "mc.conf")]

    def execute(self):
        results = []
        for scheme in self.SPLIT:
            argv = ["sweep", "--config", str(self.workdir / "mc.conf"),
                    "--out", str(self.workdir / f"mc_{scheme}.csv"),
                    "--sim", "--seed", str(self.seed), "--schemes", scheme]
            t0 = time.perf_counter()
            code, exc = _invoke(argv)
            results.append((scheme, code, exc, time.perf_counter() - t0))
        return results

    def check(self, results) -> Outcome:
        out = Outcome()
        count = len(self.sizes.mc_lambdas)
        max_z = 0.0
        for scheme, code, exc, elapsed in results:
            out.attempted += count
            out.extra[f"sim_{scheme}_slots_per_s"] = self.slots_per_invocation / elapsed
            every = [(scheme, v) for v in self.sizes.mc_lambdas]
            if exc is not None or code != 0:
                out.fail(every, f"{scheme}: exit {code}, {exc!r}", True)
                continue
            data = (self.workdir / f"mc_{scheme}.csv").read_bytes()
            rows = list(csv.DictReader(io.StringIO(data.decode())))
            out.rows += len(rows)
            if len(rows) != count or not self._same_bytes(scheme, data, out):
                out.fail(every, f"{scheme}: {len(rows)} rows of {count}, or CSV bytes differ "
                                "from the first repetition", True)
                continue
            for row in rows:
                zs = []
                for q in ("mu_s", "delay"):
                    se = float(row[f"se_{q}"])
                    diff = abs(float(row[f"{q}_hat"]) - float(row[q]))
                    zs.append(diff / se if se > 0 else (0.0 if diff == 0 else math.inf))
                max_z = max(max_z, *zs)
                if max(zs) > 3.0:
                    out.fail([(scheme, float(row["sweep_value"]))],
                             f"{scheme} lambda {row['sweep_value']}: |z| = "
                             f"{zs[0]:.2f} (mu_s), {zs[1]:.2f} (delay) > 3", False)
        out.extra["max_abs_z"] = max_z
        return out


def ladder_lambda(psi: float, gamma_p: float = 0.2, delta: float = 0.75) -> float:
    """lambda at which chain_params_from_rates(gamma_p, delta, lambda) has load ratio psi.

    psi*(1-l)*chi = l*(1-chi) with chi = l*gamma_p + (1-l)*(1-delta) is a
    quadratic a*l^2 + b*l - c = 0; this is its positive root.
    """
    d_bar = 1.0 - delta
    a = (1.0 - psi) * (d_bar - gamma_p)
    b = psi * (2.0 * d_bar - gamma_p) + (1.0 - d_bar)
    c = psi * d_bar
    return 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))


def sample_networks(seed: int, count: int):
    """Random stable networks, n alternating 2 and 3 bins (keyword dicts)."""
    rng = random.Random(seed)
    nets = []
    for i in range(count):
        M_p = rng.randint(2, 5)
        r_pd = rng.uniform(50.0, 180.0)
        zeta = rng.uniform(1.0, 20.0)
        net = dict(M_p=M_p, M_s=rng.randint(1, 3), r_pd=r_pd,
                   r_sd=rng.uniform(50.0, 180.0), r_ps=rng.uniform(80.0, 250.0),
                   zeta=zeta)
        # default link budget: G_p = 0.1, N_0 = 1e-11, gamma = 3.7
        delta_bar = math.exp(-zeta * 1e-11 * r_pd ** 3.7 / 0.1) / M_p
        net["lambda_p"] = rng.uniform(0.0, 0.85) * delta_bar
        nets.append({"network": net, "n": 2 + i % 2, "idle_tail": rng.uniform(0.05, 0.3)})
    return nets


class OracleCheck(Workload):
    """Independent oracles on the closed forms and on both soft-scheme solvers.

    The psi ladder is fixed; the seed draws the random networks.
    """

    name = "oracle_check"
    min_repetitions = 1

    def __init__(self, seed, workdir, sizes=FULL):
        super().__init__(seed, workdir, sizes)
        self.rungs = [(psi, ladder_lambda(psi)) for psi in sizes.ladder]
        self.networks = sample_networks(seed, sizes.networks)
        self.inputs = {"ladder": self.rungs, "networks": self.networks,
                       "grid_step": sizes.grid_step}
        (workdir / "oracle.json").write_text(json.dumps(self.inputs), encoding="utf-8")

    def describe(self):
        return self.inputs

    def config_files(self):
        return [str(self.workdir / "oracle.json")]

    def execute(self):
        ladder = []
        for psi, lam in self.rungs:
            params = sa.chain_params_from_rates(0.2, 0.75, lam)
            K = sa.default_truncation(params.psi)
            closed = sa.closed_form_distribution(params, lam, K=K)
            try:
                numeric, err = sa.numeric_distribution(params, lam, K=K), None
            except (ArithmeticError, ValueError) as exc:
                numeric, err = None, exc
            direct = sa.delay_fb(params, lam)
            little = sa.littles_law_delay(sa.closed_form_distribution(params, lam), lam)
            ladder.append((psi, closed, numeric, err, direct, little))
        nets = []
        for net in self.networks:
            cfg = sa.NetworkConfig(**net["network"])
            sensing = sa.default_sensing(cfg, n=net["n"], idle_tail=net["idle_tail"])
            solved = {}
            for scheme, solver in (("nofb", sa.solve_nofb), ("fb", sa.solve_feedback)):
                enum = sa.Scheme.FEEDBACK if scheme == "fb" else sa.Scheme.NO_FEEDBACK
                solved[scheme] = (solver(cfg, sensing),
                                  sa.grid_search(cfg, sensing, enum, step=self.sizes.grid_step))
            nets.append(solved)
        return ladder, nets

    def check(self, results) -> Outcome:
        ladder, nets = results
        out = Outcome()
        for psi, closed, numeric, err, direct, little in ladder:
            out.attempted += 2
            if numeric is None:
                out.fail([(psi, "numeric")], f"psi {psi}: numeric_distribution raised {err!r}",
                         not isinstance(err, ArithmeticError))
            else:
                gap = max(float(abs(closed.pi - numeric.pi).max()),
                          float(abs(closed.eps - numeric.eps).max()))
                if not gap <= 1e-9:
                    out.fail([(psi, "numeric")],
                             f"psi {psi}: numeric and closed form differ by {gap:.3e}", True)
            if not _rel_close(float(little), float(direct), 1e-6):
                out.fail([(psi, "little")],
                         f"psi {psi}: Little's law {little!r} vs delay_fb {direct!r}", True)
        for i, solved in enumerate(nets):
            for scheme, (res, grid) in solved.items():
                out.attempted += 1
                if grid is None or not res.feasible:
                    out.fail([(i, scheme)], f"network {i} {scheme}: solver feasible={res.feasible}, "
                             f"grid {'none' if grid is None else 'found'}", True)
                    continue
                obj_grid = grid[1]
                if res.objective < obj_grid * (1.0 - 1e-12):
                    loss = (obj_grid - res.objective) / obj_grid
                    out.fail([(i, scheme)], f"network {i} {scheme}: objective {res.objective!r} below "
                             f"grid {obj_grid!r} by {loss:.2e} relative",
                             abs(res.objective - obj_grid) > 1e-3)
        out.rows = out.attempted
        return out


WORKLOADS = {w.name: w for w in (AnalyticSweep, MCValidate, OracleCheck)}
