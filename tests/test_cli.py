"""Config parsing, sweep CSV emission, and exit codes."""
from __future__ import annotations

import csv
import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaccess import (
    Experiment,
    NetworkConfig,
    Scheme,
    default_sensing,
    main,
    primary_outage,
    run_sweep,
    sweep_rows,
    validate_config,
)
from softaccess import CapacityError, cli, simulate
from softaccess.cli import parse_schemes


def write_config(tmp_path, text, name="exp.conf"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_module(*args):
    """Run `python -W error -m softaccess` with args on the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", "-m", "softaccess", *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestValidateConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        exp = validate_config(write_config(tmp_path, ""))
        assert isinstance(exp, Experiment)
        assert exp.base == NetworkConfig()
        assert exp.sensing == default_sensing(exp.base)
        assert exp.sweep_variable == "lambda_p"
        assert len(exp.sweep_values) == 51
        assert exp.sweep_values[0] == 0.0
        assert exp.sweep_values[-1] == pytest.approx(0.25)
        assert exp.schemes == (Scheme.FEEDBACK, Scheme.NO_FEEDBACK,
                               Scheme.HARD_DECISION, Scheme.GENIE)
        assert exp.sim is None
        assert exp.output_path is None

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        exp = validate_config(write_config(tmp_path, """
            # a comment
            network.M_s = 3  # trailing comment

            sweep.values = 0.0, 0.1
        """))
        assert isinstance(exp, Experiment)
        assert exp.base.M_s == 3
        assert exp.sweep_values == (0.0, 0.1)

    def test_zeta_decibel_conversion(self, tmp_path):
        exp = validate_config(write_config(tmp_path, "network.zeta_db = 10\n"))
        assert exp.base.zeta == pytest.approx(10.0)
        exp = validate_config(write_config(tmp_path, "network.zeta_db = 0\n"))
        assert exp.base.zeta == pytest.approx(1.0)

    def test_every_network_key_sets_its_field(self, tmp_path):
        text = """
            network.M_p = 3
            network.M_s = 5
            network.lambda_p = 0.07
            network.G_p = 0.2
            network.G_s = 0.05
            network.r_pd = 90
            network.r_sd = 110
            network.r_ps = 160
            network.gamma = 3.2
            network.N_0 = 2e-11
            network.zeta_db = 7
            network.omega_p = 0.5, 0.3, 0.2
        """
        written = {line.split("=")[0].strip() for line in text.split("\n") if "=" in line}
        assert written == {k for k in cli._KEYS if k.startswith("network.")}
        exp = validate_config(write_config(tmp_path, text))
        assert exp.base == NetworkConfig(
            M_p=3, M_s=5, lambda_p=0.07, G_p=0.2, G_s=0.05, r_pd=90.0, r_sd=110.0,
            r_ps=160.0, gamma=3.2, N_0=2e-11, zeta=10.0 ** (7.0 / 10.0),
            omega_p=(0.5, 0.3, 0.2))

    def test_omega_list(self, tmp_path):
        exp = validate_config(write_config(
            tmp_path, "network.omega_p = 0.4, 0.3, 0.2, 0.1\n"))
        assert exp.base.omega_p == (0.4, 0.3, 0.2, 0.1)

    def test_sim_block_enables_simulation(self, tmp_path):
        exp = validate_config(write_config(tmp_path, """
            sim.slots = 5000
            sim.warmup = 500
            sim.replications = 2
            sim.seed = 42
        """))
        assert exp.sim is not None
        assert exp.sim.slots == 5000
        assert exp.sim.seed == 42

    def test_ms_sweep_variable(self, tmp_path):
        exp = validate_config(write_config(tmp_path, """
            sweep.variable = M_s
            sweep.values = 1, 2, 4
        """))
        assert exp.sweep_variable == "M_s"
        assert exp.sweep_values == (1.0, 2.0, 4.0)

    @pytest.mark.parametrize("text,field", [
        ("network.r_pd = -10\n", "network"),
        ("sweep.step = 0\n", "sweep.step"),
        # just over MAX_COUNT, and a step whose point count is inf
        ("sweep.step = 2.4e-7\n", "sweep.step"),
        ("sweep.step = 5e-324\n", "sweep.step"),
        ("sweep.start = 0.2\nsweep.stop = 0.1\n", "sweep.stop"),
        ("who.knows = 3\n", "who.knows"),
        ("network.M_p = many\n", "network.M_p"),
        ("schemes = fb,warp\n", "schemes"),
        ("schemes = fb,nofb,fb\n", "schemes"),
        ("sweep.values = 0.1, 1.5\n", "sweep.values"),
        ("sweep.variable = M_s\nsweep.values = 2.5\n", "sweep.values"),
        ("sweep.variable = bandwidth\n", "sweep.variable"),
        ("sensing.idle_tail = 1.5\n", "sensing.idle_tail"),
        ("sensing.n = 0\n", "sensing"),
        ("sweep.values =\n", "sweep.values"),
        ("sim.replications = 0\n", "sim"),
        ("just some words\n", "line 1"),
        ("sweep.step = nan\n", "sweep.step"),
        ("sweep.stop = inf\n", "sweep.stop"),
        ("sweep.variable = M_s\nsweep.values = inf\n", "sweep.values"),
        ("sweep.variable = M_s\nsweep.values = nan\n", "sweep.values"),
        ("sensing.eta = nan\n", "sensing.eta"),
        ("network.zeta_db = nan\n", "network.zeta_db"),
        ("network.omega_p = nan, 0.25, 0.25, 0.25\n", "network.omega_p"),
    ])
    def test_diagnostics_name_the_field(self, tmp_path, text, field):
        result = validate_config(write_config(tmp_path, text))
        assert isinstance(result, list)
        assert any(f == field for f, _ in result), result

    def test_parse_schemes_tokens(self):
        assert parse_schemes("genie, fb") == (Scheme.GENIE, Scheme.FEEDBACK)
        with pytest.raises(ValueError):
            parse_schemes("fb, alien")
        with pytest.raises(ValueError):
            parse_schemes(" , ")
        with pytest.raises(ValueError, match="twice"):
            parse_schemes("fb, fb")


@pytest.fixture(scope="module")
def small_exp():
    cfg = NetworkConfig()
    return Experiment(base=cfg, sensing=default_sensing(cfg),
                      sweep_values=(0.0, 0.1, 0.249))


@pytest.mark.parametrize("kwargs,message", [
    (dict(sweep_variable="bandwidth"), "sweep_variable"),
    (dict(sweep_values=()), "sweep grid"),
    (dict(schemes=()), "schemes"),
])
def test_experiment_rejects_bad_fields(small_exp, kwargs, message):
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(small_exp, **kwargs)


class TestSweepRows:
    def test_row_order_and_schema(self, small_exp):
        rows = sweep_rows(small_exp)
        assert len(rows) == 3 * 4
        values = [r["sweep_value"] for r in rows]
        assert values == sorted(values)
        schemes = [r["scheme"] for r in rows[:4]]
        assert schemes == ["fb", "nofb", "hard", "genie"]

    def test_zero_load_point(self, small_exp):
        rows = [r for r in sweep_rows(small_exp) if r["sweep_value"] == 0.0]
        for row in rows:
            assert row["feasible"]
            assert row["pi0"] == pytest.approx(1.0)
            assert row["network_throughput"] == pytest.approx(2 * row["mu_s"])

    def test_overload_point_infeasible(self, small_exp):
        rows = [r for r in sweep_rows(small_exp) if r["sweep_value"] == 0.249]
        assert rows and all(not r["feasible"] for r in rows)
        for row in rows:
            assert "mu_s" not in row

    def test_feedback_beats_nofb_delay(self, small_exp):
        rows = {r["scheme"]: r for r in sweep_rows(small_exp)
                if r["sweep_value"] == 0.1}
        assert rows["fb"]["delay"] <= rows["nofb"]["delay"]
        assert rows["fb"]["mu_s"] >= rows["nofb"]["mu_s"]

    def test_output_path_required(self, small_exp):
        with pytest.raises(ValueError):
            run_sweep(small_exp)


class TestSolverNames:
    """The sweep calls the soft solvers through `cli.solve_feedback` and
    `cli.solve_nofb`, where `perfbench/selfcheck.py` plants its faults."""

    def test_rebound_nofb_solver_reaches_its_rows_only(self, small_exp, monkeypatch):
        solve_nofb = cli.solve_nofb

        def doubled(cfg, sensing):
            res = solve_nofb(cfg, sensing)
            return dataclasses.replace(res, objective=2.0 * res.objective)

        clean = sweep_rows(small_exp)
        monkeypatch.setattr(cli, "solve_nofb", doubled)
        planted = sweep_rows(small_exp)
        assert len(planted) == len(clean)
        for before, after in zip(clean, planted):
            if before["scheme"] == "nofb" and before["feasible"]:
                assert after["mu_s"] == 2.0 * before["mu_s"]
                assert after["a"] == before["a"]
            else:
                assert after == before

    def test_rebound_feedback_solver_fault_escapes_the_sweep(self, small_exp, monkeypatch):
        def raises(cfg, sensing):
            raise RuntimeError("planted")

        monkeypatch.setattr(cli, "solve_feedback", raises)
        with pytest.raises(RuntimeError, match="planted"):
            sweep_rows(small_exp)


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.values = 0.0, 0.1\n")
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok:")
        assert "2 x 4" in out

    def test_module_entry_point(self, tmp_path):
        # python -m softaccess runs the same main, and warns about nothing
        cfg = write_config(tmp_path, "sweep.values = 0.0, 0.1\n")
        proc = run_module("validate", "--config", cfg)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")
        assert proc.stderr == ""

    def test_sweep_writes_csv_and_plot(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.values = 0.0, 0.1\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 8
        assert list(rows[0]) == [
            "sweep_value", "scheme", "feasible", "mu_s", "network_throughput",
            "mu_p", "delay", "pi0", "a_1", "a_2", "a_3", "a_4",
        ]
        assert (tmp_path / "sweep.gp").exists()
        plot = (tmp_path / "sweep.gp").read_text()
        assert "sweep.csv" in plot and "using 1:4" in plot

    def test_sweep_csv_values(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.values = 0.0\n")
        out = tmp_path / "point.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        rows = read_rows(out)
        by_scheme = {r["scheme"]: r for r in rows}
        assert by_scheme["fb"]["feasible"] == "true"
        assert float(by_scheme["fb"]["pi0"]) == 1.0
        assert by_scheme["genie"]["a_1"] == "0.5"
        assert by_scheme["genie"]["a_2"] == ""

    def test_sweep_infeasible_rows_empty_not_zero(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.values = 0.03, 0.249\n")
        out = tmp_path / "mix.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        for row in read_rows(out):
            if row["feasible"] == "false":
                assert row["mu_s"] == ""
                assert row["delay"] == ""
                assert row["a_1"] == ""

    def test_sweep_exit_three_when_nothing_feasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.values = 0.249\n")
        out = tmp_path / "none.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "no feasible" in capsys.readouterr().err
        assert out.exists()  # the CSV is still written for inspection

    def test_sweep_exit_three_on_dead_primary_link(self, tmp_path, capsys):
        # the primary outage rounds to 1: every scheme is infeasible, none raises
        cfg = write_config(tmp_path, "network.r_pd = 1000.0\nsweep.values = 0.0, 0.1\n"
                           "schemes = fb,nofb,hard,genie\n")
        out = tmp_path / "dead.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert "no feasible" in capsys.readouterr().err
        assert len(read_rows(out)) == 8

    def test_sweep_scheme_filter(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.values = 0.1\n")
        out = tmp_path / "two.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--schemes", "genie,fb"]) == 0
        rows = read_rows(out)
        assert [r["scheme"] for r in rows] == ["genie", "fb"]

    def test_sweep_bug_keeps_traceback(self, tmp_path, monkeypatch):
        def failing_sweep(exp):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        cfg = write_config(tmp_path, "sweep.values = 0.1\n")
        with pytest.raises(ZeroDivisionError):
            main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")])

    def test_sweep_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.values = 0.0, 0.08, 0.16\n")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_sim_columns(self, tmp_path):
        cfg = write_config(tmp_path, """
            sweep.values = 0.1
            schemes = fb
            sim.slots = 4000
            sim.warmup = 400
            sim.replications = 2
            sim.seed = 3
        """)
        out = tmp_path / "sim.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert "mu_s_hat" in rows[0] and "seed" in rows[0]
        assert rows[0]["seed"] == "3"
        assert 0.0 < float(rows[0]["mu_s_hat"]) < 1.0

    def test_sweep_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, """
            sweep.values = 0.1
            schemes = fb
            sim.slots = 4000
            sim.warmup = 400
            sim.replications = 2
            sim.seed = 3
        """)
        out = tmp_path / "seeded.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--seed", "99"]) == 0
        assert read_rows(out)[0]["seed"] == "99"

    def test_ms_sweep_values_render_clean(self, tmp_path):
        cfg = write_config(tmp_path, """
            sweep.variable = M_s
            sweep.values = 1, 2
            schemes = fb,nofb
        """)
        out = tmp_path / "ms.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [r["sweep_value"] for r in rows] == ["1", "1", "2", "2"]


def failing_sweep(exc):
    def run_sweep(exp):
        raise exc
    return run_sweep


POINT = "sweep.values = 0.1\n"
REF = NetworkConfig()
# near the stability boundary a queue passes a lowered CAP within the run
NEAR_EDGE = (f"sweep.values = {0.98 * (1.0 - primary_outage(REF)) / REF.M_p!r}\n"
             "sim.slots = 5000\nsim.warmup = 500\nsim.replications = 1\n")
QUEUE = CapacityError("a primary queue held more than 65536 packets")

# every documented exit-2 failure: the command, the config text (None: no such
# file), further argv ("{tmp}" is the test's directory; sweeps write to
# {tmp}/x.csv unless it says otherwise), {(module, name): value} patches, and
# the start of the one stderr line; a start ending in a newline is the whole line
EXIT_TWO = {
    "config-validate": ("validate", "network.M_p = 0\n", [], {}, "network: "),
    "config-sweep": ("sweep", "network.M_p = 0\n", [], {}, "network: "),
    "missing-config": ("validate", None, [], {}, "config: "),
    "not-utf8": ("validate", b"\xff\xfe\x00bad", [], {}, "config: 'utf-8' codec can't decode"),
    # the CSV path comes only from --out
    "unknown-key": ("validate", "output = sweep.csv\n", [], {}, "output: unknown key (line 1)\n"),
    "bad-scheme": ("sweep", POINT, ["--schemes", "fb,alien"], {},
                   "schemes: unknown scheme 'alien'"),
    # a repeated token would reorder the rows and write one scheme twice
    "repeated-scheme": ("sweep", POINT, ["--schemes", "fb,nofb,fb"], {},
                        "schemes: scheme 'fb' is listed twice\n"),
    "unwritable-out": ("sweep", POINT, ["--out", "{tmp}/missing/x.csv"], {}, "output: "),
    # the gnuplot script goes to the CSV's path with a .gp suffix
    "gp-out": ("sweep", POINT, ["--out", "{tmp}/x.gp"], {}, "output: "),
    "negative-seed": ("sweep", POINT, ["--sim", "--seed", "-1"], {}, "seed: "),
    "capacity-error": ("sweep", POINT, [], {(cli, "run_sweep"): failing_sweep(QUEUE)},
                       f"sweep: CapacityError: {QUEUE}\n"),
    "cap-fb": ("sweep", NEAR_EDGE, ["--sim", "--schemes", "fb"], {(simulate, "CAP"): 8},
               "sweep: CapacityError: a primary queue held more than 8 packets\n"),
    "cap-nofb": ("sweep", NEAR_EDGE, ["--sim", "--schemes", "nofb"], {(simulate, "CAP"): 8},
                 "sweep: CapacityError: a primary queue held more than 8 packets\n"),
    # finite link values whose powers overflow a float, refused before any solve
    "zeta_db-overflow": ("validate", "network.zeta_db = 1e300\n", [], {},
                         "network.zeta_db: 10^(zeta_db/10) overflows a float\n"),
    "r_ps-overflow": ("validate", "network.r_ps = 1e-300\n", [], {},
                      "network: r_ps^-3.7 overflows a float\n"),
    "r_pd-overflow": ("sweep", POINT + "network.r_pd = 1e300\n", [], {},
                      "network: r_pd^3.7 overflows a float\n"),
    "r_sd-overflow": ("sweep", POINT + "network.r_sd = 1e300\n", [], {},
                      "network: r_sd^3.7 overflows a float\n"),
    # detector bins of infinite width would give nan bin probabilities
    "eta-overflow": ("sweep", POINT + "sensing.eta = 1e300\n", [], {},
                     "sensing: eta/(2*sigma_sq) = 1e+300/(2*5e-12) overflows a float\n"),
    # counts past cli.MAX_COUNT are refused before anything that size is built
    "huge-M_p": ("validate", "network.M_p = 1000001\n", [], {}, "network.M_p: must be at most"),
    "huge-n": ("validate", "sensing.n = 1000001\n", [], {}, "sensing.n: must be at most"),
    "huge-replications": ("sweep", POINT + "sim.replications = 1000001\n", [], {},
                          "sim.replications: must be at most"),
    # a bound below one slot of the reference network refuses it before any draw
    "chunk-memory": ("sweep", POINT + "sim.slots = 2000\nsim.warmup = 100\n", ["--sim"],
                     {(simulate, "CHUNK_BYTES"): 64},
                     "sweep: CapacityError: one slot of network.M_s = 2"),
}


def exit_two_argv(tmp_path, command, text, extra):
    cfg = str(tmp_path / "nope.conf") if text is None else write_config(tmp_path, text)
    out = ["--out", str(tmp_path / "x.csv")] if command == "sweep" else []
    return [command, "--config", cfg, *out, *(arg.format(tmp=tmp_path) for arg in extra)]


class TestExitCodes:
    @given(
        lam=st.floats(0.0, 0.99),
        M_s=st.integers(1, 20),
        n=st.integers(1, 8),
        idle_tail=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        by_ms=st.booleans(),
        lambdas=st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4),
        ms_values=st.lists(st.integers(1, 20), min_size=1, max_size=4),
        schemes=st.lists(st.sampled_from(["fb", "nofb", "hard", "genie"]),
                         min_size=1, max_size=4, unique=True),
    )
    @settings(deadline=None, max_examples=60)
    def test_sweep_exits_with_a_documented_code(self, lam, M_s, n, idle_tail, by_ms,
                                                lambdas, ms_values, schemes):
        if by_ms:
            sweep = f"sweep.variable = M_s\nsweep.values = {', '.join(map(str, ms_values))}\n"
        else:
            sweep = f"sweep.values = {', '.join(map(repr, lambdas))}\n"
        text = (f"network.lambda_p = {lam!r}\nnetwork.M_s = {M_s}\nsensing.n = {n}\n"
                f"sensing.idle_tail = {idle_tail!r}\nschemes = {','.join(schemes)}\n" + sweep)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "exp.conf"
            cfg.write_text(text, encoding="utf-8")
            code = main(["sweep", "--config", str(cfg), "--out", str(Path(tmp) / "out.csv")])
        assert code in (0, 2, 3)

    @pytest.mark.parametrize("case", EXIT_TWO.values(), ids=list(EXIT_TWO))
    def test_exit_two(self, tmp_path, capsys, monkeypatch, case):
        command, text, extra, patches, start = case
        for (module, name), value in patches.items():
            monkeypatch.setattr(module, name, value)
        # main returns; an exception escaping it fails the test
        assert main(exit_two_argv(tmp_path, command, text, extra)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith(start), err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("*.csv"))  # no CSV is written
        assert not list(tmp_path.rglob("*.gp"))

    def test_exit_two_through_module_entry_point(self, tmp_path):
        command, text, extra, _, start = EXIT_TWO["negative-seed"]
        proc = run_module(*exit_two_argv(tmp_path, command, text, extra))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(start), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.rglob("*.csv"))
