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
from softaccess import CapacityError, SolveError, cli, simulate
from softaccess.cli import parse_schemes


def write_config(tmp_path, text, name="exp.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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
        assert written == {k for k in cli._ALL_KEYS if k.startswith("network.")}
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
        # just over MAX_SWEEP_POINTS, and a step whose point count is inf
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
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "softaccess", "validate", "--config", cfg],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")
        assert proc.stderr == ""

    def test_validate_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "network.M_p = 0\n")
        assert main(["validate", "--config", cfg]) == 2
        assert "network" in capsys.readouterr().err

    def test_output_key_is_unknown(self, tmp_path, capsys):
        # the CSV path comes only from --out
        cfg = write_config(tmp_path, "output = sweep.csv\n")
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().err == "output: unknown key (line 1)\n"

    def test_validate_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.conf")
        assert main(["validate", "--config", missing]) == 2
        assert "config" in capsys.readouterr().err

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

    def test_sweep_scheme_filter(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.values = 0.1\n")
        out = tmp_path / "two.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--schemes", "genie,fb"]) == 0
        rows = read_rows(out)
        assert [r["scheme"] for r in rows] == ["genie", "fb"]

    def test_sweep_bad_scheme_filter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.values = 0.1\n")
        out = tmp_path / "bad.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--schemes", "fb,alien"]) == 2
        assert "schemes" in capsys.readouterr().err
        # a repeated token would reorder the rows and write one scheme twice
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--schemes", "fb,nofb,fb"]) == 2
        assert "listed twice" in capsys.readouterr().err

    def test_sweep_unwritable_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.values = 0.1\n")
        assert main(["sweep", "--config", cfg, "--out",
                     str(tmp_path / "missing" / "x.csv")]) == 2
        assert "output" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [
        CapacityError("primary queue exceeded the ring buffer capacity"),
        SolveError("stationary solve ill-conditioned: residual 1.000e-03"),
    ])
    def test_sweep_failure_exits_two(self, tmp_path, capsys, monkeypatch, exc):
        def failing_sweep(exp):
            raise exc

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        cfg = write_config(tmp_path, "sweep.values = 0.1\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("sweep:") and str(exc) in err

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

    def test_sweep_negative_seed_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sweep.values = 0.1\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                     "--sim", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("seed:")
        assert not (tmp_path / "x.csv").exists()

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

    def test_simulator_memory_bound_exits_two(self, tmp_path, capsys, monkeypatch):
        # a bound below one slot of the reference network refuses it before any draw
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 64)
        cfg = write_config(tmp_path, "sweep.values = 0.1\nsim.slots = 2000\nsim.warmup = 100\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--sim"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("sweep: CapacityError: one slot of network.M_s = 2")

    def test_simulator_capacity_exits_two(self, tmp_path, capsys, monkeypatch):
        # near the stability boundary a queue passes a lowered CAP within the run
        monkeypatch.setattr(simulate, "CAP", 8)
        ref = NetworkConfig()
        lam = 0.98 * (1.0 - primary_outage(ref)) / ref.M_p
        cfg = write_config(tmp_path, f"sweep.values = {lam!r}\nsim.slots = 5000\n"
                                     "sim.warmup = 500\nsim.replications = 1\n")
        for scheme in ("fb", "nofb"):
            code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv"),
                         "--sim", "--schemes", scheme])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("sweep: CapacityError:")
