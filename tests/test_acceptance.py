"""End-to-end acceptance criteria.

Each class freezes one release gate: simulator-vs-analytics agreement,
chain cross-validation, Little's law, solver-vs-grid optimality, the
feedback occupancy gain, scheme ordering across sweeps, and byte-level
CSV reproducibility.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from softaccess import (
    AccessPolicy,
    Experiment,
    NetworkConfig,
    Scheme,
    SimConfig,
    chain_params_from_rates,
    closed_form_distribution,
    default_sensing,
    default_truncation,
    delay_fb,
    delta_pi0,
    evaluate,
    grid_search,
    littles_law_delay,
    main,
    numeric_distribution,
    primary_service_rate_nofb,
    run,
    solve_feedback,
    solve_nofb,
    sweep_rows,
    transition_matrix,
)

from conftest import load_ratio_lambda, sample_network, sample_stable_params


class TestCriterion1SimulatorAgreement:
    """Monte Carlo estimates match the analytic formulas within 3 SEs."""

    @pytest.mark.parametrize("lam", [0.02, 0.06, 0.10, 0.14])
    @pytest.mark.parametrize("scheme", [Scheme.FEEDBACK, Scheme.NO_FEEDBACK])
    def test_within_three_standard_errors(self, lam, scheme):
        cfg = NetworkConfig(lambda_p=lam)
        sensing = default_sensing(cfg)
        point = evaluate(cfg, sensing, scheme)
        res = point.result
        analytic = dict(mu_s=res.objective, mu_p=point.mu_p,
                        delay=point.delay, pi0=point.pi0)
        assert res.feasible
        report = run(cfg, sensing, res.policy, SimConfig(seed=0, scheme=scheme))
        assert report.slots == 1_000_000 and report.replications == 10
        assert abs(report.mu_s_hat - analytic["mu_s"]) <= 3.0 * report.se_mu_s
        assert abs(report.mu_p_hat - analytic["mu_p"]) <= 3.0 * report.se_mu_p
        assert abs(report.delay_hat - analytic["delay"]) <= 3.0 * report.se_delay
        assert abs(report.pi0_hat - analytic["pi0"]) <= 3.0 * report.se_pi0


class TestCriterion2ChainCrossValidation:
    """Closed-form and numeric stationary distributions agree entrywise."""

    def test_hundred_random_stable_sets(self):
        rng = np.random.default_rng(20260817)
        for _ in range(100):
            params, lam = sample_stable_params(rng)
            K = default_truncation(params.psi)
            closed = closed_form_distribution(params, lam, K=K)
            numeric = numeric_distribution(params, lam, K=K)
            assert np.max(np.abs(closed.pi - numeric.pi)) <= 1e-9
            assert np.max(np.abs(closed.eps - numeric.eps)) <= 1e-9
            x = np.concatenate([closed.pi, closed.eps[1:]])
            P = transition_matrix(params, lam, K)
            assert np.max(np.abs(x @ P - x)) <= 1e-12
            assert abs(closed.total_mass() - 1.0) <= 1e-12

    @pytest.mark.parametrize("psi", [0.99, 0.995, 0.999])
    def test_heavy_load(self, psi):
        lam = load_ratio_lambda(psi)
        params = chain_params_from_rates(0.2, 0.75, lam)
        assert params.psi == pytest.approx(psi, rel=1e-12)
        K = default_truncation(params.psi)
        closed = closed_form_distribution(params, lam, K=K)
        numeric = numeric_distribution(params, lam, K=K)
        assert np.max(np.abs(closed.pi - numeric.pi)) <= 1e-9
        assert np.max(np.abs(closed.eps - numeric.eps)) <= 1e-9
        x = np.concatenate([closed.pi, closed.eps[1:]])
        P = transition_matrix(params, lam, K)
        assert np.max(np.abs(x @ P - x)) <= 1e-12
        direct = delay_fb(params, lam)
        assert abs(littles_law_delay(numeric, lam) - direct) / direct <= 1e-6


class TestCriterion3LittlesLaw:
    """The closed-form delay equals mean occupancy over throughput."""

    def test_hundred_random_stable_sets(self):
        rng = np.random.default_rng(314159)
        for _ in range(100):
            params, lam = sample_stable_params(rng)
            direct = delay_fb(params, lam)
            dist = closed_form_distribution(params, lam)
            via_littles = littles_law_delay(dist, lam)
            assert abs(direct - via_littles) / abs(direct) <= 1e-6


class TestCriterion4SolverOptimality:
    """Both solvers match an exhaustive grid oracle to 1e-3."""

    def test_twenty_random_configurations(self):
        rng = np.random.default_rng(271828)
        for i in range(20):
            n = (i % 3) + 1
            cfg, sensing = sample_network(rng, n=n)
            for scheme, solver in ((Scheme.NO_FEEDBACK, solve_nofb),
                                   (Scheme.FEEDBACK, solve_feedback)):
                res = solver(cfg, sensing)
                oracle = grid_search(cfg, sensing, scheme)
                assert res.feasible
                assert oracle is not None
                _, obj_grid = oracle
                assert abs(res.objective - obj_grid) <= 1e-3


class TestCriterion5FeedbackOccupancyGain:
    """Exploiting feedback never reduces the idle-slot probability."""

    def test_ten_thousand_random_samples(self):
        rng = np.random.default_rng(97)
        for _ in range(10_000):
            M_p = int(rng.integers(1, 7))
            M_s = int(rng.integers(1, 5))
            r_pd = float(rng.uniform(50.0, 180.0))
            cfg0 = NetworkConfig(M_p=M_p, M_s=M_s, lambda_p=0.0, r_pd=r_pd)
            sensing = default_sensing(cfg0, n=2,
                                      idle_tail=float(rng.uniform(0.05, 0.3)))
            policy = AccessPolicy(tuple(rng.uniform(0.05, 1.0, size=2)))
            gamma_p = primary_service_rate_nofb(cfg0, sensing, policy)
            lam = float(rng.uniform(0.05, 0.95)) * gamma_p
            cfg = dataclasses.replace(cfg0, lambda_p=lam)
            gap = delta_pi0(cfg, sensing, policy)
            assert gap >= -1e-12
            assert gap > 1e-12  # strict: lam and s1 are bounded away from 0

    def test_equality_exactly_on_the_zero_sets(self, ref_cfg, ref_sensing):
        silent = AccessPolicy((0.0, 0.0, 0.0, 0.0))
        assert delta_pi0(ref_cfg, ref_sensing, silent) == 0.0
        no_load = NetworkConfig(lambda_p=0.0)
        busy = AccessPolicy((0.8, 0.6, 0.4, 0.2))
        assert delta_pi0(no_load, ref_sensing, busy) == 0.0


@pytest.fixture(scope="module")
def load_sweep():
    cfg = NetworkConfig()
    exp = Experiment(base=cfg, sensing=default_sensing(cfg),
                     sweep_values=tuple(i * 0.005 for i in range(51)))
    rows = sweep_rows(exp)
    points = {}
    for row in rows:
        points.setdefault(row["sweep_value"], {})[row["scheme"]] = row
    return points


@pytest.fixture(scope="module")
def ms_sweep():
    out = {}
    for M_s in range(1, 9):
        cfg = NetworkConfig(M_s=M_s, lambda_p=0.1)
        sensing = default_sensing(cfg)
        fb, nofb, hard = (evaluate(cfg, sensing, scheme) for scheme in
                          (Scheme.FEEDBACK, Scheme.NO_FEEDBACK, Scheme.HARD_DECISION))
        assert fb.result.feasible and nofb.result.feasible and hard.result.feasible
        out[M_s] = dict(
            fb_net=M_s * fb.result.objective, nofb_net=M_s * nofb.result.objective,
            hard_net=M_s * hard.result.objective,
            fb_delay=fb.delay, nofb_delay=nofb.delay, hard_delay=hard.delay,
        )
    return out


class TestCriterion6SchemeComparison:
    """Optimized schemes order as hard <= nofb <= fb <= genie everywhere."""

    def test_throughput_ordering_at_every_feasible_point(self, load_sweep):
        seen = 0
        for value, by_scheme in load_sweep.items():
            feasible = {s: r for s, r in by_scheme.items() if r["feasible"]}
            if not feasible:
                continue
            assert set(feasible) == {"fb", "nofb", "hard", "genie"}
            assert feasible["hard"]["mu_s"] <= feasible["nofb"]["mu_s"] + 1e-12
            assert feasible["nofb"]["mu_s"] <= feasible["fb"]["mu_s"] + 1e-12
            assert feasible["fb"]["mu_s"] <= feasible["genie"]["mu_s"] + 1e-12
            seen += 1
        assert seen >= 45

    def test_feedback_delay_never_worse(self, load_sweep):
        seen = 0
        for value, by_scheme in load_sweep.items():
            fb, nofb = by_scheme["fb"], by_scheme["nofb"]
            if not (fb["feasible"] and nofb["feasible"]):
                continue
            assert fb["delay"] <= nofb["delay"] + 1e-12
            seen += 1
        assert seen >= 45

    def test_coarse_bins_never_open(self, load_sweep):
        for value, by_scheme in load_sweep.items():
            for scheme in ("fb", "nofb"):
                row = by_scheme[scheme]
                if not row["feasible"]:
                    continue
                assert abs(row["a"][2]) <= 1e-6
                assert abs(row["a"][3]) <= 1e-6

    def test_delay_over_secondary_population(self, ms_sweep):
        for M_s, point in ms_sweep.items():
            assert point["fb_delay"] < point["nofb_delay"]
            assert point["fb_delay"] < point["hard_delay"]
        # the feedback delay curve flattens once contention is spread thin
        d7, d8 = ms_sweep[7]["fb_delay"], ms_sweep[8]["fb_delay"]
        assert abs(d8 - d7) / d7 < 0.02

    def test_network_throughput_over_secondary_population(self, ms_sweep):
        for M_s, point in ms_sweep.items():
            assert point["fb_net"] > point["nofb_net"]
            assert point["fb_net"] > point["hard_net"]
        nets = [ms_sweep[M_s]["fb_net"] for M_s in range(1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(nets, nets[1:]))


class TestCriterion7Reproducibility:
    """Identical config and seed produce byte-identical CSV output."""

    CONFIG = """
        sweep.values = 0.05, 0.1
        schemes = fb, nofb
        sim.slots = 20000
        sim.warmup = 2000
        sim.replications = 3
        sim.seed = 123
    """

    def test_sweep_with_simulation_is_byte_stable(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text(self.CONFIG, encoding="utf-8")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(conf), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(conf), "--out", str(out_b)]) == 0
        data = out_a.read_bytes()
        assert data == out_b.read_bytes()
        assert data.count(b"\n") == 5  # header plus four rows

    def test_analytic_sweep_is_byte_stable(self, tmp_path):
        conf = tmp_path / "plain.conf"
        conf.write_text("sweep.values = 0.0, 0.12, 0.24\n", encoding="utf-8")
        out_a = tmp_path / "pa.csv"
        out_b = tmp_path / "pb.csv"
        assert main(["sweep", "--config", str(conf), "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", str(conf), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
