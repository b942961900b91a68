"""Primary-queue Markov chain: distribution, truncation, and delay."""
from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from softaccess import (
    Scheme,
    SolveError,
    Unstable,
    chain_params,
    chain_params_from_rates,
    closed_form_distribution,
    default_truncation,
    delay_fb,
    evaluate,
    littles_law_delay,
    numeric_distribution,
    pi0,
    solve_feedback,
    transition_matrix,
)
from softaccess.model import AccessPolicy

from conftest import load_ratio_lambda, sample_network, sample_stable_params


def stationary_vector(dist):
    """Stack (pi, eps[1:]) in transition-matrix state order."""
    return np.concatenate([dist.pi, dist.eps[1:]])


class TestClosedForm:
    def test_zero_arrivals_point_mass(self):
        params = chain_params_from_rates(0.2, 0.7, 0.0)
        dist = closed_form_distribution(params, 0.0)
        assert dist.pi[0] == 1.0
        assert np.all(dist.pi[1:] == 0.0)
        assert np.all(dist.eps == 0.0)
        assert dist.tail_mass == 0.0
        assert dist.mean_occupancy() == 0.0

    def test_no_retransmission_mass_at_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params, lam = sample_stable_params(rng)
            dist = closed_form_distribution(params, lam)
            assert dist.eps[0] == 0.0

    def test_level_zero_balance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            params, lam = sample_stable_params(rng)
            dist = closed_form_distribution(params, lam)
            lam_bar = 1.0 - lam
            outflow = dist.pi[0] * lam
            inflow = (dist.pi[1] * lam_bar * params.gamma_p
                      + dist.eps[1] * lam_bar * (1.0 - params.delta))
            assert inflow == pytest.approx(outflow, rel=1e-12, abs=1e-15)

    def test_global_balance_and_mass(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            params, lam = sample_stable_params(rng)
            dist = closed_form_distribution(params, lam)
            x = stationary_vector(dist)
            P = transition_matrix(params, lam, dist.K)
            residual = x @ P - x
            assert np.max(np.abs(residual)) <= 1e-12
            assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_backlog_geometry(self):
        # above level one both branches decay by the same psi ratio and
        # the waiting/retransmitting split is lam : lam_bar
        rng = np.random.default_rng(9)
        for _ in range(25):
            params, lam = sample_stable_params(rng)
            dist = closed_form_distribution(params, lam)
            ratio = lam / (1.0 - lam)
            for k in range(2, min(dist.K, 12)):
                assert dist.pi[k] == pytest.approx(ratio * dist.eps[k], rel=1e-12)
                if dist.eps[k + 1] > 0.0:
                    assert dist.eps[k + 1] / dist.eps[k] == pytest.approx(
                        params.psi, rel=1e-10)

    def test_tail_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            params, lam = sample_stable_params(rng)
            dist = closed_form_distribution(params, lam)
            psi, chi = params.psi, params.chi
            if psi == 0.0:
                assert dist.tail_mass == 0.0
                continue
            bound = (psi ** dist.K) * (1.0 - params.gamma_p) / (
                (1.0 - chi) ** 2 * (1.0 - psi))
            assert dist.tail_mass <= bound * (1.0 + 1e-12)

    def test_unstable_marker(self):
        params = chain_params_from_rates(0.1, 0.5, 0.45)
        got = closed_form_distribution(params, 0.45)
        assert isinstance(got, Unstable)
        assert got.margin == pytest.approx(params.chi - 0.45)

    def test_truncation_validation(self):
        params = chain_params_from_rates(0.3, 0.6, 0.1)
        with pytest.raises(ValueError):
            closed_form_distribution(params, 0.1, K=1)
        with pytest.raises(ValueError):
            closed_form_distribution(params, -0.1)


class TestNumeric:
    def test_matches_closed_form_reference(self, ref_cfg, ref_sensing):
        pol = solve_feedback(ref_cfg, ref_sensing).policy
        params = chain_params(ref_cfg, ref_sensing, pol, Scheme.FEEDBACK)
        closed = closed_form_distribution(params, ref_cfg.lambda_p, K=200)
        numeric = numeric_distribution(params, ref_cfg.lambda_p, K=200)
        assert np.max(np.abs(closed.pi - numeric.pi)) <= 1e-9
        assert np.max(np.abs(closed.eps - numeric.eps)) <= 1e-9

    def test_zero_arrivals_point_mass(self):
        params = chain_params_from_rates(0.2, 0.7, 0.0)
        dist = numeric_distribution(params, 0.0, K=60)
        assert dist.pi[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.eps <= 1e-12)

    def test_rejects_unstable(self):
        params = chain_params_from_rates(0.1, 0.5, 0.45)
        with pytest.raises(ValueError):
            numeric_distribution(params, 0.45, K=100)

    def test_rejects_insufficient_truncation(self):
        params, lam = sample_stable_params(np.random.default_rng(13),
                                           psi_max=0.9, lam_min=0.3)
        assert params.psi > 0.5
        with pytest.raises(ValueError):
            numeric_distribution(params, lam, K=10)

    def test_truncation_guard_precedes_solve(self, monkeypatch):
        # default_truncation caps K at 1e5, where 0.9999^K is still 4.5e-5
        def no_solve(*args, **kwargs):
            raise AssertionError("solver reached past the truncation guard")

        monkeypatch.setattr("scipy.sparse.linalg.spsolve", no_solve)
        lam = load_ratio_lambda(0.9999)
        params = chain_params_from_rates(0.2, 0.75, lam)
        assert default_truncation(params.psi) == 100_000
        with pytest.raises(ValueError, match="too small"):
            numeric_distribution(params, lam)

    def test_residual_check_raises_solve_error(self, monkeypatch):
        # a uniform vector is not stationary, so the residual check must fire
        monkeypatch.setattr("scipy.sparse.linalg.spsolve", lambda A, b: np.ones(b.size))
        params = chain_params_from_rates(0.4, 0.5, 0.15)
        with pytest.raises(SolveError, match="residual"):
            numeric_distribution(params, 0.15, K=200)

    def test_sparse_solve_at_large_K(self):
        # a truncation of 2,100 levels (4,201 states) solves to the closed
        # form just as the small K above do
        params = chain_params_from_rates(0.4, 0.5, 0.15)
        closed = closed_form_distribution(params, 0.15, K=2100)
        numeric = numeric_distribution(params, 0.15, K=2100)
        assert np.max(np.abs(closed.pi - numeric.pi)) <= 1e-9
        assert np.max(np.abs(closed.eps - numeric.eps)) <= 1e-9

    def test_mean_occupancy_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            params, lam = sample_stable_params(rng)
            closed = closed_form_distribution(params, lam)
            numeric = numeric_distribution(params, lam, K=closed.K)
            assert closed.mean_occupancy() == pytest.approx(
                numeric.mean_occupancy(), abs=1e-8)


class TestTransitionMatrix:
    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            params, lam = sample_stable_params(rng)
            P = transition_matrix(params, lam, 40)
            assert P.shape == (81, 81)
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-14
            assert P.min() >= 0.0

    def test_labeled_transitions_at_k2(self):
        # dyadic rates keep every product and sum exact
        lam, g, d = 0.125, 0.25, 0.625
        lb, gb, db = 1.0 - lam, 1.0 - g, 1.0 - d
        P = transition_matrix(chain_params_from_rates(g, d, lam), lam, 2)
        # states F_0, F_1, F_2, R_1, R_2; level 2 reflects its up-moves
        # into R_2, so the last column of rows F_2 and R_2 sums two labels
        want = np.array([
            [lb, lam, 0.0, 0.0, 0.0],
            [lb * g, lam * g, 0.0, lb * gb, lam * gb],
            [0.0, lb * g, lam * g, 0.0, lb * gb + lam * gb],
            [lb * db, lam * db, 0.0, lb * d, lam * d],
            [0.0, lb * db, lam * db, 0.0, lb * d + lam * d],
        ])
        assert isinstance(P, sparse.csr_array)
        assert P.nnz == 16
        assert np.array_equal(P.toarray(), want)

    def test_heavy_load_stays_sparse(self):
        # a dense P at psi = 0.999 would take 8*(2K+1)^2 bytes, 33 GB
        lam = load_ratio_lambda(0.999)
        params = chain_params_from_rates(0.2, 0.75, lam)
        K = default_truncation(params.psi)
        assert K == 32_221
        P = transition_matrix(params, lam, K)
        # 8K+2 labeled transitions, two pairs of them summed at level K
        assert P.nnz == 8 * K
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-14
        assert P.min() >= 0.0

    def test_truncation_validation(self):
        params = chain_params_from_rates(0.3, 0.6, 0.1)
        with pytest.raises(ValueError):
            transition_matrix(params, 0.1, 1)


class TestTruncation:
    def test_rules(self):
        assert default_truncation(0.0) == 50
        assert default_truncation(0.5) == 50
        assert default_truncation(0.9) == 306
        assert default_truncation(0.9997) == 100_000
        with pytest.raises(ValueError):
            default_truncation(1.0)
        with pytest.raises(ValueError):
            default_truncation(-0.1)


class TestDelay:
    # without feedback the chain is a Bernoulli server: beta = gamma_p = mu
    def test_nofb_reference(self):
        params = chain_params_from_rates(0.2438, 1.0 - 0.2438, 0.1219)
        assert delay_fb(params, 0.1219) == pytest.approx(7.203445447087777, rel=1e-12)

    def test_nofb_light_traffic_limit(self):
        params = chain_params_from_rates(0.25, 1.0 - 0.25, 0.0)
        assert delay_fb(params, 0.0) == pytest.approx(4.0, rel=1e-15)

    def test_nofb_at_least_service_time(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            mu = rng.uniform(0.05, 1.0)
            lam = rng.uniform(0.0, mu * 0.99)
            d = delay_fb(chain_params_from_rates(mu, 1.0 - mu, lam), lam)
            assert d >= (1.0 - lam) / mu - 1e-12
            assert d >= 1.0 - lam

    def test_nofb_unstable(self):
        got = delay_fb(chain_params_from_rates(0.25, 1.0 - 0.25, 0.3), 0.3)
        assert isinstance(got, Unstable)

    def test_fb_littles_law(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            params, lam = sample_stable_params(rng)
            direct = delay_fb(params, lam)
            dist = closed_form_distribution(params, lam)
            via_littles = littles_law_delay(dist, lam)
            assert abs(direct - via_littles) / direct <= 1e-6

    def test_fb_equals_nofb_when_silent(self, ref_cfg, ref_sensing):
        # with silent secondaries feedback changes nothing
        silent = AccessPolicy((0.0, 0.0, 0.0, 0.0))
        params = chain_params(ref_cfg, ref_sensing, silent, Scheme.FEEDBACK)
        mu = params.gamma_p
        d_fb = delay_fb(params, ref_cfg.lambda_p)
        d_no = delay_fb(chain_params_from_rates(mu, 1.0 - mu, ref_cfg.lambda_p), ref_cfg.lambda_p)
        assert d_fb == pytest.approx(d_no, rel=1e-12)

    def test_fb_saturated_service_corner(self):
        # gamma_p = 1 and delta = 0 give chi = 1: every slot serves, so the
        # sojourn collapses to the single service slot
        params = chain_params_from_rates(1.0, 0.0, 0.5)
        assert params.chi == 1.0
        assert delay_fb(params, 0.5) == 1.0

    def test_littles_law_validation(self):
        params = chain_params_from_rates(0.3, 0.6, 0.1)
        dist = closed_form_distribution(params, 0.1)
        with pytest.raises(ValueError):
            littles_law_delay(dist, 0.0)


class TestEverySchemeChain:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_oracles_at_the_optimum(self, scheme):
        # the chain of chain_params at each scheme's evaluate optimum, on
        # sample_network draws and on the same draws with many primaries,
        # where delta_bar is small
        rng = np.random.default_rng(37)
        for M_p in (None, 50, 5000):
            for _ in range(10):
                cfg, sensing = sample_network(rng, M_p=M_p)
                lam = cfg.lambda_p
                point = evaluate(cfg, sensing, scheme)
                assert point.result.feasible
                policy = point.result.policy
                params = chain_params(cfg, point.sensing, policy, scheme)
                closed = closed_form_distribution(params, lam)
                assert closed.pi[0] == pi0(cfg, point.sensing, policy, scheme) == point.pi0
                numeric = numeric_distribution(params, lam)
                assert np.max(np.abs(closed.pi - numeric.pi)) <= 1e-9
                assert np.max(np.abs(closed.eps - numeric.eps)) <= 1e-9
                delay = delay_fb(params, lam)
                assert delay == point.delay
                assert abs(littles_law_delay(closed, lam) - delay) <= 1e-6 * delay
                if scheme is not Scheme.FEEDBACK:  # a Bernoulli server of rate mu_p
                    mu_p = params.gamma_p
                    assert point.pi0 == pytest.approx(1.0 - lam / mu_p, rel=1e-12)
                    assert delay == pytest.approx((1.0 - lam) / (mu_p - lam), rel=1e-12)
