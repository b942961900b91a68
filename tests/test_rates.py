"""Analytic service-rate, throughput, and occupancy formulas."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softaccess import (
    AccessPolicy,
    NetworkConfig,
    Scheme,
    SensingConfig,
    Unstable,
    chain_params,
    chain_params_from_rates,
    closed_form_distribution,
    default_sensing,
    delay_fb,
    delta_pi0,
    joint_access_probability,
    pi0,
    primary_outage,
    secondary_outage,
    secondary_throughput_fb,
    secondary_throughput_nofb,
)

from conftest import sample_network

MU_P_SILENT = 0.24379849734332582  # (1-P_pd)/M_p at the reference geometry
PI0_FB_SILENT = 0.5898251995410111  # 1 - lam*M_p/(1-P_pd) at lam=0.1

SILENT = AccessPolicy((0.0, 0.0, 0.0, 0.0))


def pi0_feedback_expanded(cfg, sensing, policy):
    """pi_0 under feedback in its expanded form, 1 - lambda*(1 + M_p/(1-P_pd) - (1-s1)^M_s)."""
    s1 = joint_access_probability(policy, sensing.p1())
    bracket = 1.0 + cfg.M_p / (1.0 - primary_outage(cfg)) - (1.0 - s1) ** cfg.M_s
    return 1.0 - cfg.lambda_p * bracket


def random_policy(rng, n=4, scheme=Scheme.NO_FEEDBACK):
    return AccessPolicy(tuple(rng.uniform(0.0, 1.0, size=n)), scheme)


class TestPrimaryServiceRate:
    def test_silent_secondaries(self, ref_cfg, ref_sensing):
        mu = chain_params(ref_cfg, ref_sensing, SILENT, Scheme.NO_FEEDBACK).gamma_p
        assert mu == pytest.approx(MU_P_SILENT, rel=1e-12)
        assert mu == pytest.approx(0.24380, abs=1e-5)

    def test_equals_chain_gamma(self, ref_cfg, ref_sensing):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pol = random_policy(rng)
            mu = chain_params(ref_cfg, ref_sensing, pol, Scheme.NO_FEEDBACK).gamma_p
            assert mu == chain_params(ref_cfg, ref_sensing, pol, Scheme.FEEDBACK).gamma_p

    def test_blind_aggressive_access_starves_primary(self, ref_cfg):
        # threshold far above both statistics: the busy state is never
        # flagged, and an always-transmit policy then collides every slot
        sensing = SensingConfig(eta=1e-6, n=1,
                                sigma0_sq=5e-12, sigma1_sq=4.4905e-10)
        mu = chain_params(ref_cfg, sensing, AccessPolicy((1.0,)), Scheme.NO_FEEDBACK).gamma_p
        assert mu < 1e-6

    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
           st.integers(0, 3))
    @settings(deadline=None, max_examples=60)
    def test_monotone_nonincreasing_in_access(self, a, idx):
        cfg = NetworkConfig()
        sensing = default_sensing(cfg)
        lo = chain_params(cfg, sensing, AccessPolicy(tuple(a)), Scheme.NO_FEEDBACK).gamma_p
        raised = list(a)
        raised[idx] = 1.0
        hi = chain_params(cfg, sensing, AccessPolicy(tuple(raised)), Scheme.NO_FEEDBACK).gamma_p
        assert hi <= lo + 1e-15


class TestSecondaryThroughput:
    def test_silent_is_zero(self, ref_cfg, ref_sensing):
        assert secondary_throughput_nofb(ref_cfg, ref_sensing, SILENT) == 0.0

    def test_single_secondary_no_primaries_backlog(self, ref_sensing):
        cfg = NetworkConfig(M_s=1, lambda_p=0.0)
        pol = AccessPolicy((1.0, 1.0, 1.0, 1.0))
        s0 = float(ref_sensing.p0().sum())
        clear = 1.0 - secondary_outage(cfg)
        got = secondary_throughput_nofb(cfg, ref_sensing, pol)
        assert got == pytest.approx(clear * s0, rel=1e-12)

    def test_unstable_marker(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.2438)
        pol = AccessPolicy((1.0, 1.0, 1.0, 1.0))
        got = secondary_throughput_nofb(cfg, ref_sensing, pol)
        assert isinstance(got, Unstable)
        assert not got
        assert got.margin <= 0.0
        # the same overload is past chi under feedback too, and every fb quantity says so
        params = chain_params(cfg, ref_sensing, pol, Scheme.FEEDBACK)
        for got in (pi0(cfg, ref_sensing, pol, Scheme.FEEDBACK), delay_fb(params, cfg.lambda_p),
                    secondary_throughput_fb(cfg, ref_sensing, pol)):
            assert isinstance(got, Unstable)
            assert got.margin == params.margin < 0.0

    def test_feedback_dominates_nofb_pointwise(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            cfg, sensing = sample_network(rng)
            pol = AccessPolicy(tuple(rng.uniform(0.0, 1.0, size=sensing.n)))
            fb = secondary_throughput_fb(cfg, sensing, pol)
            nofb = secondary_throughput_nofb(cfg, sensing, pol)
            if isinstance(fb, Unstable) or isinstance(nofb, Unstable):
                continue
            assert fb >= nofb - 1e-15


class TestPi0:
    def test_no_arrivals_means_idle(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.0)
        pol = AccessPolicy((0.5, 0.5, 0.5, 0.5))
        assert pi0(cfg, ref_sensing, pol, Scheme.FEEDBACK) == pytest.approx(1.0)
        assert pi0(cfg, ref_sensing, pol, Scheme.NO_FEEDBACK) == pytest.approx(1.0)

    def test_silent_reference(self, ref_cfg, ref_sensing):
        got = pi0(ref_cfg, ref_sensing, SILENT, Scheme.FEEDBACK)
        assert got == pytest.approx(PI0_FB_SILENT, rel=1e-12)
        # with silent secondaries both schemes see the same queue
        assert got == pytest.approx(pi0(ref_cfg, ref_sensing, SILENT, Scheme.NO_FEEDBACK), rel=1e-12)

    def test_compact_equals_expanded(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            cfg, sensing = sample_network(rng)
            pol = AccessPolicy(tuple(rng.uniform(0.0, 1.0, size=sensing.n)))
            compact = pi0(cfg, sensing, pol, Scheme.FEEDBACK)
            # lambda_p <= 0.85 delta_bar, where feedback keeps every policy stable
            assert not isinstance(compact, Unstable)
            assert compact == pytest.approx(pi0_feedback_expanded(cfg, sensing, pol), rel=1e-12)

    def test_matches_chain_distribution(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            cfg, sensing = sample_network(rng)
            pol = AccessPolicy(tuple(rng.uniform(0.0, 1.0, size=sensing.n)))
            direct = pi0(cfg, sensing, pol, Scheme.FEEDBACK)
            if isinstance(direct, Unstable) or cfg.lambda_p == 0.0:
                continue
            params = chain_params(cfg, sensing, pol, Scheme.FEEDBACK)
            if params.psi > 0.95:
                continue
            dist = closed_form_distribution(params, cfg.lambda_p)
            assert direct == pytest.approx(dist.pi[0], rel=1e-12)
            checked += 1


class TestDeltaPi0:
    def test_exact_zero_branches(self, ref_cfg, ref_sensing):
        assert delta_pi0(ref_cfg, ref_sensing, SILENT) == 0.0
        cfg0 = NetworkConfig(lambda_p=0.0)
        pol = AccessPolicy((0.7, 0.7, 0.7, 0.7))
        assert delta_pi0(cfg0, ref_sensing, pol) == 0.0

    def test_identity_with_direct_difference(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 60:
            cfg, sensing = sample_network(rng)
            pol = AccessPolicy(tuple(rng.uniform(0.0, 1.0, size=sensing.n)))
            gap = delta_pi0(cfg, sensing, pol)
            if isinstance(gap, Unstable):
                continue
            fb = pi0(cfg, sensing, pol, Scheme.FEEDBACK)
            nofb = pi0(cfg, sensing, pol, Scheme.NO_FEEDBACK)
            assert not isinstance(nofb, Unstable)
            assert gap == pytest.approx(fb - nofb, rel=1e-11, abs=1e-14)
            assert gap >= -1e-12
            checked += 1

    def test_unstable_marker(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.24)
        pol = AccessPolicy((1.0, 1.0, 1.0, 1.0))
        assert isinstance(delta_pi0(cfg, ref_sensing, pol), Unstable)


class TestStability:
    def test_zero_arrivals_always_stable(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.0)
        pol = AccessPolicy((1.0, 1.0, 1.0, 1.0))
        for scheme in (Scheme.NO_FEEDBACK, Scheme.FEEDBACK, Scheme.GENIE):
            assert chain_params(cfg, ref_sensing, pol, scheme).margin > 0.0

    def test_saturated_arrivals_never_stable(self, ref_sensing):
        # service is at most 1/M_p per slot, so lambda=1 cannot be served
        cfg = NetworkConfig(lambda_p=1.0)
        pol = AccessPolicy((0.0, 0.0, 0.0, 0.0))
        for scheme in (Scheme.NO_FEEDBACK, Scheme.FEEDBACK, Scheme.GENIE):
            assert chain_params(cfg, ref_sensing, pol, scheme).margin <= 0.0

    def test_feedback_margin_dominates(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            cfg, sensing = sample_network(rng)
            pol = AccessPolicy(tuple(rng.uniform(0.0, 1.0, size=sensing.n)))
            m_fb = chain_params(cfg, sensing, pol, Scheme.FEEDBACK).margin
            m_no = chain_params(cfg, sensing, pol, Scheme.NO_FEEDBACK).margin
            assert m_fb >= m_no - 1e-15

    def test_psi_below_one_iff_stable(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            gamma_p = rng.uniform(0.01, 0.9)
            delta = rng.uniform(0.0, 0.99)
            lam = rng.uniform(0.0, 0.99)
            params = chain_params_from_rates(gamma_p, delta, lam)
            if lam == 0.0:
                continue
            assert (params.psi < 1.0) == (lam < params.chi)


class TestChainParams:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            chain_params_from_rates(-0.1, 0.5, 0.1)
        with pytest.raises(ValueError):
            chain_params_from_rates(0.5, 1.2, 0.1)
        with pytest.raises(ValueError):
            chain_params_from_rates(0.5, 0.5, -0.2)

    def test_zero_arrivals_zero_psi(self):
        params = chain_params_from_rates(0.3, 0.6, 0.0)
        assert params.psi == 0.0

    def test_chi_composition(self, ref_cfg, ref_sensing):
        pol = AccessPolicy((0.4, 0.3, 0.2, 0.1))
        params = chain_params(ref_cfg, ref_sensing, pol, Scheme.FEEDBACK)
        lam = ref_cfg.lambda_p
        chi = lam * params.gamma_p + (1.0 - lam) * (1.0 - params.delta)
        assert params.chi == pytest.approx(chi, rel=1e-15)


class TestUnstable:
    def test_falsy_with_margin(self):
        u = Unstable(-0.05)
        assert not u
        assert u.margin == -0.05
