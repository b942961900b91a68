"""Physical-layer primitives: outage, energy bins, joint access, configs."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from softaccess import (
    AccessPolicy,
    NetworkConfig,
    Scheme,
    SensingConfig,
    bin_probabilities,
    clamp_probability,
    joint_access_probability,
    log_complement_outage,
    outage_probability,
)

# frozen reference values at the default geometry
P_PD_REF = 0.02480601062669676
P_PS_REF = 0.10649183858063484


class TestOutage:
    def test_reference_direct_link(self):
        p = outage_probability(0.1, 100.0, 3.7, 10.0, 1e-11)
        assert p == pytest.approx(P_PD_REF, rel=1e-12)
        assert p == pytest.approx(0.02481, abs=1e-5)

    def test_zero_snr_margin(self):
        assert outage_probability(0.1, 100.0, 3.7, 0.0, 1e-11) == 0.0

    def test_reference_cross_link(self):
        p = outage_probability(0.1, 150.0, 3.7, 10.0, 1e-11)
        assert p == pytest.approx(P_PS_REF, rel=1e-12)
        assert p == pytest.approx(0.1065, abs=1e-4)

    @pytest.mark.parametrize("kwargs", [
        dict(G=0.0), dict(G=-1.0), dict(r=0.0), dict(r=-5.0),
        dict(gamma=0.0), dict(N_0=0.0), dict(zeta=-0.1),
    ])
    def test_domain_errors(self, kwargs):
        base = dict(G=0.1, r=100.0, gamma=3.7, zeta=10.0, N_0=1e-11)
        base.update(kwargs)
        with pytest.raises(ValueError):
            outage_probability(base["G"], base["r"], base["gamma"],
                               base["zeta"], base["N_0"])

    @given(
        G=st.floats(1e-3, 10.0),
        r=st.floats(1.0, 1e4),
        gamma=st.floats(2.0, 6.0),
        zeta=st.floats(0.0, 100.0),
    )
    @settings(deadline=None, max_examples=80)
    def test_range_and_log_twin(self, G, r, gamma, zeta):
        p = outage_probability(G, r, gamma, zeta, 1e-11)
        assert 0.0 <= p <= 1.0
        lc = log_complement_outage(G, r, gamma, zeta, 1e-11)
        assert lc <= 0.0
        if lc > -36.0:  # below that 1-p underflows the float gap at 1.0
            assert p < 1.0
            # log1p reconstruction loses ~eps/(1-p) absolute accuracy near p=1
            slack = 1e-12 + 4.0 * 2.22e-16 * math.exp(-lc)
            assert math.log1p(-p) == pytest.approx(lc, rel=1e-12, abs=slack)

    @given(r=st.floats(10.0, 500.0), scale=st.floats(1.1, 3.0))
    @settings(deadline=None, max_examples=60)
    def test_monotonicity(self, r, scale):
        base = outage_probability(0.1, r, 3.7, 10.0, 1e-11)
        assert outage_probability(0.1, r * scale, 3.7, 10.0, 1e-11) >= base
        assert outage_probability(0.1, r, 3.7, 10.0 * scale, 1e-11) >= base
        # stronger link gain can only help
        assert outage_probability(0.1 * scale, r, 3.7, 10.0, 1e-11) <= base


class TestBins:
    def test_single_bin_telescopes(self):
        p = bin_probabilities(2.0, 1, 1.0)
        assert p.shape == (1,)
        assert p[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)

    def test_reference_four_bins(self):
        p = bin_probabilities(2.0, 4, 1.0)
        assert p[0] == pytest.approx(0.22119921692859512, rel=1e-14)
        # partial sums are the exponential CDF at the bin edges
        edges = np.arange(1, 5) * 0.5
        cdf = stats.expon.cdf(edges, scale=2.0)
        assert np.cumsum(p) == pytest.approx(cdf, rel=1e-13)

    @given(
        eta=st.floats(1e-3, 50.0),
        n=st.integers(1, 12),
        sigma_sq=st.floats(1e-2, 10.0),
    )
    @settings(deadline=None, max_examples=80)
    def test_shape_and_ordering(self, eta, n, sigma_sq):
        assume(eta / (2.0 * sigma_sq) < 80.0)  # keep the last bin above underflow
        p = bin_probabilities(eta, n, sigma_sq)
        assert p.shape == (n,)
        assert np.all(p > 0.0)
        assert np.all(np.diff(p) < 0.0) or n == 1
        total = 1.0 - math.exp(-eta / (2.0 * sigma_sq))
        assert p.sum() == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("eta, n", [(1e300, 4), (1e298, 1_000_000)])
    def test_refuses_edges_past_the_float_range(self, eta, n):
        # an infinite bin width or last edge would make 0*inf = nan bins
        with pytest.raises(ValueError, match="overflows a float"):
            bin_probabilities(eta, n, 5e-12)

    @given(
        eta=st.floats(0.05, 5.0),
        n=st.integers(1, 8),
        ratio=st.floats(1.2, 50.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_busy_mass_below_idle_mass(self, eta, n, ratio):
        # hotter statistic pushes probability past the threshold
        idle = bin_probabilities(eta, n, 1.0).sum()
        busy = bin_probabilities(eta, n, ratio).sum()
        assert busy < idle


class TestJointAccess:
    def test_corners_and_dot(self):
        bins = np.array([0.3, 0.2])
        assert joint_access_probability(AccessPolicy((0.0, 0.0)), bins) == 0.0
        assert joint_access_probability(AccessPolicy((1.0, 1.0)), bins) == pytest.approx(0.5)
        got = joint_access_probability(AccessPolicy((1.0, 0.5)), bins)
        assert got == pytest.approx(0.4, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            joint_access_probability(AccessPolicy((1.0, 0.5)), np.array([0.3, 0.2, 0.1]))

    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.integers(0, 2), st.floats(0.0, 1.0))
    @settings(deadline=None, max_examples=60)
    def test_monotone_in_each_entry(self, a, idx, bump):
        bins = np.array([0.25, 0.15, 0.1])
        lo = joint_access_probability(AccessPolicy(tuple(a)), bins)
        raised = list(a)
        raised[idx] = min(1.0, raised[idx] + bump)
        hi = joint_access_probability(AccessPolicy(tuple(raised)), bins)
        assert hi >= lo - 1e-15


class TestClamp:
    def test_rounds_within_tolerance(self):
        assert clamp_probability(-1e-13) == 0.0
        assert clamp_probability(1.0 + 1e-13) == 1.0
        assert clamp_probability(0.5) == 0.5

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(ValueError):
            clamp_probability(-1e-9)
        with pytest.raises(ValueError):
            clamp_probability(1.0 + 1e-9)


class TestNetworkConfig:
    def test_defaults(self, ref_cfg):
        assert ref_cfg.M_p == 4
        assert ref_cfg.M_s == 2
        assert ref_cfg.lambda_p == 0.1
        assert ref_cfg.zeta == 10.0
        assert ref_cfg.omega_p == (0.25, 0.25, 0.25, 0.25)

    @pytest.mark.parametrize("kwargs", [
        dict(M_p=0), dict(M_s=0), dict(lambda_p=-0.1), dict(lambda_p=1.5),
        dict(r_pd=-1.0), dict(G_p=0.0), dict(N_0=0.0), dict(gamma=0.0),
        dict(zeta=-1.0), dict(omega_p=(0.5, 0.5)),
        dict(omega_p=(0.5, 0.5, 0.5, 0.5)), dict(omega_p=(0.5, -0.1, 0.3, 0.3)),
        # distances whose power in the link budget overflows a float
        dict(r_pd=1e300), dict(r_sd=1e300), dict(r_ps=1e-300),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    def test_partial_ownership_allowed(self):
        cfg = NetworkConfig(omega_p=(0.2, 0.2, 0.2, 0.2))
        assert sum(cfg.omega_p) == pytest.approx(0.8)


class TestSensingConfig:
    def test_default_sensing_frozen(self, ref_cfg, ref_sensing):
        assert ref_sensing.n == 4
        assert ref_sensing.sigma0_sq == pytest.approx(5e-12, rel=1e-15)
        assert ref_sensing.sigma1_sq == pytest.approx(4.490504820227076e-10, rel=1e-12)
        assert ref_sensing.eta == pytest.approx(2.3025850929940454e-11, rel=1e-12)
        # threshold calibrated so an idle slot exceeds it 10% of the time
        assert ref_sensing.p0().sum() == pytest.approx(0.9, rel=1e-12)
        assert ref_sensing.p1().sum() == pytest.approx(0.025312504513135936, rel=1e-12)

    def test_p0_reference_bins(self, ref_sensing):
        expect = [0.4376586748096509, 0.24611355917351113,
                  0.13839982501294565, 0.07782794100389227]
        assert ref_sensing.p0() == pytest.approx(expect, rel=1e-12)

    def test_requires_busy_hotter_than_idle(self):
        with pytest.raises(ValueError):
            SensingConfig(eta=1.0, n=2, sigma0_sq=1.0, sigma1_sq=1.0)

    def test_bins_match_free_function(self, ref_sensing):
        direct = bin_probabilities(ref_sensing.eta, ref_sensing.n,
                                   ref_sensing.sigma0_sq)
        assert np.array_equal(ref_sensing.p0(), direct)


class TestAccessPolicy:
    def test_coercion_and_scheme(self):
        pol = AccessPolicy((1, 0), Scheme.FEEDBACK)
        assert pol.a == (1.0, 0.0)
        assert all(isinstance(x, float) for x in pol.a)
        assert pol.scheme is Scheme.FEEDBACK
        assert pol.n == 2

    @pytest.mark.parametrize("a", [(), (1.2,), (-0.1, 0.5)])
    def test_validation(self, a):
        with pytest.raises(ValueError):
            AccessPolicy(a)
