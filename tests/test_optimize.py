"""Access-probability optimization: frontier search, baselines, oracles."""
from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from softaccess import (
    AccessPolicy,
    NetworkConfig,
    Scheme,
    SensingConfig,
    baseline_genie,
    baseline_hard_decision,
    chain_params,
    default_sensing,
    delay_fb,
    evaluate,
    grid_search,
    hard_decision_sensing,
    joint_access_probability,
    pi0,
    primary_outage,
    secondary_outage,
    secondary_throughput_fb,
    secondary_throughput_nofb,
    solve_feedback,
    solve_nofb,
)
from softaccess.optimize import _aligned_empty
from softaccess.rates import _delta_bar, _log_w, _margin

from conftest import sample_network

# frozen optima at the reference configuration (lambda = 0.1, n = 4)
FB_OBJ_REF = 0.14341079707815316
NOFB_OBJ_REF = 0.1421919472279614
HARD_OBJ_REF = 0.14094080532664746
GENIE_OBJ_REF = 0.1437984973433258


def delta_bar(cfg):
    return (1.0 - primary_outage(cfg)) / cfg.M_p


class TestSolveFeedback:
    def test_reference_optimum(self, ref_cfg, ref_sensing):
        res = solve_feedback(ref_cfg, ref_sensing)
        assert res.feasible
        assert res.objective == pytest.approx(FB_OBJ_REF, rel=1e-12)
        assert res.policy.scheme is Scheme.FEEDBACK
        assert res.policy.a[0] == pytest.approx(1.0)
        # the exact root of the first-order condition is 0.24888438572978791
        assert res.policy.a[1] == pytest.approx(0.2488843857297879, rel=1e-12)
        assert res.policy.a[2] == 0.0 and res.policy.a[3] == 0.0

    def test_objective_is_rates_formula(self, ref_cfg, ref_sensing):
        res = solve_feedback(ref_cfg, ref_sensing)
        assert res.objective == secondary_throughput_fb(ref_cfg, ref_sensing,
                                                        res.policy)

    def test_feasible_implies_stable(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            cfg, sensing = sample_network(rng)
            res = solve_feedback(cfg, sensing)
            if res.feasible:
                assert chain_params(cfg, sensing, res.policy, Scheme.FEEDBACK).margin > 0.0

    def test_infeasible_when_load_exceeds_service(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.25)
        res = solve_feedback(cfg, ref_sensing)
        assert not res.feasible
        assert res.objective == 0.0
        assert res.policy.a == (0.0, 0.0, 0.0, 0.0)

    def test_no_arrivals_unconstrained_aloha(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.0)
        res = solve_feedback(cfg, ref_sensing)
        s0 = float(np.dot(res.policy.a, ref_sensing.p0()))
        assert s0 == pytest.approx(min(1.0 / cfg.M_s, ref_sensing.p0().sum()),
                                   rel=1e-12)

    def test_matches_grid_oracle_two_bins(self, ref_cfg):
        sensing = default_sensing(ref_cfg, n=2)
        res = solve_feedback(ref_cfg, sensing)
        a_grid, obj_grid = grid_search(ref_cfg, sensing, Scheme.FEEDBACK)
        assert res.objective >= obj_grid - 1e-12
        assert abs(res.objective - obj_grid) <= 1e-3


def kkt_residual_nofb(cfg: NetworkConfig, sensing: SensingConfig, policy: AccessPolicy) -> float:
    """Max KKT violation of the no-feedback objective at the policy.

    Interior coordinates must have zero gradient; gradients must point
    inward at the box faces. Returns the largest violation magnitude.
    """
    p0 = sensing.p0()
    p1 = sensing.p1()
    a = np.asarray(policy.a)
    lam = cfg.lambda_p
    M_s = cfg.M_s
    delta_bar = _delta_bar(cfg)
    clear_sd = 1.0 - secondary_outage(cfg)
    s0 = float(p0 @ a)
    s1 = float(p1 @ a)
    mu_p = delta_bar * (1.0 - s1) ** M_s
    pi0 = _margin(delta_bar, lam, delta_bar, _log_w(s1, M_s)) / mu_p  # slope delta_bar, no feedback
    h = s0 * (1.0 - s0) ** (M_s - 1)
    dh = (1.0 - s0) ** (M_s - 2) * (1.0 - M_s * s0) if M_s > 1 else 1.0
    dpi0 = -lam * M_s / (delta_bar * (1.0 - s1) ** (M_s + 1))
    grad = clear_sd * (pi0 * dh * p0 + h * dpi0 * p1)
    residual = 0.0
    for i in range(a.size):
        if a[i] < 1e-9:
            residual = max(residual, grad[i])  # pushing up must not help
        elif a[i] > 1.0 - 1e-9:
            residual = max(residual, -grad[i])  # pushing down must not help
        else:
            residual = max(residual, abs(grad[i]))
    return float(residual)


class TestSolveNofb:
    def test_reference_optimum(self, ref_cfg, ref_sensing):
        res = solve_nofb(ref_cfg, ref_sensing)
        assert res.feasible
        assert res.objective == pytest.approx(NOFB_OBJ_REF, rel=1e-12)
        assert res.policy.scheme is Scheme.NO_FEEDBACK
        assert res.policy.a[0] == pytest.approx(1.0)
        # the exact root of the first-order condition is 0.23443713760222121
        assert res.policy.a[1] == pytest.approx(0.23443713760222112, rel=1e-12)
        assert res.policy.a[2] == 0.0 and res.policy.a[3] == 0.0

    def test_objective_is_rates_formula(self, ref_cfg, ref_sensing):
        res = solve_nofb(ref_cfg, ref_sensing)
        assert res.objective == secondary_throughput_nofb(ref_cfg, ref_sensing,
                                                          res.policy)

    def test_infeasibility_boundary(self, ref_sensing):
        db = delta_bar(NetworkConfig())
        assert not solve_nofb(NetworkConfig(lambda_p=db + 1e-6),
                              ref_sensing).feasible
        assert solve_nofb(NetworkConfig(lambda_p=db - 1e-3),
                          ref_sensing).feasible

    def test_no_arrivals_unconstrained_aloha(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.0)
        res = solve_nofb(cfg, ref_sensing)
        s0 = float(np.dot(res.policy.a, ref_sensing.p0()))
        assert s0 == pytest.approx(0.5, rel=1e-12)

    def test_kkt_residual_at_optimum(self):
        for cfg, sensing in dense_oracle_networks():
            res = solve_nofb(cfg, sensing)
            assert kkt_residual_nofb(cfg, sensing, res.policy) <= 1e-12, cfg

    def test_kkt_rejects_clearly_suboptimal(self, ref_cfg, ref_sensing):
        pol = AccessPolicy((0.5, 0.5, 0.5, 0.5))
        assert kkt_residual_nofb(ref_cfg, ref_sensing, pol) > 1e-4

    def test_matches_grid_oracle_two_bins(self, ref_cfg):
        sensing = default_sensing(ref_cfg, n=2)
        res = solve_nofb(ref_cfg, sensing)
        a_grid, obj_grid = grid_search(ref_cfg, sensing, Scheme.NO_FEEDBACK)
        assert res.objective >= obj_grid - 1e-12
        assert abs(res.objective - obj_grid) <= 1e-3

    def test_feasible_implies_stable(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            cfg, sensing = sample_network(rng)
            res = solve_nofb(cfg, sensing)
            if res.feasible:
                assert chain_params(cfg, sensing, res.policy, Scheme.NO_FEEDBACK).margin > 0.0


class TestBaselines:
    def test_hard_decision_is_single_bin_restriction(self, ref_cfg, ref_sensing):
        res = baseline_hard_decision(ref_cfg, ref_sensing)
        assert res.policy.scheme is Scheme.HARD_DECISION
        assert res.policy.n == 1
        assert res.objective == pytest.approx(HARD_OBJ_REF, rel=1e-12)
        twin = solve_nofb(ref_cfg, hard_decision_sensing(ref_sensing))
        assert res.objective == twin.objective
        assert res.policy.a == twin.policy.a

    def test_hard_never_beats_soft(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            cfg, sensing = sample_network(rng, n=4)
            hard = baseline_hard_decision(cfg, sensing)
            soft = solve_nofb(cfg, sensing)
            assert hard.feasible == soft.feasible
            if hard.feasible:
                assert hard.objective <= soft.objective + 1e-12

    def test_genie_reference(self, ref_cfg):
        res = baseline_genie(ref_cfg)
        assert res.feasible
        assert res.policy.scheme is Scheme.GENIE
        assert res.policy.a == (0.5,)
        assert res.objective == pytest.approx(GENIE_OBJ_REF, rel=1e-12)

    def test_genie_closed_form(self):
        for M_s in (1, 2, 3):
            cfg = NetworkConfig(M_s=M_s, lambda_p=0.1)
            res = baseline_genie(cfg)
            a = 1.0 / M_s
            clear = 1.0 - secondary_outage(cfg)
            pi0 = 1.0 - cfg.lambda_p / delta_bar(cfg)
            expect = pi0 * clear * a * (1.0 - a) ** (M_s - 1)
            assert res.policy.a == (a,)
            assert res.objective == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("M_s", range(1, 11))
    def test_genie_objective_is_rates_product(self, M_s):
        # the product every sensing scheme reports, bit for bit
        cfg = NetworkConfig(lambda_p=0.1, M_s=M_s)
        res = baseline_genie(cfg)
        a = 1.0 / M_s
        empty = pi0(cfg, None, res.policy, Scheme.GENIE)
        factor = a * math.exp((M_s - 1) * math.log1p(-a)) if M_s > 1 else a
        assert res.objective == empty * (1 - secondary_outage(cfg)) * factor

    def test_genie_dominates_feedback(self, ref_sensing):
        for lam in (0.0, 0.05, 0.1, 0.2):
            cfg = NetworkConfig(lambda_p=lam)
            fb = solve_feedback(cfg, ref_sensing)
            genie = baseline_genie(cfg)
            assert fb.objective <= genie.objective + 1e-12

    def test_genie_infeasible_when_overloaded(self):
        res = baseline_genie(NetworkConfig(lambda_p=0.25))
        assert not res.feasible

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_dead_primary_link_is_infeasible(self, lam):
        # at r_pd = 1000 the primary outage rounds to 1, so delta_bar = 0
        cfg = NetworkConfig(r_pd=1000.0, lambda_p=lam)
        assert primary_outage(cfg) == 1.0
        sensing = default_sensing(cfg)
        for res in (solve_feedback(cfg, sensing), solve_nofb(cfg, sensing),
                    baseline_hard_decision(cfg, sensing), baseline_genie(cfg)):
            assert not res.feasible
            assert res.objective == 0.0


def dense_grid(cfg, sensing, scheme, step):
    """The one-shot grid oracle: every grid row at once, -inf at unstable rows."""
    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    mesh = np.meshgrid(*([axis] * sensing.n), indexing="ij")
    A = np.stack([m.ravel() for m in mesh], axis=1)
    s0 = A @ sensing.p0()
    s1 = A @ sensing.p1()
    lam = cfg.lambda_p
    db = delta_bar(cfg)
    mu_p = db * (1.0 - s1) ** cfg.M_s
    with np.errstate(divide="ignore", invalid="ignore"):
        if scheme is Scheme.FEEDBACK:
            chi = lam * mu_p + (1.0 - lam) * db
            stable, pi0 = chi > lam, (chi - lam) / db
        else:
            stable, pi0 = mu_p > lam, 1.0 - lam / mu_p
    clear_sd = 1.0 - secondary_outage(cfg)
    return A, np.where(stable, pi0 * clear_sd * s0 * (1.0 - s0) ** (cfg.M_s - 1), -np.inf)


def assert_matches_dense(cfg, sensing, scheme, step):
    A, obj = dense_grid(cfg, sensing, scheme, step)
    got = grid_search(cfg, sensing, scheme, step=step)
    if not np.isfinite(obj).any():
        assert got is None
        return
    best = int(np.argmax(obj))
    assert np.array_equal(got[0], A[best])
    assert got[1] == float(obj[best])


class TestGridSearch:
    def test_none_when_nothing_stable(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.25)
        sensing = default_sensing(cfg, n=2)
        assert grid_search(cfg, sensing, Scheme.NO_FEEDBACK) is None

    def test_rejects_oversized_grid(self, ref_cfg, ref_sensing):
        with pytest.raises(ValueError):
            grid_search(ref_cfg, ref_sensing, Scheme.NO_FEEDBACK, step=0.001)

    def test_rejects_genie(self, ref_cfg, ref_sensing):
        with pytest.raises(ValueError):
            grid_search(ref_cfg, ref_sensing, Scheme.GENIE)

    @pytest.mark.parametrize("step", [-0.1, 0.0, math.nan, math.inf, 2.0])
    def test_rejects_step_outside_unit_interval(self, ref_cfg, step):
        sensing = default_sensing(ref_cfg, n=2)
        with pytest.raises(ValueError, match="step"):
            grid_search(ref_cfg, sensing, Scheme.NO_FEEDBACK, step=step)

    def test_blocks_match_dense_grid(self):
        rng = np.random.default_rng(2024)
        for n in (1, 2, 3, 4):
            for _ in range(8):
                cfg, sensing = sample_network(rng, n=n)
                for scheme in (Scheme.FEEDBACK, Scheme.NO_FEEDBACK):
                    assert_matches_dense(cfg, sensing, scheme, 0.05)

    def test_blocks_match_dense_grid_at_fine_step(self):
        cfg, sensing = sample_network(np.random.default_rng(11), n=3)
        for scheme in (Scheme.FEEDBACK, Scheme.NO_FEEDBACK):
            assert_matches_dense(cfg, sensing, scheme, 0.01)

    def test_blocks_match_dense_grid_near_stability_edge(self):
        cfg, sensing = sample_network(np.random.default_rng(14), n=3, lam_frac=0.97)
        for scheme in (Scheme.FEEDBACK, Scheme.NO_FEEDBACK):
            _, obj = dense_grid(cfg, sensing, scheme, 0.05)
            stable_per_block = np.isfinite(obj).reshape(21, -1).sum(axis=1)
            # stable rows end inside a block, and later blocks have none
            assert ((stable_per_block > 0) & (stable_per_block < 21 * 21)).any()
            assert stable_per_block[-1] == 0
            assert_matches_dense(cfg, sensing, scheme, 0.05)

    def test_blocks_match_dense_grid_when_nothing_stable(self):
        cfg = NetworkConfig(lambda_p=0.25)
        sensing = default_sensing(cfg, n=3)
        for scheme in (Scheme.FEEDBACK, Scheme.NO_FEEDBACK):
            assert not np.isfinite(dense_grid(cfg, sensing, scheme, 0.05)[1]).any()
            assert grid_search(cfg, sensing, scheme, step=0.05) is None

    def test_ties_go_to_the_first_grid_point(self):
        # bins 1 and 2 alike, so (x, y, z) and (y, x, z) tie exactly across blocks
        sensing = SimpleNamespace(n=3, p0=lambda: np.array([0.3, 0.3, 0.2]),
                                  p1=lambda: np.array([0.1, 0.1, 0.5]))
        cfg = NetworkConfig(lambda_p=0.02, M_s=2)
        for scheme in (Scheme.FEEDBACK, Scheme.NO_FEEDBACK):
            A, obj = dense_grid(cfg, sensing, scheme, 0.05)
            a, best = grid_search(cfg, sensing, scheme, step=0.05)
            twin = np.flatnonzero((A == [a[1], a[0], a[2]]).all(axis=1))
            assert a[0] < a[1] and obj[twin] == [best]
            assert_matches_dense(cfg, sensing, scheme, 0.05)

    @pytest.mark.parametrize("shape, dtype", [((10201, 3), float), (10201, float),
                                              (10201, bool), (1, float)])
    def test_row_buffers_start_on_a_cache_line(self, shape, dtype):
        buf = _aligned_empty(shape, dtype)
        assert buf.ctypes.data % 64 == 0 and buf.flags.c_contiguous and buf.flags.writeable
        assert buf.shape == np.empty(shape).shape and buf.dtype == np.dtype(dtype)

    def test_single_bin_matches_solver(self, ref_cfg, ref_sensing):
        sensing = hard_decision_sensing(ref_sensing)
        a_grid, obj_grid = grid_search(ref_cfg, sensing, Scheme.NO_FEEDBACK,
                                       step=0.001)
        res = solve_nofb(ref_cfg, sensing)
        assert abs(res.objective - obj_grid) <= 1e-6
        assert res.objective >= obj_grid - 1e-12

    def test_single_bin_matches_feedback_solver(self, ref_cfg, ref_sensing):
        sensing = hard_decision_sensing(ref_sensing)
        a_grid, obj_grid = grid_search(ref_cfg, sensing, Scheme.FEEDBACK,
                                       step=0.001)
        res = solve_feedback(ref_cfg, sensing)
        assert abs(res.objective - obj_grid) <= 1e-6
        assert res.objective >= obj_grid - 1e-12


def frontier_objective(cfg, sensing, scheme, s0):
    """Objective of the cheapest policy with idle access s0, vectorised over s0.

    The cheapest policy is the greedy prefix, whose busy access s1 is the
    piecewise-linear interpolation of the cumulative bin masses.
    """
    p0 = sensing.p0()
    p1 = sensing.p1()
    s1 = np.interp(s0, np.concatenate([[0.0], np.cumsum(p0)]),
                   np.concatenate([[0.0], np.cumsum(p1)]))
    lam = cfg.lambda_p
    db = delta_bar(cfg)
    w = (1.0 - s1) ** cfg.M_s
    if scheme is Scheme.FEEDBACK:
        pi0 = (lam * db * w + (1.0 - lam) * db - lam) / db
    else:
        pi0 = 1.0 - lam / (db * w)
    obj = pi0 * (1.0 - secondary_outage(cfg)) * s0 * (1.0 - s0) ** (cfg.M_s - 1)
    return np.where(pi0 > 0.0, obj, -np.inf)


def dense_frontier_max(cfg, sensing, scheme, points=10_001, levels=3):
    """Best frontier objective: a dense s0 grid, zoomed twice around its best point."""
    lo, hi = 0.0, float(sensing.p0().sum())
    best = -np.inf
    for _ in range(levels):
        s0 = np.linspace(lo, hi, points)
        obj = frontier_objective(cfg, sensing, scheme, s0)
        k = int(np.argmax(obj))
        best = max(best, float(obj[k]))
        lo, hi = s0[max(k - 1, 0)], s0[min(k + 1, points - 1)]
    return best


BELOW_ALOHA = NetworkConfig(M_s=2, lambda_p=0.05)


def dense_oracle_networks():
    """120 random networks, then one whose whole idle mass lies below the ALOHA point."""
    rng = np.random.default_rng(59)
    for _ in range(120):
        cfg, sensing = sample_network(rng, n=int(rng.integers(1, 9)))
        yield dataclasses.replace(cfg, M_s=int(rng.integers(1, 11))), sensing
    # p0 sums to 0.4, below 1/M_s: the search runs to the last bin, and both
    # optima are the all-ones policy
    yield BELOW_ALOHA, default_sensing(BELOW_ALOHA, idle_tail=0.6)


class TestDenseFrontierOracle:
    def test_both_solvers_reach_dense_maximum(self):
        for cfg, sensing in dense_oracle_networks():
            for scheme, solver in ((Scheme.FEEDBACK, solve_feedback),
                                   (Scheme.NO_FEEDBACK, solve_nofb)):
                res = solver(cfg, sensing)
                dense = dense_frontier_max(cfg, sensing, scheme)
                assert res.feasible
                assert dense > 0.0
                assert res.objective >= dense * (1.0 - 1e-9)
                assert res.objective <= dense * (1.0 + 1e-9)
                if cfg is BELOW_ALOHA:
                    assert res.policy.a == (1.0,) * sensing.n


SOFT_SOLVERS = pytest.mark.parametrize(
    "scheme, solver",
    [(Scheme.FEEDBACK, solve_feedback), (Scheme.NO_FEEDBACK, solve_nofb)],
    ids=["fb", "nofb"])


def random_networks(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cfg, sensing = sample_network(rng, n=int(rng.integers(1, 9)))
        yield dataclasses.replace(cfg, M_s=int(rng.integers(1, 11))), sensing


class TestFrontierPolicy:
    @SOFT_SOLVERS
    def test_policy_is_greedy_prefix(self, scheme, solver):
        for cfg, sensing in random_networks(67, 40):
            a = np.asarray(solver(cfg, sensing).policy.a)
            full = int(np.sum(a == 1.0))
            assert np.all(a[:full] == 1.0)
            assert np.all(a[full + 1:] == 0.0)
            if full < a.size:
                assert 0.0 <= a[full] < 1.0

    @SOFT_SOLVERS
    def test_idle_access_stops_at_aloha_point(self, scheme, solver):
        for cfg, sensing in random_networks(71, 40):
            res = solver(cfg, sensing)
            s0 = float(np.dot(res.policy.a, sensing.p0()))
            assert s0 <= 1.0 / cfg.M_s + 1e-12

    @SOFT_SOLVERS
    def test_optimum_nonincreasing_in_load(self, scheme, solver):
        for cfg, sensing in random_networks(73, 15):
            db = delta_bar(cfg)
            objectives = [solver(dataclasses.replace(cfg, lambda_p=f * db),
                                 sensing).objective
                          for f in np.linspace(0.0, 0.99, 12)]
            for lighter, heavier in zip(objectives, objectives[1:]):
                assert heavier <= lighter * (1.0 + 1e-12)

    @SOFT_SOLVERS
    def test_iterations_count_search_evaluations(self, scheme, solver, ref_sensing):
        res = solver(NetworkConfig(), ref_sensing)
        assert res.feasible and res.iterations >= 1
        assert solver(NetworkConfig(lambda_p=0.25), ref_sensing).iterations == 0

    @SOFT_SOLVERS
    @pytest.mark.filterwarnings("error")
    def test_feasible_up_to_the_load_limit(self, scheme, solver):
        # the budget is clamped inside the stability region, so the search
        # never meets -inf and the policy keeps the queue stable
        for cfg, sensing in random_networks(79, 15):
            for frac in (1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9):
                near = dataclasses.replace(cfg, lambda_p=frac * delta_bar(cfg))
                res = solver(near, sensing)
                assert res.feasible
                assert res.objective > 0.0
                assert chain_params(near, sensing, res.policy, scheme).margin > 0.0


class TestDegenerateDetectors:
    @pytest.mark.parametrize("solver", [solve_feedback, solve_nofb, baseline_hard_decision])
    def test_bin_without_busy_mass(self, solver):
        # idle_tail just below 1 leaves one bin whose p1 underflows to 0: the
        # frontier has no width, and access to the bin is free
        cfg = NetworkConfig()
        sensing = default_sensing(cfg, n=1, idle_tail=0.9999999999999998)
        assert sensing.p1()[0] == 0.0 and sensing.p0()[0] > 0.0
        res = solver(cfg, sensing)
        assert res.feasible and res.iterations == 1  # the one bin rises when full
        assert res.policy.a == (1.0,)
        assert res.objective > 0.0

    @pytest.mark.parametrize("solver", [solve_feedback, solve_nofb, baseline_hard_decision])
    def test_no_busy_mass_stops_at_aloha(self, solver):
        # every p1 underflows to 0: the frontier has no width, and filling
        # every bin would put s0 past the ALOHA optimum 1/M_s
        cfg = NetworkConfig(lambda_p=0.1)
        sensing = dataclasses.replace(default_sensing(cfg), sigma1_sq=1e300)
        assert not sensing.p1().any() and sensing.p0().sum() > 1.0 / cfg.M_s
        res = solver(cfg, sensing)
        detector = hard_decision_sensing(sensing) if solver is baseline_hard_decision else sensing
        assert res.feasible
        assert float(np.dot(res.policy.a, detector.p0())) == pytest.approx(1.0 / cfg.M_s, rel=1e-15)
        # with no busy mass, access never disturbs the primary: the genie's throughput
        assert res.objective == pytest.approx(baseline_genie(cfg).objective, rel=1e-15)

    @pytest.mark.parametrize("solver", [solve_feedback, solve_nofb, baseline_hard_decision])
    def test_bins_without_idle_or_busy_mass(self, solver):
        # idle_tail an ulp below 1 rounds every busy mass and all idle mass
        # but one bin's to 0, the first bin's included: bins of no mass cost
        # nothing, so the search must pass them to reach the idle mass
        cfg = NetworkConfig(M_s=1)
        sensing = default_sensing(cfg, n=6, idle_tail=0.9999999999999999)
        p0 = sensing.p0()
        assert not sensing.p1().any() and p0[0] == 0.0 and np.count_nonzero(p0) == 1
        res = solver(cfg, sensing)
        assert res.feasible and set(res.policy.a) == {1.0}
        # with no busy mass, the genie's throughput at s0 = p0.sum() instead of 1
        assert res.objective == pytest.approx(baseline_genie(cfg).objective * p0.sum(), rel=1e-15)

    @SOFT_SOLVERS
    def test_bins_without_mass_past_the_last_with_mass(self, scheme, solver):
        # bins of width eta/(2 n sigma1^2) = 1: both masses underflow to 0
        # past bin 746, more than half of the 2,000 bins, and the running sum
        # of the busy mass stays below 1, so those bins read as free; the search must
        # not run into them, and the optimum is that of the first 746 bins
        cfg = NetworkConfig(M_s=1, lambda_p=0.1)
        sensing = SensingConfig(eta=40_000.0, n=2_000, sigma0_sq=1.0, sigma1_sq=10.0)
        head = SensingConfig(eta=20.0 * 746, n=746, sigma0_sq=1.0, sigma1_sq=10.0)
        assert not (sensing.p0()[746:].any() or sensing.p1()[746:].any()) and sensing.p1()[745] > 0.0
        assert np.array_equal(sensing.p1()[:746], head.p1()) and sum(head.p1().tolist()) < 1.0
        res, ref = solver(cfg, sensing), solver(cfg, head)
        assert res.feasible and res.policy.a[:746] == ref.policy.a
        assert res.objective == ref.objective

    @SOFT_SOLVERS
    def test_idle_access_reaching_one_at_one_secondary(self, scheme, solver):
        # p0 rounds to 1, so s0 reaches 1 inside the frontier, where
        # (1-s0)^(M_s-1) is 0^0 and the search must read no (M_s-1)/(1-s0)
        cfg = NetworkConfig(M_s=1, lambda_p=0.0)
        sensing = default_sensing(cfg, n=2, idle_tail=1e-17)
        assert sensing.p0().sum() == 1.0
        res = solver(cfg, sensing)
        assert res.feasible and res.policy.a == (1.0, 1.0)
        assert res.objective == pytest.approx(dense_frontier_max(cfg, sensing, scheme), rel=1e-12)

    @pytest.mark.parametrize("solver", [solve_feedback, solve_nofb, baseline_hard_decision])
    def test_budget_rounding_to_one(self, solver):
        # the busy mass of bin 1 rounds to 1, so 1-b reaches 0 inside the
        # frontier, where log1p(-b) would raise and mu_p = 0; with no load the
        # queue stays empty short of that, so every scheme reaches the genie
        # with s0 = 1, and none may beat it
        cfg = NetworkConfig(M_s=1, lambda_p=0.0)
        sensing = SensingConfig(eta=2000.0, n=4, sigma0_sq=1.0, sigma1_sq=2.0)
        assert sensing.p1()[0] == 1.0 and sensing.p0()[0] == 1.0
        genie = baseline_genie(cfg).objective
        res = solver(cfg, sensing)
        assert res.feasible and res.policy.a[0] < 1.0
        assert res.objective == pytest.approx(genie, rel=1e-12)
        assert res.objective <= genie

    @pytest.mark.parametrize("solver", [solve_feedback, solve_nofb, baseline_hard_decision])
    def test_busy_mass_summing_to_one_in_another_order(self, solver):
        # the 100 busy masses sum to 1 - e^-50: their running sum stays below
        # 1, but the dot product of `_throughput` rounds s1 to 1 with every bin
        # full, which leaves mu_p = 0; with no load every scheme reaches the genie
        cfg = NetworkConfig(M_s=1, lambda_p=0.0)
        sensing = SensingConfig(eta=200.0, n=100, sigma0_sq=1.0, sigma1_sq=2.0)
        full = AccessPolicy((1.0,) * 100, Scheme.NO_FEEDBACK)
        assert sum(sensing.p1().tolist()) < 1.0 == joint_access_probability(full, sensing.p1())
        genie = baseline_genie(cfg).objective
        res = solver(cfg, sensing)
        assert res.feasible
        assert res.objective == pytest.approx(genie, rel=1e-12)
        assert res.objective <= genie


class TestSchemeOrdering:
    def test_throughput_chain_across_loads(self, ref_sensing):
        for lam in (0.0, 0.04, 0.08, 0.12, 0.16, 0.2):
            cfg = NetworkConfig(lambda_p=lam)
            hard = baseline_hard_decision(cfg, ref_sensing).objective
            nofb = solve_nofb(cfg, ref_sensing).objective
            fb = solve_feedback(cfg, ref_sensing).objective
            genie = baseline_genie(cfg).objective
            assert hard <= nofb + 1e-12
            assert nofb <= fb + 1e-12
            assert fb <= genie + 1e-12


SOLVERS = {
    Scheme.FEEDBACK: solve_feedback,
    Scheme.NO_FEEDBACK: solve_nofb,
    Scheme.HARD_DECISION: baseline_hard_decision,
    Scheme.GENIE: lambda cfg, sensing: baseline_genie(cfg),
}


class TestEvaluate:
    @pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
    def test_point_is_the_formulas_at_the_optimum(self, scheme, ref_sensing):
        rng = np.random.default_rng(83)
        cases = [(NetworkConfig(), ref_sensing), (NetworkConfig(lambda_p=0.25), ref_sensing)]
        cases += [sample_network(rng) for _ in range(20)]
        feasible = 0
        for cfg, sensing in cases:
            point = evaluate(cfg, sensing, scheme)
            res = SOLVERS[scheme](cfg, sensing)
            assert point.result == res
            if scheme is Scheme.GENIE:
                assert point.sensing is None
            elif scheme is Scheme.HARD_DECISION:
                assert point.sensing == hard_decision_sensing(sensing)
                assert point.sensing.n == 1
            else:
                assert point.sensing is sensing
            if not res.feasible:
                assert math.isnan(point.mu_p)
                assert math.isnan(point.pi0)
                assert math.isnan(point.delay)
                continue
            feasible += 1
            lam = cfg.lambda_p
            if scheme is Scheme.FEEDBACK:
                params = chain_params(cfg, sensing, res.policy, Scheme.FEEDBACK)
                expected = (params.gamma_p, pi0(cfg, sensing, res.policy, Scheme.FEEDBACK),
                            delay_fb(params, lam))
            elif scheme is Scheme.GENIE:
                mu_p = delta_bar(cfg)
                expected = (mu_p, (mu_p - lam) / mu_p,
                            delay_fb(chain_params(cfg, None, res.policy, scheme), lam))
            else:
                sens = sensing if scheme is Scheme.NO_FEEDBACK else hard_decision_sensing(sensing)
                mu_p = chain_params(cfg, sens, res.policy, Scheme.NO_FEEDBACK).gamma_p
                expected = (mu_p, pi0(cfg, sens, res.policy, Scheme.NO_FEEDBACK),
                            delay_fb(chain_params(cfg, sens, res.policy, scheme), lam))
            assert (point.mu_p, point.pi0, point.delay) == expected
        assert not evaluate(NetworkConfig(lambda_p=0.25), ref_sensing, scheme).result.feasible
        assert feasible == len(cases) - 1
