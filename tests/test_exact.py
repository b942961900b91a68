"""Exact-arithmetic oracle for the primary-queue closed forms and the optima.

Every quantity is evaluated in rationals (fractions.Fraction) at the
package's own float inputs: delta_bar, s1, s0, lambda_p, M_s and 1-P_sd.
What is left between the two is the float program's own rounding, which
the package must hold to PRECISION relative, at the optima of the four
schemes on networks at the stability edge (lambda_p/delta_bar = 1 - eps),
on typical ones, on single-primary ones at the edge, where gamma_p is
near 1, and on ones with 10 to 1000 secondaries, where a power (1-s)^M_s
formed by repeated rounding would lose about M_s ulps. The optimizers'
policies are held to the exact root of their first-order condition.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from softaccess import (
    NetworkConfig,
    Scheme,
    Unstable,
    baseline_hard_decision,
    chain_params,
    default_sensing,
    delay_fb,
    delta_pi0,
    evaluate,
    hard_decision_sensing,
    joint_access_probability,
    pi0,
    primary_outage,
    secondary_outage,
    solve_feedback,
    solve_nofb,
)

from conftest import sample_network

PRECISION = 1e-15
NETWORKS = 300


def exact_queue(delta_bar: float, lam: float, s1: float, M_s: int, queue: str) -> dict:
    """pi_0, delay and stability margin of the queue ("fb" or "nofb"), and delta_pi0, in rationals."""
    d, l = Fraction(delta_bar), Fraction(lam)
    w = (1 - Fraction(s1)) ** M_s
    mu_p = d * w
    exact = {"margin_nofb": mu_p - l, "delta_pi0": l * (1 - mu_p) / mu_p * (1 - w)}
    if queue == "nofb":
        return {**exact, "pi0_nofb": (mu_p - l) / mu_p, "delay_nofb": (1 - l) / (mu_p - l)}
    chi = l * mu_p + (1 - l) * d
    return {**exact, "margin_fb": chi - l, "pi0_fb": (chi - l) / d,
            "delay_fb": ((mu_p - chi) * (chi - l) ** 2 + (1 - l) ** 2 * (1 - mu_p) * chi)
                        / ((1 - l) * (1 - chi) * d * (chi - l))}


def exact_mu_s(pi0: Fraction, clear_sd: float, s0: float, M_s: int) -> Fraction:
    """Secondary throughput pi_0 (1-P_sd) s0 (1-s0)^(M_s-1) in rationals."""
    s0 = Fraction(s0)
    return pi0 * Fraction(clear_sd) * s0 * (1 - s0) ** (M_s - 1)


def rel_error(got: float, exact: Fraction) -> float:
    if exact == 0:
        return 0.0 if got == 0.0 else float("inf")
    return float(abs(Fraction(got) - exact) / abs(exact))


def edge_networks(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(NETWORKS):
        eps = float(10.0 ** rng.uniform(-6.0, -3.0))
        yield sample_network(rng, lam_frac=1.0 - eps)


def typical_networks(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(NETWORKS):
        yield sample_network(rng)


def single_primary_networks(seed: int):
    # M_p = 1 puts gamma_p near 1, where 1 - gamma_p cancels
    rng = np.random.default_rng(seed)
    for _ in range(NETWORKS):
        eps = float(10.0 ** rng.uniform(-9.0, -3.0))
        yield sample_network(rng, lam_frac=1.0 - eps, M_p=1)


def large_population_networks(seed: int):
    # M_s log-uniform in [10, 1000]; lambda_p and the detector do not depend on it
    rng = np.random.default_rng(seed)
    for _ in range(60):
        cfg, sensing = sample_network(rng)
        M_s = int(round(10.0 ** rng.uniform(1.0, 3.0)))
        yield dataclasses.replace(cfg, M_s=M_s), sensing


def errors_at_optima(cfg, sensing) -> dict:
    """Largest relative error of each package quantity at the four schemes' optima."""
    lam, M_s = cfg.lambda_p, cfg.M_s
    delta_bar = (1.0 - primary_outage(cfg)) / cfg.M_p
    clear_sd = 1.0 - secondary_outage(cfg)
    errors = {}

    def record(name, got, exact):
        errors[name] = max(errors.get(name, 0.0), rel_error(got, exact))

    for scheme in Scheme:
        point = evaluate(cfg, sensing, scheme)
        assert point.result.feasible, (cfg, scheme)
        policy = point.result.policy
        if scheme is Scheme.GENIE:
            s1, s0 = 0.0, policy.a[0]
        else:
            s1 = joint_access_probability(policy, point.sensing.p1())
            s0 = joint_access_probability(policy, point.sensing.p0())
        queue = "fb" if scheme is Scheme.FEEDBACK else "nofb"
        exact = exact_queue(delta_bar, lam, s1, M_s, queue)
        record(f"pi0_{queue}", point.pi0, exact[f"pi0_{queue}"])
        record(f"delay_{queue}", point.delay, exact[f"delay_{queue}"])
        if scheme is not Scheme.GENIE:  # the genie's margin is delta_bar - lambda_p
            record(f"margin_{queue}", chain_params(cfg, point.sensing, policy, scheme).margin,
                   exact[f"margin_{queue}"])
        record("mu_s", point.result.objective, exact_mu_s(exact[f"pi0_{queue}"], clear_sd, s0, M_s))
        if scheme is Scheme.FEEDBACK:
            record("pi0_fb", pi0(cfg, sensing, policy, Scheme.FEEDBACK), exact["pi0_fb"])
            record("delay_fb", delay_fb(chain_params(cfg, sensing, policy, Scheme.FEEDBACK), lam),
                   exact["delay_fb"])
        elif scheme is Scheme.NO_FEEDBACK:
            record("pi0_nofb", pi0(cfg, sensing, policy, Scheme.NO_FEEDBACK), exact["pi0_nofb"])
        if scheme in (Scheme.FEEDBACK, Scheme.NO_FEEDBACK):
            # past the no-feedback edge the gain is undefined, and must say so
            gap = delta_pi0(cfg, sensing, policy)
            if exact["margin_nofb"] > 0:
                record("delta_pi0", gap, exact["delta_pi0"])
            else:
                assert isinstance(gap, Unstable)
    return errors


@pytest.mark.parametrize("networks", [edge_networks(101), typical_networks(103),
                                      single_primary_networks(107), large_population_networks(109)],
                         ids=["edge", "typical", "single-primary", "large-M_s"])
def test_closed_forms_match_exact_arithmetic(networks):
    worst = {}
    for cfg, sensing in networks:
        for name, err in errors_at_optima(cfg, sensing).items():
            if err >= worst.get(name, (-1.0,))[0]:
                worst[name] = (err, cfg)
    assert len(worst) == 8
    for name, (err, cfg) in worst.items():
        assert err <= PRECISION, f"{name}: {err:.2e} relative at {cfg}"


def test_reference_feedback_policy_is_exactly_better_than_the_old_pin():
    # at the reference network the objective is flat to rounding around its
    # optimum; the returned policy must be at least as good in exact
    # arithmetic as 0.2488844219184036, the a[1] an earlier float program found
    cfg = NetworkConfig()
    sensing = default_sensing(cfg)
    delta_bar = (1.0 - primary_outage(cfg)) / cfg.M_p
    clear_sd = 1.0 - secondary_outage(cfg)
    p0 = [Fraction(p) for p in sensing.p0()]
    p1 = [Fraction(p) for p in sensing.p1()]

    def objective(a) -> Fraction:
        a = [Fraction(x) for x in a]
        s0 = sum(p * x for p, x in zip(p0, a))
        s1 = sum(p * x for p, x in zip(p1, a))
        d, lam = Fraction(delta_bar), Fraction(cfg.lambda_p)
        pi0 = (lam * d * (1 - s1) ** cfg.M_s + (1 - lam) * d - lam) / d
        return pi0 * Fraction(clear_sd) * s0 * (1 - s0) ** (cfg.M_s - 1)

    a = solve_feedback(cfg, sensing).policy.a
    assert objective(a) >= objective((a[0], 0.2488844219184036) + a[2:])


def first_order_condition(cfg, sensing, scheme: Scheme, k: int):
    """g(a) on frontier segment k, in rationals: the right derivative of log mu_s in the budget.

    At access a to bin k (bins before it full) the budget is b = sum(p1[:k]) + a p_k^1, and
    g = r_k (1/s0 - (M_s-1)/(1-s0)) - M_s/(1-b) * d log pi_0/d log w with r_k = p_k^0/p_k^1;
    it is -1 where the queue is unstable.
    """
    d = Fraction((1.0 - primary_outage(cfg)) / cfg.M_p)
    lam, M_s = Fraction(cfg.lambda_p), cfg.M_s
    p0 = [Fraction(p) for p in sensing.p0()]
    p1 = [Fraction(p) for p in sensing.p1()]

    def g(a: Fraction) -> Fraction:
        s0, b = sum(p0[:k]) + a * p0[k], sum(p1[:k]) + a * p1[k]
        w = (1 - b) ** M_s
        # margin chi - lambda with feedback, mu_p - lambda without (beta = gamma_p = delta_bar w)
        margin = d - lam + lam * d * (w - 1) if scheme is Scheme.FEEDBACK else d * w - lam
        if margin <= 0:
            return Fraction(-1)
        slope = (lam * d * w if scheme is Scheme.FEEDBACK else lam) / margin
        aloha = 1 / s0 - (M_s - 1) / (1 - s0) if M_s > 1 else 1 / s0
        return p0[k] / p1[k] * aloha - M_s / (1 - b) * slope
    return g


@pytest.mark.parametrize("networks", [edge_networks(101), typical_networks(103)],
                         ids=["edge", "typical"])
def test_optima_are_the_exact_roots_of_the_first_order_condition(networks):
    # g falls across 0 once along the frontier. An interior a_k must sit at its
    # exact root; a policy on a bin edge or at the frontier's end must see g
    # change sign there, or stay positive up to the end
    roots = 0
    for cfg, sensing in networks:
        for scheme, solver, sens in ((Scheme.FEEDBACK, solve_feedback, sensing),
                                     (Scheme.NO_FEEDBACK, solve_nofb, sensing),
                                     (Scheme.NO_FEEDBACK, baseline_hard_decision,
                                      hard_decision_sensing(sensing))):
            a = solver(cfg, sensing).policy.a
            k = a.count(1.0)
            if k == len(a) or a[k] == 0.0:  # end of the frontier, or the edge of bin k
                assert first_order_condition(cfg, sens, scheme, k - 1)(Fraction(1)) > 0, cfg
                if k < len(a):
                    assert first_order_condition(cfg, sens, scheme, k)(Fraction(0)) <= 0, cfg
                continue
            g = first_order_condition(cfg, sens, scheme, k)
            lo, hi = Fraction(0), Fraction(1)
            while hi - lo > hi / 2 ** 64:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
            # the float budget b resolves a_k only to about ulp(b)/p_k^1, which
            # exceeds 1e-13 a_k where bin k holds a small share of b
            p1 = [Fraction(p) for p in sens.p1()]
            budget = sum(p1[:k]) + lo * p1[k]
            err = abs(Fraction(a[k]) - lo)
            assert err <= Fraction(1e-13) * lo + Fraction(1e-15) * budget / p1[k], \
                f"{solver.__name__}: a_{k + 1} {float(err / lo):.2e} relative at {cfg}"
            roots += 1
    assert roots >= NETWORKS
