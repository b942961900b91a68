"""Exact-arithmetic oracle for the primary-queue closed forms.

Every quantity is evaluated in rationals (fractions.Fraction) at the
package's own float inputs: delta_bar, s1, s0, lambda_p, M_s and 1-P_sd.
What is left between the two is the float program's own rounding, which
the package must hold to PRECISION relative, at the optima of the four
schemes on networks at the stability edge (lambda_p/delta_bar = 1 - eps),
on typical ones and on single-primary ones at the edge, where gamma_p is
near 1.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from softaccess import (
    NetworkConfig,
    Scheme,
    Unstable,
    chain_params,
    default_sensing,
    delay_fb,
    delta_pi0,
    evaluate,
    joint_access_probability,
    pi0,
    primary_outage,
    secondary_outage,
    solve_feedback,
    stability,
)

from conftest import sample_network

PRECISION = 1e-15
NETWORKS = 300


def exact_queue(delta_bar: float, lam: float, s1: float, M_s: int) -> dict:
    """pi_0, delay and stability margin of each queue, and delta_pi0, in rationals."""
    d, l = Fraction(delta_bar), Fraction(lam)
    mu_p = d * (1 - Fraction(s1)) ** M_s
    chi = l * mu_p + (1 - l) * d
    return {
        "margin_nofb": mu_p - l,
        "margin_fb": chi - l,
        "pi0_nofb": (mu_p - l) / mu_p,
        "pi0_fb": (chi - l) / d,
        "delay_nofb": (1 - l) / (mu_p - l),
        "delay_fb": ((mu_p - chi) * (chi - l) ** 2 + (1 - l) ** 2 * (1 - mu_p) * chi)
                    / ((1 - l) * (1 - chi) * d * (chi - l)),
        "delta_pi0": l * (1 - mu_p) / mu_p * (1 - (1 - Fraction(s1)) ** M_s),
    }


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
        exact = exact_queue(delta_bar, lam, s1, M_s)
        queue = "fb" if scheme is Scheme.FEEDBACK else "nofb"
        record(f"pi0_{queue}", point.pi0, exact[f"pi0_{queue}"])
        record(f"delay_{queue}", point.delay, exact[f"delay_{queue}"])
        if scheme is not Scheme.GENIE:  # the genie's margin is delta_bar - lambda_p
            record(f"margin_{queue}", stability(cfg, point.sensing, policy, scheme).margin,
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
                                      single_primary_networks(107)],
                         ids=["edge", "typical", "single-primary"])
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
