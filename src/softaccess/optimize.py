"""Access-probability design for every scheme.

Both soft-scheme design problems depend on the policy vector a only
through two scalars: s0 = p0.a (idle sense-and-access probability, the
useful one) and s1 = p1.a (busy sense-and-access probability, the
harmful one). The objective is pi_0(s1) * (1-P_sd) * s0 (1-s0)^(M_s-1),
and pi_0 falls as s1 grows under either scheme, so for each s1 budget b
the best policy is the one with the most s0, up to the ALOHA stationary
point s0 = 1/M_s. The bin value ratio p_i^0/p_i^1 is strictly decreasing
in i for exponential bins, so that policy is a greedy prefix
(1,..,1,theta,0,..,0), and both problems collapse to a one-dimensional
search over b along that frontier.

One frontier search serves both schemes. A scheme supplies only its
log pi_0 as a function of b and the largest b at which its queue stays
stable. Inside each frontier segment s0 is linear in b; a bounded Brent
search on every segment (step tolerance 1e-13 in b), plus that segment's
right edge, finds the optimum. The no-feedback log pi_0 is concave in b;
the feedback one is concave only while (M_s-1)*c0 <= c1*(1-b)^M_s, with
c0 = delta_bar*(1-lambda) - lambda and c1 = lambda*delta_bar, so the
tests hold both schemes against a dense frontier evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .model import AccessPolicy, NetworkConfig, Scheme, SensingConfig
from .rates import (
    Unstable,
    _log_aloha_factor,
    primary_outage,
    secondary_outage,
    secondary_throughput_fb,
    secondary_throughput_nofb,
)

__all__ = [
    "OptResult",
    "solve_nofb",
    "solve_feedback",
    "baseline_hard_decision",
    "baseline_genie",
    "grid_search",
    "kkt_residual_nofb",
    "hard_decision_sensing",
]


@dataclass(frozen=True)
class OptResult:
    policy: AccessPolicy
    objective: float
    feasible: bool
    iterations: int


def _infeasible(scheme: Scheme, n: int) -> OptResult:
    policy = AccessPolicy((0.0,) * n, scheme)
    return OptResult(policy=policy, objective=0.0, feasible=False, iterations=0)


def _fill_budget(p0: np.ndarray, p1: np.ndarray, budget: float):
    """Greedy prefix policy spending at most `budget` of s1 mass.

    Bins come pre-sorted by decreasing p_i^0/p_i^1, which for exponential
    bins is their natural order. Returns (a, s0, s1); s1 equals the budget
    exactly whenever the budget binds before the bins run out.
    """
    n = p0.size
    a = np.zeros(n)
    s0 = 0.0
    s1 = 0.0
    for i in range(n):
        if s1 + p1[i] <= budget:
            a[i] = 1.0
            s0 += p0[i]
            s1 += p1[i]
        else:
            theta = (budget - s1) / p1[i]
            if theta > 0.0:
                a[i] = theta
                s0 += theta * p0[i]
                s1 = budget
            break
    return a, s0, s1


def _fill_target_s0(p0: np.ndarray, p1: np.ndarray, target: float):
    """Greedy prefix policy reaching s0 = target with minimal s1 spend."""
    n = p0.size
    a = np.zeros(n)
    s0 = 0.0
    s1 = 0.0
    for i in range(n):
        if s0 + p0[i] <= target:
            a[i] = 1.0
            s0 += p0[i]
            s1 += p1[i]
        else:
            theta = (target - s0) / p0[i]
            if theta > 0.0:
                a[i] = theta
                s0 = target
                s1 += theta * p1[i]
            break
    return a, s0, s1


def _frontier_optimum(cfg: NetworkConfig, sensing: SensingConfig, scheme: Scheme) -> OptResult:
    """Best greedy-prefix policy of a soft scheme (FEEDBACK or NO_FEEDBACK).

    With w = (1-b)^M_s, the no-feedback queue has pi_0 = 1 - lambda/(delta_bar*w)
    and needs w > lambda/delta_bar; the feedback queue has
    pi_0 = (chi - lambda)/delta_bar with chi = lambda*delta_bar*w + (1-lambda)*delta_bar
    and needs w > (lambda - (1-lambda)*delta_bar)/(lambda*delta_bar).
    """
    n = sensing.n
    lam = cfg.lambda_p
    M_s = cfg.M_s
    delta_bar = (1.0 - primary_outage(cfg)) / cfg.M_p
    if lam >= delta_bar:
        return _infeasible(scheme, n)
    p0 = sensing.p0()
    p1 = sensing.p1()

    if scheme is Scheme.FEEDBACK:
        excess = lam - (1.0 - lam) * delta_bar
        w_floor = excess / (lam * delta_bar) if excess > 0.0 else 0.0
        log_delta_bar = math.log(delta_bar)

        def log_pi0(b: float) -> float:
            margin = lam * delta_bar * (1.0 - b) ** M_s + (1.0 - lam) * delta_bar - lam
            return math.log(margin) - log_delta_bar if margin > 0.0 else -math.inf
        throughput = secondary_throughput_fb
    else:
        w_floor = lam / delta_bar

        def log_pi0(b: float) -> float:
            mu_p = delta_bar * (1.0 - b) ** M_s
            if mu_p <= lam:
                return -math.inf
            return math.log1p(-lam / mu_p) if lam > 0.0 else 0.0
        throughput = secondary_throughput_nofb

    # budget never worth pushing past the aloha stationary point or stability
    if M_s > 1:
        _, _, b_target = _fill_target_s0(p0, p1, 1.0 / M_s)
    else:
        b_target = float(p1.sum())
    b_stab = 1.0 - w_floor ** (1.0 / M_s)
    hi = min(float(p1.sum()), b_target, b_stab * (1.0 - 1e-12))

    prefix0 = np.concatenate([[0.0], np.cumsum(p0)])
    prefix1 = np.concatenate([[0.0], np.cumsum(p1)])

    def log_objective(b: float, seg: int) -> float:
        # s0 along the frontier is linear inside segment `seg`
        s0 = prefix0[seg] + (b - prefix1[seg]) * (p0[seg] / p1[seg])
        return log_pi0(b) + _log_aloha_factor(s0, M_s)

    best_b = 0.0
    best_val = -math.inf
    evals = 0
    for seg in range(n):
        lo_b = float(prefix1[seg])
        hi_b = min(float(prefix1[seg + 1]), hi)
        if hi_b <= lo_b:
            break
        res = minimize_scalar(lambda b: -log_objective(b, seg), bounds=(lo_b, hi_b),
                              method="bounded", options={"xatol": 1e-13, "maxiter": 500})
        evals += int(res.nfev)
        for b in (float(res.x), hi_b):  # segment interior plus its right edge
            val = log_objective(b, seg)
            if val > best_val:
                best_val = val
                best_b = b

    a, _, _ = _fill_budget(p0, p1, best_b)
    policy = AccessPolicy(tuple(a), scheme)
    objective = throughput(cfg, sensing, policy)
    if isinstance(objective, Unstable):  # can only happen at degenerate zero headroom
        return _infeasible(scheme, n)
    return OptResult(policy=policy, objective=objective, feasible=True, iterations=evals)


def solve_feedback(cfg: NetworkConfig, sensing: SensingConfig) -> OptResult:
    """Optimize the feedback-scheme policy exactly.

    The objective pi_0 * (1-P_sd) * s0 (1-s0)^(M_s-1) with the feedback
    pi_0 = (chi - lambda_p)/delta_bar is searched along the greedy prefix
    frontier by a bounded Brent search per frontier segment. The reported
    objective is the plain rates formula evaluated at the policy, and
    `iterations` counts objective evaluations.
    """
    return _frontier_optimum(cfg, sensing, Scheme.FEEDBACK)


def solve_nofb(cfg: NetworkConfig, sensing: SensingConfig) -> OptResult:
    """Optimize the no-feedback policy exactly.

    The objective pi_0(s1) * (1-P_sd) * s0 (1-s0)^(M_s-1) is log-concave
    in the s1 budget along the greedy prefix frontier, so a bounded Brent
    search per frontier segment finds the optimum to machine precision.
    """
    return _frontier_optimum(cfg, sensing, Scheme.NO_FEEDBACK)


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
    delta_bar = (1.0 - primary_outage(cfg)) / cfg.M_p
    clear_sd = 1.0 - secondary_outage(cfg)
    s0 = float(p0 @ a)
    s1 = float(p1 @ a)
    mu_p = delta_bar * (1.0 - s1) ** M_s
    pi0 = 1.0 - lam / mu_p
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


def hard_decision_sensing(sensing: SensingConfig) -> SensingConfig:
    """Collapse the detector to one bin over the same [0, eta] interval."""
    return SensingConfig(eta=sensing.eta, n=1,
                         sigma0_sq=sensing.sigma0_sq, sigma1_sq=sensing.sigma1_sq)


def baseline_hard_decision(cfg: NetworkConfig, sensing: SensingConfig) -> OptResult:
    """Binary sense-and-access baseline: the n=1 restriction of the soft problem."""
    res = solve_nofb(cfg, hard_decision_sensing(sensing))
    policy = AccessPolicy(res.policy.a, Scheme.HARD_DECISION)
    return replace(res, policy=policy)


def baseline_genie(cfg: NetworkConfig) -> OptResult:
    """Perfect-knowledge upper bound.

    Secondaries know the true primary state, so they never collide with
    it (mu_p is the interference-free (1-P_pd)/M_p) and contend only among
    themselves with the symmetric ALOHA optimum a = 1/M_s.
    """
    delta_bar = (1.0 - primary_outage(cfg)) / cfg.M_p
    if cfg.lambda_p >= delta_bar:
        return _infeasible(Scheme.GENIE, 1)
    a_star = 1.0 / cfg.M_s
    pi0 = 1.0 - cfg.lambda_p / delta_bar
    mu = pi0 * (1.0 - secondary_outage(cfg)) * a_star * (1.0 - a_star) ** (cfg.M_s - 1)
    policy = AccessPolicy((a_star,), Scheme.GENIE)
    return OptResult(policy=policy, objective=mu, feasible=True, iterations=1)


def grid_search(cfg: NetworkConfig, sensing: SensingConfig, scheme: Scheme,
                step: float = 0.01):
    """Exhaustive oracle over the a-grid; None when no grid point is stable.

    Intended for n <= 3 (the grid has (1/step+1)^n points). Returns
    (a, objective) for the best stable grid point.
    """
    if scheme is Scheme.GENIE:
        raise ValueError("grid_search covers sensing-based schemes only")
    n = sensing.n
    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    if axis.size ** n > 4_000_000:
        raise ValueError("grid too large; use n <= 3 or a coarser step")
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    A = np.stack([m.ravel() for m in mesh], axis=1)
    p0 = sensing.p0()
    p1 = sensing.p1()
    s0 = A @ p0
    s1 = A @ p1
    lam = cfg.lambda_p
    delta_bar = (1.0 - primary_outage(cfg)) / cfg.M_p
    clear_sd = 1.0 - secondary_outage(cfg)
    w = (1.0 - s1) ** cfg.M_s
    if scheme is Scheme.FEEDBACK:
        gamma_p = delta_bar * w
        chi = lam * gamma_p + (1.0 - lam) * delta_bar
        stable = chi > lam
        with np.errstate(divide="ignore", invalid="ignore"):
            pi0 = (chi - lam) / delta_bar
    else:
        mu_p = delta_bar * w
        stable = mu_p > lam
        with np.errstate(divide="ignore", invalid="ignore"):
            pi0 = 1.0 - lam / mu_p
    obj = np.where(stable, pi0 * clear_sd * s0 * (1.0 - s0) ** (cfg.M_s - 1), -np.inf)
    if not stable.any():
        return None
    best = int(np.argmax(obj))
    return A[best].copy(), float(obj[best])
