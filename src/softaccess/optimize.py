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

The frontier is stated once, by the prefix sums prefix0 and prefix1 of
p0 and p1: segment k spans b in [prefix1[k], prefix1[k+1]], where s0 =
prefix0[k] + (b - prefix1[k]) p_k^0/p_k^1. The ALOHA stop, the segment
that holds a budget and the policy at the best budget are all read off
those two arrays.

One frontier search serves every sensing scheme; `rates` supplies the
queue law, d log pi_0/d log w as a function of log w = M_s log(1-b), and
the log w at which the queue loses stability. The search bisects on the
sign of the right derivative of log mu_s along the frontier,
g(b) = r_k (1/s0 - (M_s-1)/(1-s0)) - M_s/(1-b) d log pi_0/d log w, with
r_k = p_k^0/p_k^1 on the segment k that holds b. Its first term strictly
decreases in b, dropping at each bin edge: s0 grows with b, 1/s0 -
(M_s-1)/(1-s0) falls and is positive below the ALOHA stop, and r_k falls
in k. Without feedback, and so for the hard decision, the second term is
M_s lambda/((1-b)(delta_bar (1-b)^M_s - lambda)), which rises in b below
the stability edge, so g strictly decreases along the whole frontier and
its one sign change is the global optimum. With feedback the second term
is M_s c1 (1-b)^(M_s-1)/(c0 + c1 (1-b)^M_s), c1 = lambda*delta_bar and
c0 = delta_bar*(1-lambda) - lambda. It rises in b, and log pi_0 is concave
in b, only while (M_s-1)*c0 <= c1*(1-b)^M_s; beyond that, one sign change
of g is a premise, which the tests check against a dense frontier search.

`evaluate` is the one place that maps a scheme to its solver and detector,
and reads its primary queue from `rates.chain_params`; the CLI and the
acceptance tests read it.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chain import delay_fb
from .model import AccessPolicy, NetworkConfig, Scheme, SensingConfig
from .rates import (
    Unstable,
    _delta_bar,
    _queue_law,
    _throughput,
    chain_params,
    secondary_outage,
)

__all__ = [
    "OptResult",
    "Point",
    "evaluate",
    "solve_nofb",
    "solve_feedback",
    "baseline_hard_decision",
    "baseline_genie",
    "grid_search",
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


def _frontier_optimum(cfg: NetworkConfig, sensing: SensingConfig, scheme: Scheme) -> OptResult:
    """Best greedy-prefix policy of a sensing scheme (FEEDBACK, NO_FEEDBACK or HARD_DECISION).

    One bisection over the budget b finds the sign change of g, the right
    derivative of log mu_s along the frontier, and stops when the midpoint
    equals an end of its bracket. The search ends where s0 reaches 1/M_s or
    the queue loses stability; the policy at the returned budget is k full
    bins plus (b - prefix1[k]) / p_k^1 of bin k, except that bins of no
    width at b fill only up to s0 = 1/M_s. The reported objective is
    the rates throughput at that policy, and `iterations` counts evaluations of g.
    """
    n = sensing.n
    M_s = cfg.M_s
    slope, edge = _queue_law(cfg, scheme)
    if edge >= 0.0:  # unstable even with the secondaries silent
        return _infeasible(scheme, n)
    p0 = sensing.p0().tolist()
    p1 = sensing.p1().tolist()
    prefix0 = [0.0, *itertools.accumulate(p0)]
    prefix1 = [0.0, *itertools.accumulate(p1)]
    # budget never worth pushing past the aloha stationary point s0 = 1/M_s or stability
    stop = bisect.bisect_right(prefix0, 1.0 / M_s, lo=1) - 1
    if M_s == 1 or stop == n:
        b_target = prefix1[n]
    else:  # s0 reaches 1/M_s inside bin `stop`
        b_target = prefix1[stop] + (1.0 / M_s - prefix0[stop]) / p0[stop] * p1[stop]
    hi = min(prefix1[n], b_target, -math.expm1(edge / M_s) * (1.0 - 1e-12))  # b at the edge

    def segment(b: float) -> tuple[int, float]:
        # the bin k that holds budget b, past bins of no width, and its access a_k
        k = bisect.bisect_right(prefix1, b) - 1
        return k, ((b - prefix1[k]) / p1[k] if k < n else 0.0)

    def g(b: float) -> float:
        # r_k (1/s0 - (M_s-1)/(1-s0)) - M_s/(1-b) * d log pi_0/d log w, at 0 < b < hi
        k, a_k = segment(b)
        s0 = prefix0[k] + a_k * p0[k]
        aloha = 1.0 / s0 - ((M_s - 1) / (1.0 - s0) if M_s > 1 else 0.0)
        return p0[k] / p1[k] * aloha - M_s / (1.0 - b) * slope(M_s * math.log1p(-b))

    lo, evals = 0.0, 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        evals += 1
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid

    k, a_k = segment(hi)
    if stop < k and M_s > 1 and bisect.bisect_left(prefix1, hi) <= stop:
        # segment fills every bin of no width at budget hi, as they cost no
        # budget; past s0 = 1/M_s they only lower the ALOHA factor
        k, a_k = stop, (1.0 / M_s - prefix0[stop]) / p0[stop]
    a = [1.0] * k + [a_k] + [0.0] * (n - k - 1) if k < n else [1.0] * n
    policy = AccessPolicy(tuple(a), scheme)
    objective = _throughput(cfg, sensing, policy, scheme)
    if isinstance(objective, Unstable):  # can only happen at degenerate zero headroom
        return _infeasible(scheme, n)
    return OptResult(policy=policy, objective=objective, feasible=True, iterations=evals)


def solve_feedback(cfg: NetworkConfig, sensing: SensingConfig) -> OptResult:
    """Optimize the feedback-scheme policy along the greedy prefix frontier.

    The objective pi_0 * (1-P_sd) * s0 (1-s0)^(M_s-1) with the feedback
    pi_0 = (chi - lambda_p)/delta_bar is maximized along the greedy prefix
    frontier by bisecting the sign of its derivative in the s1 budget b down
    to adjacent floats. The entry a_k of the partial bin lies within 1e-13
    relative of the exact root of that derivative, or within 1e-15 b/p_k^1
    where bin k holds a small share of b, the resolution of a float budget
    (tests/test_exact.py). The reported objective is the plain rates formula
    evaluated at the policy, and `iterations` counts derivative evaluations.
    """
    return _frontier_optimum(cfg, sensing, Scheme.FEEDBACK)


def solve_nofb(cfg: NetworkConfig, sensing: SensingConfig) -> OptResult:
    """Optimize the no-feedback policy along the greedy prefix frontier.

    The objective pi_0(s1) * (1-P_sd) * s0 (1-s0)^(M_s-1) is log-concave
    in the s1 budget b along the greedy prefix frontier. The same bisection
    as `solve_feedback`'s finds the sign change of its derivative, with the
    same bound against the exact root.
    """
    return _frontier_optimum(cfg, sensing, Scheme.NO_FEEDBACK)


def hard_decision_sensing(sensing: SensingConfig) -> SensingConfig:
    """Collapse the detector to one bin over the same [0, eta] interval."""
    return SensingConfig(eta=sensing.eta, n=1,
                         sigma0_sq=sensing.sigma0_sq, sigma1_sq=sensing.sigma1_sq)


def baseline_hard_decision(cfg: NetworkConfig, sensing: SensingConfig) -> OptResult:
    """Binary sense-and-access baseline: the n=1 restriction of the no-feedback problem."""
    return _frontier_optimum(cfg, hard_decision_sensing(sensing), Scheme.HARD_DECISION)


def baseline_genie(cfg: NetworkConfig) -> OptResult:
    """Perfect-knowledge upper bound: the rates throughput at s1 = 0 and a = 1/M_s.

    Secondaries know the true primary state, so they never collide with it
    (mu_p is the interference-free (1-P_pd)/M_p) and contend only among
    themselves with the symmetric ALOHA optimum.
    """
    policy = AccessPolicy((1.0 / cfg.M_s,), Scheme.GENIE)
    objective = _throughput(cfg, None, policy, Scheme.GENIE)
    if isinstance(objective, Unstable):
        return _infeasible(Scheme.GENIE, 1)
    return OptResult(policy=policy, objective=objective, feasible=True, iterations=1)


@dataclass(frozen=True)
class Point:
    """One scheme's optimum at one network, with its primary queue.

    `sensing` is the detector the policy reads: the one-bin collapse for
    HARD_DECISION, None for GENIE. mu_p, pi0 and delay are nan when the
    point is infeasible.
    """

    result: OptResult
    sensing: SensingConfig | None
    mu_p: float
    pi0: float
    delay: float


def evaluate(cfg: NetworkConfig, sensing: SensingConfig, scheme: Scheme, *,
             fb_solver=None, nofb_solver=None) -> Point:
    """Optimize one scheme and evaluate its primary service rate, pi_0 and delay.

    Every scheme's queue is its chain of `chain_params`: mu_p is gamma_p,
    pi_0 is margin/beta and the delay is `delay_fb`'s. The CLI passes its
    own `solve_feedback`/`solve_nofb` as `fb_solver`/`nofb_solver`, so a
    solver rebound on `cli` reaches the sweep.
    """
    if scheme is Scheme.FEEDBACK:
        res, sens = (fb_solver or solve_feedback)(cfg, sensing), sensing
    elif scheme is Scheme.NO_FEEDBACK:
        res, sens = (nofb_solver or solve_nofb)(cfg, sensing), sensing
    elif scheme is Scheme.HARD_DECISION:
        res, sens = baseline_hard_decision(cfg, sensing), hard_decision_sensing(sensing)
    else:
        res, sens = baseline_genie(cfg), None
    if not res.feasible:
        return Point(res, sens, math.nan, math.nan, math.nan)
    p = chain_params(cfg, sens, res.policy, scheme)
    return Point(res, sens, p.gamma_p, p.margin / p.beta, float(delay_fb(p, cfg.lambda_p)))


def _aligned_empty(shape, dtype=np.float64):
    """Uninitialised array whose data starts on a 64-byte cache-line boundary.

    malloc aligns only to 16 bytes, so where a small array starts depends
    on the heap's history, which differs between processes; grid_search's
    vector loops run about 8% slower over buffers that miss the boundary.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def grid_search(cfg: NetworkConfig, sensing: SensingConfig, scheme: Scheme,
                step: float = 0.01):
    """Exhaustive oracle over the a-grid; None when no grid point is stable.

    Returns (a, objective) for the best stable point of the grid with
    (1/step+1)^n points, a_i = 0, step, 2*step, ..., 1; step must be
    finite and in (0, 1]. The grid is evaluated in blocks: the mesh of
    the last two coordinates is built once, (1/step+1)^2 rows whatever n
    is, and each value of the leading n-2 coordinates, in grid order, is
    written into its leading columns in turn. Every block reuses the same
    row buffers, each starting on a cache line, so the working set stays
    in cache and a search costs the same in every process. A block's best
    replaces the running best only when strictly greater, so ties go to
    the first grid point, as a single argmax over the whole grid would
    give. Grids over 4,000,000 points are refused, which bounds the time
    of a search.
    """
    if scheme is Scheme.GENIE:
        raise ValueError("grid_search covers sensing-based schemes only")
    if not (math.isfinite(step) and 0.0 < step <= 1.0):
        raise ValueError(f"step must be finite and in (0, 1], got {step}")
    n = sensing.n
    axis = np.arange(0.0, 1.0 + step / 2.0, step)
    if axis.size ** n > 4_000_000:
        raise ValueError("grid too large; use n <= 3 or a coarser step")
    lead = max(n - 2, 0)
    mesh = np.meshgrid(*([axis] * (n - lead)), indexing="ij")
    A = _aligned_empty((mesh[0].size, n))
    A[:, lead:] = np.stack([m.ravel() for m in mesh], axis=1)
    p0 = sensing.p0()
    p1 = sensing.p1()
    lam = cfg.lambda_p
    delta_bar = _delta_bar(cfg)
    clear_sd = 1.0 - secondary_outage(cfg)
    best_a, best_obj = None, -np.inf
    s0, s1, mu_p, obj = (_aligned_empty(A.shape[0]) for _ in range(4))
    stable = _aligned_empty(A.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for head in itertools.product(axis, repeat=lead):
            A[:, :lead] = head
            np.matmul(A, p0, out=s0)
            np.matmul(A, p1, out=s1)
            np.subtract(1.0, s1, out=mu_p)
            mu_p **= cfg.M_s
            mu_p *= delta_bar                   # mu_p = delta_bar (1 - s1)^M_s
            if scheme is Scheme.FEEDBACK:
                np.multiply(lam, mu_p, out=obj)
                obj += (1.0 - lam) * delta_bar  # chi
                np.greater(obj, lam, out=stable)
                obj -= lam
                obj /= delta_bar                # pi0 = (chi - lam) / delta_bar
            else:
                np.greater(mu_p, lam, out=stable)
                np.divide(lam, mu_p, out=obj)
                np.subtract(1.0, obj, out=obj)  # pi0 = 1 - lam / mu_p
            obj *= clear_sd
            obj *= s0
            np.subtract(1.0, s0, out=s1)        # s1 is spent; reuse it
            s1 **= cfg.M_s - 1
            obj *= s1                           # pi0 (1 - P_sd) s0 (1 - s0)^(M_s - 1)
            np.copyto(obj, -np.inf, where=~stable)
            best = int(np.argmax(obj))
            if obj[best] > best_obj:  # a stable row's objective is finite, never -inf
                best_a, best_obj = A[best].copy(), float(obj[best])
    return None if best_a is None else (best_a, best_obj)
