"""Closed-form throughput and occupancy expressions for every access scheme.

Notation used throughout: s0 and s1 are the probabilities that one
secondary user senses-and-accesses while the channel is idle or busy,
delta_bar = (1-P_pd)/M_p is the per-slot probability that a primary owns
the slot over a clear link, and gamma_p = delta_bar*(1-s1)^M_s is the
per-slot success probability of a first transmission, which also
multiplies in the chance that no secondary interferes.
Every scheme's primary queue is the one chain of `chain_params`, whose
retransmissions succeed with beta: delta_bar with feedback, gamma_p (a
Bernoulli server) without. Every pi_0, delay, stability check and optimizer reads it.

The secondary-link complement (1 - P_sd) uses the same outage law as the
primary link; a superscript-zero variant of that symbol that appears in
one formula source is read as the same quantity (apparent typo).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

from .model import (
    AccessPolicy,
    NetworkConfig,
    Scheme,
    SensingConfig,
    clamp_probability,
    joint_access_probability,
    outage_probability,
)

__all__ = [
    "Unstable",
    "RateValue",
    "ChainParams",
    "primary_outage",
    "secondary_outage",
    "chain_params",
    "chain_params_from_rates",
    "pi0",
    "delta_pi0",
    "secondary_throughput_nofb",
    "secondary_throughput_fb",
]


@dataclass(frozen=True)
class Unstable:
    """Marker result for queries outside the stability region.

    Sweeps record these as infeasible points instead of crashing. margin
    is the service headroom (service measure minus arrival rate), which
    is nonpositive whenever this marker is produced.
    """

    margin: float

    def __bool__(self) -> bool:
        return False


RateValue = Union[float, Unstable]


@dataclass(frozen=True)
class ChainParams:
    """Per-slot transition probabilities of the primary-queue chain.

    gamma_p : success probability of a first transmission in a slot
    beta    : success probability of a retransmission in a slot
    chi     : composite drift lambda_p*gamma_p + (1-lambda_p)*beta
    psi     : geometric load ratio lambda_p*(1-chi) / ((1-lambda_p)*chi)
    margin  : service headroom chi - lambda_p, the queue's stability margin; pi_0 = margin/beta
    """

    gamma_p: float
    beta: float
    chi: float
    psi: float
    margin: float

    @property
    def delta(self) -> float:
        return 1.0 - self.beta


def primary_outage(cfg: NetworkConfig) -> float:
    """Outage probability of the primary data link."""
    return outage_probability(cfg.G_p, cfg.r_pd, cfg.gamma, cfg.zeta, cfg.N_0)


def secondary_outage(cfg: NetworkConfig) -> float:
    """Outage probability of the secondary data link."""
    return outage_probability(cfg.G_s, cfg.r_sd, cfg.gamma, cfg.zeta, cfg.N_0)


def _delta_bar(cfg: NetworkConfig) -> float:
    # per-slot service probability of a primary retransmission: own the slot, clear link
    return (1.0 - primary_outage(cfg)) / cfg.M_p


def _slope(delta_bar: float, lam: float, scheme: Scheme) -> float:
    # k of the margin, what it loses as w goes from 1 to 0; the same rule gives beta:
    # delta_bar with feedback, gamma_p = delta_bar*w without (`_queue_law`, `chain_params`)
    return lam * delta_bar if scheme is Scheme.FEEDBACK else delta_bar


def _margin(delta_bar: float, lam: float, k: float, log_w: float) -> float:
    """Stability margin of the primary queue: mu_p - lambda, or chi - lambda with feedback.

    With w = (1-s1)^M_s = exp(log_w), both are (delta_bar - lambda) + k*(w - 1), k = `_slope`,
    a form without cancellation for w near 1: delta_bar - lambda is exact near the edge
    (Sterbenz), and expm1 keeps a small s1 accurate. Below w = 1/e the sum is (delta_bar -
    lambda - k) + k*w, which keeps a small w accurate: delta_bar*w without feedback at lambda = 0.
    """
    if log_w < -1.0:
        return (delta_bar - lam - k) + k * math.exp(log_w)
    return (delta_bar - lam) + k * math.expm1(log_w)


def _queue_law(cfg: NetworkConfig, scheme: Scheme) -> Callable[[float], float]:
    """A scheme's d log pi_0 / d log w as a function of log w.

    pi_0 = margin/beta, beta as in `_slope`, and the margin grows by k*w per unit of log w, so the
    slope is k*w/margin with feedback; without it beta = delta_bar*w takes 1 off, leaving
    lambda/margin. It is inf where the margin is not positive: past the stability edge, and
    everywhere once lambda >= delta_bar, where it is inf already at log w = 0.
    """
    delta_bar, lam = _delta_bar(cfg), cfg.lambda_p
    k = _slope(delta_bar, lam, scheme)
    beta_has_w = scheme is not Scheme.FEEDBACK

    def slope(log_w: float) -> float:
        margin = _margin(delta_bar, lam, k, log_w)
        if margin <= 0.0:
            return math.inf
        return (lam if beta_has_w else k * math.exp(log_w)) / margin
    return slope


def _log_w(s: float, M: int) -> float:
    # log (1-s)^M; log1p(-1) raises, and expm1(-inf) is the -1 that s = 1 needs (0^0 = 1)
    return M * math.log1p(-s) if s < 1.0 else -math.inf if M else 0.0


def _chain(gamma_p: float, beta: float, lambda_p: float, margin: float | None = None) -> ChainParams:
    # chi and psi of the chain; the margin defaults to chi - lambda_p
    lam_bar = 1.0 - lambda_p
    chi = clamp_probability(lambda_p * gamma_p + lam_bar * beta)
    den = lam_bar * chi
    psi = 0.0 if lambda_p == 0.0 else math.inf if den == 0.0 else lambda_p * (1.0 - chi) / den
    return ChainParams(gamma_p=gamma_p, beta=beta, chi=chi, psi=psi,
                       margin=chi - lambda_p if margin is None else margin)


def chain_params_from_rates(gamma_p: float, delta: float, lambda_p: float) -> ChainParams:
    """Assemble ChainParams from raw per-slot probabilities, beta = 1 - delta; the margin is chi - lambda_p."""
    if not 0.0 <= gamma_p <= 1.0 or not 0.0 <= delta <= 1.0:
        raise ValueError("gamma_p and delta must lie in [0, 1]")
    if not 0.0 <= lambda_p <= 1.0:
        raise ValueError("lambda_p must lie in [0, 1]")
    return _chain(gamma_p, 1.0 - delta, lambda_p)


def chain_params(cfg: NetworkConfig, sensing: SensingConfig | None, policy: AccessPolicy,
                 scheme: Scheme) -> ChainParams:
    """A scheme's primary-queue chain, beta as in `_slope`.

    The margin is `_margin`'s. The genie has s1 = 0, so `sensing` may be None for it.
    """
    s1 = 0.0 if scheme is Scheme.GENIE else joint_access_probability(policy, sensing.p1())
    delta_bar, lam, log_w = _delta_bar(cfg), cfg.lambda_p, _log_w(s1, cfg.M_s)
    gamma_p = delta_bar * math.exp(log_w)
    margin = _margin(delta_bar, lam, _slope(delta_bar, lam, scheme), log_w)
    return _chain(gamma_p, delta_bar if scheme is Scheme.FEEDBACK else gamma_p, lam, margin)


def pi0(cfg: NetworkConfig, sensing: SensingConfig | None, policy: AccessPolicy, scheme: Scheme) -> RateValue:
    """Empty-queue probability margin/beta of a scheme's primary queue, or Unstable.

    That is 1 - lambda_p/mu_p without feedback and (chi - lambda_p)/delta_bar,
    or 1 - lambda_p*(1 + M_p/(1-P_pd) - (1-s1)^M_s), with it.
    """
    p = chain_params(cfg, sensing, policy, scheme)
    return p.margin / p.beta if p.margin > 0.0 else Unstable(p.margin)


def delta_pi0(cfg: NetworkConfig, sensing: SensingConfig, policy: AccessPolicy) -> RateValue:
    """Gain in empty-queue probability from exploiting feedback.

    lambda_p*(1-gamma_p)/gamma_p * (1 - (1-s1)^M_s), nonnegative for any
    policy, zero exactly at a = 0 or lambda_p = 0.
    """
    if cfg.lambda_p == 0.0:
        return 0.0
    p = chain_params(cfg, sensing, policy, Scheme.NO_FEEDBACK)
    if p.margin <= 0.0:  # no-feedback side unstable, difference undefined
        return Unstable(p.margin)
    delta_bar = _delta_bar(cfg)
    bracket = -math.expm1(_log_w(joint_access_probability(policy, sensing.p1()), cfg.M_s))
    # 1 - gamma_p as (1 - delta_bar) + delta_bar*(1 - w): no cancellation when gamma_p is near 1
    return cfg.lambda_p * ((1.0 - delta_bar) + delta_bar * bracket) / p.gamma_p * bracket


def _throughput(cfg: NetworkConfig, sensing: SensingConfig | None, policy: AccessPolicy,
                scheme: Scheme) -> RateValue:
    # one tagged secondary transmits, the other M_s-1 stay silent; the genie's s0 is a_1
    empty = pi0(cfg, sensing, policy, scheme)
    if isinstance(empty, Unstable):
        return empty
    s0 = policy.a[0] if scheme is Scheme.GENIE else joint_access_probability(policy, sensing.p0())
    return empty * (1.0 - secondary_outage(cfg)) * (s0 * math.exp(_log_w(s0, cfg.M_s - 1)))


def secondary_throughput_nofb(cfg: NetworkConfig, sensing: SensingConfig, policy: AccessPolicy) -> RateValue:
    """Per-secondary throughput without feedback.

    pi0 * (1-P_sd) * s0 * (1-s0)^(M_s-1), where s0 = sum_i p_i^0 a_i.
    Returns Unstable when lambda_p >= mu_p, since the Little's-law pi_0 is
    meaningless there.
    """
    return _throughput(cfg, sensing, policy, Scheme.NO_FEEDBACK)


def secondary_throughput_fb(cfg: NetworkConfig, sensing: SensingConfig, policy: AccessPolicy) -> RateValue:
    """Per-secondary throughput with feedback exploitation.

    Same product as the no-feedback formula with the feedback pi_0.
    """
    return _throughput(cfg, sensing, policy, Scheme.FEEDBACK)

