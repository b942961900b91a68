"""Physical-layer and sensing primitives.

Links undergo Rayleigh block fading, independent from slot to slot, so a
transmission at power G over distance r fails the SNR threshold zeta with
probability 1 - exp(-zeta*N_0*r^gamma/G). Sensing is single-sample energy
detection: the detector output is exponentially distributed with mean
2*sigma^2, where sigma^2 is the per-dimension variance of the received
sample (noise only when the channel is idle, noise plus the primary signal
when it is busy). The decision interval [0, eta] is split into n equal
subintervals and each subinterval i carries its own access probability a_i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Scheme",
    "NetworkConfig",
    "SensingConfig",
    "AccessPolicy",
    "outage_probability",
    "log_complement_outage",
    "bin_probabilities",
    "joint_access_probability",
    "clamp_probability",
    "default_sensing",
]

# drift beyond this is a formula bug, not rounding
CLAMP_TOL = 1e-12


class Scheme(Enum):
    """Access scheme tags used across the toolkit."""

    NO_FEEDBACK = "nofb"
    FEEDBACK = "fb"
    HARD_DECISION = "hard"
    GENIE = "genie"


def clamp_probability(x: float) -> float:
    """Clamp x to [0, 1] when it is off by at most CLAMP_TOL, raise otherwise."""
    if -CLAMP_TOL <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + CLAMP_TOL:
        return 1.0
    if x < 0.0 or x > 1.0:
        raise ValueError(f"probability {x!r} outside [0,1] beyond tolerance {CLAMP_TOL}")
    return x


@dataclass(frozen=True)
class NetworkConfig:
    """Topology, traffic and link-budget parameters.

    Defaults reproduce the reference experiment: four primary TDMA users,
    two always-backlogged secondary users, 100 mW transmitters, 100 m data
    links, a 150 m primary-to-secondary sensing link, path-loss exponent
    3.7, noise density 1e-11 W/Hz and a linear SNR threshold of 10.

    Attributes
    ----------
    M_p, M_s : int
        Primary (TDMA) and secondary (slotted-ALOHA) user counts.
    lambda_p : float
        Primary packet arrival rate per slot, in [0, 1].
    G_p, G_s : float
        Transmit powers in watts.
    r_pd, r_sd, r_ps : float
        Primary-to-destination, secondary-to-destination and
        primary-to-secondary distances in meters.
    gamma : float
        Path-loss exponent.
    N_0 : float
        Noise spectral density, W/Hz.
    zeta : float
        SNR outage threshold, linear scale.
    omega_p : tuple or None
        Slot-ownership probabilities, length M_p, nonnegative, summing
        to at most 1. None means uniform 1/M_p. Only the simulator reads
        them: the optimizers and the analytic rates and delays assume
        each primary owns 1/M_p of the slots.
    """

    M_p: int = 4
    M_s: int = 2
    lambda_p: float = 0.1
    G_p: float = 0.1
    G_s: float = 0.1
    r_pd: float = 100.0
    r_sd: float = 100.0
    r_ps: float = 150.0
    gamma: float = 3.7
    N_0: float = 1e-11
    zeta: float = 10.0
    omega_p: tuple | None = None

    def __post_init__(self):
        if self.M_p < 1 or self.M_s < 1:
            raise ValueError("M_p and M_s must be at least 1")
        if not 0.0 <= self.lambda_p <= 1.0:
            raise ValueError("lambda_p must lie in [0, 1]")
        for name in ("G_p", "G_s", "r_pd", "r_sd", "r_ps", "gamma", "N_0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.zeta < 0.0:
            raise ValueError("zeta must be nonnegative")
        for name, power in (("r_pd", self.gamma), ("r_sd", self.gamma), ("r_ps", -self.gamma)):
            try:  # the link budget raises each distance to +-gamma
                getattr(self, name) ** power
            except OverflowError:
                raise ValueError(f"{name}^{power!r} overflows a float") from None
        omega = (1.0 / self.M_p,) * self.M_p if self.omega_p is None else self.omega_p
        object.__setattr__(self, "omega_p", tuple(float(w) for w in omega))
        if len(self.omega_p) != self.M_p:
            raise ValueError("omega_p must have length M_p")
        if any(w < 0.0 for w in self.omega_p):
            raise ValueError("omega_p entries must be nonnegative")
        if sum(self.omega_p) > 1.0 + 1e-12:
            raise ValueError("omega_p must sum to at most 1")


@dataclass(frozen=True)
class SensingConfig:
    """Energy-detector parameters.

    eta is the decision threshold (energy units), n the number of equal
    subintervals of [0, eta], sigma0_sq / sigma1_sq the per-dimension
    variances of the detector output with the primary absent / present.
    """

    eta: float
    n: int
    sigma0_sq: float
    sigma1_sq: float

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be strictly positive")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.sigma0_sq <= 0.0 or self.sigma1_sq <= 0.0:
            raise ValueError("variances must be strictly positive")
        if self.sigma1_sq <= self.sigma0_sq:
            raise ValueError("sigma1_sq must exceed sigma0_sq")
        for name, sigma_sq in (("_p0", self.sigma0_sq), ("_p1", self.sigma1_sq)):
            bins = bin_probabilities(self.eta, self.n, sigma_sq)  # fixed by the fields: cache it
            bins.flags.writeable = False
            object.__setattr__(self, name, bins)

    def p0(self) -> np.ndarray:
        """Bin probabilities when the sensed channel is idle (read-only)."""
        return self._p0

    def p1(self) -> np.ndarray:
        """Bin probabilities when the sensed channel is busy (read-only)."""
        return self._p1


def default_sensing(cfg: NetworkConfig, n: int = 4, idle_tail: float = 0.1) -> SensingConfig:
    """Derive a SensingConfig from the link budget.

    Single-sample detection maps the received sample to variances
    sigma0^2 = N_0/2 (idle) and sigma1^2 = (N_0 + G_p*r_ps^-gamma)/2
    (busy), so the energy statistic is exponential with mean equal to the
    received power. The threshold defaults to the point where an idle
    sample overshoots eta with probability idle_tail.
    """
    if not 0.0 < idle_tail < 1.0:
        raise ValueError("idle_tail must lie in (0, 1)")
    sigma0_sq = cfg.N_0 / 2.0
    sigma1_sq = (cfg.N_0 + cfg.G_p * cfg.r_ps ** -cfg.gamma) / 2.0
    eta = -2.0 * sigma0_sq * math.log(idle_tail)
    return SensingConfig(eta=eta, n=n, sigma0_sq=sigma0_sq, sigma1_sq=sigma1_sq)


@dataclass(frozen=True)
class AccessPolicy:
    """Per-bin access probabilities plus the scheme they belong to."""

    a: tuple
    scheme: Scheme = Scheme.NO_FEEDBACK

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        if len(self.a) == 0:
            raise ValueError("policy must have at least one entry")
        if any(not 0.0 <= x <= 1.0 for x in self.a):
            raise ValueError("access probabilities must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.a)


def outage_probability(G: float, r: float, gamma: float, zeta: float, N_0: float) -> float:
    """Probability that a Rayleigh-faded link misses the SNR threshold.

    Parameters
    ----------
    G : transmit power, watts
    r : link distance, meters
    gamma : path-loss exponent
    zeta : SNR threshold, linear
    N_0 : noise spectral density, W/Hz

    Returns 1 - exp(-zeta*N_0*r^gamma/G), which lies in [0, 1).
    """
    if G <= 0.0 or r <= 0.0 or N_0 <= 0.0 or gamma <= 0.0:
        raise ValueError("G, r, gamma and N_0 must be strictly positive")
    if zeta < 0.0:
        raise ValueError("zeta must be nonnegative")
    return -math.expm1(log_complement_outage(G, r, gamma, zeta, N_0))


def log_complement_outage(G: float, r: float, gamma: float, zeta: float, N_0: float) -> float:
    """log(1 - outage_probability), exact in log space (it is just -zeta*N_0*r^gamma/G)."""
    return -zeta * N_0 * r ** gamma / G


def bin_probabilities(eta: float, n: int, sigma_sq: float) -> np.ndarray:
    """Probability of the energy statistic landing in each subinterval of [0, eta].

    The statistic is exponential with mean 2*sigma_sq, so bin i (1-based)
    has mass exp(-(i-1)*eta/(2*n*sigma_sq)) - exp(-i*eta/(2*n*sigma_sq)).
    Entries are strictly decreasing and sum to 1 - exp(-eta/(2*sigma_sq)).
    """
    if eta <= 0.0:
        raise ValueError("eta must be strictly positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    if sigma_sq <= 0.0:
        raise ValueError("sigma_sq must be strictly positive")
    width = eta / (2.0 * n * sigma_sq)
    if not math.isfinite(n * width):  # the last edge; inf would make nan bins
        raise ValueError(f"eta/(2*sigma_sq) = {eta!r}/(2*{sigma_sq!r}) overflows a float")
    edges = np.arange(n + 1, dtype=float) * width
    tail = np.exp(-edges)
    return tail[:-1] - tail[1:]


def joint_access_probability(policy: AccessPolicy, bins) -> float:
    """Probability of landing in some bin and gaining access: sum_i p_i * a_i."""
    a = np.asarray(policy.a, dtype=float)
    p = np.asarray(bins, dtype=float)
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: policy has {a.size} entries, bins {p.size}")
    return clamp_probability(float(a @ p))
