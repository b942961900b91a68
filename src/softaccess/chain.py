"""Primary-queue Markov chain: stationary distribution and delays.

The queue of one primary user is a chain over states (k, F) and (k, R),
where k is the backlog and the phase says whether the head packet is on
its first transmission (F) or being retransmitted (R). Per slot, with
arrival rate lambda_p, a first transmission succeeds with probability
gamma_p and any failure (collision, outage, or not owning the slot) moves
the head to R; a retransmission succeeds with probability beta, which is
delta_bar with feedback (secondaries stay off it) and gamma_p without, a
Bernoulli server (`rates.chain_params`). Closed-form stationary
probabilities exist for psi < 1; an independent numeric solve serves as
the cross-oracle. It truncates the chain at backlog K, takes the sparse
transition matrix of `transition_matrix` and solves the banded balance
equations with one sparse LU factorization, which reaches any psi whose
default truncation K stays within the 1e5 cap (psi up to about 0.9997).

Flat state indexing used by the numeric path: [F_0 .. F_K, R_1 .. R_K].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rates import ChainParams, RateValue, Unstable

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "ChainDistribution",
    "SolveError",
    "default_truncation",
    "closed_form_distribution",
    "transition_matrix",
    "numeric_distribution",
    "delay_fb",
    "littles_law_delay",
]

# geometric tail target for the default truncation rule
TAIL_TARGET = 1e-14


class SolveError(ArithmeticError):
    """The stationary solve missed its residual tolerance."""


@dataclass(frozen=True)
class ChainDistribution:
    """Stationary probabilities of the primary-queue chain up to backlog K.

    pi[k] and eps[k] are the first-transmission and retransmission state
    probabilities (eps[0] is identically 0). tail_mass and tail_mean hold
    the closed-form residues of sum(pi_k + eps_k) and sum(k*(pi_k+eps_k))
    beyond K; the numeric oracle has no tail by construction.
    """

    pi: np.ndarray
    eps: np.ndarray
    K: int
    tail_mass: float
    tail_mean: float

    def total_mass(self) -> float:
        return float(self.pi.sum() + self.eps.sum() + self.tail_mass)

    def mean_occupancy(self) -> float:
        """Mean number of packets in system, retransmission states included."""
        k = np.arange(self.K + 1, dtype=float)
        return float(k @ (self.pi + self.eps) + self.tail_mean)


def default_truncation(psi: float) -> int:
    """Smallest K with psi^K below the tail target, floored at 50, capped at 1e5."""
    if psi < 0.0:
        raise ValueError("psi must be nonnegative")
    if psi >= 1.0:
        raise ValueError("no finite truncation for psi >= 1")
    if psi == 0.0:
        return 50
    K = math.ceil(math.log(TAIL_TARGET) / math.log(psi))
    return min(max(50, K), 100_000)


def closed_form_distribution(params: ChainParams, lambda_p: float, K: int | None = None) -> RateValue:
    """Stationary distribution from the closed-form solution.

    pi_0 = margin/beta, margin = chi-lambda, eps_1 = lambda*(1-gamma)*pi_0/chi,
    pi_1 = lambda*(1-delta*(1-lambda))*pi_0/((1-lambda)*chi), and for
    k >= 2 both sequences are geometric in psi:
    eps_k = psi^k * (1-lambda)(1-gamma) pi_0 / (1-chi)^2 and
    pi_k = lambda/(1-lambda) * eps_k. Unstable when psi >= 1.
    """
    lam = lambda_p
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda_p must lie in [0, 1]")
    if lam == 0.0:
        n = (K if K is not None else default_truncation(0.0)) + 1
        pi = np.zeros(n)
        pi[0] = 1.0
        return ChainDistribution(pi=pi, eps=np.zeros(n), K=n - 1, tail_mass=0.0, tail_mean=0.0)
    if params.psi >= 1.0 or params.margin <= 0.0:
        return Unstable(params.margin)
    if K is None:
        K = default_truncation(params.psi)
    if K < 2:
        raise ValueError("K must be at least 2")

    lam_bar = 1.0 - lam
    gam_bar = 1.0 - params.gamma_p
    chi = params.chi
    psi = params.psi
    pi0 = params.margin / params.beta

    pi = np.zeros(K + 1)
    eps = np.zeros(K + 1)
    pi[0] = pi0
    eps[1] = lam * gam_bar * pi0 / chi
    pi[1] = lam * (1.0 - params.delta * lam_bar) * pi0 / (lam_bar * chi)
    # geometric body for k >= 2
    coef = lam_bar * gam_bar * pi0 / (1.0 - chi) ** 2
    k = np.arange(2, K + 1, dtype=float)
    eps[2:] = coef * psi ** k
    pi[2:] = (lam / lam_bar) * eps[2:]

    # exact geometric residues beyond K (the k >= 2 law applies there)
    per_level = coef / lam_bar  # (pi_k + eps_k) / psi^k
    r = psi ** (K + 1)
    tail_mass = per_level * r / (1.0 - psi)
    tail_mean = per_level * r * ((K + 1) * (1.0 - psi) + psi) / (1.0 - psi) ** 2
    return ChainDistribution(pi=pi, eps=eps, K=K, tail_mass=float(tail_mass), tail_mean=float(tail_mean))


def transition_matrix(params: ChainParams, lambda_p: float, K: int) -> sparse.csr_array:
    """Row-stochastic transition matrix of the truncated chain, a `scipy.sparse.csr_array`.

    States are indexed [F_0 .. F_K, R_1 .. R_K]; mass that would leave the
    truncation from level K is reflected back into level K, so P stores
    8K entries. `.toarray()` gives a dense view.
    """
    from scipy import sparse  # here, so that only the chain oracle pays for importing scipy

    if K < 2:
        raise ValueError("truncation K must be at least 2")
    lam = lambda_p
    lam_bar = 1.0 - lam
    g = params.gamma_p
    g_bar = 1.0 - g
    d = params.delta
    d_bar = params.beta

    n = 2 * K + 1
    # row F_0 moves to (F_0, F_1); rows F_1 .. F_K, then R_1 .. R_K, move
    # to (F_(k-1), F_k, R_k, R_(k+1)), with R_(K+1) reflected to R_K
    k = np.arange(1, K + 1)
    cols = np.minimum(np.stack([k - 1, k, K + k, K + k + 1], axis=1), 2 * K).ravel()
    vals = np.repeat([[lam_bar * g, lam * g, lam_bar * g_bar, lam * g_bar],
                      [lam_bar * d_bar, lam * d_bar, lam_bar * d, lam * d]], K, axis=0)
    P = sparse.csr_array((np.concatenate([[lam_bar, lam], vals.ravel()]),
                          np.concatenate([[0, 1], cols, cols]),
                          np.concatenate([[0], np.arange(2, 8 * K + 3, 4)])), shape=(n, n))
    P.sum_duplicates()  # the reflected pair of each level-K row
    return P


def numeric_distribution(params: ChainParams, lambda_p: float, K: int | None = None) -> ChainDistribution:
    """Stationary distribution of the truncated chain, solved numerically.

    Independent oracle for the closed form: takes P from
    `transition_matrix` and solves the balance equations x (P - I) = 0 in
    one sparse LU solve, with the F_0 equation replaced by the pin
    x[F_0] = 1 and the result normalized afterwards. The chain only moves
    between neighbouring backlog levels, so the system is banded and the
    solve costs O(K); it reaches any psi whose default truncation stays
    within the 1e5 cap. Requires psi^K < 1e-12 so that truncation error
    is negligible; raises SolveError if max|xP - x| exceeds 1e-10.
    """
    lam = lambda_p
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda_p must lie in [0, 1]")
    if lam > 0.0 and (params.psi >= 1.0 or params.margin <= 0.0):
        raise ValueError("chain is unstable, no stationary distribution")
    if K is None:
        K = default_truncation(params.psi if lam > 0.0 else 0.0)
    if K < 2:
        raise ValueError("K must be at least 2")
    if lam > 0.0 and params.psi > 0.0 and params.psi ** K >= 1e-12:
        raise ValueError(f"K={K} too small: psi^K = {params.psi ** K:.3e} >= 1e-12")

    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    P = transition_matrix(params, lam, K)
    n = P.shape[0]
    # A = P^T - I, whose CSC columns are P's CSR rows, with row F_0 swapped
    # for the pin (P's first entry is F_0 -> F_0); a dense normalization
    # row would fill in the LU factors
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    data = P.data - (P.indices == rows)
    keep = P.indices != 0
    data[0], keep[0] = 1.0, True
    A = sparse.csc_array((data[keep], P.indices[keep],
                          np.concatenate([[0], np.cumsum(keep)[P.indptr[1:] - 1]])), shape=(n, n))
    b = np.zeros(n)
    b[0] = 1.0
    x = spsolve(A, b)
    x /= x.sum()
    residual = float(np.abs(x @ P - x).max())
    if not residual <= 1e-10:  # also catches the NaNs of a singular system
        raise SolveError(f"stationary solve ill-conditioned: residual {residual:.3e}")

    nF = K + 1
    pi = x[:nF].copy()
    eps = np.concatenate([[0.0], x[nF:]])
    return ChainDistribution(pi=pi, eps=eps, K=K, tail_mass=0.0, tail_mean=0.0)


def delay_fb(params: ChainParams, lambda_p: float) -> RateValue:
    """Mean primary packet delay of the chain, for every scheme.

    [(gamma-beta) m^2 + (1-lambda)(1-gamma) chi] / [(lambda(1-gamma) + (1-lambda) delta) beta m]
    slots, m = chi-lambda = params.margin: gamma-chi is written (1-lambda)(gamma-beta) and 1-chi
    a sum of complements, so neither cancels. At beta = gamma it is (1-lambda)/m. The primary
    verification is agreement with Little's law on the stationary distribution.
    """
    lam = lambda_p
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda_p must lie in [0, 1]")
    if params.margin <= 0.0:
        return Unstable(params.margin)
    chi = params.chi
    if chi >= 1.0:
        return 1.0  # deterministic single-slot service corner
    lam_bar = 1.0 - lam
    gam_bar = 1.0 - params.gamma_p
    num = (params.gamma_p - params.beta) * params.margin ** 2 + lam_bar * gam_bar * chi
    den = (lam * gam_bar + lam_bar * params.delta) * params.beta * params.margin
    return num / den


def littles_law_delay(dist: ChainDistribution, lambda_p: float) -> float:
    """Mean delay via Little's law: mean occupancy over arrival rate."""
    if lambda_p <= 0.0:
        raise ValueError("Little's-law delay needs a positive arrival rate")
    return dist.mean_occupancy() / lambda_p
