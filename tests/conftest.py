"""Shared fixtures and samplers for the test suite."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from softaccess import (
    NetworkConfig,
    Scheme,
    SensingConfig,
    chain_params,
    chain_params_from_rates,
    default_sensing,
)
from softaccess.model import AccessPolicy


@pytest.fixture(scope="session")
def ref_cfg() -> NetworkConfig:
    """Reference network: 4 primaries, 2 secondaries, lambda 0.1."""
    return NetworkConfig()


@pytest.fixture(scope="session")
def ref_sensing(ref_cfg) -> SensingConfig:
    return default_sensing(ref_cfg)


def sample_stable_params(rng: np.random.Generator, psi_max: float = 0.9,
                         lam_min: float = 0.01):
    """Rejection-sample a stable (ChainParams, lambda_p) pair.

    Draws physical-ish rates (gamma_p below delta_bar) and keeps the pair
    only when the geometric ratio stays below psi_max so truncated sums
    converge quickly.
    """
    while True:
        M_p = int(rng.integers(1, 6))
        P_pd = rng.uniform(0.0, 0.5)
        M_s = int(rng.integers(1, 5))
        s1 = rng.uniform(0.0, 0.9)
        delta_bar = (1.0 - P_pd) / M_p
        gamma_p = delta_bar * (1.0 - s1) ** M_s
        lam = rng.uniform(lam_min, 0.99)
        params = chain_params_from_rates(gamma_p, 1.0 - delta_bar, lam)
        if params.psi <= psi_max and lam < params.chi:
            return params, lam


def load_ratio_lambda(psi: float, gamma_p: float = 0.2, delta: float = 0.75) -> float:
    """lambda_p at which chain_params_from_rates(gamma_p, delta, lambda_p) has load ratio psi.

    psi*(1-l)*chi = l*(1-chi) with chi = l*gamma_p + (1-l)*(1-delta) is the
    quadratic a*l^2 + b*l - c = 0; this is its positive root.
    """
    d_bar = 1.0 - delta
    a = (1.0 - psi) * (d_bar - gamma_p)
    b = psi * (2.0 * d_bar - gamma_p) + (1.0 - d_bar)
    c = psi * d_bar
    return 2.0 * c / (b + math.sqrt(b * b + 4.0 * a * c))


def sample_network(rng: np.random.Generator, n: int | None = None,
                   lam_frac: float | None = None, M_p: int | None = None):
    """Random network + sensing pair with guaranteed stability headroom.

    lam_frac fixes lambda_p as that fraction of delta_bar; when None a
    fraction is drawn uniformly from [0, 0.85]. M_p, when given, replaces
    the drawn primary count, and the rest of the draws stay the same.
    """
    drawn_M_p = int(rng.integers(2, 6))
    M_p = drawn_M_p if M_p is None else M_p
    M_s = int(rng.integers(1, 4))
    r_pd = float(rng.uniform(50.0, 180.0))
    r_sd = float(rng.uniform(50.0, 180.0))
    r_ps = float(rng.uniform(80.0, 250.0))
    zeta = float(rng.uniform(1.0, 20.0))
    cfg0 = NetworkConfig(M_p=M_p, M_s=M_s, lambda_p=0.0, r_pd=r_pd,
                         r_sd=r_sd, r_ps=r_ps, zeta=zeta)
    n_bins = n if n is not None else int(rng.integers(1, 5))
    sensing = default_sensing(cfg0, n=n_bins,
                              idle_tail=float(rng.uniform(0.05, 0.3)))
    delta_bar = chain_params(
        cfg0, sensing, AccessPolicy((0.0,) * n_bins), Scheme.NO_FEEDBACK).gamma_p
    frac = lam_frac if lam_frac is not None else float(rng.uniform(0.0, 0.85))
    cfg = dataclasses.replace(cfg0, lambda_p=frac * delta_bar)
    return cfg, sensing
