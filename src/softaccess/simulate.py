"""Slot-level Monte Carlo oracle for the whole system.

The simulator realizes the joint dynamics the analytic formulas describe:
TDMA-scheduled primaries with Bernoulli arrivals, backlogged secondaries
doing soft energy-based access, Rayleigh outages, and the retransmission
feedback loop. Each run draws its random streams in chunks of CHUNK slots
(fewer where a chunk's arrays would pass CHUNK_BYTES). One chunk step,
`_sim_chunk_arrays`, serves every scheme: it takes the secondary decisions
with whole-array NumPy operations, then each primary's departures by one
owned-slot recursion (`_departures`), and keeps each primary's queue as
`pending`, the arrival slots of its waiting packets. The tests hold it
against a plain loop over the same slots, on the same draws.

Feedback semantics: a primary that fails (channel outage, secondary
interference, or simply not owning the slot while backlogged) sits in the
retransmission phase, and secondaries stay silent in a slot whose owner
is in that phase with a nonempty queue. A success or an emptied queue
returns the primary to the first-transmission phase.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import AccessPolicy, NetworkConfig, Scheme
from .rates import primary_outage, secondary_outage

__all__ = ["CapacityError", "SimConfig", "SimReport", "run", "run_traced", "estimate_pi0"]

_log = logging.getLogger(__name__)

CAP = 1 << 16  # most packets one primary queue may hold; bounds the run's memory
CHUNK = 1 << 17  # slots per chunk of draws; fewer where CHUNK_BYTES requires it
CHUNK_BYTES = 1 << 29  # most bytes one chunk's arrays, or run_traced's trace, may take


class CapacityError(RuntimeError):
    """A run passed a memory bound: a primary queue held more than CAP packets,
    or one slot of a chunk or run_traced's whole trace would take more than CHUNK_BYTES."""


@dataclass(frozen=True)
class SimConfig:
    slots: int = 1_000_000
    warmup: int = 10_000
    seed: int = 0
    replications: int = 10
    scheme: Optional[Scheme] = None
    # sensitivity mode: deterministic slot ownership instead of i.i.d. draws
    round_robin: bool = False

    def __post_init__(self):
        if self.slots <= 0:
            raise ValueError("slots must be positive")
        if not 0 <= self.warmup < self.slots:
            raise ValueError("warmup must lie in [0, slots)")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SimReport:
    mu_s_hat: float
    se_mu_s: float
    mu_p_hat: float
    se_mu_p: float
    delay_hat: float
    se_delay: float
    pi0_hat: float
    se_pi0: float
    collisions: int
    arrivals: tuple
    departures: tuple
    final_backlog: tuple
    seed_used: int
    replications: int
    slots: int


class _Plan(NamedTuple):
    """What one run's chunk loop and chunk steps need besides the draws and the state."""
    scheme: Scheme
    a_vec: np.ndarray  # access probability per energy bin
    scale_idle: float  # energy draw to bin index when the owner is idle
    scale_busy: float  # ... and when it is busy
    lam: float
    clear_pd: float  # probability that the primary link is not in outage
    clear_sd: float  # ... and the secondary link
    warmup: int
    rows: int  # slots per chunk


def _plan(cfg: NetworkConfig, sensing, policy: AccessPolicy, sim: SimConfig) -> _Plan:
    scheme = sim.scheme or policy.scheme
    if scheme is Scheme.GENIE:
        if policy.n != 1:
            raise ValueError("genie policy must have a single entry")
        # the genie's one bin takes every idle draw and no busy one
        scale_idle, scale_busy = 0.0, math.inf
    else:
        if sensing is None:
            raise ValueError("sensing config required for sensing schemes")
        if policy.n != sensing.n:
            raise ValueError("policy length must match the number of bins")
        scale_idle = 2.0 * sensing.sigma0_sq * sensing.n / sensing.eta
        scale_busy = 2.0 * sensing.sigma1_sq * sensing.n / sensing.eta
    # a chunk's draws and temporaries peak below this many bytes per slot (tracemalloc)
    row_bytes = 256 + 32 * cfg.M_p + 56 * cfg.M_s
    if row_bytes > CHUNK_BYTES:
        raise CapacityError(f"one slot of network.M_s = {cfg.M_s} and network.M_p = {cfg.M_p} "
                            f"takes {row_bytes} bytes, more than the {CHUNK_BYTES}-byte chunk bound")
    return _Plan(scheme, np.asarray(policy.a, dtype=np.float64), scale_idle, scale_busy,
                 cfg.lambda_p, 1.0 - primary_outage(cfg), 1.0 - secondary_outage(cfg),
                 sim.warmup, min(CHUNK, CHUNK_BYTES // row_bytes))


def _access(e_draws, acc_u, a_vec, scale):
    """Secondary access decisions for every slot and secondary at one energy scale."""
    x = e_draws * scale
    inside = x < a_vec.size  # int(x) < a_vec.size for finite x >= 0; inf and nan fall outside
    pa = np.where(inside, a_vec[np.where(inside, x, 0.0).astype(np.int64)], 0.0)
    return (pa > 0.0) & (acc_u < pa)


def _departures(owned, a_q, q0, r0, first_ok, clear, feedback):
    """The owned slots in which one primary departs.

    D(j+1) = min(D(j) + o(j), at(j)), where D(j) and at(j) count its
    departures and arrivals (q0 included) before its j-th owned slot and
    o(j) is that slot's service opportunity. Without feedback o is
    `first_ok`, and D is its cumulative sum O plus min(0, running minimum
    of at - O) (Lindley 1952; Asmussen, Applied Probability and Queues,
    ch. III). With feedback a backlogged owner is served on `first_ok` in
    the first-transmission phase (empty at the previous slot's start, or
    served in it) and on `clear` in retransmission: one pass over the slots.
    """
    at = q0 + np.cumsum(a_q)[owned] - a_q[owned]
    if not feedback:
        O = np.cumsum(first_ok[owned])
        D = O + np.minimum(np.minimum.accumulate(at - O), 0)
        return owned[np.diff(D, prepend=0) > 0]
    prev = at - a_q[owned - 1]  # wraps at slot 0, which reads r0 instead
    nd, last, served = 0, -2, []
    for i, k, k_prev, f_ok, c_ok in zip(owned.tolist(), at.tolist(), prev.tolist(),
                                        first_ok[owned].tolist(), clear[owned].tolist()):
        if k == nd:  # empty at slot start
            continue
        if i == 0:
            first = not r0
        else:
            first = last == i - 1 or k_prev == nd
        if f_ok if first else c_ok:
            served.append(i)
            nd += 1
            last = i
    return np.array(served, dtype=np.int64)


# stats slots: 0 su_success, 1 mu_p_den, 2 mu_p_num, 3 pi0_cnt,
# 4 collisions, 5 delay_cnt, 6 delay_sum
def _sim_chunk_arrays(plan, t0, owner, arr_u, e_draws, acc_u, pu_u, su_u,
                      pending, phase, stats, arr_cnt, dep_cnt, trace):
    """Advance the pending arrivals, phases and counters over slots t0..t0+L-1.

    Every secondary decision is taken for all slots under both the idle
    and the busy scale, so the primaries interact only through the owner
    sequence. Each primary's departures then follow from its owned slots
    alone (`_departures`), and the k-th of them takes the k-th of its
    pending and new arrivals (FIFO). `trace`, when not None, is the
    chunk's rows of `run_traced`'s structured array.
    """
    L, M_p = arr_u.shape
    M_s = e_draws.shape[1]
    rows = np.arange(L)
    feedback = plan.scheme is Scheme.FEEDBACK
    idle_acc = _access(e_draws, acc_u, plan.a_vec, plan.scale_idle)
    busy_acc = _access(e_draws, acc_u, plan.a_vec, plan.scale_busy)
    n_idle = idle_acc.sum(axis=1)
    n_busy = busy_acc.sum(axis=1)
    clear = pu_u < plan.clear_pd
    first_ok = clear & (n_busy == 0)
    arrive = arr_u < plan.lam

    # Q[t] is every queue at slot t's start (Q[L] at the chunk's end), R[t]
    # its retransmission phase and dep[t] who departed in slot t
    q0 = np.array([p.size for p in pending], dtype=np.int64)
    dep = np.zeros((L, M_p), dtype=bool)
    for q in range(M_p):
        a_q = arrive[:, q]
        d_at = _departures(np.flatnonzero(owner == q), a_q, int(q0[q]), phase[q],
                           first_ok, clear, feedback)
        dep[d_at, q] = True
        d_at += t0
        a_at = np.flatnonzero(a_q) + t0
        waiting = np.concatenate((pending[q], a_at))
        post = d_at >= plan.warmup
        stats[5] += np.count_nonzero(post)
        stats[6] += (d_at - waiting[:d_at.size])[post].sum()
        pending[q] = waiting[d_at.size:]
        arr_cnt[q] += a_at.size
        dep_cnt[q] += d_at.size
    steps = np.zeros((L + 1, M_p), dtype=np.int64)
    np.cumsum(arrive.astype(np.int64) - dep, axis=0, out=steps[1:])
    Q = q0 + steps
    if Q.max() > CAP:
        raise CapacityError(f"a primary queue held more than {CAP} packets")
    R = np.zeros((L + 1, M_p), dtype=bool)  # phases stay F without feedback
    if feedback:
        R[0] = phase
        R[1:] = (Q[:-1] > 0) & ~dep
    Qs, Rs = Q[:-1], R[:-1]

    in_range = owner < M_p
    own = np.where(in_range, owner, 0)
    busy = in_range & (Qs[rows, own] > 0)
    idle = ~busy
    silent = busy & Rs[rows, own]  # nonzero under feedback only
    served = dep.any(axis=1)
    lone_clear = su_u[rows, idle_acc.argmax(axis=1)] < plan.clear_sd
    p = min(L, max(0, plan.warmup - t0))  # first post-warmup slot of the chunk
    stats[0] += np.count_nonzero((idle & (n_idle == 1) & lone_clear)[p:])
    stats[1] += np.count_nonzero(((Qs > 0) & ~Rs)[p:])
    stats[2] += np.count_nonzero((served & ~silent)[p:])
    stats[3] += np.count_nonzero(idle[p:])
    stats[4] += np.count_nonzero((busy & ~silent & (n_busy > 0) | idle & (n_idle > 1))[p:])
    phase[:] = R[L]

    if trace is not None:
        trace["owner"] = owner
        trace["queues"] = Qs
        trace["r_mask"] = Rs @ (1 << np.arange(M_p))
        su = np.where(busy[:, None], busy_acc & ~silent[:, None], idle_acc)
        trace["su_mask"] = su @ (1 << np.arange(M_s))
        trace["outcome"] = np.select([served, busy, n_idle == 1, n_idle > 1],
                                     [1, 2, np.where(lone_clear, 3, 5), 4], 0)
        trace["feedback"] = np.select([served, busy], [1, 2], 0)


def _run_one(kernel, rng, cfg, sim, plan, trace):
    """One replication, advanced chunk by chunk by `kernel` (the tests pass a slot loop).

    Returns the stats and, per primary, the arrival and departure counts
    and the pending arrival slots at the end.
    """
    M_p, M_s = cfg.M_p, cfg.M_s
    cum_omega = np.cumsum(np.asarray(cfg.omega_p, dtype=np.float64))
    pending = [np.zeros(0, dtype=np.int64) for _ in range(M_p)]
    phase = np.zeros(M_p, dtype=bool)
    stats = np.zeros(7, dtype=np.int64)
    arr_cnt = np.zeros(M_p, dtype=np.int64)
    dep_cnt = np.zeros(M_p, dtype=np.int64)
    for t0 in range(0, sim.slots, plan.rows):
        L = min(plan.rows, sim.slots - t0)
        if sim.round_robin:
            owner = (t0 + np.arange(L, dtype=np.int64)) % M_p
        else:
            owner = np.searchsorted(cum_omega, rng.random(L), side="right").astype(np.int64)
        arr_u = rng.random((L, M_p))
        e_draws = rng.standard_exponential((L, M_s))
        acc_u = rng.random((L, M_s))
        pu_u = rng.random(L)
        su_u = rng.random((L, M_s))
        kernel(plan, t0, owner, arr_u, e_draws, acc_u, pu_u, su_u,
               pending, phase, stats, arr_cnt, dep_cnt,
               None if trace is None else trace[t0:t0 + L])
    return stats, arr_cnt, dep_cnt, pending


def _estimates(stats, span: int, M_s: int):
    mu_s = stats[0] / (span * M_s)
    mu_p = stats[2] / stats[1] if stats[1] > 0 else math.nan
    pi0 = stats[3] / span
    delay = stats[6] / stats[5] if stats[5] > 0 else math.nan
    return float(mu_s), float(mu_p), float(pi0), float(delay)


def _mean_se(values):
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, math.nan
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))


def _new_trace(slots: int, M_p: int) -> np.ndarray:
    dtype = np.dtype([
        ("slot", "i8"), ("owner", "i8"), ("queues", "i8", (M_p,)),
        ("r_mask", "i8"), ("su_mask", "i8"), ("outcome", "i8"), ("feedback", "i8"),
    ])
    if slots * dtype.itemsize > CHUNK_BYTES:
        raise CapacityError(f"a trace of sim.slots = {slots} at network.M_p = {M_p} takes "
                            f"{slots * dtype.itemsize} bytes, more than the {CHUNK_BYTES}-byte "
                            "bound")
    trace = np.zeros(slots, dtype=dtype)
    trace["slot"] = np.arange(slots, dtype=np.int64)
    return trace


def _simulate(cfg: NetworkConfig, sensing, policy: AccessPolicy, sim: SimConfig, trace):
    """Run every replication and return the report; fill `trace` unless it is None."""
    plan = _plan(cfg, sensing, policy, sim)
    start = time.perf_counter()
    span = sim.slots - sim.warmup
    children = np.random.SeedSequence(sim.seed).spawn(sim.replications)
    per_rep = []
    collisions = 0
    counts = np.zeros((3, cfg.M_p), dtype=np.int64)  # arrivals, departures, backlog
    for child in children:
        rng = np.random.default_rng(child)
        stats, arr_cnt, dep_cnt, pending = _run_one(_sim_chunk_arrays, rng, cfg, sim, plan, trace)
        per_rep.append(_estimates(stats, span, cfg.M_s))
        collisions += int(stats[4])
        counts += arr_cnt, dep_cnt, [p.size for p in pending]
    mu_s, se_mu_s = _mean_se([r[0] for r in per_rep])
    mu_p, se_mu_p = _mean_se([r[1] for r in per_rep])
    pi0, se_pi0 = _mean_se([r[2] for r in per_rep])
    delay, se_delay = _mean_se([r[3] for r in per_rep])
    report = SimReport(
        mu_s_hat=mu_s, se_mu_s=se_mu_s,
        mu_p_hat=mu_p, se_mu_p=se_mu_p,
        delay_hat=delay, se_delay=se_delay,
        pi0_hat=pi0, se_pi0=se_pi0,
        collisions=collisions,
        arrivals=tuple(counts[0].tolist()),
        departures=tuple(counts[1].tolist()),
        final_backlog=tuple(counts[2].tolist()),
        seed_used=sim.seed, replications=sim.replications, slots=sim.slots,
    )
    _log.debug("array path: %d slots x %d replications in %.3f s",
               sim.slots, sim.replications, time.perf_counter() - start)
    return report


def run(cfg: NetworkConfig, sensing, policy: AccessPolicy,
        sim: SimConfig | None = None) -> SimReport:
    """Simulate and report point estimates with across-replication SEs.

    Replications use independent spawned seed streams, so the report is a
    deterministic function of (inputs, seed). SEs are nan at one
    replication.
    """
    return _simulate(cfg, sensing, policy, sim or SimConfig(), None)


def run_traced(cfg: NetworkConfig, sensing, policy: AccessPolicy,
               sim: SimConfig | None = None):
    """Single-replication run returning (report, per-slot trace).

    The report is the one `run` gives for the same inputs. The trace
    records slot-start state: owner, queue lengths, the retransmission
    mask, plus the slot's secondary mask, outcome code and feedback code.
    Outcomes: 0 quiet, 1 primary success, 2 primary loss, 3 secondary
    success, 4 secondary collision, 5 secondary outage loss. Feedback:
    0 none, 1 ack, 2 nack. The masks are int64 bit sets, so the trace
    holds at most 63 primaries and 63 secondaries. The trace takes
    8 * (M_p + 6) bytes per slot; CapacityError refuses one past
    CHUNK_BYTES before anything is allocated or drawn.
    """
    sim = sim or SimConfig()
    if sim.replications != 1:
        raise ValueError("run_traced requires replications == 1")
    if max(cfg.M_p, cfg.M_s) > 63:
        raise ValueError("run_traced records users in int64 bitmasks: "
                         f"M_p = {cfg.M_p} and M_s = {cfg.M_s} must be at most 63")
    trace = _new_trace(sim.slots, cfg.M_p)
    return _simulate(cfg, sensing, policy, sim, trace), trace


def estimate_pi0(trace: np.ndarray, warmup: int = 0) -> float:
    """Fraction of post-warmup slots whose owner queue is empty at slot start."""
    rows = trace[trace["slot"] >= warmup]
    if rows.size == 0:
        raise ValueError("no slots beyond the warmup")
    M_p = rows["queues"].shape[1]
    own = rows["owner"]
    qsel = rows["queues"][np.arange(rows.size), np.minimum(own, M_p - 1)]
    empty = (own >= M_p) | (qsel == 0)
    return float(np.mean(empty))
