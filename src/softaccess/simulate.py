"""Slot-level Monte Carlo oracle for the whole system.

The simulator realizes the joint dynamics the analytic formulas describe:
TDMA-scheduled primaries with Bernoulli arrivals, backlogged secondaries
doing soft energy-based access, Rayleigh outages, and the retransmission
feedback loop. Each run draws its random streams in chunks of CHUNK slots
(fewer where a chunk's arrays would pass CHUNK_BYTES). One chunk step,
`_sim_chunk_arrays`, serves every scheme: it takes the secondary decisions
with whole-array NumPy operations, then each primary's departures over
its owned slots by the Lindley recursion in array form (`_departures`;
with feedback, a causal fixpoint of such passes that reads each owned
slot's retransmission phase from its owned predecessor by resets and
flips, one scan per pass, and settles within m + 1 passes for m owned
slots), and keeps each primary's queue as `pending`, the arrival slots of
its waiting packets. Every chunk of a run draws into the same buffers.
The tests hold the step against a plain loop over the same slots, on the
same draws.

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

__all__ = ["CapacityError", "SimConfig", "SimReport", "run", "run_traced"]

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
    # x >= 0, so int(x) is its bin; past the last bin, inf and nan read the appended 0
    np.fmin(x, a_vec.size, out=x)
    return acc_u < np.append(a_vec, 0.0).take(x.astype(np.int64))


def _departures(owned, a_q, q0, r0, first_ok, clear, feedback):
    """The owned slots in which one primary departs.

    D(j+1) = min(D(j) + o(j), at(j)), where D(j) and at(j) count its
    departures and arrivals (q0 included) before its j-th owned slot and
    o(j) is that slot's service opportunity. Given o, D is its cumulative
    sum O plus min(0, running minimum of at - O) (Lindley 1952; Asmussen,
    Applied Probability and Queues, ch. III). Without feedback o is
    `first_ok`. With feedback a backlogged owner is served on `first_ok` in
    the first-transmission phase and on `clear` in retransmission, so
    o = first_ok | clear & R, where R(j) is the retransmission phase at j.

    R is set by the slot before j. Where that slot is not owned, R(j) is
    whether the queue held a packet at its start (r0 at slot 0 of the
    chunk). Where it is owned slot j-1, R(j) is 0 if j-1 was empty or
    `first_ok` (the owner was served in either phase), 1 if j-1 was
    backlogged and not `clear` (served in neither), and not R(j-1) if it
    was backlogged, `clear` and not `first_ok` (served in retransmission
    only). So given D, R is the last reset's value flipped once per owned
    slot since, and one running maximum over the keys 2j + (reset value
    xor j's parity), with flips keyed below every reset, gives it all.

    One pass maps o to D by the form above, and D back to o. The pass that
    maps D to the next D is causal: its D(j+1) reads D(0..j) only. D(0) = 0
    is exact, so each pass makes at least one more entry exact, and passes
    that start from "all first" (o = `first_ok`) and stop when o repeats
    end within m + 1 passes for m owned slots.
    """
    at = q0 + np.cumsum(a_q)[owned] - a_q[owned]
    fo = first_ok[owned]
    if not feedback:
        return owned[np.diff(_lindley(at, fo), prepend=0) > 0]
    cl = clear[owned]
    j = np.arange(owned.size)
    after = np.zeros(owned.size, dtype=bool)  # owned slot j directly follows owned slot j-1
    after[1:] = np.diff(owned) == 1
    # the queue held a packet at the start of the slot before owned slot j where
    # prev(j) > D(k(j)), k = j - 1 if that slot is owned slot j - 1 and j otherwise
    prev = at - a_q[owned - 1]  # wraps at slot 0, which reads r0 instead
    k = j - after
    # R's key at j where no packet was held: a reset to 0 (key ^ 1 resets to 1);
    # where one was: a reset to 1, but where that slot is owned slot j - 1 and
    # clear, a reset to 0 after first_ok and a flip after clear only
    key_empty = 2 * j + (j & 1)
    key_held = key_empty ^ 1
    np.copyto(key_held[1:], np.where(fo[:-1], key_empty[1:], -1), where=after[1:] & cl[:-1])
    if owned.size and owned[0] == 0:  # slot 0 of the chunk takes the phase carried in
        key_empty[0] = key_held[0] = r0
    D = np.zeros(owned.size + 1, dtype=np.int64)
    o = fo
    while True:
        D[1:] = _lindley(at, o)
        key = np.where(prev > D[k], key_held, key_empty)
        # R(j) is the low bit of (running maximum of key)(j) ^ j, read where clear
        o_next = fo | (np.maximum.accumulate(key) ^ j) & cl
        if np.array_equal(o_next, o):
            return owned[D[1:] > D[:-1]]
        o = o_next


def _lindley(at, o):
    """D(1..m) from D(0) = 0 by D(j+1) = min(D(j) + o(j), at(j))."""
    O = np.cumsum(o)
    return O + np.minimum(np.minimum.accumulate(at - O), 0)


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
    # counts across the secondaries by a product: a sum along a short axis is slower
    ones = np.ones(M_s)
    n_idle = idle_acc @ ones
    n_busy = busy_acc @ ones
    clear = pu_u < plan.clear_pd
    first_ok = clear & (n_busy == 0)
    arrive = arr_u < plan.lam

    # Q[t] is every queue at slot t's start (Q[L] at the chunk's end), R[t]
    # its retransmission phase and dep[t] who departed in slot t
    q0 = np.array([p.size for p in pending], dtype=np.int64)
    dep = np.zeros((L, M_p), dtype=bool)
    served = np.zeros(L, dtype=bool)
    for q in range(M_p):
        a_q = arrive[:, q]
        d_at = _departures(np.flatnonzero(owner == q), a_q, int(q0[q]), phase[q],
                           first_ok, clear, feedback)
        dep[d_at, q] = True
        served[d_at] = True
        d_at += t0
        a_at = np.flatnonzero(a_q) + t0
        waiting = np.concatenate((pending[q], a_at))
        post = d_at >= plan.warmup
        stats[5] += np.count_nonzero(post)
        stats[6] += (d_at - waiting[:d_at.size])[post].sum()
        pending[q] = waiting[d_at.size:]
        arr_cnt[q] += a_at.size
        dep_cnt[q] += d_at.size
    Q = np.empty((L + 1, M_p), dtype=np.int64)
    Q[0] = q0
    np.subtract(arrive, dep, out=Q[1:], dtype=np.int64)
    np.cumsum(Q, axis=0, out=Q)
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
    # where n_idle is 1, whether that one secondary's link is clear; read nowhere else
    lone_clear = (idle_acc & (su_u < plan.clear_sd)) @ ones == 1
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


def _draw_buffers(cfg, sim, plan):
    """Buffers for one chunk's draws, which every chunk of a run draws into."""
    rows = min(plan.rows, sim.slots)
    return (np.empty(rows), np.empty((rows, cfg.M_p)), np.empty((rows, cfg.M_s)),
            np.empty((rows, cfg.M_s)), np.empty(rows), np.empty((rows, cfg.M_s)))


def _run_one(kernel, rng, cfg, sim, plan, trace, draws=None):
    """One replication, advanced chunk by chunk by `kernel` (the tests pass a slot loop).

    `draws` holds `_draw_buffers`' arrays, made here when None. Returns the
    stats and, per primary, the arrival and departure counts and the
    pending arrival slots at the end.
    """
    M_p = cfg.M_p
    cum_omega = np.cumsum(np.asarray(cfg.omega_p, dtype=np.float64))
    own_u, arr_u, e_draws, acc_u, pu_u, su_u = draws or _draw_buffers(cfg, sim, plan)
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
            owner = np.searchsorted(cum_omega, rng.random(out=own_u[:L]),
                                    side="right").astype(np.int64)
        # the draws of one chunk, in the order that fixes the random streams
        rng.random(out=arr_u[:L])
        rng.standard_exponential(out=e_draws[:L])
        rng.random(out=acc_u[:L])
        rng.random(out=pu_u[:L])
        rng.random(out=su_u[:L])
        kernel(plan, t0, owner, arr_u[:L], e_draws[:L], acc_u[:L], pu_u[:L], su_u[:L],
               pending, phase, stats, arr_cnt, dep_cnt,
               None if trace is None else trace[t0:t0 + L])
    return stats, arr_cnt, dep_cnt, pending


def _new_trace(slots: int, M_p: int) -> np.ndarray:
    dtype = np.dtype([("owner", "i8"), ("queues", "i8", (M_p,)), ("r_mask", "i8"),
                      ("su_mask", "i8"), ("outcome", "i8")])
    if slots * dtype.itemsize > CHUNK_BYTES:
        raise CapacityError(f"a trace of sim.slots = {slots} at network.M_p = {M_p} takes "
                            f"{slots * dtype.itemsize} bytes, more than the {CHUNK_BYTES}-byte "
                            "bound")
    return np.zeros(slots, dtype=dtype)


def _simulate(cfg: NetworkConfig, sensing, policy: AccessPolicy, sim: SimConfig, trace):
    """Run every replication and return the report; fill `trace` unless it is None."""
    plan = _plan(cfg, sensing, policy, sim)
    start = time.perf_counter()
    span = sim.slots - sim.warmup
    R = sim.replications
    # rows mu_s, mu_p, pi0 and delay, one column per replication; 0/0 (nothing counted) is nan
    est = np.empty((4, R))
    collisions = 0
    counts = np.zeros((3, cfg.M_p), dtype=np.int64)  # arrivals, departures, backlog
    draws = _draw_buffers(cfg, sim, plan)
    for r, child in enumerate(np.random.SeedSequence(sim.seed).spawn(R)):
        rng = np.random.default_rng(child)
        stats, arr_cnt, dep_cnt, pending = _run_one(_sim_chunk_arrays, rng, cfg, sim, plan,
                                                    trace, draws)
        with np.errstate(invalid="ignore"):
            est[:, r] = stats[[0, 2, 3, 6]] / [span * cfg.M_s, stats[1], span, stats[5]]
        collisions += int(stats[4])
        counts += arr_cnt, dep_cnt, [p.size for p in pending]
    # each row is contiguous, so it is summed pairwise like a 1-D mean
    mu_s, mu_p, pi0, delay = est.mean(axis=1).tolist()
    se = est.std(axis=1, ddof=1) / math.sqrt(R) if R > 1 else np.full(4, math.nan)
    se_mu_s, se_mu_p, se_pi0, se_delay = se.tolist()
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

    The report is the one `run` gives for the same inputs. Row t of the
    trace is slot t. Its fields record the slot-start state, `owner`,
    `queues` (every queue's length) and `r_mask` (the primaries in
    retransmission), plus the slot's `su_mask` (the secondaries that
    transmit) and `outcome`: 0 quiet, 1 primary success (the owner's ACK),
    2 primary loss (its NACK), 3 secondary success, 4 secondary collision,
    5 secondary outage loss. The masks are int64 bit sets, so the trace
    holds at most 63 primaries and 63 secondaries. The trace takes
    8 * (M_p + 4) bytes per slot; CapacityError refuses one past
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

