"""The simulator's chunk step written as a plain loop over slots.

`sim_chunk` takes the same arguments as `softaccess.simulate._sim_chunk_arrays`
(the run's plan, the chunk's draws, the replication's state and the trace
rows or None) and makes the same state updates and trace, one slot at a
time. Each primary's waiting packets sit in a deque of arrival slots, which
goes back into `pending` as an array at the end of the chunk. It is the
reference the tests hold the array step against, on the same draws. It
reads the queue capacity `simulate.CAP` when called, so a patched CAP
reaches it.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from softaccess import Scheme, simulate


# stats slots: 0 su_success, 1 mu_p_den, 2 mu_p_num, 3 pi0_cnt,
# 4 collisions, 5 delay_cnt, 6 delay_sum
def sim_chunk(plan, t0, owner, arr_u, e_draws, acc_u, pu_u, su_u,
              pending, phase, stats, arr_cnt, dep_cnt, trace):
    L, M_p = arr_u.shape
    M_s = e_draws.shape[1]
    CAP = simulate.CAP
    feedback = plan.scheme is Scheme.FEEDBACK
    waiting = [deque(p.tolist()) for p in pending]
    for i in range(L):
        t = t0 + i
        post = t >= plan.warmup
        own = int(owner[i])
        owner_busy = own < M_p and len(waiting[own]) > 0
        if trace is not None:
            start = (own, [len(w) for w in waiting],
                     sum(1 << q for q in range(M_p) if phase[q]))

        if post:
            if not owner_busy:
                stats[3] += 1
            for q in range(M_p):
                if waiting[q] and not phase[q]:
                    stats[1] += 1

        silent = feedback and owner_busy and phase[own]
        su_mask = 0
        su_n = 0
        lone = -1
        if not silent:
            scale = plan.scale_busy if owner_busy else plan.scale_idle
            for k in range(M_s):
                x = e_draws[i, k] * scale
                pa = plan.a_vec[int(x)] if x < plan.a_vec.size else 0.0
                if pa > 0.0 and acc_u[i, k] < pa:
                    su_mask |= 1 << k
                    su_n += 1
                    lone = k

        outcome = 0
        if owner_busy:
            was_first = not phase[own]
            if su_n == 0 and pu_u[i] < plan.clear_pd:
                at = waiting[own].popleft()
                dep_cnt[own] += 1
                phase[own] = False
                outcome = 1
                if post:
                    stats[5] += 1
                    stats[6] += t - at
                    if was_first:
                        stats[2] += 1
            else:
                if feedback:
                    phase[own] = True
                outcome = 2
            if post and su_n >= 1:
                stats[4] += 1
        else:
            if su_n == 1:
                if su_u[i, lone] < plan.clear_sd:
                    outcome = 3
                    if post:
                        stats[0] += 1
                else:
                    outcome = 5
            elif su_n >= 2:
                outcome = 4
                if post:
                    stats[4] += 1

        if feedback:
            # backlogged non-owners heard no grant: they enter retransmission
            for q in range(M_p):
                if q != own and waiting[q]:
                    phase[q] = True

        for q in range(M_p):
            if arr_u[i, q] < plan.lam:
                waiting[q].append(t)
                arr_cnt[q] += 1
                if len(waiting[q]) > CAP:
                    raise simulate.CapacityError(f"a primary queue held more than {CAP} packets")

        if trace is not None:
            trace[i] = (*start, su_mask, outcome)

    for q, w in enumerate(waiting):
        pending[q] = np.array(w, dtype=np.int64)
