"""The simulator's chunk step written as a plain loop over slots.

`sim_chunk` takes the same arguments as `softaccess.simulate._sim_chunk_arrays`
and makes the same state updates and trace, one slot at a time. It is the
reference the tests hold the array step against, on the same draws. It
reads the ring capacity `simulate.CAP` when called, so a patched CAP
reaches it.
"""
from __future__ import annotations

from softaccess import simulate


# stats slots: 0 su_success, 1 mu_p_den, 2 mu_p_num, 3 pi0_cnt,
# 4 collisions, 5 delay_cnt, 6 delay_sum, 7 overflow flag
def sim_chunk(t0, L, owner, arr_u, e_draws, acc_u, pu_u, su_u,
              queue, phase, buf, head,
              a_vec, n_bins, scheme, lam, clear_pd, clear_sd,
              scale_idle, scale_busy, a_genie, M_p, M_s, warmup,
              stats, arr_cnt, dep_cnt,
              trace_on, tr_owner, tr_q, tr_rmask, tr_sumask, tr_outcome, tr_fb):
    CAP = simulate.CAP
    for i in range(L):
        t = t0 + i
        post = t >= warmup
        own = owner[i]
        owner_busy = own < M_p and queue[own] > 0

        if trace_on:
            tr_owner[i] = own
            rmask = 0
            for q in range(M_p):
                tr_q[i, q] = queue[q]
                if phase[q] == 1:
                    rmask |= 1 << q
            tr_rmask[i] = rmask

        if post:
            if not owner_busy:
                stats[3] += 1
            for q in range(M_p):
                if queue[q] > 0 and phase[q] == 0:
                    stats[1] += 1

        silent = scheme == 1 and owner_busy and phase[own] == 1
        su_mask = 0
        su_n = 0
        lone = -1
        if not silent:
            for k in range(M_s):
                if scheme == 2:
                    pa = 0.0 if owner_busy else a_genie
                else:
                    scale = scale_busy if owner_busy else scale_idle
                    idx = int(e_draws[i, k] * scale)
                    pa = a_vec[idx] if idx < n_bins else 0.0
                if pa > 0.0 and acc_u[i, k] < pa:
                    su_mask |= 1 << k
                    su_n += 1
                    lone = k

        outcome = 0
        fb = 0
        if owner_busy:
            was_first = phase[own] == 0
            if su_n == 0 and pu_u[i] < clear_pd:
                pos = head[own] % CAP
                at = buf[own, pos]
                head[own] += 1
                queue[own] -= 1
                dep_cnt[own] += 1
                phase[own] = 0
                outcome = 1
                fb = 1
                if post:
                    stats[5] += 1
                    stats[6] += t - at
                    if was_first:
                        stats[2] += 1
            else:
                if scheme == 1:
                    phase[own] = 1
                outcome = 2
                fb = 2
            if post and su_n >= 1:
                stats[4] += 1
        else:
            if su_n == 1:
                if su_u[i, lone] < clear_sd:
                    outcome = 3
                    if post:
                        stats[0] += 1
                else:
                    outcome = 5
            elif su_n >= 2:
                outcome = 4
                if post:
                    stats[4] += 1

        if scheme == 1:
            # backlogged non-owners heard no grant: they enter retransmission
            for q in range(M_p):
                if q != own and queue[q] > 0:
                    phase[q] = 1

        for q in range(M_p):
            if arr_u[i, q] < lam:
                pos = (head[q] + queue[q]) % CAP
                buf[q, pos] = t
                queue[q] += 1
                arr_cnt[q] += 1
                if queue[q] > CAP:
                    stats[7] = 1

        if trace_on:
            tr_sumask[i] = su_mask
            tr_outcome[i] = outcome
            tr_fb[i] = fb
