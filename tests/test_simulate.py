"""Slot-level Monte Carlo simulator: determinism, accounting, traces."""
from __future__ import annotations

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from softaccess import (
    AccessPolicy,
    CapacityError,
    NetworkConfig,
    Scheme,
    SimConfig,
    SimReport,
    default_sensing,
    evaluate,
    pi0,
    primary_outage,
    run,
    run_traced,
    simulate,
)
from slot_loop import sim_chunk

MU_P_SILENT = 0.24379849734332582
PI0_FB_SILENT = 0.5898251995410111

SMALL = dict(slots=20_000, warmup=1_000, replications=3)


@pytest.fixture(scope="module")
def aggressive():
    return AccessPolicy((1.0, 1.0, 1.0, 1.0), Scheme.FEEDBACK)


@pytest.fixture(scope="module")
def traced(ref_cfg, ref_sensing, aggressive):
    sim = SimConfig(slots=30_000, warmup=1_000, seed=5, replications=1,
                    scheme=Scheme.FEEDBACK)
    return run_traced(ref_cfg, ref_sensing, aggressive, sim)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(slots=0), dict(slots=100, warmup=100), dict(warmup=-1),
        dict(replications=0), dict(seed=-1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_defaults(self):
        sim = SimConfig()
        assert sim.slots == 1_000_000
        assert sim.warmup == 10_000
        assert sim.replications == 10


class TestDeterminism:
    def test_same_seed_same_report(self, ref_cfg, ref_sensing):
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0), Scheme.FEEDBACK)
        sim = SimConfig(seed=4, scheme=Scheme.FEEDBACK, **SMALL)
        assert run(ref_cfg, ref_sensing, pol, sim) == run(ref_cfg, ref_sensing,
                                                          pol, sim)

    def test_seed_changes_report(self, ref_cfg, ref_sensing):
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0), Scheme.FEEDBACK)
        a = run(ref_cfg, ref_sensing, pol,
                SimConfig(seed=4, scheme=Scheme.FEEDBACK, **SMALL))
        b = run(ref_cfg, ref_sensing, pol,
                SimConfig(seed=5, scheme=Scheme.FEEDBACK, **SMALL))
        assert a != b


class TestSilentPolicy:
    def test_reference_rates(self, ref_cfg, ref_sensing):
        pol = AccessPolicy((0.0, 0.0, 0.0, 0.0))
        rep = run(ref_cfg, ref_sensing, pol,
                  SimConfig(slots=100_000, warmup=5_000, seed=3,
                            replications=5))
        assert rep.mu_s_hat == 0.0
        assert abs(rep.mu_p_hat - MU_P_SILENT) <= 3.0 * rep.se_mu_p
        assert abs(rep.pi0_hat - PI0_FB_SILENT) <= 3.0 * rep.se_pi0
        assert rep.collisions == 0


class TestConservation:
    def test_flow_balance_every_primary(self, ref_cfg, ref_sensing, aggressive):
        rep = run(ref_cfg, ref_sensing, aggressive,
                  SimConfig(seed=21, scheme=Scheme.FEEDBACK, **SMALL))
        assert len(rep.arrivals) == ref_cfg.M_p
        for arr, dep, backlog in zip(rep.arrivals, rep.departures,
                                     rep.final_backlog):
            assert arr - dep == backlog
            assert backlog >= 0

    def test_rates_in_unit_interval(self, ref_cfg, ref_sensing, aggressive):
        rep = run(ref_cfg, ref_sensing, aggressive,
                  SimConfig(seed=22, scheme=Scheme.FEEDBACK, **SMALL))
        for v in (rep.mu_s_hat, rep.mu_p_hat, rep.pi0_hat):
            assert 0.0 <= v <= 1.0
        assert rep.delay_hat >= 1.0


class TestTrace:
    def test_nack_moves_owner_to_retransmission(self, traced):
        _, trace = traced
        nacks = np.flatnonzero(trace["outcome"][:-1] == 2)
        assert nacks.size > 0
        owners = trace["owner"][nacks]
        next_masks = trace["r_mask"][nacks + 1]
        assert np.all((next_masks >> owners) & 1 == 1)

    def test_secondaries_silent_during_retransmissions(self, traced):
        _, trace = traced
        owner = trace["owner"]
        owned = owner < 4
        backlog = np.zeros(len(trace), dtype=bool)
        backlog[owned] = trace["queues"][owned, owner[owned]] > 0
        in_retx = np.zeros(len(trace), dtype=bool)
        in_retx[owned] = (trace["r_mask"][owned] >> owner[owned]) & 1 == 1
        hot = owned & backlog & in_retx
        assert hot.sum() > 0
        assert np.all(trace["su_mask"][hot] == 0)

    def test_outcome_attribution(self, traced):
        _, trace = traced
        pop = np.array([bin(m).count("1") for m in trace["su_mask"]])
        out = trace["outcome"]
        assert np.all(pop[out == 0] == 0)
        assert np.all(pop[out == 3] == 1)
        assert np.all(pop[out == 4] >= 2)
        assert np.all(pop[out == 5] == 1)
        # losses during retransmission slots can only come from fading
        owner = trace["owner"]
        owned = owner < 4
        in_retx = np.zeros(len(trace), dtype=bool)
        in_retx[owned] = (trace["r_mask"][owned] >> owner[owned]) & 1 == 1
        retx_losses = in_retx & (out == 2)
        assert np.all(trace["su_mask"][retx_losses] == 0)

    def test_queue_steps_are_unit(self, traced):
        _, trace = traced
        dq = trace["queues"][1:].astype(np.int64) - trace["queues"][:-1]
        assert dq.min() >= -1 and dq.max() <= 1
        # a drop needs a served owner: outcome 1 in that slot for that queue
        drops = np.argwhere(dq == -1)
        for t, j in drops[:200]:
            assert trace["outcome"][t] == 1 and trace["owner"][t] == j


class TestSchemeContrast:
    def test_feedback_frees_more_idle_slots(self, ref_cfg, ref_sensing):
        a = (1.0, 1.0, 1.0, 1.0)
        sim = dict(slots=200_000, warmup=5_000, seed=9, replications=4)
        rf = run(ref_cfg, ref_sensing, AccessPolicy(a, Scheme.FEEDBACK),
                 SimConfig(scheme=Scheme.FEEDBACK, **sim))
        rn = run(ref_cfg, ref_sensing, AccessPolicy(a, Scheme.NO_FEEDBACK),
                 SimConfig(scheme=Scheme.NO_FEEDBACK, **sim))
        noise = 3.0 * (rf.se_pi0 ** 2 + rn.se_pi0 ** 2) ** 0.5
        assert rf.pi0_hat - rn.pi0_hat > noise
        pol = AccessPolicy(a)
        assert abs(rf.pi0_hat - pi0(ref_cfg, ref_sensing, pol, Scheme.FEEDBACK)) <= 3.0 * rf.se_pi0
        assert abs(rn.pi0_hat - pi0(ref_cfg, ref_sensing, pol, Scheme.NO_FEEDBACK)) <= 3.0 * rn.se_pi0

    def test_no_arrivals_channel_always_free(self, ref_sensing):
        cfg = NetworkConfig(lambda_p=0.0)
        rep = run(cfg, ref_sensing, AccessPolicy((1.0, 0.5, 0.0, 0.0)),
                  SimConfig(seed=6, **SMALL))
        assert rep.pi0_hat == 1.0
        assert rep.mu_p_hat != rep.mu_p_hat  # nan: no busy slots observed


class TestConvergence:
    def test_standard_errors_shrink_with_span(self, ref_cfg, ref_sensing):
        pol = AccessPolicy((1.0, 0.25, 0.0, 0.0), Scheme.FEEDBACK)
        short = run(ref_cfg, ref_sensing, pol,
                    SimConfig(slots=20_000, warmup=1_000, seed=77,
                              replications=32, scheme=Scheme.FEEDBACK))
        long = run(ref_cfg, ref_sensing, pol,
                   SimConfig(slots=80_000, warmup=1_000, seed=77,
                             replications=32, scheme=Scheme.FEEDBACK))
        # 4x span should halve each SE; allow wide noise in the SE estimate
        for f in ("se_mu_s", "se_mu_p", "se_delay", "se_pi0"):
            ratio = getattr(long, f) / getattr(short, f)
            assert 0.3 < ratio < 0.75, f


class TestReportEdges:
    """The report's nan cases: a ratio with nothing counted, and SEs at one replication."""

    SE = ("se_mu_s", "se_mu_p", "se_pi0", "se_delay")

    def test_nothing_counted_is_nan(self, ref_sensing):
        # without arrivals no primary is ever backlogged and no packet departs
        rep = run(NetworkConfig(lambda_p=0.0), ref_sensing, AccessPolicy((1.0, 0.5, 0.0, 0.0)),
                  SimConfig(slots=5_000, warmup=500, seed=6, replications=2))
        for f in ("mu_p_hat", "delay_hat", "se_mu_p", "se_delay"):
            assert math.isnan(getattr(rep, f)), f
        assert rep.pi0_hat == 1.0
        assert rep.se_pi0 == 0.0

    @pytest.mark.parametrize("replications", [1, 2])
    def test_se_needs_two_replications(self, ref_cfg, ref_sensing, replications):
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0), Scheme.FEEDBACK)
        rep = run(ref_cfg, ref_sensing, pol,
                  SimConfig(slots=5_000, warmup=500, seed=9, replications=replications))
        ses = [getattr(rep, f) for f in self.SE]
        if replications == 1:
            assert all(map(math.isnan, ses)), ses
        else:
            assert all(map(math.isfinite, ses)), ses


class TestRoundRobin:
    def test_deterministic_ownership_smoke(self, ref_cfg, ref_sensing):
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0), Scheme.FEEDBACK)
        rep = run(ref_cfg, ref_sensing, pol,
                  SimConfig(seed=8, scheme=Scheme.FEEDBACK, round_robin=True,
                            **SMALL))
        for arr, dep, backlog in zip(rep.arrivals, rep.departures,
                                     rep.final_backlog):
            assert arr - dep == backlog
        assert 0.0 <= rep.mu_s_hat <= 1.0


class TestValidation:
    def test_run_traced_needs_single_replication(self, ref_cfg, ref_sensing):
        with pytest.raises(ValueError):
            run_traced(ref_cfg, ref_sensing, AccessPolicy((0.5,) * 4),
                       SimConfig(replications=2, **{k: v for k, v in
                                                    SMALL.items()
                                                    if k != "replications"}))

    def test_genie_policy_shape(self, ref_cfg, ref_sensing):
        with pytest.raises(ValueError):
            run(ref_cfg, ref_sensing, AccessPolicy((0.5, 0.5), Scheme.GENIE),
                SimConfig(**SMALL))

    def test_policy_bin_mismatch(self, ref_cfg, ref_sensing):
        with pytest.raises(ValueError):
            run(ref_cfg, ref_sensing, AccessPolicy((0.5, 0.5)),
                SimConfig(**SMALL))

    @pytest.mark.parametrize("M_p,M_s", [(64, 2), (4, 64)])
    def test_trace_masks_hold_at_most_63_users(self, M_p, M_s):
        # r_mask and su_mask are int64 sums of 1 << k; run has no masks
        cfg = NetworkConfig(M_p=M_p, M_s=M_s, lambda_p=0.001)
        sensing = default_sensing(cfg)
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0))
        sim = SimConfig(slots=2_000, warmup=100, seed=1, replications=1)
        with pytest.raises(ValueError, match="63"):
            run_traced(cfg, sensing, pol, sim)
        report = run(cfg, sensing, pol, sim)
        assert len(report.arrivals) == M_p
        assert sum(report.arrivals) - sum(report.departures) == sum(report.final_backlog)


class TestSingleRunPath:
    @pytest.mark.parametrize("scheme,a,round_robin", [
        (Scheme.FEEDBACK, (1.0, 0.3, 0.0, 0.0), False),
        (Scheme.NO_FEEDBACK, (1.0, 0.3, 0.0, 0.0), False),
        (Scheme.GENIE, (0.5,), False),
        (Scheme.FEEDBACK, (1.0, 0.3, 0.0, 0.0), True),
    ], ids=["fb", "nofb", "genie", "round_robin"])
    def test_traced_report_is_the_run_report(self, ref_cfg, ref_sensing, monkeypatch,
                                              scheme, a, round_robin):
        # a small chunk makes the run cross two chunk boundaries
        monkeypatch.setattr(simulate, "CHUNK", 5_000)
        pol = AccessPolicy(a, scheme)
        sim = SimConfig(slots=12_000, warmup=500, seed=21, replications=1,
                        scheme=scheme, round_robin=round_robin)
        report, trace = run_traced(ref_cfg, ref_sensing, pol, sim)
        plain = run(ref_cfg, ref_sensing, pol, sim)
        for field in dataclasses.fields(SimReport):
            got, want = getattr(report, field.name), getattr(plain, field.name)
            assert got == want or (math.isnan(got) and math.isnan(want)), field.name
        _, again = run_traced(ref_cfg, ref_sensing, pol, sim)
        assert trace.tobytes() == again.tobytes()
        # every chunk lands in its own rows of the trace: past the warmup, the
        # share of slots that start with the owner's queue empty is pi0_hat
        rows = trace[sim.warmup:]
        owner = rows["owner"]
        owned = owner < ref_cfg.M_p
        busy = np.zeros(len(rows), dtype=bool)
        busy[owned] = rows["queues"][owned, owner[owned]] > 0
        assert np.mean(~busy) == report.pi0_hat

    def test_one_debug_record_names_the_path(self, ref_cfg, ref_sensing, caplog):
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0), Scheme.FEEDBACK)
        sim = SimConfig(slots=2_000, warmup=100, seed=2, replications=2)
        with caplog.at_level(logging.DEBUG, logger=simulate.__name__):
            run(ref_cfg, ref_sensing, pol, sim)
        records = [r for r in caplog.records if r.name == simulate.__name__]
        assert [r.levelno for r in records] == [logging.DEBUG]
        assert records[0].getMessage().startswith("array path: 2000 slots x 2 replications in ")


class TestArrayChunk:
    """The array chunk step against the slot loop, on the same draws."""

    KINDS = {
        "fb": (Scheme.FEEDBACK, Scheme.FEEDBACK),
        "nofb": (Scheme.NO_FEEDBACK, Scheme.NO_FEEDBACK),
        "hard": (Scheme.HARD_DECISION, Scheme.HARD_DECISION),
        "genie": (Scheme.GENIE, Scheme.GENIE),
        "fb_policy_nofb_sim": (Scheme.FEEDBACK, Scheme.NO_FEEDBACK),
    }
    CONFIGS_PER_CASE = 12
    # cases at the edges of `_departures`: (network, policy, round_robin, chunk), run
    # at idle_tail 0.01 for 6,000 slots; `reaches_edge` checks that the trace gets there
    EDGES = {
        # one primary whose busy slots the secondaries nearly always disturb:
        # first_ok holds in about 5% of them, so under feedback a backlogged
        # owner alternates between the phases through long busy periods
        "rare_first_ok": (dict(M_p=1, M_s=5, r_ps=300.0, lambda_p=0.45), (1.0,) * 4, False, 997),
        # the third primary owns 1% of the slots, so it stays backlogged
        # through whole chunks in which it owns none
        "unowned_backlog": (dict(M_p=3, omega_p=(0.5, 0.49, 0.01), lambda_p=0.05),
                            (1.0, 0.3, 0.0, 0.0), False, 97),
        # round robin in chunks of 97: slot 0 of a chunk is owned, often by a
        # backlogged primary that the previous chunk left in retransmission
        "slot0_retransmission": (dict(M_p=2, lambda_p=0.2), (1.0, 0.3, 0.0, 0.0), True, 97),
        # ownership sums to 0.6: 40% of the slots belong to no primary (owner >= M_p)
        "omega_below_one": (dict(M_p=3, omega_p=(0.3, 0.2, 0.1), lambda_p=0.08),
                            (1.0, 0.3, 0.0, 0.0), False, 997),
    }

    @staticmethod
    def draw_case(rng, policy_scheme, sim_scheme):
        M_p = int(rng.integers(1, 6))
        M_s = int(rng.integers(1, 5))
        omega = None
        if rng.random() < 0.5:
            # below 1 in sum: some slots belong to no primary (owner >= M_p)
            omega = tuple(float(w) for w in rng.dirichlet(np.ones(M_p))
                          * rng.uniform(0.5, 1.0))
        probe = NetworkConfig(M_p=M_p, M_s=M_s, omega_p=omega,
                              r_ps=float(rng.uniform(80.0, 250.0)))
        delta_bar = (1.0 - primary_outage(probe)) / M_p
        # up to past the stability edge, so that queues build across chunks
        lam = min(1.0, float(rng.uniform(0.0, 1.3) * delta_bar))
        cfg = dataclasses.replace(probe, lambda_p=lam)
        n = 1 if sim_scheme is Scheme.HARD_DECISION else int(rng.integers(1, 6))
        sensing = default_sensing(cfg, n=n, idle_tail=float(rng.uniform(0.02, 0.5)))
        size = 1 if sim_scheme is Scheme.GENIE else n
        a = rng.choice([0.0, 1.0, -1.0], size=size, p=[0.2, 0.2, 0.6])
        a = np.where(a < 0, rng.random(size), a)
        slots = int(rng.integers(2_000, 9_000))
        warmup = 0 if rng.random() < 0.4 else int(rng.integers(1, slots))
        sim = SimConfig(slots=slots, warmup=warmup, seed=int(rng.integers(0, 2**31)),
                        replications=1, scheme=sim_scheme,
                        round_robin=bool(rng.random() < 0.25))
        return cfg, sensing, AccessPolicy(tuple(a), policy_scheme), sim

    @staticmethod
    def run_one(kernel, cfg, sensing, policy, sim):
        """One traced replication by `kernel`: (stats, arrivals, departures, pending), trace."""
        trace = simulate._new_trace(sim.slots, cfg.M_p)
        rng = np.random.default_rng(sim.seed)
        plan = simulate._plan(cfg, sensing, policy, sim)
        stats, arr_cnt, dep_cnt, pending = simulate._run_one(kernel, rng, cfg, sim, plan, trace)
        return (stats.tolist(), arr_cnt.tolist(), dep_cnt.tolist(),
                [p.tolist() for p in pending]), trace

    @classmethod
    def assert_matches(cls, case):
        """Run `case` by the slot loop and the array step; return the trace they agree on."""
        want, want_trace = cls.run_one(sim_chunk, *case)
        got, got_trace = cls.run_one(simulate._sim_chunk_arrays, *case)
        for name, g, w in zip(("stats", "arrivals", "departures", "pending"), got, want):
            assert g == w, (name, case)
        assert got_trace.tobytes() == want_trace.tobytes(), case
        return got_trace

    @staticmethod
    def reaches_edge(edge, trace, chunk):
        owner, queues = trace["owner"], trace["queues"]
        M_p = queues.shape[1]
        own = np.minimum(owner, M_p - 1)
        backlog = (owner < M_p) & (queues[np.arange(len(trace)), own] > 0)
        retx = (owner < M_p) & ((trace["r_mask"] >> own) & 1 == 1)
        starts = np.arange(chunk, len(trace), chunk)
        if edge == "rare_first_ok":
            first = backlog & ~retx
            return first.sum() > 2_000 and np.mean(trace["outcome"][first] == 1) < 0.1
        if edge == "unowned_backlog":
            return sum(queues[t0, 2] > 0 and not np.any(owner[t0:t0 + chunk] == 2)
                       for t0 in starts) >= 5
        if edge == "slot0_retransmission":
            return np.count_nonzero((backlog & retx)[starts]) >= 5
        return np.mean(owner >= M_p) > 0.3 and backlog.any()

    @pytest.mark.parametrize("chunk", [997, 4_096])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_matches_slot_loop(self, monkeypatch, chunk, kind):
        monkeypatch.setattr(simulate, "CHUNK", chunk)
        rng = np.random.default_rng([chunk, list(self.KINDS).index(kind)])
        for _ in range(self.CONFIGS_PER_CASE):
            self.assert_matches(self.draw_case(rng, *self.KINDS[kind]))

    @pytest.mark.parametrize("edge,scheme", [
        (edge, scheme) for edge in EDGES for scheme in (Scheme.FEEDBACK, Scheme.NO_FEEDBACK)
        if not (edge == "slot0_retransmission" and scheme is Scheme.NO_FEEDBACK)
    ])
    def test_edge_matches_slot_loop(self, monkeypatch, edge, scheme):
        network, a, round_robin, chunk = self.EDGES[edge]
        monkeypatch.setattr(simulate, "CHUNK", chunk)
        cfg = NetworkConfig(**network)
        sim = SimConfig(slots=6_000, warmup=500, seed=3, replications=1, scheme=scheme,
                        round_robin=round_robin)
        case = (cfg, default_sensing(cfg, idle_tail=0.01), AccessPolicy(a, scheme), sim)
        assert self.reaches_edge(edge, self.assert_matches(case), chunk)

    @staticmethod
    def count_fallbacks(monkeypatch):
        """Record the first owned slot from which each fallback to `_served` takes over."""
        taken = []
        served = simulate._served

        def counted(owned, *args):
            taken.append(int(owned[0]))
            return served(owned, *args)

        monkeypatch.setattr(simulate, "_served", counted)
        return taken

    @pytest.mark.parametrize("edge,passes", [("rare_first_ok", None), ("slot0_retransmission", 1)])
    def test_fallback_matches_slot_loop(self, monkeypatch, edge, passes):
        # rare_first_ok finds no fixpoint within PASSES in any chunk; one pass
        # hands over at every owned slot 0 that a chunk starts in retransmission
        network, a, round_robin, chunk = self.EDGES[edge]
        monkeypatch.setattr(simulate, "CHUNK", chunk)
        if passes is not None:
            monkeypatch.setattr(simulate, "PASSES", passes)
        taken = self.count_fallbacks(monkeypatch)
        cfg = NetworkConfig(**network)
        sim = SimConfig(slots=6_000, warmup=500, seed=3, replications=1, scheme=Scheme.FEEDBACK,
                        round_robin=round_robin)
        case = (cfg, default_sensing(cfg, idle_tail=0.01), AccessPolicy(a, Scheme.FEEDBACK), sim)
        self.assert_matches(case)
        chunks = -(-sim.slots // chunk)
        if edge == "rare_first_ok":  # one primary owns every slot
            assert len(taken) == chunks
            # past the first pass the first owned slot is exact: the slot loop
            # takes over after a prefix, never from the chunk's start
            assert min(taken) > 0
        else:
            assert 0 < len(taken) <= chunks * cfg.M_p
            assert 0 in taken

    def test_reference_network_finds_the_fixpoint(self, monkeypatch):
        # mc_validate's loads and shape, at the reference network's fb optimum
        taken = self.count_fallbacks(monkeypatch)
        for lam in (0.02, 0.06, 0.10, 0.14):
            cfg = NetworkConfig(lambda_p=lam)
            sensing = default_sensing(cfg)
            policy = evaluate(cfg, sensing, Scheme.FEEDBACK).result.policy
            for seed in (1, 2, 3):
                run(cfg, sensing, policy, SimConfig(slots=5_000, warmup=500, seed=seed,
                                                    replications=20))
        assert taken == []


class TestCapacity:
    def test_chunk_rows_keep_within_the_memory_bound(self, ref_sensing):
        # only _plan runs: nothing of the network's size is drawn
        def rows(**network):
            return simulate._plan(NetworkConfig(**network), ref_sensing,
                                  AccessPolicy((1.0, 0.3, 0.0, 0.0)), SimConfig(**SMALL)).rows

        # the reference network and the widest ones the tests run keep whole chunks
        for network in ({}, dict(M_s=64), dict(M_p=64)):
            assert rows(**network) == simulate.CHUNK, network
        wider = [rows(M_s=M_s) for M_s in (1_000, 100_000, 9_000_000)]
        assert simulate.CHUNK > wider[0] > wider[1] > wider[2] >= 1
        with pytest.raises(CapacityError, match=r"network\.M_s = 10000000 and network\.M_p = 4"):
            rows(M_s=10_000_000)

    @pytest.mark.parametrize("scheme", [Scheme.FEEDBACK, Scheme.NO_FEEDBACK])
    @pytest.mark.parametrize("M_p,M_s", [(4, 2), (1, 64), (64, 1)])
    def test_chunk_arrays_peak_within_the_memory_bound(self, ref_sensing, monkeypatch,
                                                       scheme, M_p, M_s):
        # a lowered bound sets the rows of a chunk, as it does for a wide network;
        # the draws and the chunk step's temporaries must peak below it
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 1 << 21)
        cfg = NetworkConfig(M_p=M_p, M_s=M_s)
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0), scheme)
        plan = simulate._plan(cfg, ref_sensing, pol, SimConfig(**SMALL))
        assert plan.rows < simulate.CHUNK
        sim = SimConfig(slots=2 * plan.rows + 1, warmup=100, seed=6, replications=2,
                        scheme=scheme)
        run(cfg, ref_sensing, pol, sim)  # lazy imports and first-call caches stay out
        tracemalloc.start()
        try:
            run(cfg, ref_sensing, pol, sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < simulate.CHUNK_BYTES

    def test_trace_keeps_within_the_memory_bound(self, ref_cfg, ref_sensing, monkeypatch):
        # a lowered bound: 64 bytes per slot of trace at M_p = 4, so 2,000 slots fit exactly
        monkeypatch.setattr(simulate, "CHUNK_BYTES", 2_000 * 64)
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0))
        sim = SimConfig(slots=2_000, warmup=100, seed=4, replications=1)
        _, trace = run_traced(ref_cfg, ref_sensing, pol, sim)
        assert trace.nbytes == simulate.CHUNK_BYTES
        with pytest.raises(CapacityError, match=r"sim\.slots = 2001 at network\.M_p = 4 "
                                                r"takes 128064 bytes"):
            run_traced(ref_cfg, ref_sensing, pol, dataclasses.replace(sim, slots=2_001))

    @pytest.mark.parametrize("scheme", [Scheme.FEEDBACK, Scheme.NO_FEEDBACK])
    def test_raises_exactly_past_cap(self, ref_cfg, ref_sensing, monkeypatch, scheme):
        # overloaded: the queues grow through several chunks
        monkeypatch.setattr(simulate, "CHUNK", 997)
        cfg = dataclasses.replace(ref_cfg, lambda_p=0.3)
        pol = AccessPolicy((1.0, 0.3, 0.0, 0.0), scheme)
        sim = SimConfig(slots=5_000, warmup=500, seed=3, replications=1, scheme=scheme)
        report, trace = run_traced(cfg, ref_sensing, pol, sim)
        peak = max(int(trace["queues"].max()), *report.final_backlog)
        assert 0 < 2 * peak < sum(report.arrivals) / cfg.M_p
        # the slot loop and the array step, on draws of their own
        case = (cfg, ref_sensing, pol, sim)
        want, want_trace = TestArrayChunk.run_one(simulate._sim_chunk_arrays, *case)
        kernel_peak = max(int(want_trace["queues"].max()), *map(len, want[3]))
        assert 0 < 2 * kernel_peak < sum(want[1]) / cfg.M_p
        # a cap exactly as high as the longest queue changes nothing
        monkeypatch.setattr(simulate, "CAP", peak)
        full_report, full_trace = run_traced(cfg, ref_sensing, pol, sim)
        assert repr(full_report) == repr(report)
        assert full_trace.tobytes() == trace.tobytes()
        monkeypatch.setattr(simulate, "CAP", kernel_peak)
        for kernel in (sim_chunk, simulate._sim_chunk_arrays):
            got, got_trace = TestArrayChunk.run_one(kernel, *case)
            assert got == want, kernel.__name__
            assert got_trace.tobytes() == want_trace.tobytes(), kernel.__name__
        # one below it raises, in both kernels
        monkeypatch.setattr(simulate, "CAP", peak - 1)
        with pytest.raises(CapacityError):
            run(cfg, ref_sensing, pol, sim)
        monkeypatch.setattr(simulate, "CAP", kernel_peak - 1)
        for kernel in (sim_chunk, simulate._sim_chunk_arrays):
            with pytest.raises(CapacityError):
                TestArrayChunk.run_one(kernel, *case)
