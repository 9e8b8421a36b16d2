"""Simulator checks: distributional sanity for the finite-system sampler
(an oracle in ``oracles``) and the channel paths, the scanned chain path
held slot for slot to a per-slot walk on the model's chains and on random
birth-death chains, exact hand-worked cases for the FIFO
queue, the chunked queue held to the whole-array reference in ``oracles``
on the model's chains and to an exact rational Lindley recursion on random
ones down to loads of 1e-9, the word table built once per
model, and the queue's delays unchanged when the block unit is rescaled."""
import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import cdmacal as cc
from cdmacal import sim

from conftest import single_state_model
from oracles import (fifo_queue_exact, fifo_queue_whole_array,
                     finite_sinr_all_users, finite_sinr_direct, fsmc_path_loop,
                     random_birth_death_chain, sample_finite_sinr_batch)


def test_single_user_is_matched_filter():
    # k = 1: no interference, SINR = p1 |s1|^2 / sigma2 with E|s1|^2 = 1
    sigma2 = 0.25
    sinr, p1 = sample_finite_sinr_batch(48, 1, sigma2, 4000, seed=9)
    assert np.all(sinr > 0)
    ratio = sinr / p1 * sigma2             # |s1|^2 samples, mean 1, var 1/m
    assert ratio.mean() == pytest.approx(1.0, abs=4 / math.sqrt(48 * 4000))
    assert ratio.std() == pytest.approx(1 / math.sqrt(48), rel=0.15)


def test_finite_sinr_concentrates_on_decoupled_value():
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=20.0)
    beta = cc.solve_fixed_point(cfg).beta
    sinr, p1 = sample_finite_sinr_batch(96, 48, cfg.sigma2, 1500, seed=31)
    assert np.mean(sinr / p1) * beta == pytest.approx(1.0, abs=0.05)


def test_finite_sinr_woodbury_matches_direct_solve():
    for k, sigma2 in ((8, 0.5), (16, 1e-3), (1, 0.25)):
        sinr, p1 = sample_finite_sinr_batch(16, k, sigma2, 64, seed=5)
        want, p1_want = finite_sinr_direct(16, k, sigma2, 64, seed=5)
        assert np.array_equal(p1, p1_want)
        assert np.allclose(sinr, want, rtol=1e-9, atol=0)


def test_finite_sinr_all_users_matches_direct_solve():
    # every user of each draw against a direct m x m solve that tags it
    for k, sigma2 in ((8, 0.5), (16, 1e-3), (1, 0.25)):
        ratio = finite_sinr_all_users(16, k, sigma2, 64, seed=5, chunk=64)
        assert ratio.shape == (64, k)
        for j in range(k):
            sinr, p = finite_sinr_direct(16, k, sigma2, 64, seed=5, tagged=j)
            assert np.allclose(ratio[:, j], sinr / p, rtol=1e-9, atol=0), (k, j)
    assert finite_sinr_all_users(8, 2, 0.5, 0).shape == (0, 2)
    with pytest.raises(ValueError, match="sigma2"):
        finite_sinr_all_users(8, 2, 0.0, 1)


def test_finite_sinr_single_draw_and_validation():
    sinr, p1 = sample_finite_sinr_batch(16, 8, 0.5, 1, seed=4)
    assert sinr.shape == p1.shape == (1,)
    assert sinr[0] > 0 and p1[0] > 0
    with pytest.raises(ValueError):
        sample_finite_sinr_batch(0, 1, 0.5, 1)
    with pytest.raises(ValueError):
        sample_finite_sinr_batch(8, 2, 0.0, 1)
    assert sample_finite_sinr_batch(8, 2, 0.5, 0)[0].shape == (0,)
    bad_args = {"m": (8.5, math.nan, 0), "k": (0, 2.5, math.inf),
                "n": (-1, 2.5, math.nan), "chunk": (0, -2, 1.5),
                "sigma2": (math.inf, math.nan, -1.0)}
    for name, values in bad_args.items():
        for bad in values:
            args = {"m": 8, "k": 2, "sigma2": 0.5, "n": 3, "chunk": 2,
                    name: bad}
            with pytest.raises(ValueError, match=name):
                sample_finite_sinr_batch(**args)


def test_chain_paths_reproduce_stationary_law(ref_model):
    states = cc.simulate_fsmc(ref_model, 400_000, seed=17)
    occ = np.bincount(states, minlength=ref_model.n_states) / len(states)
    # correlated samples: allow a generous multiple of the iid error
    assert np.abs(occ - ref_model.pi).max() < 0.01


def test_chain_paths_reproduce_transition_rows(ref_model):
    states = cc.simulate_fsmc(ref_model, 300_000, seed=23)
    src, dst = states[:-1], states[1:]
    for l in range(ref_model.n_states):
        mask = src == l
        n_l = int(mask.sum())
        if n_l < 2000:
            continue
        for j in (l - 1, l, l + 1):
            if not 0 <= j < ref_model.n_states:
                continue
            p_hat = np.mean(dst[mask] == j)
            p_true = ref_model.transition[l, j]
            se = math.sqrt(max(p_true * (1 - p_true), 1e-12) / n_l)
            assert abs(p_hat - p_true) < 4 * se + 1e-9, (l, j)


def test_chain_respects_adjacency(ref_model):
    states = cc.simulate_fsmc(ref_model, 50_000, seed=3)
    assert np.abs(np.diff(states)).max() <= 1


def test_zero_doppler_path_is_constant():
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=0.0)
    model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
    states = cc.simulate_fsmc(model, 5000, seed=2)
    assert np.all(states == states[0])


def test_chain_scan_matches_per_slot_walk(ref_model):
    blk = sim._BLOCK
    zero_doppler = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=0.0)
    two_modes = cc.SystemConfig(
        snr_avg_db=6.0, alpha=0.5, f_m_hz=20.0,
        modes=cc.ModeTable.from_rows(((0, "bpsk", 0.0, -math.inf),
                                      (1, "qpsk", 1.0, 3.0))))
    models = [ref_model, single_state_model(2.0)]
    models += [cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
               for cfg in (zero_doppler, two_modes)]
    assert models[-1].n_states == 2
    for model in models:
        last = model.n_states - 1
        for n in (0, 1, 2, blk - 1, blk, blk + 1, 2 * blk + 1, 65537):
            for init, seed in itertools.product((None, 0, last), (0, 5, 11)):
                got = cc.simulate_fsmc(model, n, seed=seed, init_state=init)
                want = fsmc_path_loop(model, n, seed=seed, init_state=init)
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (model.n_states, n, init,
                                                   seed)


def _birth_death_chain(rng, n_states, share):
    """A tridiagonal chain whose crossing probabilities are random or, each
    with probability ``share``, zero or one of a few shared levels, so that
    thresholds repeat and some rows never move down, up or stay."""
    def crossings():
        shared = rng.choice((0.0, 0.125, 0.25, 0.5), n_states)
        return np.where(rng.random(n_states) < share, shared,
                        rng.random(n_states) / 2)
    up, down = crossings(), crossings()
    up[-1] = down[0] = 0.0
    p = (np.diag(1.0 - up - down) + np.diag(up[:-1], 1)
         + np.diag(down[1:], -1))
    pi = rng.random(n_states) + 0.05
    return cc.FsmcModel(transition=p, pi=pi / pi.sum(),
                        rates_blocks=np.ones(n_states))


def _word_length(model):
    """Draws per word: the longest w with K**w <= sim._WORDS, for the K
    cells that the distinct thresholds inside (0, 1) cut [0, 1) into."""
    lo = np.append(0.0, np.diagonal(model.transition, -1))
    mid = lo + np.diagonal(model.transition)
    k = 1 + len({t for t in np.concatenate((lo, mid)).tolist() if 0 < t < 1})
    return max(w for w in range(1, 13) if k ** w <= sim._WORDS)


def test_word_scan_matches_per_slot_walk_on_random_chains():
    # n_slots - 1 draws on both sides of a word's and a block's end
    rng = np.random.default_rng(2024)
    seen = set()
    for n_states in range(1, 41):
        model = _birth_death_chain(rng, n_states, 0.4 * (n_states % 2))
        w = _word_length(model)
        seen.add(w)
        ends = (1, 2, sim._BLOCK, 2 * sim._BLOCK)
        lengths = {0, 1, 2} | {1 + e * w + d for e in ends for d in (-1, 0, 1)}
        inits = (None, 0, n_states // 2, n_states - 1)
        for n, init in itertools.product(sorted(lengths), inits):
            seed = int(rng.integers(2**32))
            got = cc.simulate_fsmc(model, n, seed=seed, init_state=init)
            want = fsmc_path_loop(model, n, seed=seed, init_state=init)
            assert got.dtype == np.int64
            assert np.array_equal(got, want), (n_states, n, init, seed)
    # words from twelve draws (no cuts) down to one draw (K**2 > _WORDS)
    assert {1, 2, 12} <= seen


def test_chain_off_the_band_is_refused_by_name():
    # refused by netcal's name with the off-band entry in the first or the
    # last row, in the simulators as in the bound
    for row, p in ((0, [[.5, 0, .5], [.25, .5, .25], [0, .5, .5]]),
                   (2, [[.5, .5, 0], [.25, .5, .25], [.5, 0, .5]])):
        model = cc.FsmcModel(transition=np.array(p), pi=np.full(3, 1 / 3),
                             rates_blocks=np.ones(3))
        match = "transition row %d has an entry off the tridiagonal band" % row
        with pytest.raises(ValueError, match=match):
            cc.simulate_fsmc(model, 1000, seed=1)
        with pytest.raises(ValueError, match=match):
            cc.simulate_fifo_queue(model, cc.PeriodicSource(0.5), 1000, seed=1)
        with pytest.raises(ValueError, match=match):
            cc.delay_bound(cc.PeriodicSource(0.5), model, 1e-2)


def test_chain_reproducible_and_seed_sensitive(ref_model):
    a = cc.simulate_fsmc(ref_model, 10_000, seed=5)
    b = cc.simulate_fsmc(ref_model, 10_000, seed=5)
    c = cc.simulate_fsmc(ref_model, 10_000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    forced = cc.simulate_fsmc(ref_model, 100, seed=5, init_state=3)
    assert forced[0] == 3


def test_queue_slower_server_accumulates_delay():
    # service 2 blocks/slot, arrivals 3 per slot for 10 slots: block i
    # finishes when cumulative service 2(t+1) reaches 3(i+1)
    trace = cc.simulate_fifo_queue(single_state_model(2.0),
                                   cc.PeriodicSource(3.0), 10, seed=0)
    assert np.array_equal(trace.delays_slots, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5])
    assert trace.undelivered == 0
    assert trace.epochs == 10


def test_queue_fast_server_serves_same_slot():
    trace = cc.simulate_fifo_queue(single_state_model(6.0),
                                   cc.PeriodicSource(3.0), 50, seed=0)
    assert np.array_equal(trace.delays_slots, np.zeros(50, dtype=np.int64))


def test_queue_exact_rate_match_has_zero_delay():
    trace = cc.simulate_fifo_queue(single_state_model(3.0),
                                   cc.PeriodicSource(3.0), 50, seed=0)
    assert np.array_equal(trace.delays_slots, np.zeros(50, dtype=np.int64))


def test_queue_zero_arrivals_have_zero_delay(ref_model):
    trace = cc.simulate_fifo_queue(ref_model, cc.PeriodicSource(0.0), 2000,
                                   seed=8)
    assert trace.epochs == 2000
    assert np.all(trace.delays_slots == 0)
    assert trace.undelivered == 0


def test_queue_periodic_batches():
    # 6 blocks every 3 slots into a 2-block/slot server: the batch finishes
    # exactly one period later regardless of phase
    trace = cc.simulate_fifo_queue(single_state_model(2.0),
                                   cc.PeriodicSource(6.0, tau_slots=3), 60,
                                   seed=12)
    assert trace.undelivered == 0
    assert np.all(trace.delays_slots == 2)


def test_queue_overload_leaves_every_epoch_undelivered():
    # a zero-rate server never serves: every epoch is censored, and each
    # counts as a violation at any delay
    trace = cc.simulate_fifo_queue(single_state_model(0.0),
                                   cc.PeriodicSource(1.0), 1000, seed=0)
    assert trace.epochs == 1000
    assert trace.undelivered == 1000
    assert len(trace.delays_slots) == 0
    assert trace.violation_frequency(0)[0] == 1.0


def test_queue_drain_completes_late_blocks(ref_model):
    src = cc.PeriodicSource(4.0)          # heavy but under the 4.76 mean rate
    trace = cc.simulate_fifo_queue(ref_model, src, 30_000, seed=14)
    assert trace.undelivered == 0
    assert len(trace.delays_slots) == trace.epochs
    assert trace.delays_slots.max() > 0


def test_queue_reports_censoring_when_drain_capped():
    # 30 blocks into a 1-block/slot server; the drain stops after 10 extra
    # slots, so 20 blocks (the first 6 epochs) have departed
    trace = cc.simulate_fifo_queue(single_state_model(1.0),
                                   cc.PeriodicSource(3.0), 10, seed=0)
    assert np.array_equal(trace.delays_slots, [2, 4, 6, 8, 10, 12])
    assert trace.undelivered == 4
    assert trace.epochs == 10


def test_queue_reproducible(ref_model):
    src = cc.PeriodicSource(1.663)
    a = cc.simulate_fifo_queue(ref_model, src, 20_000, seed=77)
    b = cc.simulate_fifo_queue(ref_model, src, 20_000, seed=77)
    assert np.array_equal(a.delays_slots, b.delays_slots)
    assert a.undelivered == b.undelivered


def test_violation_frequency_counts():
    trace = cc.simulate_fifo_queue(single_state_model(2.0),
                                   cc.PeriodicSource(3.0), 10, seed=0)
    # delays [1 1 2 2 3 3 4 4 5 5]: 4 of 10 exceed 3
    freq, se = trace.violation_frequency(3)
    assert freq == pytest.approx(0.4)
    assert se == pytest.approx(math.sqrt(0.4 * 0.6 / 10))
    freq0, _ = trace.violation_frequency(5)
    assert freq0 == 0.0
    q = trace.delay_quantiles((0.5,))
    assert q[0.5] == pytest.approx(3.0)
    # a delay is a whole number of slots: anything else is refused by name,
    # NaN above all, which would otherwise read as no violation at all
    for bad in (math.nan, math.inf, -1, 2.5):
        with pytest.raises(ValueError, match="d_slots"):
            trace.violation_frequency(bad)
    assert trace.violation_frequency(3.0) == (freq, se)


def _queue_cases(ref_model):
    """Servers x loads x periods x lengths, seeds cycling 0..5."""
    servers = (ref_model, single_state_model(2.0), single_state_model(0.0))
    grid = itertools.product(servers, (0.0, 1.663, 4.0, 23.7), (1, 3, 5),
                             (1, 7, 64, 3000))
    for i, (model, delta, tau, n) in enumerate(grid):
        yield model, cc.PeriodicSource(delta, tau_slots=tau), n, i % 6


@pytest.mark.parametrize("chunk", [7, 64])
def test_chunked_queue_matches_whole_array_reference(ref_model, monkeypatch,
                                                     chunk):
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    seen = set()
    for model, src, n, seed in _queue_cases(ref_model):
        got = cc.simulate_fifo_queue(model, src, n, seed=seed)
        want = fifo_queue_whole_array(model, src, n, seed=seed)
        case = (src, n, seed)
        assert np.array_equal(got.delays_slots, want.delays_slots), case
        assert got.delays_slots.dtype == np.int64
        for field in ("epochs", "undelivered"):
            assert getattr(got, field) == getattr(want, field), (field, case)
        seen.add((want.undelivered > 0, n > chunk))
    # the grid reaches censored drains and multi-chunk paths
    assert {(True, True), (False, True)} <= seen


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 8),
       max_rate=st.floats(0.0, 30.0), outage=st.booleans(),
       tau=st.integers(1, 7),
       load=st.one_of(st.just(0.0), st.floats(1e-9, 1.5),
                      st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e)),
       n=st.integers(1, 3000), chunk=st.sampled_from([1, 7, 64]))
def test_queue_matches_exact_lindley_reference_on_random_chains(
        seed, n_states, max_rate, outage, tau, load, n, chunk):
    # busy periods that end and restart across chunk ends, where c_k moves,
    # and loads down to 1e-9 (log-uniform among them), where a batch is far
    # below one slot's service: the reference sums in exact rationals, so no
    # rounding of S decides a departure
    pi, p, rates = random_birth_death_chain(np.random.default_rng(seed),
                                            n_states, max_rate, outage)
    model = cc.FsmcModel(transition=p, pi=pi, rates_blocks=rates)
    src = cc.PeriodicSource(load * tau * float(pi @ rates), tau_slots=tau)
    with mock.patch.object(sim, "_CHUNK", chunk):
        got = cc.simulate_fifo_queue(model, src, n, seed=seed)
    want = fifo_queue_exact(model, src, n, seed=seed)
    assert np.array_equal(got.delays_slots, want.delays_slots)
    assert (got.epochs, got.undelivered) == (want.epochs, want.undelivered)


def test_queue_light_load_departs_in_its_arrival_slot():
    # each batch is far below one slot's service, so it leaves in its own
    # slot: S(a_k) passes its level less c_k by about one slot's service,
    # while S + (A - S) would lose the batch to rounding once A/S < 1e-4
    for delta, tau in ((1e-9, 1), (1e-300, 3), (2.0 ** -30, 7)):
        trace = cc.simulate_fifo_queue(single_state_model(1.0),
                                       cc.PeriodicSource(delta, tau), 1000,
                                       seed=4)
        assert trace.undelivered == 0
        assert np.array_equal(trace.delays_slots,
                              np.zeros(trace.epochs, dtype=np.int64))


def test_queue_builds_the_word_table_once_per_model(ref_model, monkeypatch):
    monkeypatch.setattr(sim, "_CHUNK", 1000)
    sim._word_table.cache_clear()
    trace = cc.simulate_fifo_queue(ref_model, cc.PeriodicSource(4.0), 20_000,
                                   seed=3)
    assert trace.undelivered == 0
    info = sim._word_table.cache_info()
    assert info.misses == 1 and info.hits >= 19         # one per later chunk


@pytest.mark.parametrize("factor", [2.0 ** 30, 2.0 ** -40],
                         ids=["2**30", "2**-40"])
def test_queue_delays_do_not_depend_on_the_block_unit(ref_model, factor):
    # a power-of-two factor rescales service and batches exactly, so the
    # departure curve is the same curve in another unit: nothing may move
    scaled = dataclasses.replace(ref_model,
                                 rates_blocks=ref_model.rates_blocks * factor)
    for delta, tau, n in ((1.663, 1, 20_000), (8.38, 5, 70_000),
                          (23.7, 3, 3000)):
        want = cc.simulate_fifo_queue(
            ref_model, cc.PeriodicSource(delta, tau_slots=tau), n, seed=7)
        got = cc.simulate_fifo_queue(
            scaled, cc.PeriodicSource(delta * factor, tau_slots=tau), n,
            seed=7)
        assert np.array_equal(got.delays_slots, want.delays_slots), delta
        assert (got.epochs, got.undelivered) == (want.epochs,
                                                 want.undelivered), delta


def test_queue_memory_does_not_grow_with_the_run(ref_model):
    src = cc.PeriodicSource(8.0, tau_slots=5)
    tracemalloc.start()
    try:
        trace = cc.simulate_fifo_queue(ref_model, src, 1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.epochs == 200_000 and trace.undelivered == 0
    assert peak < 6e6


def test_delay_quantile_is_a_whole_slot(ref_model):
    trace = cc.simulate_fifo_queue(ref_model, cc.PeriodicSource(1.0), 100,
                                   seed=1)
    q = trace.delay_quantiles((0.9,))[0.9]
    assert q == int(q)
    assert trace.violation_frequency(q)[0] <= 0.1 < \
        trace.violation_frequency(q - 1)[0]


@settings(max_examples=150, deadline=None)
@given(rate=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
       delta=st.floats(0.0, 6.0), tau=st.integers(1, 3),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       qs=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4))
def test_delay_quantiles_agree_with_violation_frequency(rate, delta, tau, n,
                                                        seed, qs):
    # q-quantile = smallest whole d with violation_frequency(d) <= 1 - q,
    # censored epochs counted as +inf; 1e-12 absorbs the rounding of 1 - q
    trace = cc.simulate_fifo_queue(single_state_model(rate),
                                   cc.PeriodicSource(delta, tau_slots=tau), n,
                                   seed=seed)
    for q, d in trace.delay_quantiles(qs).items():
        if trace.epochs == 0:
            assert math.isnan(d)
        elif d == math.inf:
            # no such d: the censored share alone exceeds 1 - q
            assert trace.undelivered / trace.epochs > 1 - q - 1e-12
        else:
            assert d >= 0 and d == int(d)
            assert trace.violation_frequency(d)[0] <= 1 - q + 1e-12
            if d > 0:
                assert trace.violation_frequency(d - 1)[0] > 1 - q - 1e-12


def test_delay_quantiles_count_censored_epochs():
    # delays [2 4 6 8 10 12] and 4 epochs that never depart
    trace = cc.simulate_fifo_queue(single_state_model(1.0),
                                   cc.PeriodicSource(3.0), 10, seed=0)
    q = trace.delay_quantiles((0.5, 0.6, 0.7))
    assert q == {0.5: 10.0, 0.6: 12.0, 0.7: math.inf}


def test_queue_input_validation(ref_model):
    with pytest.raises(ValueError):
        cc.simulate_fifo_queue(ref_model, cc.PeriodicSource(1.0), 0)
    with pytest.raises(ValueError):
        cc.simulate_fsmc(ref_model, -1)
    with pytest.raises(ValueError):
        cc.simulate_fsmc(ref_model, 10, init_state=99)
    for bad in (1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="init_state"):
            cc.simulate_fsmc(ref_model, 5, init_state=bad)
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_slots"):
            cc.simulate_fsmc(ref_model, bad)
        with pytest.raises(ValueError, match="n_slots"):
            cc.simulate_fifo_queue(ref_model, cc.PeriodicSource(1.0), bad)
    assert len(cc.simulate_fsmc(ref_model, 5.0, init_state=2.0)) == 5
