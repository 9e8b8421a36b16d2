"""Markov channel construction checks.

The transition matrix at the reference operating point is frozen from a
hand-transcribed scalar computation of the crossing-rate formulas; the
stationary law is compared against values published for this exact model
at -2 dB and 4 dB average SNR.
"""
import itertools
import math

import numpy as np
import pytest

import cdmacal as cc
from cdmacal.fsmc import level_crossing_rate

from oracles import fsmc_transition_loop

# published stationary vectors (alpha = 0.5); the -2 dB source lists only
# six entries, the seventh being below its print precision
PUBLISHED_PI = {
    -2.0: [0.622, 0.234, 0.127, 0.017, 0.00044, 1.43e-7],
    4.0: [0.25, 0.184, 0.261, 0.203, 0.096, 0.01, 3.991e-7],
}

# frozen from the scalar oracle at 6 dB, alpha 0.5, 20 Hz, 2 ms slots
GOLDEN_P6 = {
    (0, 0): 0.79010371875371721, (0, 1): 0.20989628124628279,
    (1, 0): 0.25558894835619045, (1, 1): 0.44520675414129024,
    (1, 2): 0.29920429750251937,
    (2, 1): 0.18307638134814963, (2, 2): 0.64106114757765575,
    (2, 3): 0.17586247107419459,
    (3, 2): 0.17409071853241639, (3, 3): 0.70798912717724394,
    (3, 4): 0.11792015429033965,
    (4, 3): 0.15533305914726944, (4, 4): 0.79799312546663981,
    (4, 5): 0.046673815386090715,
    (5, 4): 0.17548302908489333, (5, 5): 0.82415418015748532,
    (5, 6): 3.6279075762131073e-04,
    (6, 5): 0.31422011695671209, (6, 6): 0.68577988304328796,
}

GOLDEN_PI6 = [0.17174801525206418, 0.14104392989089509, 0.23051007262235462,
              0.23285601507418088, 0.17677123836818320, 0.047016444770712477,
              5.4284021609530277e-05]


def _scalar_oracle(cfg, gamma_bar):
    """Plain-float retranscription of the chain construction."""
    thr_db = [m.threshold_db for m in cfg.modes]
    edges = [0.0] + [10 ** (t / 10) for t in thr_db[1:]] + [math.inf]
    n = len(thr_db)
    pi = [math.exp(-edges[l] / gamma_bar) - math.exp(-edges[l + 1] / gamma_bar)
          for l in range(n)]

    def crossings(level):
        if level <= 0 or math.isinf(level):
            return 0.0
        return (math.sqrt(2 * math.pi * level / gamma_bar) * cfg.f_m_hz
                * math.exp(-level / gamma_bar))

    p = [[0.0] * n for _ in range(n)]
    for l in range(n):
        up = crossings(edges[l + 1]) * cfg.t_b_s / pi[l] if l < n - 1 else 0.0
        down = crossings(edges[l]) * cfg.t_b_s / pi[l] if l > 0 else 0.0
        if l < n - 1:
            p[l][l + 1] = up
        if l > 0:
            p[l][l - 1] = down
        p[l][l] = 1.0 - up - down
    return np.array(p), np.array(pi)


def test_transition_matrix_golden_values(ref_model):
    p = ref_model.transition
    assert p.shape == (7, 7)
    for (i, j), want in GOLDEN_P6.items():
        assert p[i, j] == pytest.approx(want, rel=1e-13, abs=0), (i, j)
    mask = np.zeros((7, 7), dtype=bool)
    for i, j in GOLDEN_P6:
        mask[i, j] = True
    assert np.all(p[~mask] == 0.0)


def test_stationary_golden_values(ref_model):
    assert np.allclose(ref_model.pi, GOLDEN_PI6, rtol=1e-13, atol=0)


def test_matches_scalar_transcription(ref_cfg, ref_channel, ref_model):
    p_ref, pi_ref = _scalar_oracle(ref_cfg, ref_channel.gamma_bar)
    assert np.allclose(ref_model.transition, p_ref, rtol=1e-12, atol=1e-300)
    assert np.allclose(ref_model.pi, pi_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("snr_db", [-2.0, 4.0])
def test_stationary_matches_published_vectors(snr_db):
    cfg = cc.SystemConfig(snr_avg_db=snr_db, alpha=0.5, f_m_hz=20.0)
    model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
    published = PUBLISHED_PI[snr_db]
    for l, want in enumerate(published):
        got = model.pi[l]
        if want >= 1e-3:
            assert got == pytest.approx(want, abs=5e-3), l
        else:
            assert 0.1 * want <= got <= 10 * want, l


def test_structure_over_random_parameters():
    rng = np.random.default_rng(42)
    built = 0
    for _ in range(50):
        cfg = cc.SystemConfig(snr_avg_db=float(rng.uniform(-6, 18)),
                              alpha=float(rng.uniform(0.1, 1.8)),
                              f_m_hz=float(rng.uniform(0.0, 40.0)))
        try:
            model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
        except cc.SlowFadingViolation:
            # high Doppler relative to occupancy is a legitimate rejection
            continue
        built += 1
        p, pi = model.transition, model.pi
        n = model.n_states
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(p >= 0)
        off = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) > 1
        assert np.all(p[off] == 0.0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0)
        assert model.stationary_mismatch() < 1e-12
    assert built >= 30


def test_stationary_is_exact_not_approximate(ref_model):
    # adjacent-state construction satisfies detailed balance, so the
    # closed-form occupancies are the stationary law to rounding error
    assert ref_model.stationary_mismatch() < 1e-15
    p, pi = ref_model.transition, ref_model.pi
    for l in range(ref_model.n_states - 1):
        assert pi[l] * p[l, l + 1] == pytest.approx(
            pi[l + 1] * p[l + 1, l], rel=1e-12, abs=0)


def test_zero_doppler_freezes_the_chain():
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=0.0)
    model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
    assert np.array_equal(model.transition, np.eye(model.n_states))


def test_crossing_probabilities_scale_with_doppler():
    base = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=10.0)
    ch = cc.solve_fixed_point(base)
    m1 = cc.build_fsmc(base, ch)
    m2 = cc.build_fsmc(cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=20.0), ch)
    n = m1.n_states
    for l in range(n - 1):
        assert m2.transition[l, l + 1] == pytest.approx(
            2 * m1.transition[l, l + 1], rel=1e-12, abs=0)
        assert m2.transition[l + 1, l] == pytest.approx(
            2 * m1.transition[l + 1, l], rel=1e-12, abs=0)


def test_fast_fading_rejected_with_state_list():
    cfg = cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=2000.0)
    ch = cc.solve_fixed_point(cfg)
    with pytest.raises(cc.SlowFadingViolation) as exc:
        cc.build_fsmc(cfg, ch)
    assert exc.value.states
    assert "state" in str(exc.value)


def test_build_matches_per_state_loop_bit_for_bit():
    # P bytes, or the refused states and message, as the per-state loop
    # gives them, from -30 to 400 dB and f_m 0 to inf Hz
    rows = [(0, "bpsk", 0.0, -math.inf), (1, "qpsk", 1.0, 3.0)]
    tables = (cc.default_mode_table(), cc.ModeTable.from_rows(rows),
              cc.ModeTable.from_rows(rows[:1]))
    kinds = set()
    for snr, alpha, f_m, t_b, modes in itertools.product(
            (-30.0, -6.0, 0.0, 6.0, 18.0, 40.0, 100.0, 330.0, 400.0),
            (1e-3, 0.5, 10.0), (0.0, 2.0, 20.0, 150.0, 1e4, math.inf),
            (1e-5, 2e-3, 1.0), tables):
        cfg = cc.SystemConfig(snr_avg_db=snr, alpha=alpha, f_m_hz=f_m,
                              t_b_s=t_b, modes=modes)
        channel = cc.solve_fixed_point(cfg)
        try:
            want = fsmc_transition_loop(cfg, channel)
        except cc.SlowFadingViolation as exc:
            with pytest.raises(cc.SlowFadingViolation) as got:
                cc.build_fsmc(cfg, channel)
            assert (got.value.states, str(got.value)) == (exc.states, str(exc))
            assert all(type(s) is int for s in got.value.states)
            n = len(modes.rates_bps_hz)
            kinds.add("zero occupancy" if "zero occupancy" in str(exc)
                      else "every state" if exc.states == tuple(range(n))
                      else "some states")
            continue
        got = cc.build_fsmc(cfg, channel).transition
        assert got.tobytes() == want.tobytes(), (snr, alpha, f_m, t_b)
        kinds.add("built")
    assert kinds == {"built", "zero occupancy", "every state", "some states"}


def test_block_rates_at_reference_point(ref_model):
    # rate_bps_hz * w * t_b / n_b blocks per slot for the default numerology;
    # the product 2e-3 * 2e7 / 1e4 is not exact in binary, hence approx
    assert ref_model.rates_blocks == pytest.approx(
        [0.0, 2.0, 4.0, 6.0, 9.0, 12.0, 18.0], rel=1e-12, abs=0)


def test_level_crossing_rate_shape(ref_channel):
    gb = ref_channel.gamma_bar
    assert level_crossing_rate(0.0, gb, 20.0) == 0.0
    assert level_crossing_rate(np.inf, gb, 20.0) == 0.0
    grid = np.geomspace(1e-3, 50, 40)
    vals = level_crossing_rate(grid, gb, 20.0)
    assert vals.shape == grid.shape
    assert np.all(vals > 0)
    # rises from zero, peaks near gamma_bar/2, decays exponentially after
    peak = grid[np.argmax(vals)]
    assert 0.2 * gb < peak < 1.0 * gb
    assert vals[-1] < vals[np.argmax(vals)] * 1e-4
