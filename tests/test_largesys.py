"""Fixed-point solver checks against independent oracles.

The interference integral is validated three ways: plain Monte Carlo over
the exponential weight, adaptive quadrature from scipy, and the
special-function closed form in 50-digit arithmetic.  The
fixed point itself is checked against a plain bisection that never runs the
production root finder.
"""
import math

import numpy as np
import pytest
from scipy import integrate

import cdmacal as cc
from cdmacal.largesys import interference_integral

from oracles import (fixed_point_bisection, interference_integral_closed_form,
                     post_detection_snr_pdf)

# beta values frozen from the bisection oracle at (alpha, snr_db):
# (0.5, 6), (0.5, -2), (0.5, 4)
GOLDEN_BETA = {
    (0.5, 6.0): 0.3590609047369002,
    (0.5, -2.0): 1.8539211263412551,
    (0.5, 4.0): 0.5394089718408290,
}


def _quad_integral(beta):
    f = lambda p: p * beta / (p + beta) * math.exp(-p)
    val, err = integrate.quad(f, 0.0, np.inf, limit=400,
                              epsabs=1e-15, epsrel=1e-13)
    assert err < 1e-12
    return val


def test_integral_matches_monte_carlo():
    # E[p beta/(p+beta)] under p ~ Exp(1), 10^7 common samples
    rng = np.random.default_rng(20240817)
    p = rng.exponential(size=10_000_000)
    for beta in (0.359, 1.0, 5.0):
        vals = p * beta / (p + beta)
        est = float(vals.mean())
        se = float(vals.std(ddof=1)) / math.sqrt(len(p))
        assert abs(interference_integral(beta) - est) < 4 * se


@pytest.mark.parametrize("beta", [1e-4, 1e-2, 0.359, 1.0, 7.3, 1e2, 1e4])
def test_integral_matches_adaptive_quadrature(beta):
    assert interference_integral(beta) == pytest.approx(
        _quad_integral(beta), rel=1e-9, abs=0)


def test_integral_matches_closed_form_over_wide_range():
    # fifty points a decade, so many on each side of the series/continued
    # fraction switch at beta = 1
    for beta in np.geomspace(1e-30, 1e30, 3001):
        ref = interference_integral_closed_form(beta, dps=50)
        assert interference_integral(beta) == pytest.approx(
            ref, rel=4e-15, abs=0)


def test_integral_elementary_bounds():
    # integrand <= p e^-p and <= beta e^-p gives I <= min(1, beta)
    for beta in (1e-3, 0.25, 1.0, 40.0):
        val = interference_integral(beta)
        assert 0 < val < min(1.0, beta)
    # at the ends of the float range I rounds to beta and to 1
    for beta in (1e-300, 1e300):
        assert 0 < interference_integral(beta) <= min(1.0, beta)


def test_integral_nondecreasing_across_the_switch():
    # I' is about 0.21 at beta = 1, so each 1e-12 step raises I by about
    # 2e-13, far more than the rounding of either side: a jump at the
    # switch would show
    betas = 1.0 + np.linspace(-1e-9, 1e-9, 2001)
    vals = [interference_integral(b) for b in betas]
    assert np.all(np.diff(vals) >= 0)


def test_fixed_point_golden_values():
    for (alpha, snr), beta_ref in GOLDEN_BETA.items():
        cfg = cc.SystemConfig(snr_avg_db=snr, alpha=alpha, f_m_hz=20.0)
        ch = cc.solve_fixed_point(cfg)
        assert ch.beta == pytest.approx(beta_ref, rel=1e-12)
        assert ch.gamma_bar == pytest.approx(1.0 / beta_ref, rel=1e-12)
        assert ch.residual < 1e-10


def test_fixed_point_matches_independent_bisection():
    # oracle: root of b - sigma2 - alpha*I(b) on [sigma2, sigma2 + alpha],
    # with I from scipy quadrature only
    for alpha, snr in ((0.25, 0.0), (0.5, 6.0), (0.9, -3.0), (1.5, 10.0)):
        sigma2 = 10 ** (-snr / 10)
        ref = fixed_point_bisection(sigma2, alpha, _quad_integral)
        cfg = cc.SystemConfig(snr_avg_db=snr, alpha=alpha, f_m_hz=20.0)
        assert cc.solve_fixed_point(cfg).beta == pytest.approx(ref, rel=1e-9)


def test_beta_monotone_in_load_and_noise():
    rng = np.random.default_rng(7)
    for _ in range(20):
        snr = rng.uniform(-5, 15)
        a1, a2 = sorted(rng.uniform(0.05, 2.0, size=2))
        cfg1 = cc.SystemConfig(snr_avg_db=snr, alpha=a1, f_m_hz=1.0)
        cfg2 = cc.SystemConfig(snr_avg_db=snr, alpha=a2, f_m_hz=1.0)
        b1, b2 = cc.solve_fixed_point(cfg1).beta, cc.solve_fixed_point(cfg2).beta
        assert b1 <= b2 or math.isclose(b1, b2, rel_tol=1e-12)
        s1, s2 = sorted(rng.uniform(-5, 15, size=2))
        lo = cc.solve_fixed_point(cc.SystemConfig(snr_avg_db=s2, alpha=a1, f_m_hz=1.0))
        hi = cc.solve_fixed_point(cc.SystemConfig(snr_avg_db=s1, alpha=a1, f_m_hz=1.0))
        assert lo.beta <= hi.beta  # more noise, larger effective variance


def test_tiny_load_keeps_beta_in_its_bracket():
    # loads so small that sigma^2 + alpha rounds to sigma^2, or the
    # residual at sigma^2 + alpha rounds to <= 0
    for snr_db in (-40.0, -20.0, 0.0, 6.0, 20.0, 40.0):
        for alpha in np.geomspace(1e-22, 1e-10, 400):
            cfg = cc.SystemConfig(snr_avg_db=snr_db, alpha=float(alpha),
                                  f_m_hz=20.0)
            beta = cc.solve_fixed_point(cfg).beta
            assert cfg.sigma2 <= beta <= cfg.sigma2 + alpha, (snr_db, alpha)


def test_zero_load_reduces_to_noise_only():
    # the smallest load SystemConfig accepts: alpha I(sigma^2) underflows to
    # 0, so sigma^2 is an endpoint root of the bracket and no iteration runs
    for snr_db in (-40.0, -20.0, -5.0, 0.0, 6.0, 20.0, 40.0, 300.0):
        cfg = cc.SystemConfig(snr_avg_db=snr_db, alpha=5e-324, f_m_hz=20.0)
        ch = cc.solve_fixed_point(cfg)
        assert ch.beta == cfg.sigma2
        assert ch.gamma_bar == pytest.approx(1.0 / cfg.sigma2, rel=1e-15)
        assert ch.iterations == 0, snr_db


def test_snr_pdf_normalizes_with_correct_mean(ref_cfg, ref_channel):
    pdf = post_detection_snr_pdf(ref_channel.gamma_bar)
    total, _ = integrate.quad(pdf, 0, np.inf)
    mean, _ = integrate.quad(lambda g: g * pdf(g), 0, np.inf)
    assert total == pytest.approx(1.0, rel=1e-9)
    assert mean == pytest.approx(ref_channel.gamma_bar, rel=1e-9)
    assert pdf(-1.0) == 0.0
    # the chain's stationary law is this density's mass per mode interval
    edges = np.append(ref_cfg.modes.thresholds_linear, np.inf)
    pi = cc.stationary_distribution(ref_cfg.modes.thresholds_linear,
                                    ref_channel.gamma_bar)
    mass = [integrate.quad(pdf, lo, hi, epsabs=0, epsrel=1e-12)[0]
            for lo, hi in zip(edges, edges[1:])]
    assert pi == pytest.approx(mass, rel=1e-9, abs=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        cc.SystemConfig(snr_avg_db=6.0, alpha=0.0, f_m_hz=20.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="f_m_hz must be nonnegative"):
            cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=bad)
        with pytest.raises(ValueError, match="f_m_hz must be nonnegative"):
            cc.level_crossing_rate(1.0, 1.0, bad)
    with pytest.raises(ValueError):
        cc.SystemConfig(snr_avg_db=math.nan, alpha=0.5, f_m_hz=20.0)
    with pytest.raises(ValueError):
        cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=20.0, t_b_s=0.0)
    for bad in (0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_b_bits must be a whole number"):
            cc.SystemConfig(snr_avg_db=6.0, alpha=0.5, f_m_hz=20.0, n_b_bits=bad)
    with pytest.raises(ValueError):
        interference_integral(-1.0)
