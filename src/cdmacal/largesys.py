"""Large-system analysis of the randomly spread LMMSE uplink.

In the many-user limit (K users, spreading factor M, load alpha = K/M held
fixed) the LMMSE multiuser channel decouples: the tagged user sees a
single-user channel whose post-detection SNR is gamma = p / beta, where p
is the user's exponentially distributed received power and beta solves the
fixed point

    beta = sigma^2 + alpha * integral_0^inf  p beta / (p + beta) e^-p dp.

gamma_bar = 1/beta is then the average post-detection SNR of a unit-mean
user, and the SNR density is exponential: f(gamma) = exp(-gamma/gamma_bar)
/ gamma_bar.
"""
from dataclasses import dataclass, field
from functools import lru_cache
import math
import sys

import numpy as np

from ._search import find_root
from .amc import ModeTable, default_mode_table
from .errors import whole_number
from .units import db_to_linear

# Truncation for the interference integral: contributions outside
# [min(beta,1)*e^-21, 45] are below 1e-13 of the integral's value.
_LOG_SPAN_LO = 21.0
_P_MAX = 45.0
_QUAD_RTOL = 1e-12      # relative change that ends the node-count doubling


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters of one operating point.

    snr_avg_db is the average received SNR per user (sigma^2 = 10^(-snr/10)
    with unit-mean channel power), alpha the user load K/M, f_m_hz the
    maximum Doppler shift, t_b_s the slot duration, w_hz the system
    bandwidth, and n_b_bits the block size used for queueing.
    """

    snr_avg_db: float
    alpha: float
    f_m_hz: float
    t_b_s: float = 2e-3
    w_hz: float = 20e6
    n_b_bits: int = 10_000
    modes: ModeTable = field(default_factory=default_mode_table)

    def __post_init__(self):
        if not math.isfinite(self.snr_avg_db):
            raise ValueError("snr_avg_db must be finite")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not self.f_m_hz >= 0:
            raise ValueError("f_m_hz must be nonnegative")
        if not 0 < self.t_b_s < math.inf:
            raise ValueError("t_b_s must be positive")
        if not 0 < self.w_hz < math.inf:
            raise ValueError("w_hz must be positive")
        whole_number("n_b_bits", self.n_b_bits, 1)

    @property
    def sigma2(self):
        """Noise variance for unit average received power."""
        return db_to_linear(-self.snr_avg_db)


@dataclass(frozen=True)
class DecoupledChannel:
    """Solution of the large-system fixed point."""

    beta: float
    gamma_bar: float
    sigma2: float
    alpha: float
    residual: float
    iterations: int


@lru_cache(maxsize=32)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def interference_integral(beta):
    """integral_0^inf p*beta/(p+beta) e^-p dp by quadrature.

    Evaluated on the log axis (p = e^x) with Gauss-Legendre so the pole at
    p = -beta never sits close to the integration nodes; a plain
    exponential-weight rule loses most of its digits once beta << 1.  The
    node count doubles from 64 (at most to 2048, else RuntimeError) until
    the result moves by at most _QUAD_RTOL relative.
    """
    beta = float(beta)
    if not beta > 0 or not math.isfinite(beta):
        raise ValueError("beta must be positive and finite")
    x_min = min(math.log(beta), 0.0) - _LOG_SPAN_LO
    x_max = math.log(_P_MAX)
    half = 0.5 * (x_max - x_min)
    mid = 0.5 * (x_max + x_min)
    prev = None
    n = 64
    while n <= 2048:
        x, w = _leggauss(n)
        p = np.exp(half * x + mid)
        f = beta * p * p / (p + beta) * np.exp(-p)
        val = half * float(np.sum(w * f))
        if prev is not None and abs(val - prev) <= _QUAD_RTOL * abs(val):
            return val
        prev = val
        n *= 2
    raise RuntimeError(f"interference integral did not converge for beta={beta}")


def solve_fixed_point(cfg, alpha=None):
    """Solve the large-system fixed point for beta and gamma_bar = 1/beta.

    g(b) = b - sigma^2 - alpha I(b) is negative at sigma^2 and positive at
    sigma^2 + alpha (0 < I(b) < 1), so one Brent root search on that
    bracket finds the unique root; at zero load the bracket has zero width
    and beta is sigma^2 exactly, after 0 iterations.
    """
    if alpha is None:
        alpha = cfg.alpha
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be nonnegative and finite")
    sigma2 = cfg.sigma2
    g = lambda b: b - sigma2 - alpha * interference_integral(b)
    beta, iterations = find_root(g, sigma2, sigma2 + alpha, sys.float_info.min)
    return DecoupledChannel(beta=beta, gamma_bar=1.0 / beta, sigma2=sigma2,
                            alpha=alpha, residual=abs(g(beta)) / beta,
                            iterations=iterations)
