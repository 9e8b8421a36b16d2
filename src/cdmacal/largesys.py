"""Large-system analysis of the randomly spread LMMSE uplink.

In the many-user limit (K users, spreading factor M, load alpha = K/M held
fixed) the LMMSE multiuser channel decouples: the tagged user sees a
single-user channel whose post-detection SNR is gamma = p / beta, where p
is the user's exponentially distributed received power and beta solves the
fixed point

    beta = sigma^2 + alpha * integral_0^inf  p beta / (p + beta) e^-p dp.

The integral has the closed form beta (1 - beta e^beta E1(beta)), with E1
the exponential integral.  gamma_bar = 1/beta is then the average
post-detection SNR of a unit-mean user, and the SNR density is
exponential: f(gamma) = exp(-gamma/gamma_bar) / gamma_bar.
"""
from dataclasses import dataclass, field
import math
import sys

from ._search import find_root
from .amc import ModeTable, default_mode_table
from .errors import whole_number
from .units import db_to_linear

_EULER_GAMMA = 0.5772156649015329


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
    residual: float
    iterations: int


def interference_integral(beta):
    """integral_0^inf p*beta/(p+beta) e^-p dp, in closed form.

    The integral is beta (1 - beta e^beta E1(beta)).  For beta <= 1, E1
    comes from its power series
    E1(beta) = -gamma - ln beta - sum_k>=1 (-beta)^k / (k k!), cut after
    k = 19: the first term left out is below 3e-20 of the sum.  Above 1,
    the continued fraction e^beta E1(beta) = 1/(beta + 1 - r) with
    r = 1/(beta + 3 - 4/(beta + 5 - 9/(beta + 7 - ...))) gives
    1 - beta e^beta E1(beta) = (1 - r)/(beta + 1 - r), which does not
    cancel at large beta.  Modified Lentz evaluates r until a step moves it
    by at most one rounding (about 100 steps just above beta = 1, fewer
    beyond).  Within 4e-15 relative from beta = 1e-30 to 1e30.
    """
    beta = float(beta)
    if not 0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if beta <= 1.0:
        e1 = -_EULER_GAMMA - math.log(beta) - sum(
            (-beta) ** k / (k * math.factorial(k)) for k in range(1, 20))
        return beta * (1.0 - beta * math.exp(beta) * e1)
    g = c = beta + 3.0                  # g = 1/r, by modified Lentz
    d, delta, k = 0.0, 0.0, 1
    while abs(delta - 1.0) > sys.float_info.epsilon:
        k += 1
        b = beta + 2 * k + 1
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        delta = c * d
        g *= delta
    r = 1.0 / g
    return beta * (1.0 - r) / (beta + 1.0 - r)


def solve_fixed_point(cfg):
    """Solve the large-system fixed point for beta and gamma_bar = 1/beta.

    The excess x = beta - sigma^2 solves h(x) = x - alpha I(sigma^2 + x),
    which is negative at 0 and positive at alpha (0 < I < 1), so one Brent
    root search on [0, alpha] finds the unique root, and sigma^2 <= beta <=
    sigma^2 + alpha holds however small alpha is next to sigma^2.  Where
    alpha I(sigma^2) underflows (alpha = 5e-324, say), x = 0 is an endpoint
    root: beta is sigma^2 exactly, after 0 iterations.
    """
    sigma2, alpha = cfg.sigma2, cfg.alpha
    h = lambda x: x - alpha * interference_integral(sigma2 + x)
    x, iterations = find_root(h, 0.0, alpha, sys.float_info.min)
    beta = sigma2 + x
    return DecoupledChannel(beta=beta, gamma_bar=1.0 / beta,
                            residual=abs(h(x)) / beta, iterations=iterations)
