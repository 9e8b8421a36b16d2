"""Finite-state Markov model of the post-detection SNR process.

Each AMC mode's SNR region [Gamma_l, Gamma_{l+1}) becomes one chain state,
with Gamma_0 = 0 and Gamma_L = inf.  Slot-to-slot transitions move at most
one state because the slot is assumed short relative to the fading
(birth-death structure); the transition probabilities follow from the
Rayleigh level crossing rate

    N(Gamma) = sqrt(2 pi Gamma / gamma_bar) * f_m * exp(-Gamma / gamma_bar)

as p(l -> l+1) ~= N(Gamma_{l+1}) T_b / pi_l and p(l -> l-1) ~=
N(Gamma_l) T_b / pi_l, where pi_l = exp(-Gamma_l/gamma_bar) -
exp(-Gamma_{l+1}/gamma_bar) is the stationary occupancy of state l under
the exponential SNR law.  The birth-death rates satisfy detailed balance
with this pi by construction, so pi is the exact stationary vector of the
matrix; ``stationary_mismatch`` reports the (tiny) numerical gap.
"""
from dataclasses import dataclass
import functools

import numpy as np

from .errors import SlowFadingViolation


def level_crossing_rate(gamma, gamma_bar, f_m_hz):
    """Expected downward crossings per second of level gamma by Rayleigh fading."""
    if not gamma_bar > 0:
        raise ValueError("gamma_bar must be positive")
    if not f_m_hz >= 0:
        raise ValueError("f_m_hz must be nonnegative")
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.where(np.isinf(g), 0.0,
                       np.sqrt(2.0 * np.pi * g / gamma_bar) * f_m_hz
                       * np.exp(-g / gamma_bar))
    return out if out.ndim else float(out)


def _edges(thresholds_linear):
    """State boundaries Gamma_0..Gamma_L with Gamma_0 = 0 and Gamma_L = inf."""
    e = np.append(np.asarray(thresholds_linear, dtype=float), np.inf)
    if e[0] != 0.0:
        raise ValueError("lowest threshold must be 0 on the linear scale")
    return e


def stationary_distribution(thresholds_linear, gamma_bar):
    """Occupancy of each SNR region under the exponential post-detection law."""
    if not gamma_bar > 0:
        raise ValueError("gamma_bar must be positive")
    e = _edges(thresholds_linear)
    tail = np.where(np.isinf(e), 0.0, np.exp(-e / gamma_bar))
    tail[0] = 1.0
    return tail[:-1] - tail[1:]


@dataclass(frozen=True)
class FsmcModel:
    """Slotted Markov chain over the AMC modes plus per-state block rates."""

    transition: np.ndarray      # (L, L) row-stochastic, tridiagonal
    pi: np.ndarray              # (L,) stationary occupancy, sums to 1
    rates_bps_hz: np.ndarray    # (L,) spectral efficiency per state
    rates_blocks: np.ndarray    # (L,) blocks served per slot per state

    @property
    def n_states(self):
        return len(self.pi)

    @functools.cached_property
    def log_chain(self):
        """(ln pi, ln P), -inf where an entry is 0; formed once per model."""
        with np.errstate(divide="ignore"):
            return np.log(self.pi), np.log(self.transition)

    def stationary_mismatch(self):
        """l1 norm of pi P - pi; a diagnostic, expected at rounding level."""
        return float(np.sum(np.abs(self.pi @ self.transition - self.pi)))


def _freeze(arr):
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


def build_fsmc(cfg, channel):
    """Build the mode-level Markov chain for one operating point.

    cfg supplies the mode table, slot length and Doppler; channel supplies
    gamma_bar from the large-system solve.  Raises SlowFadingViolation when
    any one-step probability leaves [0, 1] instead of clamping.
    """
    gamma_bar = channel.gamma_bar
    table = cfg.modes
    edges = _edges(table.thresholds_linear)
    pi = stationary_distribution(table.thresholds_linear, gamma_bar)
    L = len(pi)

    crossings = level_crossing_rate(edges, gamma_bar, cfg.f_m_hz) * cfg.t_b_s
    up = np.zeros(L)
    down = np.zeros(L)
    bad = []
    for l in range(L):
        for target, rate in ((up, crossings[l + 1] if l < L - 1 else 0.0),
                             (down, crossings[l] if l > 0 else 0.0)):
            if rate == 0.0:
                continue
            if pi[l] <= 0.0:
                raise SlowFadingViolation(
                    [l], f"state has zero occupancy but boundary crossing rate {rate:.3g}")
            target[l] = rate / pi[l]
        if up[l] > 1.0 or down[l] > 1.0 or up[l] + down[l] > 1.0:
            bad.append(l)
    if bad:
        raise SlowFadingViolation(
            bad, f"f_m_hz={cfg.f_m_hz}, t_b_s={cfg.t_b_s} make one-step "
                 "probabilities leave [0, 1]; shorten the slot or reduce the Doppler")

    p = np.zeros((L, L))
    idx = np.arange(L)
    p[idx, idx] = 1.0 - up - down
    p[idx[:-1], idx[:-1] + 1] = up[:-1]
    p[idx[1:], idx[1:] - 1] = down[1:]

    rates_blocks = table.rates_bps_hz * cfg.t_b_s * cfg.w_hz / cfg.n_b_bits
    return FsmcModel(
        transition=_freeze(p),
        pi=_freeze(pi),
        rates_bps_hz=_freeze(table.rates_bps_hz.copy()),
        rates_blocks=_freeze(rates_blocks),
    )
