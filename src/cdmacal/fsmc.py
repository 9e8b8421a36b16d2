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


@dataclass(frozen=True, eq=False)     # hashed by identity: netcal memoises per model
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
    def bands(self):
        """The bands of P as read-only views, (up, diag, down), P[i, i+1],
        P[i, i] and P[i+1, i]; names the first row with an entry off them."""
        p = self.transition
        for i in np.flatnonzero((np.triu(p, 2) + np.tril(p, -2)).any(axis=1))[:1]:
            raise ValueError(f"transition row {i} has an entry off the tridiagonal band")
        return np.diagonal(p, 1), np.diagonal(p), np.diagonal(p, -1)

    @functools.cached_property
    def birth_death(self):
        """netcal's form of the chain, formed once per model: ln sqrt(P_ij P_ji)
        (ln P_ii on the diagonal), ln pi and the bands as lists.  Names the first
        rate pair with one rate zero or flows apart by more than build_fsmc's
        rounding, 4u / (1 - u)^2 with u = eps / 2."""
        (up, diag, down), p, pi = self.bands, self.transition, self.pi
        flow, back, eps = pi[:-1] * up, pi[1:] * down, np.finfo(float).eps
        bad = (((up == 0) != (down == 0))
               | (np.abs(flow - back) > 2 * eps / (1 - eps) * np.maximum(flow, back)))
        for i in np.flatnonzero(bad)[:1]:
            raise ValueError(f"pi[{i}] transition[{i}, {i + 1}] and pi[{i + 1}] "
                             f"transition[{i + 1}, {i}]: one rate is zero or the "
                             "flows differ (no detailed balance)")
        with np.errstate(divide="ignore"):     # sqrt(x x) is x above 1.5e-154
            return (np.log(np.sqrt(p * p.T)), np.log(pi), up.tolist(),
                    diag.tolist(), down.tolist())

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
    table, gamma_bar = cfg.modes, channel.gamma_bar
    pi = stationary_distribution(table.thresholds_linear, gamma_bar)
    # up and down crossings per state; Gamma_0 = 0 and Gamma_L = inf give none
    inner = level_crossing_rate(table.thresholds_linear[1:], gamma_bar,
                                cfg.f_m_hz) * cfg.t_b_s
    crossings = np.array((np.append(inner, 0.0), np.append(0.0, inner)))
    moving = crossings != 0                 # a NaN rate moves too
    for l in np.flatnonzero(moving.any(axis=0) & (pi <= 0))[:1]:
        raise SlowFadingViolation([int(l)], "state has zero occupancy but boundary "
                                  f"crossing rate {crossings[moving[:, l], l][0]:.3g}")
    up, down = np.divide(crossings, pi, out=np.zeros_like(crossings), where=moving)
    bad = np.flatnonzero((up > 1.0) | (down > 1.0) | (up + down > 1.0)).tolist()
    if bad:
        raise SlowFadingViolation(
            bad, f"f_m_hz={cfg.f_m_hz}, t_b_s={cfg.t_b_s} make one-step "
                 "probabilities leave [0, 1]; shorten the slot or reduce the Doppler")
    p = np.diag(1.0 - up - down) + np.diag(up[:-1], 1) + np.diag(down[1:], -1)

    rates_blocks = table.rates_bps_hz * cfg.t_b_s * cfg.w_hz / cfg.n_b_bits
    return FsmcModel(
        transition=_freeze(p),
        pi=_freeze(pi),
        rates_bps_hz=table.rates_bps_hz,
        rates_blocks=_freeze(rates_blocks),
    )
