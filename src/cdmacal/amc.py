"""Adaptive modulation and coding: mode tables and constellation capacity.

A transmission mode pairs a unit-energy constellation with a spectral
efficiency (bps/Hz) and an SNR threshold (dB).  The receiver picks the
highest-rate mode whose threshold the post-detection SNR meets, so the
thresholds partition the SNR axis into operating regions.

Every constellation a mode can name is a product of unit-energy
pulse-amplitude (PAM) sets: BPSK is 2-PAM on one axis, and square M-QAM is
sqrt(M)-PAM on each of two axes, each axis carrying half the energy.  Under
circular noise the capacity is the sum of the per-axis terms,
C(gamma) = axes C_PAM(gamma / axes), with

    C_PAM(g) = log2 S - (1/S) sum_b E_u[ log2 sum_b' exp(-d^2 - 2 u d) ],

d = sqrt(g) (b - b') over the S levels and u drawn from the Gaussian
density exp(-u^2)/sqrt(pi).  (Factoring exp(-u^2) out of the usual
exp(-(u + d)^2) form cancels the log2(e) term.)  The expectation is a
Gauss-Hermite rule of order _GH_ORDER on each axis.  This is the same
quadrature as the two-dimensional product rule over the complex points,
since a product rule with normalised weights applied to f(x) + g(y) is the
sum of the two one-dimensional rules, so the error study below carries
over unchanged: against a one-dimensional adaptive quadrature of the PAM
sums, the worst error over every default mode's +-8 dB bracket is 5.4e-6
bps/Hz (64-QAM at 22.4 dB).
"""
from dataclasses import dataclass
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from ._search import find_root
from .errors import ConfigError
from .units import db_to_linear

_LOG2E = math.log2(math.e)

# Gauss-Hermite order of the one-dimensional rule on each PAM axis (the
# per-axis order of the equivalent product rule), chosen from the
# measured error against a one-dimensional adaptive quadrature of the PAM
# sums over every default mode's +-8 dB bracket in 0.25 dB steps: the worst
# error is 4.6e-5 bps/Hz at order 40, 2.0e-5 at 48, 9.9e-6 at 56 and 5.4e-6
# at 64, each at 64-QAM near 22 dB.
_GH_ORDER = 64
_GH_NODES, _GH_WEIGHTS = hermgauss(_GH_ORDER)
_GH_WEIGHTS = _GH_WEIGHTS / _GH_WEIGHTS.sum()   # weights of exp(-x^2)/sqrt(pi)

# verify_thresholds looks for each switch point within this many dB of the
# table value.
_BRACKET_DB = 8.0

# (PAM side, number of axes) by constellation name, lower case without
# dashes or underscores; the S levels (2k - S + 1)/sqrt((S^2 - 1)/3) of a
# side have unit average energy.
_PAM = {"bpsk": (2, 1), "qpsk": (2, 2), "16qam": (4, 2), "64qam": (8, 2)}

_DEFAULT_ROWS = (
    (0, "bpsk", 0.0, -math.inf),
    (1, "bpsk", 0.5, -2.80),
    (2, "qpsk", 1.0, 0.19),
    (3, "qpsk", 1.5, 3.39),
    (4, "16-qam", 2.25, 6.20),
    (5, "16-qam", 3.0, 9.30),
    (6, "64-qam", 4.5, 14.37),
)


@dataclass(frozen=True)
class Mode:
    """One AMC mode: constellation, code-rate-scaled efficiency, SNR switch point."""

    index: int
    label: str
    rate_bps_hz: float
    threshold_db: float


class ModeTable:
    """Validated, ordered collection of AMC modes.

    Mode 0 must be the outage mode (rate 0, threshold -inf dB); rates and
    thresholds must be strictly increasing and, above mode 0, finite; every
    label must name a known constellation (``bpsk``, ``qpsk``, ``16-qam``,
    ``64-qam``; case, dashes and underscores are ignored), whose capacity is
    one one-dimensional Gauss-Hermite rule per PAM axis.
    """

    def __init__(self, modes):
        modes = tuple(modes)
        if not modes:
            raise ConfigError("mode table is empty")
        for i, m in enumerate(modes):
            if m.index != i:
                raise ConfigError(f"mode {m.label!r} has index {m.index}, expected {i}")
            _pam(m)
        if modes[0].rate_bps_hz != 0.0 or not math.isinf(modes[0].threshold_db):
            raise ConfigError("mode 0 must be the outage mode: rate 0, threshold -inf")
        for a, b in zip(modes, modes[1:]):
            if not b.rate_bps_hz > a.rate_bps_hz:
                raise ConfigError(
                    f"rates must be strictly increasing: mode {b.index} has "
                    f"{b.rate_bps_hz} after {a.rate_bps_hz}")
            if not b.threshold_db > a.threshold_db:
                raise ConfigError(
                    f"thresholds must be strictly increasing: mode {b.index} has "
                    f"{b.threshold_db} dB after {a.threshold_db} dB")
            if math.isinf(b.rate_bps_hz) or math.isinf(b.threshold_db):
                raise ConfigError(
                    f"mode {b.index} needs a finite rate and threshold, got "
                    f"{b.rate_bps_hz} and {b.threshold_db} dB")
        self.modes = modes
        self.rates_bps_hz = np.array([m.rate_bps_hz for m in modes])
        self.thresholds_linear = db_to_linear(np.array([m.threshold_db for m in modes]))
        for arr in (self.rates_bps_hz, self.thresholds_linear):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __getitem__(self, i):
        return self.modes[i]

    @classmethod
    def from_rows(cls, rows):
        """Build a table from (index, constellation_name, rate, threshold_db) rows."""
        return cls(Mode(int(i), str(lab), float(r), float(t)) for i, lab, r, t in rows)


def default_mode_table():
    """Seven-mode table used by the HIPERLAN/2-family link adaptation schemes."""
    return ModeTable.from_rows(_DEFAULT_ROWS)


def _pam(constellation):
    """(side, axes) of a constellation name or of a Mode's label."""
    label = constellation.label if isinstance(constellation, Mode) else constellation
    if not isinstance(label, str):
        raise ConfigError("constellation must be a name or a Mode, not %s"
                          % type(label).__name__)
    try:
        return _PAM[label.lower().replace("-", "").replace("_", "")]
    except KeyError:
        raise ConfigError(f"unknown constellation {label!r}") from None


def constellation_capacity(constellation, gamma):
    """Constellation-constrained capacity at linear SNR gamma, in bps/Hz.

    constellation is a name or a Mode; gamma >= 0, and ``inf`` gives
    log2 M.  The value is floored at zero, since quadrature rounding can
    leave it a few ulp below 0 near gamma = 0.
    """
    side, axes = _pam(constellation)
    if not (gamma >= 0):
        raise ValueError("gamma must be a nonnegative linear SNR")
    if math.isinf(gamma):
        return axes * math.log2(side)
    levels = np.arange(1 - side, side, 2) / math.sqrt((side * side - 1) / 3)
    d = math.sqrt(gamma / axes) * (levels[:, None] - levels[None, :])
    # exp(x^2 - (x + d)^2) is at most exp(x_max^2) and the b' = b term is
    # exactly 1, so nothing overflows and the logarithm's argument is >= 1.
    x = _GH_NODES[None, :, None]
    inner = np.log(np.exp(x ** 2 - (x + d[:, None, :]) ** 2).sum(axis=2))
    mean_log = float(np.mean(inner @ _GH_WEIGHTS))
    return max(0.0, axes * (math.log2(side) - mean_log * _LOG2E))


@dataclass(frozen=True)
class ThresholdCheck:
    """Outcome of solving capacity(gamma) = rate for one mode."""

    mode_index: int
    label: str
    rate_bps_hz: float
    table_db: float
    solved_db: float
    error_db: float
    solvable: bool
    within_tol: bool


def verify_thresholds(table, *, tol_db=0.3):
    """Solve capacity = rate for every nonzero-rate mode and compare to the table.

    Modes whose rate is not bracketed within _BRACKET_DB of the table value
    are reported unsolvable rather than clamped.
    """
    if not 0 < tol_db < math.inf:
        raise ConfigError("tol_db must be positive and finite, got %r" % tol_db)
    checks = []
    for mode in table:
        if mode.rate_bps_hz <= 0:
            continue
        lo_db = mode.threshold_db - _BRACKET_DB
        hi_db = mode.threshold_db + _BRACKET_DB
        g = lambda x_db: (constellation_capacity(mode, db_to_linear(x_db))
                          - mode.rate_bps_hz)
        g_lo, g_hi = g(lo_db), g(hi_db)
        if g_lo >= 0 or g_hi <= 0:
            checks.append(ThresholdCheck(mode.index, mode.label, mode.rate_bps_hz,
                                         mode.threshold_db, math.nan, math.nan,
                                         False, False))
            continue
        solved_db, _ = find_root(g, lo_db, hi_db, 1e-4, fa=g_lo, fb=g_hi)
        err = abs(solved_db - mode.threshold_db)
        checks.append(ThresholdCheck(mode.index, mode.label, mode.rate_bps_hz,
                                     mode.threshold_db, float(solved_db), float(err),
                                     True, bool(err <= tol_db)))
    return checks
