"""Adaptive modulation and coding: mode tables and constellation capacity.

A transmission mode pairs a unit-energy constellation with a spectral
efficiency (bps/Hz) and an SNR threshold (dB).  The receiver picks the
highest-rate mode whose threshold the post-detection SNR meets, so the
thresholds partition the SNR axis into operating regions.

Constellation-constrained capacity over a complex AWGN channel with SNR
gamma is

    I(gamma) = log2 |M|
               - (1/|M|) sum_b E_v[ log2 sum_b' exp(-|d|^2 - 2 Re(conj(v) d)) ],

with d = sqrt(gamma) (b - b') and v drawn from the unit-variance circular
complex Gaussian density exp(-|v|^2)/pi.  (Factoring exp(-|v|^2) out of
the usual exp(-|v + d|^2) form cancels the log2(e) term.)  The expectation
is a product Gauss-Hermite rule of order _GH_ORDER in the real and the
imaginary part of v.  Against a one-dimensional adaptive quadrature of the
equivalent PAM sum, its worst error over every default mode's +-8 dB
bracket is 5.4e-6 bps/Hz (64-QAM at 22.4 dB).
"""
from dataclasses import dataclass, field
import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from ._search import find_root
from .errors import ConfigError
from .units import db_to_linear

_LOG2E = math.log2(math.e)

# Gauss-Hermite order per axis of the capacity rule, chosen from the
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

_DEFAULT_ROWS = (
    (0, "bpsk", 0.0, -math.inf),
    (1, "bpsk", 0.5, -2.80),
    (2, "qpsk", 1.0, 0.19),
    (3, "qpsk", 1.5, 3.39),
    (4, "16-qam", 2.25, 6.20),
    (5, "16-qam", 3.0, 9.30),
    (6, "64-qam", 4.5, 14.37),
)


def constellation_points(name):
    """Return the unit-average-energy points of a named constellation.

    Supported names: ``bpsk``, ``qpsk``, ``16-qam``, ``64-qam`` (dashes
    optional, case-insensitive).
    """
    key = name.lower().replace("-", "").replace("_", "")
    if key == "bpsk":
        pts = np.array([1.0, -1.0], dtype=complex)
    elif key == "qpsk":
        pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2)
    elif key in ("16qam", "64qam"):
        side = 4 if key == "16qam" else 8
        lv = np.arange(-(side - 1), side, 2, dtype=float)
        pts = (lv[:, None] + 1j * lv[None, :]).ravel()
        pts = pts / math.sqrt(np.mean(np.abs(pts) ** 2))
    else:
        raise ConfigError(f"unknown constellation {name!r}")
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class Mode:
    """One AMC mode: constellation, code-rate-scaled efficiency, SNR switch point."""

    index: int
    label: str
    rate_bps_hz: float
    threshold_db: float
    points: np.ndarray = field(compare=False, repr=False)


class ModeTable:
    """Validated, ordered collection of AMC modes.

    Mode 0 must be the outage mode (rate 0, threshold -inf dB); rates and
    thresholds must be strictly increasing; every constellation must have
    unit average energy.
    """

    def __init__(self, modes):
        modes = tuple(modes)
        if not modes:
            raise ConfigError("mode table is empty")
        for i, m in enumerate(modes):
            if m.index != i:
                raise ConfigError(f"mode {m.label!r} has index {m.index}, expected {i}")
            energy = float(np.mean(np.abs(m.points) ** 2))
            if abs(energy - 1.0) > 1e-9:
                raise ConfigError(
                    f"mode {i} constellation has average energy {energy:.6g}, expected 1")
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
        self.modes = modes
        self.rates_bps_hz = np.array([m.rate_bps_hz for m in modes])
        self.thresholds_db = np.array([m.threshold_db for m in modes])
        self.thresholds_linear = db_to_linear(self.thresholds_db)
        for arr in (self.rates_bps_hz, self.thresholds_db, self.thresholds_linear):
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
        return cls(Mode(int(i), str(lab), float(r), float(t), constellation_points(lab))
                   for i, lab, r, t in rows)


def default_mode_table():
    """Seven-mode table used by the HIPERLAN/2-family link adaptation schemes."""
    return ModeTable.from_rows(_DEFAULT_ROWS)


def _as_points(constellation):
    if isinstance(constellation, Mode):
        return constellation.points
    if isinstance(constellation, str):
        return constellation_points(constellation)
    pts = np.asarray(constellation, dtype=complex)
    if pts.ndim != 1 or len(pts) < 1:
        raise ValueError("constellation must be a 1-d point set")
    return pts


def constellation_capacity(constellation, gamma):
    """Constellation-constrained capacity at linear SNR gamma, in bps/Hz.

    constellation is a point set with unit average energy, its name, or a
    Mode; gamma >= 0, and ``inf`` gives log2 |M|.  The value is floored at
    zero, since quadrature rounding can leave it a few ulp below 0 near
    gamma = 0.
    """
    pts = _as_points(constellation)
    if not (gamma >= 0):
        raise ValueError("gamma must be a nonnegative linear SNR")
    m = len(pts)
    if math.isinf(gamma):
        return math.log2(m)
    d = math.sqrt(gamma) * (pts[:, None] - pts[None, :])
    # With v = x_i + j x_k the summand exp(-|d|^2 - 2 Re(conj(v) d)) splits
    # into exp(x_i^2 - (x_i + Re d)^2) exp(x_k^2 - (x_k + Im d)^2), so the
    # inner sums at all n^2 nodes are one matrix product per symbol b.
    # Each factor is at most exp(x_max^2) and the b' = b term is exactly 1,
    # so nothing overflows and the logarithm's argument is >= 1.
    x = _GH_NODES[None, :, None]
    re = np.exp(x ** 2 - (x + d.real[:, None, :]) ** 2)
    im = np.exp(x ** 2 - (x + d.imag[:, None, :]) ** 2)
    inner = np.log(re @ im.transpose(0, 2, 1))
    mean_log = float(np.einsum("i,bik,k->", _GH_WEIGHTS, inner, _GH_WEIGHTS)) / m
    return max(0.0, math.log2(m) - mean_log * _LOG2E)


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
