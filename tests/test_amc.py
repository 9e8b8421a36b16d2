"""Adaptive modulation checks.

The per-axis Gauss-Hermite capacity is validated against two oracles in
``tests/oracles.py``: an independent one-dimensional adaptive quadrature
(BPSK is 2-PAM, and a square QAM is two PAMs at half the SNR,
C_QAM(g) = 2 C_PAM(g/2)), and the two-dimensional product Gauss-Hermite
rule over the complex points, which the per-axis rule reproduces to
rounding.  Mode selection is checked against a linear scan.
"""
import math

import numpy as np
import pytest

import cdmacal as cc
from cdmacal.amc import Mode, ModeTable

from oracles import (constellation_capacity_product_rule,
                     constellation_capacity_quadrature, constellation_points)

TABLE_ROWS = [
    (0, "bpsk", 0.0, -math.inf),
    (1, "bpsk", 0.5, -2.80),
    (2, "qpsk", 1.0, 0.19),
    (3, "qpsk", 1.5, 3.39),
    (4, "16-qam", 2.25, 6.20),
    (5, "16-qam", 3.0, 9.30),
    (6, "64-qam", 4.5, 14.37),
]


NAMES = ("bpsk", "qpsk", "16-qam", "64-qam")


def test_constellations_are_normalized():
    # the product-rule oracle's point sets: unit energy, all points distinct
    for name, size in zip(NAMES, (2, 4, 16, 64)):
        pts = constellation_points(name)
        assert len(pts) == size
        assert len(np.unique(np.round(pts, 12))) == size
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_capacity_matches_product_rule_oracle():
    # one 1-D rule per PAM axis is the 2-D product rule over the complex
    # points, term for term, so the two agree to rounding
    worst = 0.0
    for name in NAMES:
        pts = constellation_points(name)
        for db in np.arange(-10.0, 30.5, 1.0):
            g = 10 ** (db / 10)
            worst = max(worst, abs(cc.constellation_capacity(name, g)
                                   - constellation_capacity_product_rule(pts, g)))
    assert worst <= 1e-13


def test_unknown_constellation_is_refused_by_name():
    rows = list(TABLE_ROWS)
    for label in ("8-psk", ""):
        rows[1] = (1, label, 0.5, -2.80)
        with pytest.raises(cc.ConfigError, match="unknown constellation"):
            ModeTable.from_rows(rows)
        modes = list(cc.default_mode_table())
        modes[1] = Mode(1, label, 0.5, -2.80)
        with pytest.raises(cc.ConfigError, match="unknown constellation"):
            ModeTable(modes)
        with pytest.raises(cc.ConfigError, match="unknown constellation"):
            cc.constellation_capacity(label, 1.0)
    for bad in (constellation_points("qpsk"), 4, None):
        with pytest.raises(cc.ConfigError, match="name or a Mode"):
            cc.constellation_capacity(bad, 1.0)


def test_labels_ignore_case_dashes_and_underscores():
    for label, name in (("QPSK", "qpsk"), ("16_QAM", "16-qam"),
                        ("64qam", "64-qam"), ("Bpsk", "bpsk")):
        for g in (0.5, 4.0, 40.0):
            assert (cc.constellation_capacity(label, g)
                    == cc.constellation_capacity(name, g))
    rows = list(TABLE_ROWS)
    rows[4] = (4, "16_QAM", 2.25, 6.20)
    table = ModeTable.from_rows(rows)
    assert table[4].label == "16_QAM"
    assert (cc.constellation_capacity(table[4], 3.0)
            == cc.constellation_capacity("16-qam", 3.0))


def test_capacity_zero_snr_is_zero_within_error():
    for name in NAMES:
        c = cc.constellation_capacity(name, 0.0)
        assert isinstance(c, float)
        assert 0.0 <= c <= 1e-12


def test_capacity_saturates_at_infinite_snr():
    assert cc.constellation_capacity("16-qam", math.inf) == 4.0
    for name, bits in (("bpsk", 1.0), ("qpsk", 2.0), ("16-qam", 4.0),
                       ("64-qam", 6.0)):
        assert cc.constellation_capacity(name, 1e9) == bits


@pytest.mark.parametrize("gamma", [0.05, 0.525, 2.0, 9.0])
def test_bpsk_capacity_matches_quadrature(gamma):
    got = cc.constellation_capacity("bpsk", gamma)
    assert got == pytest.approx(constellation_capacity_quadrature("bpsk", gamma),
                                abs=1e-5)


def test_default_constellations_match_quadrature_across_brackets():
    # Every default mode over its +-8 dB threshold bracket; the worst point
    # of the order-64 rule is 64-QAM at 22.37 dB (about 5.4e-6 bps/Hz).
    worst = 0.0
    for mode in cc.default_mode_table().modes[1:]:
        for db in mode.threshold_db + np.arange(-8.0, 8.5, 2.0):
            g = 10 ** (db / 10)
            err = abs(cc.constellation_capacity(mode, g)
                      - constellation_capacity_quadrature(mode.label, g))
            worst = max(worst, err)
    assert worst <= 1e-5


def test_bpsk_rate_half_near_published_switching_point():
    gamma = 10 ** (-2.80 / 10)
    assert cc.constellation_capacity("bpsk", gamma) == pytest.approx(0.5, abs=0.01)


def test_capacity_monotone_in_snr():
    grid = 10 ** (np.linspace(-15.0, 35.0, 201) / 10)
    for name in ("qpsk", "16-qam", "64-qam"):
        vals = [cc.constellation_capacity(name, g) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:])), name


def test_capacity_rejects_bad_gamma():
    with pytest.raises(ValueError):
        cc.constellation_capacity("bpsk", -0.5)
    with pytest.raises(ValueError):
        cc.constellation_capacity("bpsk", math.nan)


def test_default_table_matches_reference_rows():
    table = cc.default_mode_table()
    got = [(m.index, m.label, m.rate_bps_hz, m.threshold_db)
           for m in table.modes]
    assert got == TABLE_ROWS


def test_table_validation_rejects_malformed_rows():
    rows = [list(r) for r in TABLE_ROWS]
    bad_rate = [tuple(r) for r in rows]
    bad_rate[3] = (3, "qpsk", 0.9, 3.39)        # rate not increasing
    with pytest.raises(ValueError):
        ModeTable.from_rows(bad_rate)
    bad_thr = [tuple(r) for r in rows]
    bad_thr[4] = (4, "16-qam", 2.25, 1.0)       # threshold not increasing
    with pytest.raises(ValueError):
        ModeTable.from_rows(bad_thr)
    bad_idx = [tuple(r) for r in rows]
    bad_idx[2] = (5, "qpsk", 1.0, 0.19)         # index gap
    with pytest.raises(ValueError):
        ModeTable.from_rows(bad_idx)
    bad_outage = [tuple(r) for r in rows]
    bad_outage[0] = (0, "bpsk", 0.25, -math.inf)
    with pytest.raises(ValueError):
        ModeTable.from_rows(bad_outage)
    # an infinite rate gives an infinite capacity limit, and a mode above an
    # infinite threshold is never used
    for row in ((1, "bpsk", math.inf, 3.0), (1, "bpsk", 0.5, math.inf)):
        with pytest.raises(cc.ConfigError, match="mode 1 needs a finite"):
            ModeTable.from_rows([TABLE_ROWS[0], row])
    with pytest.raises(cc.ConfigError, match="mode 6 needs a finite"):
        ModeTable.from_rows([*TABLE_ROWS[:-1], (6, "64-qam", 4.5, math.inf)])


def test_mode_is_immutable():
    table = cc.default_mode_table()
    with pytest.raises(Exception):
        table.modes[1].rate_bps_hz = 9.0
    assert not table.rates_bps_hz.flags.writeable


def test_verify_thresholds_smoke_loose_budget():
    checks = cc.verify_thresholds(cc.default_mode_table(), tol_db=0.5)
    assert len(checks) == 6
    assert all(c.solvable for c in checks)
    assert all(abs(c.error_db) < 0.5 for c in checks)
    assert checks == cc.verify_thresholds(cc.default_mode_table(), tol_db=0.5)


def test_verify_thresholds_rejects_bad_tolerance():
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(cc.ConfigError, match="tol_db"):
            cc.verify_thresholds(cc.default_mode_table(), tol_db=tol)
