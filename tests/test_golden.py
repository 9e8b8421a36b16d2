"""CLI output against committed golden files, byte for byte.

Only the ``# generated`` timestamp line is dropped before comparing.  A
change that is meant to move a number regenerates a file by running the
case's argv with ``--output tests/golden/<name>.csv`` and says why.
"""
import csv
from dataclasses import replace
import math
from pathlib import Path
import re

import cdmacal as cc
from cdmacal.cli import main
from cdmacal.experiment import KEYS

from oracles import constellation_capacity_quadrature, log_violation_bound_mp

GOLDEN = Path(__file__).parent / "golden"
POINT_ARGS = ["--snr-avg-db", "6", "--alpha", "0.5", "--f-m-hz", "20"]
CASES = {
    "solve": ["solve", *POINT_ARGS],
    "validate": ["validate", *POINT_ARGS, "--tau", "5",
                 "--validate-slots", "20000", "--seed", "7"],
    # a loose guarantee that the simulated queue does violate, over more
    # slots than one queue chunk, so a moved chain path shows in the bytes
    "validate_violations": ["validate", *POINT_ARGS, "--epsilon", "0.3",
                            "--d-guarantee", "10", "--tau", "5",
                            "--validate-slots", "70000", "--seed", "7"],
    "sweep_alpha": ["sweep", *POINT_ARGS, "--sweep-axis", "alpha",
                    "--sweep-start", "0.5", "--sweep-stop", "1.0",
                    "--sweep-step", "0.5"],
    "thresholds": ["thresholds"],
    # an infeasible point (d 1), a delay far below its guarantee (89228 of
    # 100001 slots, the point above refused only as unstable) and a rate
    # near the stability limit
    "sweep_guarantee_tau3": ["sweep", *POINT_ARGS, "--tau", "3",
                             "--sweep-axis", "delay_guarantee",
                             "--sweep-start", "1", "--sweep-stop", "200001",
                             "--sweep-step", "100000"],
    # 13 modes: a state-by-cell index overflows uint8, the chain's words
    # are two draws long, and the run spans more than one queue chunk
    "validate_many_modes": ["validate", "--config",
                            str(GOLDEN / "validate_many_modes.conf")],
}


def _untimed(data):
    return re.sub(rb"(?m)^# generated [^\n]*\n", b"", data)


def test_cli_output_matches_golden_files(tmp_path):
    for name, argv in CASES.items():
        out = tmp_path / (name + ".csv")
        assert main([*argv, "--output", str(out)]) == 0, name
        want = (GOLDEN / (name + ".csv")).read_bytes()
        assert _untimed(out.read_bytes()) == _untimed(want), name


def _body(text):
    return next(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))


def _golden_rows(name):
    """(spec, rows) of a golden CSV; the spec comes from the case's config
    file or else from the metadata header's key = value lines."""
    text = (GOLDEN / (name + ".csv")).read_text()
    conf = GOLDEN / (name + ".conf")
    meta = "\n".join(m.group(1) for m in re.finditer(r"(?m)^# (\w+ = .*)$", text)
                     if m.group(1).split()[0] in KEYS)
    spec = cc.parse_config(conf.read_text() if conf.exists() else meta)
    rows = csv.DictReader(line for line in text.splitlines()
                          if not line.startswith("#"))
    return spec, list(rows)


def test_golden_certificates_hold_at_50_digits():
    # every printed (d, theta*) certifies its row's rate: ln F <= ln epsilon
    # by the closed form evaluated in 50-digit arithmetic, both on the float
    # P and on the stochastic chain it rounds (P_ii = 1 - sum_{j != i} P_ij)
    checked = 0
    for name in CASES:
        if name == "thresholds":
            continue
        spec, rows = _golden_rows(name)
        for row in rows:
            d = float(row["delay_bound_slots"])
            if not math.isfinite(d):
                continue
            cfg = replace(spec.system, **{k: float(row[k]) for k in
                                          ("snr_avg_db", "alpha", "f_m_hz")})
            model = cc.build_fsmc(cfg, cc.solve_fixed_point(cfg))
            k = round(float(row["throughput_blocks"]) / spec.resolution_blocks)
            delta = k * spec.resolution_blocks * spec.tau_slots
            for stochastic in (False, True):
                log_f = log_violation_bound_mp(
                    model.pi, model.transition, model.rates_blocks, delta,
                    spec.tau_slots, float(row["theta_star"]), int(d),
                    stochastic=stochastic)
                assert log_f <= math.log(float(row["epsilon"])), (name, row,
                                                                  stochastic)
            checked += 1
    assert checked == 9


def test_golden_thresholds_hold_to_the_capacity_oracle():
    # at every printed switch point the one-dimensional adaptive quadrature
    # of the PAM sums reads the mode's rate, to acceptance 2's bound
    text = (GOLDEN / "thresholds.csv").read_text()
    rows = list(csv.DictReader(line for line in text.splitlines()
                               if not line.startswith("#")))
    for row in rows:
        g = cc.db_to_linear(float(row["estimated_threshold_db"]))
        err = abs(constellation_capacity_quadrature(row["label"], g)
                  - float(row["rate_bits_per_symbol"]))
        assert err <= 1e-5, row
    assert len(rows) == 6


def test_validate_verdict_does_not_depend_on_the_block_unit(tmp_path):
    # w_hz and the rate lattice scaled by one power of two rescale every
    # rate and batch exactly: the certificate and the simulated queue must
    # read the same, and --strict must not refuse the row
    want = _body((GOLDEN / "validate_violations.csv").read_text())
    for k in (30, -40):
        out = tmp_path / ("k%d.csv" % k)
        argv = [*CASES["validate_violations"], "--strict",
                "--w-hz", repr(2e7 * 2.0 ** k),
                "--resolution", repr(1e-3 * 2.0 ** k), "--output", str(out)]
        assert main(argv) == 0, k
        got = _body(out.read_text())
        for col in ("sim_violation_freq", "sim_violation_se", "sim_epochs",
                    "delay_bound_slots"):
            assert got[col] == want[col], (k, col)


def test_validate_golden_case_has_violations():
    text = (GOLDEN / "validate_violations.csv").read_text()
    rows = csv.DictReader(line for line in text.splitlines()
                          if not line.startswith("#"))
    assert [float(r["sim_violation_freq"]) > 0 for r in rows] == [True]
