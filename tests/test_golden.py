"""CLI output against committed golden files, byte for byte.

Only the ``# generated`` timestamp line is dropped before comparing.  A
change that is meant to move a number regenerates a file by running the
case's argv with ``--output tests/golden/<name>.csv`` and says why.
"""
import csv
from pathlib import Path
import re

from cdmacal.cli import main

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
