"""Config parsing, sweep orchestration, and CSV reproducibility."""
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

import cdmacal as cc
from cdmacal.experiment import CSV_COLUMNS, evaluate_point, metadata_lines

from oracles import violation_bound_oracle

BASE = """
snr_avg_db = 6        # average received SNR
alpha = 0.5
f_m_hz = 20
epsilon = 1e-2
d_guarantee_slots = 100
seed = 99
"""


def _strip_timestamp(text):
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# generated"))


def test_parse_basic_keys():
    spec = cc.parse_config(BASE)
    assert spec.system.snr_avg_db == 6.0
    assert spec.system.alpha == 0.5
    assert spec.epsilon == 0.01
    assert spec.d_guarantee_slots == 100
    assert spec.seed == 99
    assert spec.sweep_values() == [None]


def test_parse_reports_unknown_key_with_line_number():
    with pytest.raises(cc.ConfigError, match="line 3.*snr_db"):
        cc.parse_config("snr_avg_db = 6\nalpha = 0.5\nsnr_db = 4\n")


def test_parse_reports_bad_value():
    with pytest.raises(cc.ConfigError, match="line 1.*alpha"):
        cc.parse_config("alpha = fast\nsnr_avg_db = 6\nf_m_hz = 20\n")
    with pytest.raises(cc.ConfigError, match="line 2"):
        cc.parse_config("snr_avg_db = 6\nvalidate = maybe\n")


def test_parse_requires_core_keys():
    with pytest.raises(cc.ConfigError, match="f_m_hz"):
        cc.parse_config("snr_avg_db = 6\nalpha = 0.5\n")


def test_parse_modes_section():
    text = BASE + """
modes:
  0 bpsk 0.0 -inf
  1 bpsk 0.5 -2.8
  2 qpsk 1.0 0.19
"""
    spec = cc.parse_config(text)
    assert len(spec.system.modes) == 3
    assert spec.system.modes[2].label == "qpsk"
    assert spec.system.modes[1].threshold_db == -2.8


def test_parse_modes_section_rejects_malformed_rows():
    with pytest.raises(cc.ConfigError, match="mode row"):
        cc.parse_config(BASE + "modes:\n  0 bpsk 0.0\n")
    with pytest.raises(cc.ConfigError, match="must be the outage mode"):
        cc.parse_config(BASE + "modes:\n  0 bpsk 0.5 -inf\n  1 qpsk 1.0 0.19\n")


def test_parse_rejects_free_text():
    with pytest.raises(cc.ConfigError, match="line 1"):
        cc.parse_config("hello world\n")


def test_overrides_win_over_file():
    spec = cc.parse_config(BASE, overrides={"epsilon": 0.05, "seed": None})
    assert spec.epsilon == 0.05
    assert spec.seed == 99          # None override is ignored


def test_sweep_value_generation():
    spec = cc.parse_config(BASE + "sweep_axis = delay_guarantee\n"
                           "sweep_start = 20\nsweep_stop = 100\nsweep_step = 40\n")
    assert spec.sweep_values() == [20, 60, 100]
    spec = cc.parse_config(BASE + "sweep_axis = epsilon\n"
                           "sweep_start = 0.001\nsweep_stop = 0.003\n"
                           "sweep_step = 0.001\n")
    vals = spec.sweep_values()
    assert len(vals) == 3
    assert vals[-1] == pytest.approx(0.003)


def test_sweep_validation():
    with pytest.raises(cc.ConfigError, match="sweep_axis"):
        cc.parse_config(BASE + "sweep_axis = doppler\nsweep_start = 1\n"
                        "sweep_stop = 2\nsweep_step = 1\n")
    with pytest.raises(cc.ConfigError, match="sweep_step"):
        cc.parse_config(BASE + "sweep_axis = epsilon\nsweep_start = 1e-3\n"
                        "sweep_stop = 1e-2\nsweep_step = -1\n")
    with pytest.raises(cc.ConfigError, match="required"):
        cc.parse_config(BASE + "sweep_axis = epsilon\nsweep_start = 1e-3\n")
    # every sweep value passes the per-point checks before any point runs
    with pytest.raises(cc.ConfigError, match="sweep f_m_hz = -10: f_m_hz"):
        cc.parse_config(BASE + "sweep_axis = f_m_hz\nsweep_start = -10\n"
                        "sweep_stop = 10\nsweep_step = 10\n")
    with pytest.raises(cc.ConfigError, match="sweep epsilon = 1: epsilon"):
        cc.parse_config(BASE + "sweep_axis = epsilon\nsweep_start = 0.5\n"
                        "sweep_stop = 1\nsweep_step = 0.5\n")
    # NaN means unset; an infinite bound is refused by name
    for key in ("sweep_start", "sweep_stop", "sweep_step"):
        for bad in ("inf", "-inf"):
            bounds = {"sweep_start": "0.01", "sweep_stop": "0.02",
                      "sweep_step": "0.01", key: bad}
            with pytest.raises(cc.ConfigError, match="%s must be finite" % key):
                cc.parse_config(BASE + "sweep_axis = epsilon\n" + "".join(
                    "%s = %s\n" % kv for kv in bounds.items()))


def test_spec_validation_bounds():
    with pytest.raises(cc.ConfigError):
        cc.parse_config("snr_avg_db = 6\nalpha = 0.5\nf_m_hz = 20\nepsilon = 2\n")
    for tau in (0, 1.5, math.nan, math.inf):
        with pytest.raises(cc.ConfigError, match="tau_slots must be a whole number"):
            cc.build_spec({"snr_avg_db": 6.0, "alpha": 0.5, "f_m_hz": 20.0,
                           "tau_slots": tau})
    for res in ("0", "-1e-3", "inf", "nan"):
        with pytest.raises(cc.ConfigError, match="resolution_blocks"):
            cc.parse_config(BASE + "resolution_blocks = %s\n" % res)
    # SeedSequence refuses a negative entropy; the spec names it first
    with pytest.raises(cc.ConfigError, match="seed must be nonnegative"):
        cc.parse_config(BASE + "seed = -1\n")
    with pytest.raises(cc.ConfigError, match="seed"):
        cc.build_spec({"snr_avg_db": 6.0, "alpha": 0.5, "f_m_hz": 20.0,
                       "seed": -1})
    # counts that are not whole are refused up front, not mid-run
    bad_counts = {"seed": (1.5, math.nan),
                  "validate_slots": (2.5, math.inf),
                  "d_guarantee_slots": (1.5, math.inf, math.nan)}
    for key, values in bad_counts.items():
        for bad in values:
            with pytest.raises(cc.ConfigError,
                               match="%s must be a whole number" % key):
                cc.build_spec({"snr_avg_db": 6.0, "alpha": 0.5,
                               "f_m_hz": 20.0, key: bad})
    # a whole float seed is kept as the int SeedSequence needs
    seed = cc.build_spec({"snr_avg_db": 6.0, "alpha": 0.5, "f_m_hz": 20.0,
                          "seed": 7.0}).seed
    assert seed == 7 and type(seed) is int
    # keys of the former truncated bound are refused as unknown, by name
    for key in ("horizon_slots", "theta_min", "theta_max", "theta_points"):
        with pytest.raises(cc.ConfigError, match=r"line \d+: unknown key '%s'"
                           % key):
            cc.parse_config(BASE + "%s = 1\n" % key)
        with pytest.raises(cc.ConfigError, match="unknown key '%s'" % key):
            cc.build_spec({"snr_avg_db": 6.0, "alpha": 0.5, "f_m_hz": 20.0,
                           key: 1})


def test_build_spec_refuses_unknown_key_by_name():
    with pytest.raises(cc.ConfigError, match="unknown key 'snr_db'"):
        cc.build_spec({"snr_avg_db": 6.0, "alpha": 0.5, "f_m_hz": 20.0,
                       "snr_db": 4.0})


def test_single_point_run_row_contents(ref_model):
    spec = cc.parse_config(BASE)
    rows = cc.run_experiment(spec)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == set(CSV_COLUMNS)
    assert row["axis"] == "none"
    assert row["throughput_blocks"] == pytest.approx(1.676, abs=5e-3)
    assert row["delay_bound_slots"] <= 100
    # the oracle sum re-verifies the certificate (d, theta*) at that rate
    lam, d = row["throughput_blocks"], int(row["delay_bound_slots"])
    _, upper = violation_bound_oracle(ref_model.pi, ref_model.transition,
                                      ref_model.rates_blocks, lam, 1,
                                      row["theta_star"], d, 4000)
    assert upper <= math.log(1e-2)
    assert row["bound_valid"] is True
    assert row["error"] == ""
    assert row["throughput_bps"] == pytest.approx(
        0.5 * row["throughput_blocks"] * 10_000 / 2e-3)


def test_guarantee_sweep_keeps_one_channel():
    spec = cc.parse_config(BASE + "sweep_axis = delay_guarantee\n"
                           "sweep_start = 50\nsweep_stop = 150\nsweep_step = 50\n")
    rows = cc.run_experiment(spec)
    assert [r["axis_value"] for r in rows] == [50, 100, 150]
    lam = [r["throughput_blocks"] for r in rows]
    assert lam[0] <= lam[1] <= lam[2]
    assert len({r["beta"] for r in rows}) == 1


def test_csv_identical_across_runs_up_to_timestamp():
    spec = cc.parse_config(BASE + "validate = true\nvalidate_slots = 20000\n")
    a = cc.render_csv(spec, cc.run_experiment(spec))
    b = cc.render_csv(spec, cc.run_experiment(spec))
    assert _strip_timestamp(a) == _strip_timestamp(b)
    assert a.splitlines()[1].startswith("# generated")


def test_csv_layout_and_metadata():
    spec = cc.parse_config(BASE)
    text = cc.render_csv(spec, cc.run_experiment(spec))
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == ",".join(CSV_COLUMNS)
    assert len(body) == 2
    assert any("throughput_bps = alpha * throughput_blocks" in l for l in meta)
    assert any(l.startswith("# mode 6 = 64-qam") for l in meta)
    assert any(l == "# seed = 99" for l in meta)
    # every body field parses as text, number, inf, or empty
    for field in body[1].split(","):
        assert "," not in field


def test_validation_columns_populated():
    spec = cc.parse_config(BASE + "validate = true\nvalidate_slots = 20000\n")
    row = cc.run_experiment(spec)[0]
    assert row["sim_epochs"] == 20000
    assert 0.0 <= row["sim_violation_freq"] <= 1.0
    assert row["sim_violation_se"] >= 0.0


def test_point_error_is_reported_not_raised():
    spec = cc.parse_config(BASE.replace("f_m_hz = 20", "f_m_hz = 2000"))
    rows = cc.run_experiment(spec)
    assert rows[0]["error"] != ""
    assert rows[0]["throughput_blocks"] == ""


def test_run_experiment_rows_match_evaluate_point():
    # the one run path: each row is evaluate_point at its child seed, a point
    # run's at the first child; at epsilon 0.3 the simulated violation
    # frequencies tell the seeds apart
    runs = (("sweep_axis = delay_guarantee\nsweep_start = 10\n"
             "sweep_stop = 20\nsweep_step = 10\n", [10, 20]),
            ("d_guarantee_slots = 10\ntau_slots = 5\nseed = 7\n", [None]))
    for extra, values in runs:
        spec = cc.parse_config(BASE + "epsilon = 0.3\nvalidate = true\n"
                               "validate_slots = 20000\n" + extra)
        children = np.random.SeedSequence(spec.seed).spawn(len(values))
        rows = cc.run_experiment(spec)
        assert rows == [evaluate_point(spec, v, c)
                        for v, c in zip(values, children)]
        assert all(r["sim_violation_freq"] > 0 for r in rows)


def test_metadata_lists_sweep_block():
    spec = cc.parse_config(BASE + "sweep_axis = epsilon\nsweep_start = 1e-3\n"
                           "sweep_stop = 1e-2\nsweep_step = 1e-3\n")
    meta = metadata_lines(spec)
    assert any("sweep_axis = epsilon" in l for l in meta)
    assert any("sweep_step = 0.001" in l for l in meta)


def test_workers_do_not_change_results():
    spec = cc.parse_config(BASE + "sweep_axis = delay_guarantee\n"
                           "sweep_start = 60\nsweep_stop = 120\nsweep_step = 60\n")
    seq = cc.run_experiment(spec, workers=1)
    par = cc.run_experiment(spec, workers=2)
    assert seq == par


def test_workers_below_one_are_refused():
    spec = cc.parse_config(BASE)
    for workers in (0, -3):
        with pytest.raises(cc.ConfigError, match="workers"):
            cc.run_experiment(spec, workers=workers)


def test_worker_pool_capped_at_the_point_count(monkeypatch):
    # a stand-in executor records the pool size and maps in this process,
    # so no worker process is started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    spec = cc.parse_config(BASE + "sweep_axis = delay_guarantee\n"
                           "sweep_start = 60\nsweep_stop = 120\nsweep_step = 60\n")
    rows = cc.run_experiment(spec, workers=64)
    assert sizes == [2]
    assert rows == cc.run_experiment(spec, workers=1)


def test_cli_import_loads_no_multiprocessing():
    # the worker pool is imported only when a run starts one
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cdmacal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
