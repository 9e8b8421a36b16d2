"""Command-line verbs, exit codes, and strict-mode behavior."""
from pathlib import Path
import re

import numpy as np
import pytest

from cdmacal import cli
from cdmacal.cli import _build_spec, build_parser, main
from cdmacal.experiment import KEYS

GOLDEN = Path(__file__).parent / "golden"
POINT_ARGS = ["--snr-avg-db", "6", "--alpha", "0.5", "--f-m-hz", "20"]


def _read(path):
    return path.read_text(encoding="utf-8")


def _matches_golden(path, name):
    """Whether the file at path holds the bytes of golden file name, apart
    from the ``# generated`` timestamp line."""
    untimed = lambda data: re.sub(rb"(?m)^# generated [^\n]*\n", b"", data)
    return untimed(path.read_bytes()) == untimed((GOLDEN / name).read_bytes())


def test_main_builds_its_parser_once(monkeypatch):
    builds = []

    def counted_build():
        builds.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._shared_parser.cache_clear()
    assert main(["thresholds", "--bogus"]) == 1
    assert main(["thresholds"]) == 0
    assert len(builds) == 1


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_a_verb_leaves_nothing_for_the_next_call(tmp_path):
    # the shared parser's per-verb defaults are only read: a validate or an
    # alpha sweep before solve leaves solve's bytes as they are alone, with
    # empty sim_* columns
    before = (["validate", *POINT_ARGS, "--validate-slots", "2000", "--seed", "7"],
              ["sweep", *POINT_ARGS, "--sweep-axis", "alpha", "--sweep-start",
               "0.5", "--sweep-stop", "1.0", "--sweep-step", "0.5"])
    for i, argv in enumerate(before):
        assert main([*argv, "--output", str(tmp_path / "first.csv")]) == 0
        out = tmp_path / ("solve%d.csv" % i)
        assert main(["solve", *POINT_ARGS, "--output", str(out)]) == 0
        assert _matches_golden(out, "solve.csv"), argv[0]
        header, row = [l for l in _read(out).splitlines() if not l.startswith("#")]
        fields = dict(zip(header.split(","), row.split(",")))
        sim = [k for k in fields if k.startswith("sim_")]
        assert sim and all(fields[k] == "" for k in sim), fields


def test_a_usage_error_leaves_the_next_call_intact(tmp_path):
    assert main(["thresholds", "--bogus"]) == 1
    out = tmp_path / "thresholds.csv"
    assert main(["thresholds", "--output", str(out)]) == 0
    assert _matches_golden(out, "thresholds.csv")


def test_solve_writes_csv(tmp_path, capsys):
    out = tmp_path / "point.csv"
    code = main(["solve", *POINT_ARGS, "--output", str(out)])
    assert code == 0
    text = _read(out)
    assert "throughput_blocks" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(body) == 2
    assert capsys.readouterr().out == ""


def test_solve_prints_to_stdout_by_default(capsys):
    code = main(["solve", *POINT_ARGS])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# tool = cdmacal")
    assert "axis,axis_value" in out


def test_solve_uses_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("snr_avg_db = 6\nalpha = 0.5\nf_m_hz = 20\n"
                       "d_guarantee_slots = 60\n", encoding="utf-8")
    out = tmp_path / "o.csv"
    code = main(["solve", "--config", str(cfgfile), "--output", str(out)])
    assert code == 0
    assert ",60," in _read(out).splitlines()[-1]


def test_snr_outside_the_float_domain_exits_one(capsys):
    # past about 3082 dB either way sigma^2 or 1/sigma^2 leaves the floats
    for snr in ("-4000", "3100", "4000"):
        assert main(["solve", *POINT_ARGS, "--snr-avg-db", snr]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: snr_avg_db must give finite "
                                "positive sigma^2 and 1/sigma^2\n")


def test_missing_required_key_exits_one(capsys):
    code = main(["solve", "--alpha", "0.5", "--f-m-hz", "20"])
    assert code == 1
    assert "snr_avg_db" in capsys.readouterr().err


def test_bad_config_file_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("snr_avg_db = 6\nbogus_key = 1\n", encoding="utf-8")
    code = main(["solve", "--config", str(cfgfile)])
    assert code == 1
    assert "bogus_key" in capsys.readouterr().err


def test_removed_flags_exit_one(capsys):
    # flags of the former truncated bound and sampled capacity are unknown
    for verb, flag in (("solve", "--horizon"), ("solve", "--theta-min"),
                       ("solve", "--theta-max"), ("solve", "--theta-points"),
                       ("thresholds", "--target-se")):
        args = [verb, *POINT_ARGS] if verb == "solve" else [verb]
        assert main([*args, flag, "10"]) == 1
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    # exit 2 is kept for a failed --strict check; --help still exits 0
    for argv, bad in ((["solve", "--snr-avg-db", "6", "--alpha", "x",
                        "--f-m-hz", "20"], "--alpha: invalid float value"),
                      (["solve", *POINT_ARGS, "--bogus"], "--bogus"),
                      (["thresholds", "--bogus"], "--bogus")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and bad in err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0


def test_sweep_values_out_of_range_exit_one(capsys):
    for axis, start, stop, step, bad in (
            ("epsilon", "0", "0.1", "0.05", "epsilon = 0"),
            ("delay_guarantee", "-20", "20", "20", "delay_guarantee = -20"),
            ("delay_guarantee", "60.5", "141", "40", "delay_guarantee = 60.5: "
             "d_guarantee_slots must be a whole number"),
            ("delay_guarantee", "60", "61", "0.4", "delay_guarantee = 60.4: "),
            ("alpha", "-0.5", "0.5", "0.5", "alpha = -0.5")):
        code = main(["sweep", *POINT_ARGS, "--sweep-axis", axis,
                     "--sweep-start", start, "--sweep-stop", stop,
                     "--sweep-step", step])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and bad in err


def test_negative_seed_exits_one(tmp_path, capsys):
    for verb in ("solve", "sweep", "validate"):
        code = main([verb, *POINT_ARGS, "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: seed")
    cfgfile = tmp_path / "seed.cfg"
    cfgfile.write_text("snr_avg_db = 6\nalpha = 0.5\nf_m_hz = 20\nseed = -1\n",
                       encoding="utf-8")
    assert main(["solve", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err.startswith("config error: seed")


def test_workers_below_one_exit_one(capsys):
    for workers in ("0", "-3"):
        code = main(["solve", *POINT_ARGS, "--workers", workers])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: workers")


def test_thresholds_config_with_unknown_constellation_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "modes.cfg"
    cfgfile.write_text("modes:\n0 bpsk 0 -inf\n1 8-psk 0.5 -2.8\n",
                       encoding="utf-8")
    assert main(["thresholds", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown constellation '8-psk'" in err


def test_config_file_not_utf8_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "bin.cfg"
    cfgfile.write_bytes(b"snr_avg_db = 6\n\xff\xfe\n")
    for verb in ("solve", "thresholds"):
        assert main([verb, "--config", str(cfgfile)]) == 1, verb
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(cfgfile) in err, verb
        assert err.count("\n") == 1 and "Traceback" not in err, verb


def test_infinite_mode_rate_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "modes.cfg"
    cfgfile.write_text("snr_avg_db = 6\nalpha = 0.5\nf_m_hz = 20\n"
                       "modes:\n0 bpsk 0 -inf\n1 bpsk inf 3.0\n", encoding="utf-8")
    for verb in ("solve", "thresholds"):
        assert main([verb, "--config", str(cfgfile)]) == 1, verb
        err = capsys.readouterr().err
        assert err.startswith("config error: mode 1") and "finite" in err, verb


def test_missing_config_file_exits_one(capsys):
    code = main(["solve", "--config", "/nonexistent/path.cfg"])
    assert code == 1
    assert "io error" in capsys.readouterr().err


def test_sweep_requires_axis(capsys):
    code = main(["sweep", *POINT_ARGS])
    assert code == 1
    assert "sweep_axis" in capsys.readouterr().err


def test_sweep_over_guarantee(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *POINT_ARGS, "--sweep-axis", "delay_guarantee",
                 "--sweep-start", "60", "--sweep-stop", "120",
                 "--sweep-step", "60", "--output", str(out)])
    assert code == 0
    body = [l for l in _read(out).splitlines() if not l.startswith("#")]
    assert len(body) == 3
    assert body[1].startswith("delay_guarantee,60,")
    assert body[2].startswith("delay_guarantee,120,")


def test_sweep_over_a_system_axis_takes_its_base_from_the_start(tmp_path):
    # the swept key needs no base value of its own: the header reports the
    # first point, also where a different base is given
    for extra in ([], ["--alpha", "0.5"]):
        out = tmp_path / "alpha.csv"
        code = main(["sweep", "--snr-avg-db", "6", "--f-m-hz", "20", *extra,
                     "--sweep-axis", "alpha", "--sweep-start", "0.25",
                     "--sweep-stop", "1.5", "--sweep-step", "0.25",
                     "--output", str(out)])
        assert code == 0, extra
        text = _read(out)
        assert "# alpha = 0.25\n" in text
        body = [l.split(",") for l in text.splitlines() if not l.startswith("#")]
        assert [row[3] for row in body[1:]] == ["0.25", "0.5", "0.75", "1",
                                                "1.25", "1.5"]


def test_strict_flags_model_violation(tmp_path, capsys):
    code = main(["solve", "--snr-avg-db", "6", "--alpha", "0.5",
                 "--f-m-hz", "2000", "--output", str(tmp_path / "x.csv")])
    assert code == 0                      # error is recorded in the row
    code = main(["solve", "--snr-avg-db", "6", "--alpha", "0.5",
                 "--f-m-hz", "2000", "--strict",
                 "--output", str(tmp_path / "y.csv")])
    assert code == 2


def test_tiny_load_points_exit_zero_with_a_row(capsys):
    # sigma^2 + alpha rounds to sigma^2 here, or the fixed point's residual
    # at sigma^2 + alpha rounds to <= 0: each point still solves
    for snr, alpha in (("6", "1e-20"), ("-400", "0.5"), ("-40", "5e-11")):
        code = main(["solve", "--snr-avg-db", snr, "--alpha", alpha,
                     "--f-m-hz", "20"])
        assert code == 0, (snr, alpha)
        header, row = [l for l in capsys.readouterr().out.splitlines()
                       if not l.startswith("#")]
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["alpha"] == alpha and fields["error"] == ""


def test_validate_verb_populates_sim_columns(tmp_path):
    out = tmp_path / "v.csv"
    code = main(["validate", *POINT_ARGS, "--validate-slots", "20000",
                 "--seed", "3", "--output", str(out)])
    assert code == 0
    header, row = [l for l in _read(out).splitlines() if not l.startswith("#")]
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["sim_epochs"] == "20000"
    assert float(fields["sim_violation_freq"]) <= 1.0


def test_thresholds_verb(tmp_path):
    out = tmp_path / "thr.csv"
    code = main(["thresholds", "--tol-db", "0.5", "--seed", "1009",
                 "--output", str(out)])
    assert code == 0
    lines = [l for l in _read(out).splitlines() if not l.startswith("#")]
    assert lines[0] == ("mode,label,rate_bits_per_symbol,table_threshold_db,"
                        "estimated_threshold_db,error_db,solvable,within_tol")
    assert len(lines) == 7                # header + six nonzero-rate modes
    assert all(l.split(",")[-1] == "true" for l in lines[1:])
    # exact quadrature: the seed has no effect and reruns are byte-identical
    again = tmp_path / "thr2.csv"
    assert main(["thresholds", "--tol-db", "0.5", "--seed", "7",
                 "--output", str(again)]) == 0
    assert _read(again) == _read(out)
    # a tolerance no mode can meet is refused, not reported as a mismatch
    assert main(["thresholds", "--tol-db", "-1"]) == 1


def test_thresholds_verb_honours_the_output_key(tmp_path, capsys):
    # as solve does: the config's output key, unless --output overrides it
    keyed, flag, cfgfile = (tmp_path / n for n in ("k.csv", "f.csv", "t.cfg"))
    cfgfile.write_text("output = %s\n" % keyed, encoding="utf-8")
    assert main(["thresholds", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["thresholds", "--config", str(cfgfile), "--output", str(flag)]) == 0
    assert _read(flag) == _read(keyed)
    assert main(["thresholds"]) == 0
    assert capsys.readouterr().out == _read(keyed)


def test_thresholds_strict_passes(tmp_path):
    code = main(["thresholds", "--tol-db", "1.0",
                 "--strict", "--output", str(tmp_path / "t.csv")])
    assert code == 0


def test_cli_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["validate", *POINT_ARGS, "--validate-slots", "20000", "--seed", "7"]
    assert main([*argv, "--output", str(a)]) == 0
    assert main([*argv, "--output", str(b)]) == 0
    strip = lambda p: [l for l in _read(p).splitlines()
                       if not l.startswith("# generated")]
    assert strip(a) == strip(b)


def test_nan_doppler_exits_one(capsys):
    code = main(["solve", "--snr-avg-db", "6", "--alpha", "0.5",
                 "--f-m-hz", "nan"])
    assert code == 1
    assert "f_m_hz" in capsys.readouterr().err


def test_non_finite_sweep_bounds_exit_one(capsys):
    for flag, name in (("--sweep-stop", "sweep_stop"),
                       ("--sweep-step", "sweep_step")):
        argv = dict([("--sweep-start", "0.01"), ("--sweep-stop", "0.02"),
                     ("--sweep-step", "0.01")])
        argv[flag] = "inf"
        code = main(["sweep", *POINT_ARGS, "--sweep-axis", "epsilon",
                     *[x for kv in argv.items() for x in kv]])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "config error: %s must be finite\n" % name


# One non-default value per run parameter, with the flag that sets it.
FLAG_VALUES = {
    "snr_avg_db": ("--snr-avg-db", "4"), "alpha": ("--alpha", "0.7"),
    "f_m_hz": ("--f-m-hz", "30"), "t_b_s": ("--t-b-s", "1e-3"),
    "w_hz": ("--w-hz", "1e7"), "n_b_bits": ("--n-b-bits", "5000"),
    "epsilon": ("--epsilon", "0.05"),
    "d_guarantee_slots": ("--d-guarantee", "40"),
    "resolution_blocks": ("--resolution", "0.01"), "tau_slots": ("--tau", "3"),
    "seed": ("--seed", "5"), "validate_slots": ("--validate-slots", "1000"),
    "sweep_axis": ("--sweep-axis", "alpha"),
    "sweep_start": ("--sweep-start", "0.005"),
    "sweep_stop": ("--sweep-stop", "0.03"), "sweep_step": ("--sweep-step", "0.005"),
    "output": ("--output", "elsewhere.csv"),
}
SWEEP_BASE = {"snr_avg_db": "6", "alpha": "0.5", "f_m_hz": "20",
              "sweep_axis": "epsilon", "sweep_start": "0.01",
              "sweep_stop": "0.02", "sweep_step": "0.01"}


def _params(spec):
    # every run parameter's value; ModeTable has no value equality
    return {k: getattr(spec.system if hasattr(spec.system, k) else spec, k)
            for k in KEYS}


def test_each_flag_sets_its_config_key(tmp_path):
    assert set(FLAG_VALUES) == set(KEYS) - {"validate"}
    parser = build_parser()
    cfgfile = tmp_path / "run.cfg"

    def spec(values, via_file):
        if via_file:
            cfgfile.write_text("".join("%s = %s\n" % kv for kv in values.items()),
                               encoding="utf-8")
            argv = ["--config", str(cfgfile)]
        else:
            argv = [x for k, v in values.items() for x in (FLAG_VALUES[k][0], v)]
        return _params(_build_spec(parser.parse_args(["sweep", *argv])))

    base = spec(SWEEP_BASE, via_file=True)
    for key, (_, value) in FLAG_VALUES.items():
        values = {**SWEEP_BASE, key: value}
        if key == "sweep_axis":
            values.update(sweep_start="0.3", sweep_stop="0.9", sweep_step="0.3")
        from_file = spec(values, via_file=True)
        assert from_file == spec(values, via_file=False), key
        assert from_file != base, key


def test_validate_verb_matches_validate_key(tmp_path):
    cfgfile = tmp_path / "v.cfg"
    cfgfile.write_text("snr_avg_db = 6\nalpha = 0.5\nf_m_hz = 20\n"
                       "validate = yes\n", encoding="utf-8")
    parser = build_parser()
    via_key = _params(_build_spec(parser.parse_args(["solve", "--config",
                                                     str(cfgfile)])))
    via_verb = _params(_build_spec(parser.parse_args(["validate", *POINT_ARGS])))
    assert via_key["validate"] is True
    assert via_key == via_verb
