"""Command-line interface.

Verbs:
  solve       one throughput point
  sweep       throughput along one configured axis
  validate    one point plus a Monte Carlo delay-violation check
  thresholds  re-estimate mode switching thresholds from capacity

Exit codes: 0 success, 1 usage, configuration or runtime error, 2 a
--strict check failed (invalid bound, failed simulation check, threshold
mismatch).
"""
import argparse
import sys

from .amc import verify_thresholds
from .errors import ConfigError, SlowFadingViolation
from .experiment import KEYS, parse_config, render_csv, run_experiment, _fmt

# A run parameter's flag is its key with dashes, except for these.
_SHORT_FLAGS = {"d_guarantee_slots": "--d-guarantee",
                "resolution_blocks": "--resolution", "tau_slots": "--tau"}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1); subparsers share the class."""

    def error(self, message):
        raise ConfigError("%s: %s" % (self.prog, message))


def _add_common(p, sweep=False):
    p.add_argument("--config", help="path to a key = value config file")
    for key, typ in KEYS.items():
        # validate comes from the verb; only sweep sweeps
        if key != "validate" and (sweep or not key.startswith("sweep_")):
            p.add_argument(_SHORT_FLAGS.get(key, "--" + key.replace("_", "-")),
                           dest=key, type=typ, help="overrides config key " + key)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if any bound is invalid or a check fails")


def _read_config(path):
    """The text of the config file at path, or "" when path is unset."""
    if not path:
        return ""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError("%s is not UTF-8 text (%s)" % (path, exc.reason)) from None


def _build_spec(args):
    # a verb lacks the flags of some keys; None marks a key left unset
    overrides = {k: getattr(args, k, None) for k in KEYS}
    overrides.update(args.extra)
    return parse_config(_read_config(args.config), overrides=overrides)


def _write(text, dest):
    """Write text to the file dest, or to stdout when dest is empty."""
    if dest:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _strict_bad(row):
    if row["error"]:
        return True
    if row["bound_valid"] is False or row["bound_unstable"] is True:
        return True
    freq, se = row["sim_violation_freq"], row["sim_violation_se"]
    if freq != "" and freq > row["epsilon"] + 3 * se:
        return True
    return False


def _run_points(args):
    spec = _build_spec(args)
    if args.verb == "sweep" and not spec.sweep_axis:
        raise ConfigError("sweep requires sweep_axis (config key or --sweep-axis)")
    rows = run_experiment(spec, workers=args.workers)
    _write(render_csv(spec, rows), spec.output)
    if args.strict and any(_strict_bad(r) for r in rows):
        return 2
    return 0


def _cmd_thresholds(args):
    spec = parse_config(_read_config(args.config),
                        overrides={"snr_avg_db": 0.0, "alpha": 0.5, "f_m_hz": 1.0})
    checks = verify_thresholds(spec.system.modes, tol_db=args.tol_db)
    lines = ["# tol_db = %s" % _fmt(args.tol_db),
             "mode,label,rate_bits_per_symbol,table_threshold_db,"
             "estimated_threshold_db,error_db,solvable,within_tol"]
    for c in checks:
        lines.append(",".join(_fmt(x) for x in (
            c.mode_index, c.label, c.rate_bps_hz, c.table_db, c.solved_db,
            c.error_db, c.solvable, c.within_tol)))
    _write("\n".join(lines) + "\n", args.output)
    if args.strict and any(not (c.solvable and c.within_tol) for c in checks):
        return 2
    return 0


def build_parser():
    parser = _Parser(
        prog="cdmacal",
        description="Delay-constrained throughput of a randomly spread "
                    "CDMA uplink with linear MMSE detection and adaptive "
                    "modulation/coding.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="compute one throughput point")
    _add_common(p)
    p.set_defaults(func=_run_points, extra={"sweep_axis": ""})

    p = sub.add_parser("sweep", help="compute throughput along one axis")
    _add_common(p, sweep=True)
    p.set_defaults(func=_run_points, extra={})

    p = sub.add_parser("validate",
                       help="solve one point and check it by simulation")
    _add_common(p)
    p.set_defaults(func=_run_points, extra={"sweep_axis": "", "validate": True})

    p = sub.add_parser("thresholds",
                       help="check mode thresholds against the capacity")
    p.add_argument("--config", help="config file supplying a modes: section")
    p.add_argument("--tol-db", type=float, default=0.3)
    p.add_argument("--seed", type=int,
                   help="accepted for compatibility; has no effect (the "
                        "capacity is an exact quadrature)")
    p.add_argument("--output")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_thresholds)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 1
    except SlowFadingViolation as exc:
        print("model error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
