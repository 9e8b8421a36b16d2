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

from .amc import default_mode_table, verify_thresholds
from .errors import ConfigError, SlowFadingViolation
from .experiment import (KEYS, REMOVED_REASON, build_spec, parse_config,
                         render_csv, run_experiment, _fmt)

# Flags of the truncated bound, refused by name rather than ignored.
_REMOVED_FLAGS = ("--horizon", "--theta-min", "--theta-max", "--theta-points")
# Every other run parameter's flag is its key with dashes.
_SHORT_FLAGS = {"d_guarantee_slots": "--d-guarantee",
                "resolution_blocks": "--resolution", "tau_slots": "--tau"}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 1); subparsers share the class."""

    def error(self, message):
        raise ConfigError("%s: %s" % (self.prog, message))


class _RemovedFlag(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        raise ConfigError("%s was removed: %s" % (option_string, self.const))


def _add_common(p, sweep=False):
    p.add_argument("--config", help="path to a key = value config file")
    for key, typ in KEYS.items():
        # validate comes from the verb; only sweep sweeps
        if key != "validate" and (sweep or not key.startswith("sweep_")):
            p.add_argument(_SHORT_FLAGS.get(key, "--" + key.replace("_", "-")),
                           dest=key, type=typ, help="overrides config key " + key)
    for flag in _REMOVED_FLAGS:
        p.add_argument(flag, action=_RemovedFlag, const=REMOVED_REASON,
                       help=argparse.SUPPRESS)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if any bound is invalid or a check fails")


def _build_spec(args):
    # a verb lacks the flags of some keys; None marks a key left unset
    overrides = {k: getattr(args, k, None) for k in KEYS}
    overrides.update(args.extra)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse_config(text, overrides=overrides)
    return build_spec({k: v for k, v in overrides.items() if v is not None})


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
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = parse_config(fh.read(), overrides={"snr_avg_db": 0.0,
                                                      "alpha": 0.5,
                                                      "f_m_hz": 1.0})
        table = spec.system.modes
    else:
        table = default_mode_table()
    checks = verify_thresholds(table, tol_db=args.tol_db)
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
    p.add_argument("--target-se", action=_RemovedFlag, help=argparse.SUPPRESS,
                   const="the capacity is now an exact Gauss-Hermite "
                         "quadrature, with no sampling error to target")
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
