"""Experiment orchestration: config parsing, sweeps, CSV output.

A run is one throughput computation per sweep point.  Exactly one axis may
be swept (delay guarantee, violation probability, average SNR, load, or
Doppler); everything else is held at its configured value.  Results go to
CSV with a commented metadata header so a result file is self-describing.
"""
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
import datetime
import io
import math

import numpy as np

from . import __version__ as _version
from .amc import ModeTable, default_mode_table
from .errors import ConfigError, SlowFadingViolation
from .fsmc import build_fsmc
from .largesys import SystemConfig, solve_fixed_point
from .netcal import (PeriodicSource, capacity_limit,
                     delay_constrained_throughput)
from .sim import simulate_fifo_queue

SWEEP_AXES = ("delay_guarantee", "epsilon", "snr_avg_db", "alpha", "f_m_hz")

CSV_COLUMNS = (
    "axis", "axis_value", "snr_avg_db", "alpha", "f_m_hz",
    "epsilon", "delay_guarantee_slots",
    "beta", "gamma_bar", "capacity_limit_bps",
    "throughput_blocks", "throughput_bps",
    "delay_bound_slots", "theta_star",
    "bound_valid", "bound_unstable", "infeasible", "capped",
    "sim_violation_freq", "sim_violation_se", "sim_epochs", "error",
)


@dataclass(frozen=True)
class NetcalControls:
    """Throughput lattice spacing and arrival period of the bound computation."""

    resolution_blocks: float = 1e-3
    tau_slots: int = 1

    def __post_init__(self):
        if not 0 < self.resolution_blocks < math.inf:
            raise ValueError("resolution_blocks must be positive and finite")
        if self.tau_slots < 1:
            raise ValueError("tau_slots must be a positive integer")


# Keys of the truncated bound, refused by name rather than ignored.
REMOVED_KEYS = ("horizon_slots", "theta_min", "theta_max", "theta_points")
REMOVED_REASON = ("the delay bound is now an exact closed-form sum, with no "
                  "horizon or theta grid to set")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one run (single point or sweep)."""

    system: SystemConfig
    epsilon: float = 1e-2
    d_guarantee_slots: int = 100
    sweep_axis: str = ""
    sweep_start: float = math.nan
    sweep_stop: float = math.nan
    sweep_step: float = math.nan
    controls: NetcalControls = field(default_factory=NetcalControls)
    validate: bool = False
    validate_slots: int = 1_000_000
    seed: int = 12345
    output: str = ""

    def __post_init__(self):
        _check_point(self.epsilon, self.d_guarantee_slots)
        if self.sweep_axis:
            if self.sweep_axis not in SWEEP_AXES:
                raise ValueError("sweep_axis must be one of %s" % (SWEEP_AXES,))
            for name in ("sweep_start", "sweep_stop", "sweep_step"):
                if math.isnan(getattr(self, name)):
                    raise ValueError("%s is required when sweep_axis is set" % name)
            if self.sweep_step <= 0:
                raise ValueError("sweep_step must be positive")
            if self.sweep_stop < self.sweep_start:
                raise ValueError("sweep_stop must not precede sweep_start")
            # _point_inputs rebuilds the SystemConfig for a system axis,
            # which validates the value.
            for value in self.sweep_values():
                try:
                    _check_point(*_point_inputs(self, value)[1:])
                except ValueError as exc:
                    raise ValueError("sweep %s = %s: %s"
                                     % (self.sweep_axis, _fmt(value), exc)) from exc
        if self.validate_slots < 1:
            raise ValueError("validate_slots must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def sweep_values(self):
        """The axis values this run covers; a single None for a point run."""
        if not self.sweep_axis:
            return [None]
        n = int(math.floor((self.sweep_stop - self.sweep_start)
                           / self.sweep_step + 1e-9)) + 1
        vals = self.sweep_start + self.sweep_step * np.arange(n)
        if self.sweep_axis == "delay_guarantee":
            return [int(round(v)) for v in vals]
        return [float(v) for v in vals]


def _check_point(epsilon, d_guarantee_slots):
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if d_guarantee_slots < 0:
        raise ValueError("d_guarantee_slots must be nonnegative")


_FLOAT_KEYS = {
    "snr_avg_db", "alpha", "f_m_hz", "t_b_s", "w_hz", "epsilon",
    "sweep_start", "sweep_stop", "sweep_step", "resolution_blocks",
}
_INT_KEYS = {
    "n_b_bits", "d_guarantee_slots", "tau_slots", "validate_slots", "seed",
}
_BOOL_KEYS = {"validate"}
_STR_KEYS = {"sweep_axis", "output"}
_REQUIRED = ("snr_avg_db", "alpha", "f_m_hz")

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _coerce(key, raw, lineno):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError("not a boolean")
        return raw
    except ValueError as exc:
        raise ConfigError("line %d: bad value for %r: %s" % (lineno, key, exc)) from exc


def parse_config(text, overrides=None):
    """Parse ``key = value`` lines plus an optional ``modes:`` section.

    ``#`` starts a comment.  Inside the modes section each row is
    ``index label rate_bits_per_symbol threshold_db``; the section ends at
    the next ``key = value`` line or at end of file.  ``overrides`` (a dict
    of already-typed values) wins over the file.
    """
    values = {}
    mode_rows = []
    in_modes = False
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "modes:":
            in_modes = True
            continue
        if "=" in line:
            in_modes = False
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key in REMOVED_KEYS:
                raise ConfigError("line %d: %r was removed: %s"
                                  % (lineno, key, REMOVED_REASON))
            if key not in _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS:
                raise ConfigError("line %d: unknown key %r" % (lineno, key))
            if not raw:
                raise ConfigError("line %d: empty value for %r" % (lineno, key))
            values[key] = _coerce(key, raw, lineno)
            continue
        if in_modes:
            parts = line.split()
            if len(parts) != 4:
                raise ConfigError(
                    "line %d: mode row needs 'index label rate threshold_db'"
                    % lineno)
            try:
                mode_rows.append((int(parts[0]), parts[1],
                                  float(parts[2]), float(parts[3])))
            except ValueError as exc:
                raise ConfigError("line %d: bad mode row: %s" % (lineno, exc)) from exc
            continue
        raise ConfigError("line %d: expected 'key = value' or a modes: section"
                          % lineno)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return build_spec(values, mode_rows or None)


def build_spec(values, mode_rows=None):
    """Assemble an ExperimentSpec from a flat dict of typed values."""
    for key in REMOVED_KEYS:
        if key in values:
            raise ConfigError("%r was removed: %s" % (key, REMOVED_REASON))
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError("missing required keys: %s" % ", ".join(missing))
    try:
        table = (ModeTable.from_rows(mode_rows) if mode_rows
                 else default_mode_table())
        sys_kwargs = {k: values[k] for k in
                      ("snr_avg_db", "alpha", "f_m_hz", "t_b_s", "w_hz",
                       "n_b_bits") if k in values}
        system = SystemConfig(modes=table, **sys_kwargs)
        controls = NetcalControls(**{k: values[k] for k in
                                     ("resolution_blocks", "tau_slots")
                                     if k in values})
        spec_kwargs = {k: values[k] for k in
                       ("epsilon", "d_guarantee_slots", "sweep_axis",
                        "sweep_start", "sweep_stop", "sweep_step", "validate",
                        "validate_slots", "seed", "output") if k in values}
        return ExperimentSpec(system=system, controls=controls, **spec_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _point_inputs(spec, value):
    cfg, eps, d_g = spec.system, spec.epsilon, spec.d_guarantee_slots
    axis = spec.sweep_axis
    if value is not None:
        if axis == "delay_guarantee":
            d_g = int(value)
        elif axis == "epsilon":
            eps = float(value)
        else:
            cfg = replace(cfg, **{axis: float(value)})
    return cfg, eps, d_g


def evaluate_point(spec, value, seed_seq=None, model=None):
    """Compute one sweep point; returns (row_dict, model) so a caller
    sweeping a queue-only axis can reuse the channel model."""
    cfg, eps, d_g = _point_inputs(spec, value)
    row = {c: "" for c in CSV_COLUMNS}
    row["axis"] = spec.sweep_axis or "none"
    row["axis_value"] = value if value is not None else ""
    row["snr_avg_db"] = cfg.snr_avg_db
    row["alpha"] = cfg.alpha
    row["f_m_hz"] = cfg.f_m_hz
    row["epsilon"] = eps
    row["delay_guarantee_slots"] = d_g
    try:
        if model is None:
            model = build_fsmc(cfg, solve_fixed_point(cfg))
        ctl = spec.controls
        result = delay_constrained_throughput(
            cfg, model, epsilon=eps, d_guarantee_slots=d_g,
            resolution_blocks=ctl.resolution_blocks, tau_slots=ctl.tau_slots)
    except SlowFadingViolation as exc:
        row["error"] = str(exc)
        return row, None
    row["beta"] = 1.0 / model.gamma_bar
    row["gamma_bar"] = model.gamma_bar
    row["capacity_limit_bps"] = capacity_limit(cfg, model)
    row["throughput_blocks"] = result.lambda_blocks
    row["throughput_bps"] = result.lambda_bps
    bound = result.delay_at_lambda
    row["delay_bound_slots"] = bound.d_slots
    row["theta_star"] = bound.theta_star
    row["bound_valid"] = bound.valid
    row["bound_unstable"] = bound.unstable
    row["infeasible"] = result.infeasible
    row["capped"] = False       # no search cap; kept as perfbench/workloads.py reads it
    if spec.validate and result.lambda_blocks > 0:
        d_check = bound.d_slots if math.isfinite(bound.d_slots) else d_g
        src = PeriodicSource(result.lambda_blocks * ctl.tau_slots,
                             tau_slots=ctl.tau_slots)
        rng_seed = seed_seq if seed_seq is not None else spec.seed
        trace = simulate_fifo_queue(model, src, spec.validate_slots,
                                    seed=np.random.default_rng(rng_seed))
        freq, se = trace.violation_frequency(d_check)
        row["sim_violation_freq"] = freq
        row["sim_violation_se"] = se
        row["sim_epochs"] = trace.epochs
        if trace.unstable:
            row["error"] = "simulated queue exceeded backlog cap"
    return row, model


def _worker(args):
    spec, value, seed_seq = args
    return evaluate_point(spec, value, seed_seq=seed_seq)[0]


def run_experiment(spec, workers=1):
    """Evaluate every sweep point; returns the list of CSV row dicts.

    At most one worker process per point is started.
    """
    if workers < 1:
        raise ConfigError("workers must be at least 1, got %r" % (workers,))
    values = spec.sweep_values()
    children = np.random.SeedSequence(spec.seed).spawn(len(values))
    if workers > 1 and len(values) > 1:
        payloads = [(spec, v, c) for v, c in zip(values, children)]
        with ProcessPoolExecutor(max_workers=min(workers, len(values))) as pool:
            return list(pool.map(_worker, payloads))
    rows = []
    model = None
    reuse = spec.sweep_axis in ("delay_guarantee", "epsilon", "")
    for value, child in zip(values, children):
        row, m = evaluate_point(spec, value, seed_seq=child,
                                model=model if reuse else None)
        if reuse and m is not None:
            model = m
        rows.append(row)
    return rows


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return "%.12g" % x
    return str(x)


def metadata_lines(spec):
    """Commented header lines describing the run; one line carries the
    generation timestamp and nothing else, so reproducibility comparisons
    can drop it."""
    cfg, ctl = spec.system, spec.controls
    lines = [
        "# tool = cdmacal %s" % _version,
        "# generated %s" % datetime.datetime.now(datetime.timezone.utc)
                                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
    ]
    for key, val in (
        ("snr_avg_db", cfg.snr_avg_db), ("alpha", cfg.alpha),
        ("f_m_hz", cfg.f_m_hz), ("t_b_s", cfg.t_b_s), ("w_hz", cfg.w_hz),
        ("n_b_bits", cfg.n_b_bits), ("epsilon", spec.epsilon),
        ("d_guarantee_slots", spec.d_guarantee_slots),
        ("resolution_blocks", ctl.resolution_blocks),
        ("tau_slots", ctl.tau_slots), ("seed", spec.seed),
        ("validate", spec.validate), ("validate_slots", spec.validate_slots),
    ):
        lines.append("# %s = %s" % (key, _fmt(val)))
    if spec.sweep_axis:
        lines.append("# sweep_axis = %s" % spec.sweep_axis)
        for key in ("sweep_start", "sweep_stop", "sweep_step"):
            lines.append("# %s = %s" % (key, _fmt(getattr(spec, key))))
    for mode in cfg.modes.modes:
        lines.append("# mode %d = %s rate=%s threshold_db=%s"
                     % (mode.index, mode.label, _fmt(mode.rate_bps_hz),
                        _fmt(mode.threshold_db)))
    lines.append("# throughput_blocks is per-user blocks per slot; "
                 "throughput_bps = alpha * throughput_blocks * n_b_bits / t_b_s "
                 "(aggregate over users)")
    return lines


def write_csv(spec, rows, fh):
    """Write metadata header plus one CSV row per sweep point."""
    for line in metadata_lines(spec):
        fh.write(line + "\n")
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(row[c]) if row[c] != "" else ""
                          for c in CSV_COLUMNS) + "\n")


def render_csv(spec, rows):
    buf = io.StringIO()
    write_csv(spec, rows, buf)
    return buf.getvalue()
