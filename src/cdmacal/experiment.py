"""Experiment orchestration: config parsing, sweeps, CSV output.

A run is one throughput computation per sweep point.  Exactly one axis may
be swept (delay guarantee, violation probability, average SNR, load, or
Doppler); everything else is held at its configured value.  Results go to
CSV with a commented metadata header so a result file is self-describing.
"""
from dataclasses import MISSING, dataclass, fields, replace
import datetime
import functools
import math

import numpy as np

from . import __version__ as _version
from .amc import ModeTable, default_mode_table
from .errors import ConfigError, SlowFadingViolation, whole_number
from .fsmc import build_fsmc
from .largesys import SystemConfig, solve_fixed_point
from .netcal import PeriodicSource, delay_constrained_throughput
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

_channel_and_chain = functools.lru_cache(maxsize=1)(  # emptied as each run starts
    lambda cfg: ((channel := solve_fixed_point(cfg)), build_fsmc(cfg, channel)))


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """Fully resolved description of one run (single point or sweep).

    Its scalar fields and those of SystemConfig are the run parameters:
    each is a config key, a CLI flag and a metadata header line.
    """

    system: SystemConfig
    epsilon: float = 1e-2
    d_guarantee_slots: int = 100
    resolution_blocks: float = 1e-3     # throughput lattice spacing
    tau_slots: int = 1                  # arrival period
    seed: int = 12345
    validate: bool = False
    validate_slots: int = 1_000_000
    sweep_axis: str = ""
    sweep_start: float = math.nan
    sweep_stop: float = math.nan
    sweep_step: float = math.nan
    output: str = ""

    def __post_init__(self):
        _check_point(self.epsilon, self.d_guarantee_slots)
        if not 0 < self.resolution_blocks < math.inf:
            raise ValueError("resolution_blocks must be positive and finite")
        whole_number("tau_slots", self.tau_slots, 1)
        if self.sweep_axis:
            if self.sweep_axis not in SWEEP_AXES:
                raise ValueError("sweep_axis must be one of %s" % (SWEEP_AXES,))
            for name in ("sweep_start", "sweep_stop", "sweep_step"):
                if math.isnan(getattr(self, name)):
                    raise ValueError("%s is required when sweep_axis is set" % name)
                if not math.isfinite(getattr(self, name)):
                    raise ValueError("%s must be finite" % name)
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
        whole_number("validate_slots", self.validate_slots, 1)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # SeedSequence takes only an int, so a whole float is stored as one
        object.__setattr__(self, "seed", whole_number("seed", self.seed, 0))

    def sweep_values(self):
        """The axis values this run covers; a single None for a point run."""
        if not self.sweep_axis:
            return [None]
        n = int(math.floor((self.sweep_stop - self.sweep_start)
                           / self.sweep_step + 1e-9)) + 1
        return [float(v) for v in self.sweep_start + self.sweep_step * np.arange(n)]


def _check_point(epsilon, d_guarantee_slots):
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    whole_number("d_guarantee_slots", d_guarantee_slots, 0)


def _scalar_fields(cls):
    return {f.name: f.type for f in fields(cls) if f.type in (float, int, bool, str)}


# Every run parameter, name -> type, in declaration order: the config keys,
# the CLI flags and the metadata header all read this one table.
_SYSTEM_KEYS = _scalar_fields(SystemConfig)
KEYS = {**_SYSTEM_KEYS, **_scalar_fields(ExperimentSpec)}
_REQUIRED = tuple(f.name for f in fields(SystemConfig)
                  if f.default is MISSING and f.default_factory is MISSING)

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _coerce(key, raw, lineno):
    try:
        if KEYS[key] is not bool:
            return KEYS[key](raw)
        if raw.lower() in _TRUE | _FALSE:
            return raw.lower() in _TRUE
        raise ValueError("not a boolean")
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
            if key not in KEYS:
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
    for key in values:
        if key not in KEYS:
            raise ConfigError("unknown key %r" % key)
    axis = values.get("sweep_axis")
    if swept := axis in _SYSTEM_KEYS and "sweep_start" in values:
        values = {**values, axis: values["sweep_start"]}   # the first point
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError("missing required keys: %s" % ", ".join(missing))
    try:
        table = (ModeTable.from_rows(mode_rows) if mode_rows
                 else default_mode_table())
        system = SystemConfig(modes=table, **{k: v for k, v in values.items()
                                              if k in _SYSTEM_KEYS})
        return ExperimentSpec(system=system, **{k: v for k, v in values.items()
                                                if k not in _SYSTEM_KEYS})
    except ValueError as exc:
        at = swept and str(exc).startswith(axis + " ")
        raise ConfigError(("sweep %s = %s: " % (axis, _fmt(values[axis])) if at
                           else "") + str(exc)) from exc


def _point_inputs(spec, value):
    cfg, eps, d_g = spec.system, spec.epsilon, spec.d_guarantee_slots
    axis = spec.sweep_axis
    if value is not None:
        if axis == "delay_guarantee":
            d_g = value                 # _check_point refuses a fractional one
        elif axis == "epsilon":
            eps = float(value)
        else:
            cfg = replace(cfg, **{axis: float(value)})
    return cfg, eps, d_g


def evaluate_point(spec, value, seed_seq):
    """One sweep point's row dict; points of one run share one channel per SystemConfig."""
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
        channel, model = _channel_and_chain(cfg)
        result = delay_constrained_throughput(
            model, epsilon=eps, d_guarantee_slots=d_g,
            resolution_blocks=spec.resolution_blocks, tau_slots=spec.tau_slots)
    except SlowFadingViolation as exc:
        row["error"] = str(exc)
        return row
    row["beta"] = channel.beta
    row["gamma_bar"] = channel.gamma_bar
    # alpha W pi.r on the table's bps/Hz; scaling pi.rates_blocks back rounds twice more
    row["capacity_limit_bps"] = (cfg.alpha * cfg.w_hz
                                 * float(model.pi @ cfg.modes.rates_bps_hz))
    row["throughput_blocks"] = result.lambda_blocks
    row["throughput_bps"] = result.lambda_blocks * (cfg.alpha * cfg.n_b_bits / cfg.t_b_s)
    bound = result.delay_at_lambda
    row["delay_bound_slots"] = bound.d_slots
    row["theta_star"] = bound.theta_star
    row["bound_valid"] = bound.valid
    row["bound_unstable"] = bound.unstable
    row["infeasible"] = result.infeasible
    row["capped"] = False       # no search cap; kept as perfbench/workloads.py reads it
    if spec.validate and result.lambda_blocks > 0:
        d_check = bound.d_slots if math.isfinite(bound.d_slots) else d_g
        src = PeriodicSource(result.lambda_blocks * spec.tau_slots,
                             tau_slots=spec.tau_slots)
        trace = simulate_fifo_queue(model, src, spec.validate_slots,
                                    seed=np.random.default_rng(seed_seq))
        freq, se = trace.violation_frequency(d_check)
        row["sim_violation_freq"] = freq
        row["sim_violation_se"] = se
        row["sim_epochs"] = trace.epochs
    return row


def run_experiment(spec, workers=1):
    """Evaluate every sweep point; returns the list of CSV row dicts.

    At most one worker process per point is started.
    """
    if workers < 1:
        raise ConfigError("workers must be at least 1, got %r" % (workers,))
    _channel_and_chain.cache_clear()
    values = spec.sweep_values()
    args = ([spec] * len(values), values,
            np.random.SeedSequence(spec.seed).spawn(len(values)))
    if workers > 1 and len(values) > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never load it
        with ProcessPoolExecutor(max_workers=min(workers, len(values))) as pool:
            return list(pool.map(evaluate_point, *args))
    return list(map(evaluate_point, *args))


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
    lines = [
        "# tool = cdmacal %s" % _version,
        "# generated %s" % datetime.datetime.now(datetime.timezone.utc)
                                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
    ]
    for key in KEYS:
        if key != "output" and (spec.sweep_axis or not key.startswith("sweep_")):
            owner = spec.system if key in _SYSTEM_KEYS else spec
            lines.append("# %s = %s" % (key, _fmt(getattr(owner, key))))
    for mode in spec.system.modes.modes:
        lines.append("# mode %d = %s rate=%s threshold_db=%s"
                     % (mode.index, mode.label, _fmt(mode.rate_bps_hz),
                        _fmt(mode.threshold_db)))
    lines.append("# throughput_blocks is per-user blocks per slot; "
                 "throughput_bps = alpha * throughput_blocks * n_b_bits / t_b_s "
                 "(aggregate over users)")
    return lines


def render_csv(spec, rows):
    """Metadata header plus one CSV row per sweep point, as text."""
    lines = metadata_lines(spec) + [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(row[c]) for c in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"
