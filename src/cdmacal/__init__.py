"""Delay-constrained throughput analysis for a randomly spread CDMA uplink
with linear MMSE multiuser detection and adaptive modulation/coding.

The pipeline: a large-system fixed point turns load and SNR into a
post-detection SNR scale, a birth-death Markov chain over the modulation
modes turns Doppler into slot-level service, and a moment-generating-
function bound turns that service into probabilistic delay guarantees and
the largest arrival rate that honors them.  Monte Carlo counterparts check
the channel and queueing stages.
"""
__version__ = "0.1.0"

from .amc import (Mode, ModeTable, ThresholdCheck, constellation_capacity,
                  default_mode_table, verify_thresholds)
from .errors import ConfigError, SlowFadingViolation
from .experiment import (ExperimentSpec, build_spec, evaluate_point,
                         metadata_lines, parse_config, render_csv,
                         run_experiment)
from .fsmc import (FsmcModel, build_fsmc, level_crossing_rate,
                   stationary_distribution)
from .largesys import (DecoupledChannel, SystemConfig, interference_integral,
                       solve_fixed_point)
from .netcal import (DelayBoundResult, PeriodicSource, ThroughputResult,
                     capacity_limit, delay_bound,
                     delay_constrained_throughput, log_violation_bound)
from .sim import QueueTrace, simulate_fifo_queue, simulate_fsmc
from .units import db_to_linear

__all__ = [
    "Mode", "ModeTable", "ThresholdCheck",
    "constellation_capacity", "default_mode_table", "verify_thresholds",
    "ConfigError", "SlowFadingViolation",
    "ExperimentSpec", "build_spec", "evaluate_point",
    "metadata_lines", "parse_config", "render_csv", "run_experiment",
    "FsmcModel", "build_fsmc", "level_crossing_rate",
    "stationary_distribution",
    "DecoupledChannel", "SystemConfig", "interference_integral",
    "solve_fixed_point",
    "DelayBoundResult", "PeriodicSource", "ThroughputResult",
    "capacity_limit", "delay_bound",
    "delay_constrained_throughput", "log_violation_bound",
    "QueueTrace", "simulate_fifo_queue", "simulate_fsmc", "db_to_linear",
    "__version__",
]
