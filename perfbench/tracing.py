"""Per-layer spans for a traced benchmark invocation.

Spans are recorded from the benchmark's side only: for the length of one
traced invocation, each public entry point of a cdmacal layer is replaced,
in the namespace where its caller looks it up, by a wrapper that opens a
span around the call.  Nothing in ``src/`` changes.  A name that no longer
exists (after a refactor, say) is reported as an absent layer instead of
failing the run.

A span's self time is its duration minus the time its child spans cover.
Every span nests under the ``cli`` root span around ``cdmacal.cli.main``,
so the self times of one invocation sum to that root span's duration.
"""
from contextlib import contextmanager
import functools
import importlib
import inspect
import statistics
import time


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, in memory."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.run_id = None
        self._stack = []

    def start_run(self, run_id):
        self.run_id = run_id
        self.counters[run_id] = {}

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name, n):
        run = self.counters[self.run_id]
        run[name] = run.get(name, 0) + n


def _iterations(tracer, args, result):
    tracer.count("largesys.fixed_point.iterations", int(result.iterations))


def _slots(tracer, args, result):
    tracer.count("sim.slots", int(args["n_slots"]))


def _theta_rows(tracer, args, result):
    tracer.count("netcal.mgf_table.theta_rows", len(args["thetas"]))


def _modes(tracer, args, result):
    tracer.count("amc.thresholds.modes", len(result))
    tracer.count("amc.thresholds.within_tol",
                 sum(1 for c in result if c.within_tol))


# (span name or None for a counter only, module, attribute path, hook).
# Each target is the name the caller resolves at call time.
# ServiceMgf._compute is private; it is wrapped only to count the theta
# rows actually computed (cache misses), which no public name exposes.
TARGETS = (
    ("cli", "cdmacal.cli", "main", None),
    ("experiment", "cdmacal.cli", "run_experiment", None),
    ("experiment.csv", "cdmacal.cli", "render_csv", None),
    ("amc.thresholds", "cdmacal.cli", "verify_thresholds", _modes),
    ("experiment.point", "cdmacal.experiment", "evaluate_point", None),
    ("largesys.fixed_point", "cdmacal.experiment", "solve_fixed_point",
     _iterations),
    ("fsmc.build", "cdmacal.experiment", "build_fsmc", None),
    ("netcal.throughput", "cdmacal.experiment",
     "delay_constrained_throughput", None),
    ("sim.fifo", "cdmacal.experiment", "simulate_fifo_queue", _slots),
    ("netcal.delay_bound", "cdmacal.netcal", "delay_bound", None),
    ("netcal.mgf_table", "cdmacal.netcal", "ServiceMgf.table", None),
    (None, "cdmacal.netcal", "ServiceMgf._compute", _theta_rows),
    ("sim.fsmc_path", "cdmacal.sim", "simulate_fsmc", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS if t[0])


def _resolve(module_name, path):
    """(owner, attribute) for a dotted path inside a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _wrap(tracer, name, fn, hook):
    sig = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if hook:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, bound.arguments, result)
        return result

    return traced


@contextmanager
def patched(tracer):
    """Install the wrappers; yields the list of absent targets."""
    undo = []
    absent = []
    try:
        for name, module_name, path, hook in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                absent.append("%s.%s" % (module_name, path))
                continue
            owner, attr = found
            own = vars(owner)
            undo.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), hook))
        yield absent
    finally:
        for owner, attr, had_own, raw in reversed(undo):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def run_spans(tracer, run_id):
    """Spans of one run with their duration and self time."""
    spans = [dict(s) for s in tracer.spans if s["run"] == run_id]
    child_time = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur"]
    for s in spans:
        s["self"] = s["dur"] - child_time.get(s["id"], 0.0)
    return spans


def layer_metrics(tracer, run_id):
    """Per-layer numbers of one traced invocation (keys without units)."""
    spans = run_spans(tracer, run_id)
    counters = tracer.counters.get(run_id, {})
    by_name = {n: [s for s in spans if s["name"] == n] for n in SPAN_NAMES}

    def self_s(*names):
        return sum((s["self"] for n in names for s in by_name[n]), 0.0)

    def calls(name):
        return len(by_name[name])

    points = [s["dur"] for s in by_name["experiment.point"]]
    fifo_s = sum(s["dur"] for s in by_name["sim.fifo"])
    slots = counters.get("sim.slots", 0)
    modes = counters.get("amc.thresholds.modes", 0)
    within = counters.get("amc.thresholds.within_tol", 0)
    root = by_name["cli"]
    return {
        "netcal.throughput.calls": calls("netcal.throughput"),
        "netcal.throughput.self_s": self_s("netcal.throughput"),
        "netcal.delay_bound.calls": calls("netcal.delay_bound"),
        "netcal.delay_bound.self_s": self_s("netcal.delay_bound"),
        "netcal.mgf_table.calls": calls("netcal.mgf_table"),
        "netcal.mgf_table.theta_rows": counters.get(
            "netcal.mgf_table.theta_rows", 0),
        "netcal.mgf_table.self_s": self_s("netcal.mgf_table"),
        "largesys.fixed_point.calls": calls("largesys.fixed_point"),
        "largesys.fixed_point.iterations": counters.get(
            "largesys.fixed_point.iterations", 0),
        "largesys.fixed_point.self_s": self_s("largesys.fixed_point"),
        "fsmc.build.calls": calls("fsmc.build"),
        "fsmc.build.self_s": self_s("fsmc.build"),
        "sim.fifo.self_s": self_s("sim.fifo"),
        "sim.fsmc_path.self_s": self_s("sim.fsmc_path"),
        "sim.slots": slots,
        "sim.slots_per_s": slots / fifo_s if slots else 0.0,
        "amc.thresholds.self_s": self_s("amc.thresholds"),
        "amc.thresholds.modes": modes,
        "amc.thresholds.within_tol_ratio": within / modes if modes else 0.0,
        "experiment.point.calls": len(points),
        "experiment.point.p50_s": statistics.median(points) if points else 0.0,
        "experiment.point.max_s": max(points, default=0.0),
        "experiment.self_s": self_s("experiment", "experiment.point"),
        "experiment.csv.self_s": self_s("experiment.csv"),
        "cli.self_s": self_s("cli"),
        "trace.wall_s": sum(s["dur"] for s in root),
        "trace.self_sum_s": sum(s["self"] for s in spans),
    }


# Metrics that count work; they must repeat exactly for a fixed seed.
COUNT_METRICS = (
    "netcal.throughput.calls", "netcal.delay_bound.calls",
    "netcal.mgf_table.calls", "netcal.mgf_table.theta_rows",
    "largesys.fixed_point.calls", "largesys.fixed_point.iterations",
    "fsmc.build.calls", "sim.slots", "amc.thresholds.modes",
    "amc.thresholds.within_tol_ratio", "experiment.point.calls",
)
