#!/usr/bin/env python3
"""Benchmark of the cdmacal pipeline through its public CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The workloads are in ``workloads.py``.  Load model: a closed
loop in one process, one verb invocation at a time with ``--workers 1``;
the next invocation starts when the previous one returns, until the timed
window of ``--seconds`` is used (at least two invocations, so that repeated
output can be compared).  BLAS thread settings are recorded, not changed.

``--trace 0`` prints the end-to-end metrics:
  setup_s      median over several fresh interpreters of the time from
               process start until ``cdmacal.cli`` is imported and ready
  wall_s       median wall time of one verb invocation, CSV written to a
               temporary file
  peak_rss_mb  peak resident memory of this process

``--trace 1`` alternates untraced and traced invocations and prints the
per-layer metrics of the traced invocation with the median traced wall
time (see ``tracing.py``), plus the tracing overhead and the certified
rate.  Every invocation's output is checked in both modes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the environment and run details; spans and per-invocation
numbers go to ``perfbench/out/``.  ``--smoke`` runs reduced-size inputs.
"""
import argparse
import gc
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_INVOCATIONS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
READY = ("import cdmacal.cli as c; c.build_parser(); "
         "print('ready', flush=True)")


def _pythonpath():
    rest = os.environ.get("PYTHONPATH")
    return str(SRC) + (os.pathsep + rest if rest else "")


def measure_setup():
    """Seconds from starting a fresh interpreter until cdmacal.cli is ready."""
    env = dict(os.environ, PYTHONPATH=_pythonpath())
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up interpreter failed (exit %s)" % proc.returncode)
    return elapsed


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


class Run:
    """Invocations of one workload in one process, with their checks."""

    def __init__(self, cli, workload, argv, tmpdir):
        self.cli = cli
        self.workload = workload
        self.argv = argv
        self.tmpdir = tmpdir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_output = None
        self.last_output = None

    def invoke(self, index):
        """One verb invocation; returns its wall time in seconds."""
        out = Path(self.tmpdir) / ("out-%d.csv" % index)
        argv = self.argv + ["--output", str(out)]
        gc.collect()
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:   # a crash is a failed invocation
            traceback.print_exc()
            code = "raised %r" % exc
        elapsed = time.perf_counter() - start
        self._check(index, code, out)
        return elapsed

    def _check(self, index, code, out):
        items = self.workload.items
        self.attempted += items
        try:
            text = out.read_text(encoding="utf-8")
            per_item = workloads.check(self.workload, text)
            if self.first_output is None:
                self.first_output = workloads.comparable(text)
            elif workloads.comparable(text) != self.first_output:
                raise ValueError("output differs from the first invocation")
            self.last_output = text
        except (OSError, KeyError, ValueError) as exc:
            per_item = [[str(exc)] for _ in range(items)]
        if code != 0:
            per_item = [probs + ["exit code %s" % code] for probs in per_item]
        bad = [probs for probs in per_item if probs]
        self.failed += len(bad)
        for probs in bad:
            self.problems.append("invocation %d: %s" % (index, "; ".join(probs)))


def _loop(seconds, step, min_steps):
    """Call step(i) until the window is used; step returns its duration."""
    durations = []
    start = time.perf_counter()
    while True:
        durations.append(step(len(durations)))
        elapsed = time.perf_counter() - start
        if (len(durations) >= min_steps
                and elapsed + statistics.median(durations) > seconds):
            return durations


def measure_traced(run, seconds):
    """Alternate untraced and traced invocations, in pairs.

    Returns the traced wall times, the per-layer metrics and the details
    (spans of the reported invocation) for the run record.
    """
    tracer = tracing.Tracer()
    plain, traced, layers, absent = [], [], [], []

    def pair(i):
        t0 = time.perf_counter()
        plain.append(run.invoke(2 * i))
        tracer.start_run(i)
        with tracing.patched(tracer) as missing:
            traced.append(run.invoke(2 * i + 1))
        absent[:] = missing
        layers.append(tracing.layer_metrics(tracer, i))
        return time.perf_counter() - t0

    _loop(seconds, pair, MIN_INVOCATIONS // 2)
    counts_differ = [k for k in tracing.COUNT_METRICS
                     if len({str(m[k]) for m in layers}) > 1]
    run.attempted += 1
    if counts_differ:
        run.failed += 1
        run.problems.append("counts differ between traced invocations: %s"
                            % ", ".join(counts_differ))
    # Layer numbers come from the traced invocation with the median wall
    # time, so its self times add up to its own root span.
    order = sorted(range(len(traced)), key=traced.__getitem__)
    chosen = order[(len(order) - 1) // 2]
    metrics = dict(layers[chosen])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["netcal.certified_rate_blocks"] = workloads.certified_rate(
        run.last_output or "")
    detail = {"plain_s": plain, "traced_s": traced, "absent_layers": absent,
              "chosen_invocation": chosen, "layer_metrics": metrics,
              "spans": tracing.run_spans(tracer, chosen)}
    return traced, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs for the harness smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "cdmacal" / "__init__.py").is_file():
        print("perfbench: no cdmacal sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import cdmacal.cli as cli

    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        run = Run(cli, workload, workload.argv(args.seed, args.smoke), tmpdir)
        if args.trace:
            walls, values, detail = measure_traced(run, args.seconds)
        else:
            walls = _loop(args.seconds, run.invoke, MIN_INVOCATIONS)
            detail = {}
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }

    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "argv": run.argv, "invocations": len(walls),
        "wall_s": {"median": statistics.median(walls), "q1": q[0], "q3": q[2],
                   "min": min(walls), "max": max(walls)},
        "setup_s": setup, "absent_layers": detail.get("absent_layers", []),
        "problems": run.problems[:20], "env": environment(),
    }
    record = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record.write_text(json.dumps(dict(detail, **meta)) + "\n")
    for p in run.problems[:20]:
        print("perfbench: %s" % p, file=sys.stderr)

    missing = [n for n in names if n not in values]
    if missing:
        print("perfbench: metrics not produced: %s" % ", ".join(missing), file=sys.stderr)
        return 2
    print(json.dumps({"meta": {k: meta[k] for k in meta if k != "problems"}}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
