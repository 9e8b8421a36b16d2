"""The benchmark's workloads: CLI arguments and output correctness rules.

Each workload is one ``cdmacal`` verb run in-process through
``cdmacal.cli.main``.  One output item (a CSV row of a throughput verb, a
mode of ``thresholds``) is one operation; an item that breaks a rule below
is a failed operation, and so is every item of an invocation that exits
non-zero, misses rows, or differs from the run's first invocation.

The sizes are cut down from the full reference runs (guarantees 20..140
in steps of 20, 4e6 simulated slots) so that several invocations fit in
one timed run; the guarantees kept include the reference of 100 slots.
A load sweep (every point cold) is left out: with at most three
invocations per timed run its wall time spread too widely from run to run
on a shared two-core machine.  Its layers stay measured: validate_mc
builds its MGF table cold and both netcal workloads solve the fixed point
and build the chain.
"""
import csv
from dataclasses import dataclass
import math

POINT = ("--snr-avg-db", "6", "--alpha", "0.5", "--f-m-hz", "20",
         "--epsilon", "1e-2", "--workers", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    verb_args: tuple            # argv after the verb, seed not included
    seeded: bool                # pass --seed to the verb
    items: int                  # output items (rows or modes) per invocation
    smoke_args: tuple = ()      # extra argv for the reduced-size smoke run
    # Certified per-user rate (blocks/slot) of each row at the seed commit.
    # A rate below it means the bound got looser.
    rate_floor: tuple = ()
    rising: bool = False        # rate must not decrease from row to row

    def argv(self, seed, smoke):
        argv = list(self.verb_args)
        if smoke:
            argv += self.smoke_args
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        # One channel for every point: bisection probes hit the warm MGF
        # table cache in netcal.
        name="guarantee_sweep",
        verb_args=("sweep", *POINT, "--tau", "1",
                   "--sweep-axis", "delay_guarantee", "--sweep-start", "60",
                   "--sweep-stop", "140", "--sweep-step", "40"),
        seeded=False, items=3,
        rate_floor=(0.927, 1.663, 2.194), rising=True),
    Workload(
        # A bursty source (tau 5) takes netcal's general path, and the
        # Monte Carlo FIFO check is the only large work in sim.
        name="validate_mc",
        verb_args=("validate", "--strict", *POINT, "--d-guarantee", "100",
                   "--tau", "5", "--validate-slots", "1000000"),
        smoke_args=("--validate-slots", "10000"),
        seeded=True, items=1,
        rate_floor=(1.601,)),
    Workload(
        # The AMC capacity estimator alone; bypasses netcal, fsmc and sim.
        name="thresholds",
        verb_args=("thresholds", "--strict"),
        seeded=True, items=6),
)}


def comparable(text):
    """Output lines that must repeat exactly: all but the timestamp."""
    return [l for l in text.splitlines() if not l.startswith("# generated")]


def _rows(text):
    return list(csv.DictReader(l for l in text.splitlines()
                               if not l.startswith("#")))


def _throughput_row_problems(row):
    if row["error"]:
        return ["refused: %s" % row["error"]]
    probs = ["%s=%s" % (flag, row[flag])
             for flag, want in (("bound_valid", "true"),
                                ("bound_unstable", "false"),
                                ("infeasible", "false"), ("capped", "false"))
             if row[flag] != want]
    d = float(row["delay_bound_slots"])
    if not d <= float(row["delay_guarantee_slots"]):
        probs.append("delay bound %s above the guarantee" % d)
    if not float(row["throughput_bps"]) <= float(row["capacity_limit_bps"]):
        probs.append("rate above the ergodic limit")
    if row["sim_violation_freq"]:
        freq = float(row["sim_violation_freq"])
        se = float(row["sim_violation_se"])
        if not freq <= float(row["epsilon"]) + 3 * se:
            probs.append("simulated violation frequency %g above epsilon + 3 se"
                         % freq)
    return probs


def check(workload, text):
    """Problems per output item of one successful invocation.

    Returns a list with one list of problem strings per expected item; an
    item missing from the output has one problem.
    """
    rows = _rows(text)
    per_item = [[] for _ in range(workload.items)]
    if len(rows) != workload.items:
        return [["expected %d rows, got %d" % (workload.items, len(rows))]
                for _ in per_item]
    if workload.name == "thresholds":
        for probs, row in zip(per_item, rows):
            if row["solvable"] != "true" or row["within_tol"] != "true":
                probs.append("mode %s: solvable=%s within_tol=%s"
                             % (row["mode"], row["solvable"], row["within_tol"]))
        return per_item
    rates = []
    for i, (probs, row) in enumerate(zip(per_item, rows)):
        probs.extend(_throughput_row_problems(row))
        rate = float(row["throughput_blocks"]) if row["throughput_blocks"] else math.nan
        rates.append(rate)
        if not rate >= workload.rate_floor[i] - 1e-9:
            probs.append("rate %s below the reference %s"
                         % (rate, workload.rate_floor[i]))
        if i and workload.rising and not rate >= rates[i - 1]:
            probs.append("rate %s falls after %s" % (rate, rates[i - 1]))
    return per_item


def certified_rate(text):
    """Sum of the certified per-user rates over the rows (blocks/slot)."""
    return sum((float(r["throughput_blocks"]) for r in _rows(text)
                if r.get("throughput_blocks")), 0.0)
