"""Brent's root finder and bounded minimiser against the scipy routines they
port (``brentq`` and ``minimize_scalar(method="bounded")``): the same points
evaluated in the same order, the same result bytes and the same counts, on
random brackets and at the three production call sites."""
import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

import cdmacal as cc
from cdmacal import _search, amc, largesys, netcal

from oracles import random_birth_death_chain

RTOL = 4 * sys.float_info.epsilon     # find_root's fixed rtol


def _recorded(f):
    points = []

    def g(x):
        points.append(float(x))
        return f(x)
    return g, points


def _outcome(call):
    """(result, None) or (None, exception type)."""
    try:
        return call(), None
    except (ValueError, RuntimeError) as err:
        return None, type(err)


def check_root(f, a, b, xtol, fa=None, fb=None):
    """find_root and brentq agree on this bracket; returns find_root's result."""
    g, ours = _recorded(f)
    got, err = _outcome(lambda: _search.find_root(g, a, b, xtol, fa=fa, fb=fb))
    h, ref = _recorded(f)
    want, want_err = _outcome(lambda: optimize.brentq(
        h, a, b, xtol=xtol, rtol=RTOL, full_output=True))
    assert err is want_err
    if err is not None:
        return None
    (x, iterations), (x_ref, info) = got, want
    assert x == x_ref
    known = [v for v, fv in zip(ref[:2], (fa, fb)) if fv is None]
    assert ours == known + ref[2:]
    assert len(ref) == info.function_calls
    if f(a) == 0 or f(b) == 0:
        assert iterations == 0 and len(ref) == 2
    else:
        assert iterations == info.iterations
    return x, iterations


def check_min(f, lo, hi, xatol, stop=-math.inf):
    """minimize_bounded and minimize_scalar agree; with a stop, ours evaluates
    scipy's points up to the first one at or below it and returns that one."""
    g, ours = _recorded(f)
    x, fx = _search.minimize_bounded(g, lo, hi, xatol, stop)
    h, ref = _recorded(f)
    res = optimize.minimize_scalar(h, bounds=(lo, hi), method="bounded",
                                   options={"xatol": xatol})
    assert len(ref) == res.nfev
    first = next((i for i, p in enumerate(ref) if f(p) <= stop), None)
    if first is None:
        assert (x, fx) == (float(res.x), float(res.fun))
        assert ours == ref
    else:
        assert ours == ref[:first + 1]
        assert x == ref[first] and fx == f(ref[first])
    return x, fx


def _root_family(kind, r, k, c, scale):
    if kind == 0:
        return lambda x: scale * ((x - r) ** 3 * math.exp(k * x) + c * math.tanh(x - r))
    if kind == 1:
        return lambda x: scale * (math.expm1(k * (x - r)) if k else x - r)
    return lambda x: scale * (math.atan(x - r) + c * math.sin(x - r) / 4)


@settings(max_examples=300, deadline=None)
@given(kind=st.integers(0, 2), r=st.floats(-5, 5), k=st.floats(-3, 3),
       c=st.floats(0, 2), log_scale=st.floats(-320, 250),
       left=st.floats(1e-9, 10), right=st.floats(1e-9, 10), swap=st.booleans(),
       log_xtol=st.floats(-320, 0),
       quantum=st.sampled_from([0.0, 1e-6, 1e-2]), pass_ends=st.booleans())
def test_find_root_takes_brentq_steps(kind, r, k, c, log_scale, left, right,
                                      swap, log_xtol, quantum, pass_ends):
    f = _root_family(kind, r, k, c, 10.0 ** log_scale)
    if quantum:                                     # a staircase: ties
        f = (lambda g: lambda x: quantum * math.floor(g(x) / quantum))(f)
    a, b = r - left, r + right
    if swap:
        a, b = b, a
    xtol = max(10.0 ** log_xtol, sys.float_info.min)
    fa, fb = (f(a), f(b)) if pass_ends else (None, None)
    check_root(f, a, b, xtol, fa, fb)


@settings(max_examples=300, deadline=None)
@given(m=st.floats(-5, 5), w=st.floats(0, 5), c=st.floats(0, 3),
       lo=st.floats(-10, 5), width=st.floats(0, 10),
       log_xatol=st.floats(-12, -1), log_scale=st.floats(-100, 100),
       quantum=st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
       stop=st.one_of(st.just(-math.inf), st.floats(-3, 3)))
def test_minimize_bounded_takes_fmin_steps(m, w, c, lo, width, log_xatol,
                                           log_scale, quantum, stop):
    # a nonzero quantum makes f a staircase, whose ties exercise the
    # branches that compare equal values
    scale = 10.0 ** log_scale
    g = lambda x: math.sin(w * x) + c * (x - m) ** 2
    f = (lambda x: scale * g(x)) if quantum == 0 else (
        lambda x: scale * quantum * math.floor(g(x) / quantum))
    if quantum and stop > -math.inf:
        stop = quantum * math.floor(stop / quantum)     # reachable exactly
    check_min(f, lo, lo + width, 10.0 ** log_xatol, stop * scale)


def test_same_sign_bracket_raises():
    with pytest.raises(ValueError):
        _search.find_root(lambda x: x * x + 1, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        _search.find_root(lambda x: x - 5, -1.0, 1.0, 1e-12, fa=-6.0, fb=-4.0)
    with pytest.raises(ValueError):
        _search.find_root(lambda x: math.nan, -1.0, 1.0, 1e-12)


def test_bad_tolerances_and_bounds_raise():
    for xtol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            _search.find_root(lambda x: x, -1.0, 1.0, xtol)
    for lo, hi in ((1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            _search.minimize_bounded(lambda x: x * x, lo, hi, 1e-9)


def test_endpoint_root_returns_without_iterating():
    calls = []
    f = lambda x: calls.append(x) or x - 2.0
    assert _search.find_root(f, 2.0, 5.0, 1e-12) == (2.0, 0)
    assert _search.find_root(f, -1.0, 2.0, 1e-12) == (2.0, 0)
    assert _search.find_root(f, 3.0, 3.0, 1e-12, fa=0.0, fb=0.0) == (3.0, 0)
    assert calls == [2.0, 5.0, -1.0, 2.0]        # both ends, as brentq does
    # a zero-width bracket at a root, as in the zero-load fixed point
    assert check_root(lambda x: x - 0.25, 0.25, 0.25, sys.float_info.min) == (0.25, 0)


def test_stop_returns_first_point_at_or_below_it():
    f = lambda x: math.cosh(x - 1.3)
    g, full = _recorded(f)
    _search.minimize_bounded(g, 0.0, 4.0, 1e-9)
    for stop in (1.01, 1.0001, 1 + 1e-8):
        x, fx = check_min(f, 0.0, 4.0, 1e-9, stop)
        g, points = _recorded(f)
        assert _search.minimize_bounded(g, 0.0, 4.0, 1e-9, stop) == (x, fx)
        assert fx <= stop and 1 < len(points) < len(full)
    # a staircase whose values meet the stop exactly
    stair = lambda x: math.floor(abs(x - 0.9) * 8) / 8
    x, fx = check_min(stair, 0.0, 4.0, 1e-9, 0.0)
    assert fx == 0.0
    # a stop at the first point returns it after one evaluation
    g, points = _recorded(f)
    x, fx = _search.minimize_bounded(g, 0.0, 4.0, 1e-9, stop=10.0)
    assert points == [x] and fx == f(x)


def test_production_call_sites_take_scipy_steps(monkeypatch, ref_cfg):
    counts = {"largesys": 0, "amc": 0, "min": 0, "min_stop": 0, "proposal_min": 0}
    proposing = []              # non-empty while the rate proposal runs

    def spy_root(site):
        def run(f, a, b, xtol, fa=None, fb=None):
            counts[site] += 1
            # the thresholds site evaluates both ends for its own sign test
            # and hands the values over
            assert [fa is None, fb is None] == [site == "largesys"] * 2
            return check_root(f, a, b, xtol, fa, fb)
        return run

    def spy_min(f, lo, hi, xatol, stop=-math.inf):
        counts["proposal_min" if proposing else
               "min" if stop == -math.inf else "min_stop"] += 1
        return check_min(f, lo, hi, xatol, stop)

    def spy_proposal(*args):
        proposing.append(True)
        try:
            return rate_proposal(*args)
        finally:
            proposing.pop()

    rate_proposal = netcal._rate_proposal
    monkeypatch.setattr(largesys, "find_root", spy_root("largesys"))
    monkeypatch.setattr(amc, "find_root", spy_root("amc"))
    monkeypatch.setattr(netcal, "minimize_bounded", spy_min)
    monkeypatch.setattr(netcal, "_rate_proposal", spy_proposal)
    channel = cc.solve_fixed_point(ref_cfg)
    assert all(c.solvable for c in cc.verify_thresholds(cc.default_mode_table()))
    model = cc.build_fsmc(ref_cfg, channel)
    for d, tau in ((100, 1), (100, 5)):
        res = cc.delay_constrained_throughput(model, epsilon=1e-2,
                                              d_guarantee_slots=d, tau_slots=tau)
        assert not res.infeasible and res.delay_at_lambda.valid
    assert counts["largesys"] == 1 and counts["amc"] == 6
    # every theta search is decided: none minimises without a stop
    assert counts["min"] == 0 and counts["min_stop"] > 0
    # netcal makes no root search: the rate proposal reads the Perron root
    # from the spectrum, at the reference point and on a three-state chain
    # with a ten-slot guarantee, where the Perron term need not dominate F
    assert not hasattr(netcal, "find_root") and counts["proposal_min"] == 2
    pi, p, rates = random_birth_death_chain(np.random.default_rng(1), 3)
    chain = cc.FsmcModel(transition=p, pi=pi, rates_blocks=rates)
    res = cc.delay_constrained_throughput(chain, epsilon=1e-2,
                                          d_guarantee_slots=10)
    assert not res.infeasible and res.delay_at_lambda.valid
    assert counts["proposal_min"] == 3


def test_cli_import_loads_no_scipy():
    src = str(Path(cc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, cdmacal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
