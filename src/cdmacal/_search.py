"""Brent's scalar searches (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973): zeroin for a bracketed root and fmin for a
bounded minimum.  Each takes exactly the steps of scipy's ``brentq`` and
bounded ``minimize_scalar``, so the points evaluated, the results and the
counts match those routines bit for bit; the tests compare them.
"""
import math
import sys

_RTOL = 4 * sys.float_info.epsilon
_SQRT_EPS = math.sqrt(2.2e-16)                  # fmin's own constant
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def find_root(f, a, b, xtol, fa=None, fb=None):
    """(x, iterations) for a root of f in [a, b], where f changes sign.

    Stops once the bracket is narrower than xtol + 4 eps |x| (brentq's
    smallest rtol); fa and fb, when given, are f(a) and f(b).  An endpoint
    root takes 0 iterations.  Raises ValueError for a bracket without a
    sign change or a NaN value of f, and RuntimeError after 100 iterations.
    """
    if not xtol > 0:
        raise ValueError("need xtol > 0")
    xpre, xcur = float(a), float(b)
    fpre = f(xpre) if fa is None else fa
    fcur = f(xcur) if fb is None else fb
    if fpre == 0 or fcur == 0:
        return (xpre if fpre == 0 else xcur), 0
    if math.isnan(fpre) or math.isnan(fcur) or (
            math.copysign(1.0, fpre) == math.copysign(1.0, fcur)):
        raise ValueError("f(a) and f(b) must be numbers of different signs")
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, 101):
        # xcur is the best estimate, xblk the other end of the bracket.
        if fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, iterations
        stry = math.inf                             # inf bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                               # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:               # an underflowed
                pass                                # denominator bisects
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"f is NaN at x = {xcur!r}")
    raise RuntimeError(f"no convergence after 100 iterations, x = {xcur!r}")


def minimize_bounded(f, lo, hi, xatol, stop=-math.inf):
    """(x, f(x)) at a local minimum of f on [lo, hi], within about xatol.

    Golden-section and parabolic steps that never evaluate the bounds.
    Returns early at the first point evaluated with f <= stop, and after
    500 evaluations with the best point found.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError(f"need finite bounds lo <= hi, got {lo!r}, {hi!r}")
    a, b = lo, hi
    xf = nfc = fulc = a + _GOLDEN * (b - a)         # best, second, third
    fx = ffulc = fnfc = f(xf)
    if fx <= stop:
        return xf, fx
    rat = e = 0.0
    evals, xm = 1, 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    while abs(xf - xm) > 2 * tol1 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:                           # try a parabola
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q, r, e = (-p if q > 0 else p), abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden, rat = False, (p + 0.0) / q
                x = xf + rat
                if x - a < 2 * tol1 or b - x < 2 * tol1:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        evals += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        if fu <= stop:
            return x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        if evals >= 500:
            break
    return xf, fx
