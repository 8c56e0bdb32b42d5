"""Derivative-free minimizers that reproduce scipy's steps bit for bit.

`nelder_mead` is scipy's minimize(method="Nelder-Mead") and `bounded_brent`
scipy's minimize_scalar(method="bounded"). Both use numpy and the standard
library only, so the package imports without scipy.
"""

import math

import numpy as np

# trial points A * xbar - B * worst: reflection, expansion, outside and
# inside contraction (0.5 xbar + 0.5 worst, bit for bit)
_NM_A = np.array([[2.0], [3.0], [1.5], [0.5]])
_NM_B = np.array([[1.0], [2.0], [0.5], [-0.5]])


def nelder_mead(fun, x0, maxiter, xatol, fatol):
    """scipy's minimize(method="Nelder-Mead"), step for step.

    fun(points (m, N)) returns the (m,) objective values. The run follows
    scipy's steps (standard coefficients, initial simplex 1.05 x0_k or
    0.00025 where x0_k = 0, no evaluation cap, the same xatol/fatol test),
    but one fun call covers all four trial points of a step, for an
    objective that costs per call; a shrink takes a second call. The
    simplex is sorted by numpy's default argsort, as scipy sorts it:
    log(p/q) is flat enough to tie vertex values exactly, and a stable sort
    would take a different path there. Returns (x (N,), fun, nit).
    """
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.repeat(x0[None], N + 1, axis=0)
    k = np.arange(N)
    sim[k + 1, k] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = fun(sim)
    sim, fsim = _sort_simplex(*_sort_simplex(sim, fsim))  # scipy sorts twice
    nit = 1
    # scipy's stopping test; an infinite best value fails it, as inf - inf
    # = nan does in scipy, without the invalid-value warning
    while (nit < maxiter
           and not (np.abs(sim[1:] - sim[0]).max() <= xatol
                    and np.isfinite(fsim[0])
                    and np.abs(fsim[0] - fsim[1:]).max() <= fatol)):
        xbar = np.add.reduce(sim[:-1], 0) / N
        trial = _NM_A * xbar - _NM_B * sim[-1]
        fr, fe, fc, fcc = ft = fun(trial)
        best, second, worst = fsim[0], fsim[-2], fsim[-1]
        if fr < best:
            pick = 1 if fe < fr else 0            # expand
        elif fr < second:
            pick = 0                               # reflect
        elif fr < worst:
            pick = 2 if fc <= fr else -1           # contract outside
        else:
            pick = 3 if fcc < worst else -1        # contract inside
        if pick >= 0:
            sim[-1], fsim[-1] = trial[pick], ft[pick]
        else:
            sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
            fsim[1:] = fun(sim[1:])
        nit += 1
        sim, fsim = _sort_simplex(sim, fsim)
    return sim[0], fsim.min(), nit


def _sort_simplex(sim, fsim):
    """Order the vertices by value with numpy's default argsort."""
    order = np.argsort(fsim)
    return sim[order], fsim[order]


# numpy scalars, as in scipy: every point derived from them is a float64
# scalar, so func sees the same type (np.float64 ** 2 squares exactly, where
# float ** 2 calls the C pow)
_SQRT_EPS = np.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


# scipy's default evaluation cap for the bounded Brent search
_BRENT_MAXFUN = 500


def bounded_brent(func, lo, hi, xatol):
    """Minimize a scalar function on [lo, hi]: scipy's
    minimize_scalar(method="bounded"), step for step.

    Brent's method: parabolic interpolation through the three best points
    when the parabola's minimum lies inside the bracket and the step
    shrinks, a golden-section step otherwise; no step is shorter than
    sqrt(2.2e-16) |x| + xatol / 3. Stops when the bracket around the best
    point is within twice that, or after scipy's default of 500
    evaluations. Returns (x, f(x), evaluations).
    """
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bounds must be finite")
    if lo > hi:
        raise ValueError("the lower bound exceeds the upper bound")
    a, b = lo, hi
    # xf is the best point so far, nfc the second best, fulc the previous
    # second best (scipy's names)
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + _sign(rat) * np.maximum(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx, num


def _sign(v):
    """np.sign(v) + (v == 0), as scipy writes it: 1 at 0, NaN for NaN."""
    return np.sign(v) + (v == 0)
