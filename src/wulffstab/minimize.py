"""Derivative-free minimizers that reproduce scipy's steps bit for bit.

`nelder_mead` runs scipy's minimize(method="Nelder-Mead") from several
starts in lockstep; `bounded_brent` is scipy's
minimize_scalar(method="bounded"). Both use numpy and the standard library
only, so the package imports without scipy.
"""

import math

import numpy as np

# trial points A * xbar - B * worst: reflection, expansion, outside and
# inside contraction (0.5 xbar + 0.5 worst, bit for bit)
_NM_A = np.array([[2.0], [3.0], [1.5], [0.5]])
_NM_B = np.array([[1.0], [2.0], [0.5], [-0.5]])


def nelder_mead(fun, x0, maxiter, xatol, fatol, lazy=False):
    """Nelder-Mead from K starts in lockstep: K independent minimizations.

    x0 is (K, N); fun(points (m, N), start (m,)) returns the (m,) objective
    values of points that belong to the given start indices. Each start
    follows scipy's minimize(method="Nelder-Mead") step for step (standard
    coefficients, initial simplex 1.05 x_k or 0.00025 where x_k = 0, no
    evaluation cap, the same xatol/fatol test). One fun call covers every
    running start and all four trial points, for an objective that costs
    per call; starts that shrink take a second call. With lazy=True, for
    an objective that costs per point, each start evaluates only the
    points scipy evaluates: the reflection, then the expansion or one
    contraction where the reflection calls for it, in two calls. Each
    simplex is sorted by numpy's default argsort, as scipy sorts it:
    log(p/q) is flat enough to tie vertex values exactly, and a stable
    sort would take a different path there. Returns
    (x (K, N), fun (K,), nit (K,)).
    """
    x0 = np.asarray(x0, dtype=float)
    K, N = x0.shape
    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    k = np.arange(N)
    sim[:, k + 1, k] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = fun(sim.reshape(-1, N), np.repeat(np.arange(K), N + 1)).reshape(K, N + 1)
    sim, fsim = _sort_simplex(*_sort_simplex(sim, fsim))  # scipy sorts twice
    x, fx, nit = np.empty((K, N)), np.empty(K), np.empty(K, dtype=int)
    running = np.arange(K)
    iterations = 1
    while True:
        done = ((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= xatol)
                & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= fatol))
        if iterations >= maxiter:
            done[:] = True
        if done.any():
            x[running[done]] = sim[done, 0]
            fx[running[done]] = fsim[done].min(axis=1)
            nit[running[done]] = iterations
            running, sim, fsim = running[~done], sim[~done], fsim[~done]
        if not running.size:
            return x, fx, nit
        xbar = np.add.reduce(sim[:, :-1], 1) / N
        trial = _NM_A * xbar[:, None] - _NM_B * sim[:, -1:]
        best, second, worst = fsim[:, 0], fsim[:, -2], fsim[:, -1]
        if lazy:
            # points left NaN are those the pick below never reads
            ft = np.full((len(running), 4), np.nan)
            ft[:, 0] = fr = fun(trial[:, 0], running)
            need = np.where(fr < best, 1, np.where(
                fr < second, 0, np.where(fr < worst, 2, 3)))
            more = np.flatnonzero(need)
            if more.size:
                ft[more, need[more]] = fun(trial[more, need[more]],
                                           running[more])
        else:
            ft = fun(trial.reshape(-1, N),
                     np.repeat(running, 4)).reshape(-1, 4)
        fr, fe, fc, fcc = ft.T
        pick = np.where(fr < best, np.where(fe < fr, 1, 0),   # expand
                        np.where(fr < second, 0,               # reflect
                                 np.where(fr < worst,          # contract
                                          np.where(fc <= fr, 2, -1),
                                          np.where(fcc < worst, 3, -1))))
        step = np.flatnonzero(pick >= 0)
        sim[step, -1] = trial[step, pick[step]]
        fsim[step, -1] = ft[step, pick[step]]
        shrink = np.flatnonzero(pick < 0)
        if shrink.size:
            low = sim[shrink, :1]
            sim[shrink, 1:] = low + 0.5 * (sim[shrink, 1:] - low)
            fsim[shrink, 1:] = fun(sim[shrink, 1:].reshape(-1, N),
                                   np.repeat(running[shrink], N)).reshape(-1, N)
        iterations += 1
        sim, fsim = _sort_simplex(sim, fsim)


def _sort_simplex(sim, fsim):
    """Order each start's vertices by value with numpy's default argsort."""
    rows = np.arange(len(fsim))[:, None]
    order = np.argsort(fsim, axis=1)
    return sim[rows, order], fsim[rows, order]


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
