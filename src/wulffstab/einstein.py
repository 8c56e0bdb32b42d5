"""Pointwise eigenvalue algebra for quasi-Einstein hypersurfaces (any n >= 3).

Everything here operates on principal-curvature spectra: Ricci eigenvalues,
the pinching inequality between trace-free norms, the quartic polynomials
comparing Riemann and Ricci deviations from the constant-curvature model,
Monte Carlo bounds on their ratio, and the Sobolev interpolation exponent.
"""

import numpy as np


class EigenSpectrum:
    """Sorted principal curvatures of h plus the model constant kappa."""

    def __init__(self, eigenvalues, kappa=0.0):
        lam = np.sort(np.asarray(eigenvalues, dtype=float))
        if lam.size < 3:
            raise ValueError("need dimension n >= 3")
        self.eigenvalues = lam
        self.n = lam.size
        self.kappa = float(kappa)


def ricci_spectrum(spec):
    """Ricci eigenvalues Lambda_j = lambda_j * sum_{k != j} lambda_k."""
    lam = spec.eigenvalues if isinstance(spec, EigenSpectrum) else np.asarray(spec)
    return lam * (lam.sum() - lam)


def _pinching(spec, lambda_low, factor):
    """|Ric_dev|^2 against factor(n) * Lambda^2 * |h_dev|^2; see pinching_check."""
    s = spec if isinstance(spec, EigenSpectrum) else EigenSpectrum(spec)
    if lambda_low <= 0 or s.eigenvalues.min() < lambda_low:
        return None, None, None
    lam = s.eigenvalues
    n = s.n
    Lam = ricci_spectrum(s)
    ric_dev2 = float(np.sum(Lam ** 2) - Lam.sum() ** 2 / n)
    h_dev2 = float(np.sum(lam ** 2) - lam.sum() ** 2 / n)
    rhs = factor(n) * lambda_low ** 2 * h_dev2
    return ric_dev2, rhs, bool(ric_dev2 >= rhs - 1e-12 * max(1.0, rhs))


def pinching_check(spec, lambda_low):
    """Evaluate |Ric_dev|^2 against (n-1) * Lambda^2 * |h_dev|^2.

    Returns (lhs, rhs, pass); both sides use standard tensor norms
    |T_dev|^2 = sum eig^2 - (sum eig)^2 / n. Not applicable (None flags)
    when the spectrum violates min lambda >= Lambda > 0.
    """
    return _pinching(spec, lambda_low, lambda n: n - 1)


def pinching_check_provable(spec, lambda_low):
    """Same comparison with the provable factor (n-2)^2 Lambda^2.

    Pointwise, Lambda_i - Lambda_j = (lambda_i - lambda_j) sum_{k != i,j}
    lambda_k and the inner sum has n-2 terms, each >= Lambda; squaring and
    summing gives |Ric_dev|^2 >= (n-2)^2 Lambda^2 |h_dev|^2.
    """
    return _pinching(spec, lambda_low, lambda n: (n - 2) ** 2)


def polys(spec):
    """The quartic polynomials p and q of the spectrum.

    p = sum over ordered pairs i != j of (lambda_i lambda_j - kappa)^2,
    q = sum_i (Lambda_i - (n-1) kappa)^2.
    """
    s = spec if isinstance(spec, EigenSpectrum) else EigenSpectrum(spec)
    p, q = polys_batch(s.eigenvalues[None, :], s.kappa)
    return float(p[0]), float(q[0])


def polys_batch(lams, kappa):
    """Vectorized p, q over a (m, n) batch of spectra."""
    lams = np.asarray(lams, dtype=float)
    m, n = lams.shape
    prod = lams[:, :, None] * lams[:, None, :]
    off = ~np.eye(n, dtype=bool)
    p = np.sum((prod[:, off] - kappa) ** 2, axis=1)
    Lam = lams * (lams.sum(axis=1, keepdims=True) - lams)
    q = np.sum((Lam - (n - 1) * kappa) ** 2, axis=1)
    return p, q


def analytic_zeros(n, kappa):
    """The common zero set of p and q: empty for kappa < 0, the curvature
    axes for kappa = 0, the two umbilic points for kappa > 0."""
    if kappa < 0:
        return np.empty((0, n))
    if kappa == 0:
        out = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            out.extend([e, -e])
        return np.array(out)
    r = np.sqrt(kappa)
    ones = np.ones(n)
    return np.array([r * ones, -r * ones])


class RatioBound:
    """Monte Carlo estimate of inf and sup of p/q off the common zeros."""

    def __init__(self, n, kappa, c1, c2, samples, argmin, argmax):
        self.n = n
        self.kappa = kappa
        self.c1 = c1
        self.c2 = c2
        self.samples = samples
        self.argmin = argmin
        self.argmax = argmax


def _ratio(lams, kappa, guard=1e-300):
    p, q = polys_batch(lams, kappa)
    keep = (p + q) > 1e-24
    return p[keep] / np.maximum(q[keep], guard), lams[keep]


def _nelder_mead_ratio(lam0, kappa, sign, steps=400):
    """Local refinement of an extremizer of log(p/q) by Nelder-Mead."""
    from scipy.optimize import minimize

    def obj(lam):
        p, q = polys_batch(lam[None, :], kappa)
        if p[0] + q[0] < 1e-20 or q[0] <= 0:
            return np.inf
        return sign * np.log(p[0] / q[0])

    res = minimize(obj, lam0, method="Nelder-Mead",
                   options={"maxiter": steps, "xatol": 1e-10, "fatol": 1e-12})
    return (res.x, np.exp(sign * res.fun)) if np.isfinite(res.fun) else (lam0, None)


def ratio_bounds(n, kappa, budget=10 ** 6, seed=0, kappa_max=10.0, workers=1):
    """Estimate c1 = inf p/q and c2 = sup p/q over three sampling regimes.

    Regimes: uniform directions on the spectrum sphere (covers kappa = 0
    and the |lambda| -> infinity limit), Gaussian bulk at the kappa scale,
    and shrinking balls around the analytic zeros; extremizer candidates
    are polished by local search. Deterministic for a fixed seed; batches
    are merged in index order so the worker count never changes results.
    """
    if abs(kappa) > kappa_max:
        raise ValueError(f"|kappa| exceeds the configured bound {kappa_max}")
    scale = max(1.0, np.sqrt(abs(kappa)))
    zeros = analytic_zeros(n, kappa)
    batches = max(1, budget // 100_000)
    per = budget // batches

    def run_batch(b):
        rng = np.random.default_rng((seed, b))
        third = per // 3
        sphere = rng.normal(size=(third, n))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        bulk = rng.normal(size=(third, n)) * 2.0 * scale
        chunks = [sphere, bulk]
        if len(zeros):
            radii = 10.0 ** rng.uniform(-6, 0, size=per - 2 * third)
            centers = zeros[rng.integers(0, len(zeros), size=per - 2 * third)]
            dirs = rng.normal(size=(per - 2 * third, n))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            chunks.append(centers + radii[:, None] * dirs * scale)
        else:
            chunks.append(rng.normal(size=(per - 2 * third, n)) * 0.5 * scale)
        lams = np.concatenate(chunks)
        r, kept = _ratio(lams, kappa)
        if r.size == 0:
            return None
        imin, imax = int(np.argmin(r)), int(np.argmax(r))
        return (r[imin], kept[imin], r[imax], kept[imax], r.size)

    results = []
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run_batch, range(batches)))
    else:
        results = [run_batch(b) for b in range(batches)]

    c1, c2 = np.inf, 0.0
    argmin = argmax = None
    total = 0
    for res in results:
        if res is None:
            continue
        rmin, lmin, rmax, lmax, cnt = res
        total += cnt
        if rmin < c1:
            c1, argmin = rmin, lmin
        if rmax > c2:
            c2, argmax = rmax, lmax
    lam, val = _nelder_mead_ratio(argmin, kappa, +1)
    if val is not None and val < c1:
        c1, argmin = val, lam
    lam, val = _nelder_mead_ratio(argmax, kappa, -1)
    if val is not None and val > c2:
        c2, argmax = val, lam
    return RatioBound(n, kappa, float(c1), float(c2), total, argmin, argmax)


def zero_set_check(n, kappa, budget=10 ** 5, seed=0, ball=1e-3, refine=8):
    """Verify the common-zero characterization of p and q numerically.

    Checks that p and q vanish at the analytic zeros, that min(p + q) over
    samples outside shrinking balls around those zeros stays positive, and
    hunts for stray zeros of one polynomial where the other is bounded away
    from zero by local minimization from the lowest sampled values. A
    found stray zero (reported with its location) fails the check; this
    does happen for q when kappa < 0 and n >= 4.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng((seed, n))
    zeros = analytic_zeros(n, kappa)
    at_zeros = 0.0
    for z in zeros:
        p, q = polys(EigenSpectrum(z, kappa))
        at_zeros = max(at_zeros, p, q)
    scale = max(1.0, np.sqrt(abs(kappa)))
    lams = np.concatenate([
        rng.normal(size=(budget // 2, n)) * 2.0 * scale,
        rng.normal(size=(budget - budget // 2, n)) * 0.5 * scale,
    ])
    if len(zeros):
        d = np.min(np.linalg.norm(
            np.sort(lams, axis=1)[:, None, :] - zeros[None, :, :], axis=2),
            axis=1)
        off = lams[d > ball]
    else:
        off = lams
    p, q = polys_batch(off, kappa)
    min_off = float((p + q).min()) if len(off) else np.inf
    stray = []

    def hunt(minimized, other):
        vals = minimized(off)
        order = np.argsort(vals)[:refine]
        for idx in order:
            res = minimize(lambda lam: minimized(lam[None, :])[0], off[idx],
                           method="Nelder-Mead",
                           options={"maxiter": 600, "xatol": 1e-12,
                                    "fatol": 1e-16})
            lam = res.x
            if len(zeros):
                dist = np.min(np.linalg.norm(np.sort(lam) - zeros, axis=1))
                if dist <= ball:
                    continue
            if res.fun < 1e-14 and other(lam[None, :])[0] > 1e-6:
                stray.append(lam)

    hunt(lambda l: polys_batch(l, kappa)[0], lambda l: polys_batch(l, kappa)[1])
    hunt(lambda l: polys_batch(l, kappa)[1], lambda l: polys_batch(l, kappa)[0])
    passed = at_zeros < 1e-18 and min_off > 0 and not stray
    return {"passed": bool(passed), "max_at_zeros": at_zeros,
            "min_off_zeros": min_off, "stray_zeros": len(stray),
            "stray_points": stray, "n_zeros": len(zeros)}


def alpha_exponent(p, q, n=3):
    """Interpolation exponent of the quasi-Einstein estimate.

    alpha = 1 for n < q <= p/2 and p/q - 1 for p/2 <= q < p; both branches
    agree at q = p/2.
    """
    if not n < q < p:
        raise ValueError(f"need n < q < p, got n={n}, q={q}, p={p}")
    if q <= p / 2:
        return 1.0
    return p / q - 1.0
