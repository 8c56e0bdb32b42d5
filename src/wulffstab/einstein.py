"""Pointwise eigenvalue algebra for quasi-Einstein hypersurfaces (any n >= 3).

Everything here operates on principal-curvature spectra, passed as float
arrays: one (n,) spectrum or an (m, n) batch, one spectrum per row. It
covers Ricci eigenvalues, the pinching inequality between trace-free norms,
the quartic polynomials p and q comparing Riemann and Ricci deviations from
the constant-curvature model (polys_batch), their zero sets in closed form,
the bounds c1 (exact) and c2 (Monte Carlo) on their ratio, and the Sobolev
interpolation exponent. ratio_bounds bounds one (n, kappa) cell;
ratio_bounds_cells bounds several kappas of one n from one draw of the
samples they share, each kappa bit for bit what ratio_bounds gives it.
"""

import numpy as np

from .minimize import nelder_mead


def ricci_spectrum(lams):
    """Ricci eigenvalues Lambda_j = lambda_j * sum_{k != j} lambda_k of an
    (n,) spectrum or of each row of an (m, n) batch."""
    lams = np.asarray(lams, dtype=float)
    return lams * (lams.sum(axis=-1, keepdims=True) - lams)


def pinching_check(lam, lambda_low):
    """Evaluate |Ric_dev|^2 against (n-1) * Lambda^2 * |h_dev|^2 for one
    (n,) spectrum lam, n >= 3.

    Returns (lhs, rhs, pass); both sides use standard tensor norms
    |T_dev|^2 = sum eig^2 - (sum eig)^2 / n. Not applicable (None flags)
    when the spectrum violates min lambda >= Lambda > 0.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size < 3:
        raise ValueError("need dimension n >= 3")
    if lambda_low <= 0 or lam.min() < lambda_low:
        return None, None, None
    n = lam.size
    Lam = ricci_spectrum(lam)
    ric_dev2 = float(np.sum(Lam ** 2) - Lam.sum() ** 2 / n)
    h_dev2 = float(np.sum(lam ** 2) - lam.sum() ** 2 / n)
    rhs = (n - 1) * lambda_low ** 2 * h_dev2
    return ric_dev2, rhs, bool(ric_dev2 >= rhs - 1e-12 * max(1.0, rhs))


# batches below this many rows and this many pair terms m n(n - 1) are
# summed row by row
_ROW_LAYOUT_MAX = 128
_ROW_TERMS_MAX = 1 << 16
_BLOCK_ROWS = 8192
_PAIRS = {}  # n -> (i, j), the ordered index pairs i != j in row-major order


def polys_batch(lams, kappa):
    """The quartic polynomials p and q of each spectrum of an (m, n) batch:

    p = sum over ordered pairs i != j of (lambda_i lambda_j - kappa)^2,
    q = sum_i (Lambda_i - (n-1) kappa)^2.

    Each spectrum's n(n - 1) pair terms and n Ricci terms are added in the
    order of numpy's pairwise sum over that spectrum alone, so p and q equal
    np.sum over each spectrum's own terms bit for bit, whatever the other
    rows of the batch. Two layouts give that order:

    - below _ROW_LAYOUT_MAX rows and _ROW_TERMS_MAX pair terms m n(n - 1),
      the terms are a C-ordered (m, n(n - 1)) array whose rows
      np.sum(axis=1) adds one by one (_polys_rows); a small batch then
      costs a few numpy calls. Past half a MiB of terms the blocks win:
      the polish's (n + 1)-row simplex takes them from n = 41 on (n = 70:
      from 14 rows);
    - otherwise blocks of _BLOCK_ROWS spectra are transposed to (n, m), so
      a pair's products over the block are one contiguous row, and the rows
      of terms are added in numpy's pairwise order (_polys_block,
      _pairwise_sum); a large batch then costs one numpy call per leaf of
      the pairwise sum, however many rows it has.
    """
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[1]
    if n not in _PAIRS:
        _PAIRS[n] = np.nonzero(~np.eye(n, dtype=bool))
    m = len(lams)
    if m < _ROW_LAYOUT_MAX and m * n * (n - 1) < _ROW_TERMS_MAX:
        return _polys_rows(np.ascontiguousarray(lams), kappa, *_PAIRS[n])
    p, q = np.empty(m), np.empty(m)
    for a in range(0, m, _BLOCK_ROWS):
        rows = slice(a, a + _BLOCK_ROWS)
        p[rows], q[rows] = _polys_block(lams[rows].T.copy(), kappa,
                                        *_PAIRS[n])
    return p, q


def _polys_rows(lams, kappa, i, j):
    """p, q of a C-ordered (m, n) batch, each row's terms summed as one
    contiguous row. np.take keeps the terms C-ordered; lams[:, i] would
    return them F-ordered, and np.sum would then add across rows."""
    terms = np.take(lams, i, axis=1)
    terms *= np.take(lams, j, axis=1)
    terms -= kappa
    np.square(terms, out=terms)
    Lam = lams.sum(axis=1, keepdims=True) - lams
    Lam *= lams
    Lam -= (lams.shape[1] - 1) * kappa
    np.square(Lam, out=Lam)
    return terms.sum(axis=1), Lam.sum(axis=1)


def _polys_block(bt, kappa, i, j):
    """p, q of one transposed (n, m) block; the pair terms of each leaf of
    the pairwise sum are formed when it is added, squared in place."""
    def pair_terms(a, b):
        terms = bt[i[a:b]]
        terms *= bt[j[a:b]]
        terms -= kappa
        return np.square(terms, out=terms)

    n = len(bt)
    p = _pairwise_sum(pair_terms, 0, len(i))
    Lam = _pairwise_sum(lambda a, b: bt[a:b], 0, n) - bt
    Lam *= bt
    Lam -= (n - 1) * kappa
    np.square(Lam, out=Lam)
    return p, _pairwise_sum(lambda a, b: Lam[a:b], 0, n)


def _pairwise_sum(terms, lo, hi):
    """Sum of the rows lo..hi of terms, where terms(a, b) returns rows a..b,
    taken in numpy's pairwise order for a sum of hi - lo values: below 8
    terms one after the other; up to 128 terms in 8 interleaved partial
    sums, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the remainder one after the other; above 128, the two halves split
    at a multiple of 8, each summed the same way.
    """
    count = hi - lo
    if count > 128:
        half = count // 2 - count // 2 % 8
        return (_pairwise_sum(terms, lo, lo + half)
                + _pairwise_sum(terms, lo + half, hi))
    rows = terms(lo, hi)
    if count < 8:
        return _add_in_turn(rows[0].copy(), rows[1:])
    whole = count - count % 8
    r = rows[:8].copy()
    for a in range(8, whole, 8):
        r += rows[a:a + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    return _add_in_turn(r[0] + r[1], rows[whole:])


def _add_in_turn(total, rows):
    for row in rows:
        total += row
    return total


def analytic_zeros(n, kappa):
    """The common zero set of p and q, which is Z(p) (zero_set_check): empty
    for kappa < 0, the axis points e_1, -e_1, ..., e_n, -e_n for kappa = 0
    (p and q vanish on the lines through them), the two umbilics
    +-sqrt(kappa) (1, ..., 1) for kappa > 0."""
    if kappa < 0:
        return np.empty((0, n))
    if kappa == 0:
        return np.stack([np.eye(n), -np.eye(n)], axis=1).reshape(2 * n, n)
    return np.sqrt(kappa) * np.array([np.ones(n), -np.ones(n)])


class RatioBound:
    """c1 = inf p/q (exact) and a Monte Carlo estimate of c2 = sup p/q."""

    def __init__(self, c1, c2, samples, argmin, argmax):
        self.c1 = c1
        self.c2 = c2
        self.samples = samples
        self.argmin = argmin
        self.argmax = argmax


def _ratio(lams, kappa):
    """p/q over the rows of lams off the common zeros, and those rows'
    indices into lams."""
    p, q = polys_batch(lams, kappa)
    kept = np.flatnonzero((p + q) > 1e-24)
    return p[kept] / np.maximum(q[kept], 1e-300), kept


KAPPA_MAX = 10.0  # bound on |kappa| for ratio_bounds and the CLI
# bound on n for the CLI: a spectrum has n(n-1) pair terms, so the Monte
# Carlo time grows as n^2; one n = 70 cell is ratio_bounds alone (the zero
# sets take milliseconds), 4.4-4.8 s at budget 200000 and a 110 MB peak on
# a 2-vCPU Xeon host (ratio_bounds_cells holds one (100000, n) sample
# buffer, 56 MB at n = 70, however many kappas it is given, and polys_batch
# one (n, 8192) block and the terms of one leaf of its pairwise sum, at
# most 128 x 8192 floats)
DIMENSION_MAX = 70


def ratio_bounds(n, kappa, budget=10 ** 6, seed=0):
    """c1 = inf p/q in closed form and c2 = sup p/q by Monte Carlo (n >= 3).

    Lambda_i - (n - 1) kappa = sum_{j != i} (lambda_i lambda_j - kappa), so
    Cauchy-Schwarz gives q <= (n - 1) p, with equality on the diagonal: c1
    = 1/(n - 1), attained at argmin = (1 + sqrt|kappa|) (1, ..., 1), which
    lies off Z(p). The sup is sampled over three regimes: uniform
    directions on the spectrum sphere (covers kappa = 0 and the |lambda| ->
    infinity limit), Gaussian bulk at the kappa scale, and shrinking balls
    around the analytic zeros; the largest sample is polished by local
    search. Deterministic for a fixed seed.

    The budget is drawn in max(1, budget // 100000) equal batches of
    fewer than 200000 spectra, batch b from default_rng((seed, b)): a third
    on the sphere, a third in the bulk, the rest in the balls (or a
    narrower Gaussian when there are no zeros). Every batch is drawn into
    the same (per, n) buffer, each regime in place in its own rows, so a
    call holds one batch of samples however large the budget. This is the
    one-cell case of ratio_bounds_cells, which bounds several kappas of
    one n from shared draws with the same result per kappa.
    """
    return ratio_bounds_cells(n, [kappa], budget, seed)[0]


def ratio_bounds_cells(n, kappas, budget=10 ** 6, seed=0):
    """ratio_bounds(n, kappa, budget, seed) for each kappa of kappas, one
    RatioBound each in the order given, bit for bit.

    The sphere and bulk rows of batch b do not depend on kappa, save the
    bulk's scale max(1, sqrt|kappa|), so each batch draws its sphere rows
    once and its bulk rows once per run of kappas of one scale, saving the
    generator state after each; every kappa restores the state after the
    bulk and draws only its ball rows, so it reads the stream ratio_bounds
    reads alone. polys_batch gives each row's p and q whatever the other
    rows are, and each kappa keeps its own largest sample and its own
    polish. Every kappa is checked before anything is drawn.
    """
    kappas = list(kappas)
    if n < 3:
        raise ValueError("need dimension n >= 3")
    for kappa in kappas:
        if not abs(kappa) <= KAPPA_MAX:
            raise ValueError(f"kappa = {kappa!r} must be finite with |kappa| "
                             f"<= the configured bound {KAPPA_MAX}")
    if not budget >= 1:
        raise ValueError(f"budget must be a positive sample count, got "
                         f"{budget!r}")
    scales = [max(1.0, np.sqrt(abs(kappa))) for kappa in kappas]
    zeros = [analytic_zeros(n, kappa) for kappa in kappas]
    batches = max(1, budget // 100_000)
    per = budget // batches
    third = per // 3
    lams = np.empty((per, n))
    sphere, bulk, ball = lams[:third], lams[third:2 * third], lams[2 * third:]

    c2, argmax = [0.0] * len(kappas), [None] * len(kappas)
    total = [0] * len(kappas)
    for b in range(batches):
        rng = np.random.default_rng((seed, b))
        rng.standard_normal(out=sphere)
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        after_sphere, drawn = rng.bit_generator.state, None
        for c, kappa in enumerate(kappas):
            scale = scales[c]
            if scale != drawn:
                rng.bit_generator.state = after_sphere
                rng.standard_normal(out=bulk)
                bulk *= 2.0
                bulk *= scale
                after_bulk, drawn = rng.bit_generator.state, scale
            else:
                rng.bit_generator.state = after_bulk
            if len(zeros[c]):
                radii = 10.0 ** rng.uniform(-6, 0, size=len(ball))
                centers = rng.integers(0, len(zeros[c]), size=len(ball))
                rng.standard_normal(out=ball)
                ball /= np.linalg.norm(ball, axis=1, keepdims=True)
                ball *= radii[:, None]
                ball *= scale
                ball += zeros[c][centers]
            else:
                rng.standard_normal(out=ball)
                ball *= 0.5
                ball *= scale
            r, kept = _ratio(lams, kappa)
            if r.size == 0:
                continue
            total[c] += r.size
            imax = int(np.argmax(r))
            if r[imax] > c2[c]:
                # a copy: the next kappa or batch overwrites lams
                c2[c], argmax[c] = r[imax], lams[kept[imax]].copy()
    bounds = []
    for c, kappa in enumerate(kappas):
        c2[c], argmax[c] = _polish(kappa, c2[c], argmax[c])
        argmin = np.full(n, 1.0 + np.sqrt(abs(kappa)))
        bounds.append(RatioBound(1.0 / (n - 1), c2[c], total[c], argmin,
                                 argmax[c]))
    return bounds


def _polish(kappa, c2, argmax):
    """The largest sample's ratio c2 at argmax, raised by a Nelder-Mead on
    -log(p/q) from argmax where that finds more; returns (c2, argmax).

    p/q reads as degenerate (inf) where q <= 0 or p + q < 1e-24 s^2, with
    s = max(max_i lambda_i^2, |kappa|) the row's squared scale: p and q are
    homogeneous of degree 4 under lambda -> t lambda, kappa -> t^2 kappa,
    so an absolute floor would make every vertex degenerate at tiny kappa.
    """
    def neg_log_ratio(lams):
        p, q = polys_batch(lams, kappa)
        s = np.maximum(np.square(lams).max(axis=1), abs(kappa))
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -np.log(p / q)
        return np.where((p + q < 1e-24 * s ** 2) | (q <= 0), np.inf, val)

    x, fx, _ = nelder_mead(neg_log_ratio, argmax, maxiter=400, xatol=1e-10,
                           fatol=1e-12)
    if np.isfinite(fx) and np.exp(-fx) > c2:
        return float(np.exp(-fx)), x.copy()
    return float(c2), argmax


def _q_only_zeros(n):
    """The n - 3 spectra where q vanishes and p does not at kappa = -1,
    one per split a = 2, ..., n - 2: a copies of x < 0 and b = n - a copies
    of y > 0, with y^2 = (n - 1)(a - 1) / (b - 1) and x = -(b - 1) y / (a - 1).
    """
    rows = []
    for a in range(2, n - 1):
        b = n - a
        y = np.sqrt((n - 1) * (a - 1) / (b - 1))
        rows.append(np.repeat([-(b - 1) * y / (a - 1), y], [a, b]))
    return np.array(rows).reshape(-1, n)


def _vanishes(values, lams):
    """Whether p or q at the rows of lams (unit scale) is zero to rounding.

    Each of q's n residuals Lambda_i - (n - 1) kappa carries a rounding
    error of order eps n (max|lambda|^2 + 1), and each of p's n(n - 1)
    residuals one of order eps (max|lambda|^2 + 1); so both sums of squares
    stay below n^3 (16 eps (max|lambda|^2 + 1))^2 at an exact zero.
    """
    n = lams.shape[1]
    m2 = np.square(lams).max(axis=1, initial=0.0)
    return values <= n ** 3 * (16 * np.finfo(float).eps * (m2 + 1.0)) ** 2


def zero_set_check(n, kappa):
    """Check the zero sets of p and q against their closed form (n >= 3).

    Z(p): p = 0 forces lambda_i lambda_j = kappa for all i != j. For
    kappa > 0 no lambda vanishes and lambda_i lambda_j = lambda_i lambda_k
    makes all of them equal, so Z(p) is the two umbilics
    +-sqrt(kappa) (1, ..., 1); for kappa = 0 at most one lambda is nonzero
    (the axis lines); for kappa < 0 any three lambdas would need pairwise
    opposite signs, so Z(p) is empty. Z(p) is analytic_zeros(n, kappa),
    and q vanishes there too.

    Z(q): q = 0 means Lambda_i = (n - 1) kappa for every i, i.e. every
    lambda_i is a root of t^2 - P1 t + (n - 1) kappa, so a zero of q takes
    at most two values. One value t gives (n - 1)(kappa - t^2) = 0: an
    umbilic. Two values, a copies of x and b = n - a copies of y, need
    x + y = P1, i.e. (a - 1) x + (b - 1) y = 0, and x y = (n - 1) kappa.
    a = 1 (or b = 1) forces y = 0 (or x = 0) and kappa = 0: an axis line.
    Otherwise 2 <= a <= n - 2, x = -(b - 1) y / (a - 1) and
    y^2 = -(n - 1)(a - 1) kappa / (b - 1), which needs kappa < 0 and n >= 4.
    Flipping the sign of y gives the spectrum of the split n - a, so taking
    y > 0 leaves exactly n - 3 spectra, and every zero of q off Z(p) is a
    permutation of one of them (_q_only_zeros): sqrt(3) (-1, -1, 1, 1) at
    n = 4, and also sqrt(2) (-1, -1, -1, 2, 2) at n = 5.

    p and q are homogeneous of degree 4 under lambda -> s lambda,
    kappa -> s^2 kappa, so both are evaluated at unit scale, lambda /
    sqrt|kappa| against sign(kappa): kappa = -1e-300 gets the verdict of
    kappa = -1. As numerical evidence, p and q must vanish to rounding at
    each analytic zero, and a spectrum of _q_only_zeros where q vanishes to
    rounding and p does not is a stray zero, where sup p/q is infinite.
    passed is true iff the analytic zeros vanish and there is no stray
    zero. Also returned: max_at_zeros (the largest p or q at the analytic
    zeros, at unit scale), n_zeros, stray_zeros (the number of stray
    spectra) and stray_points (those spectra at the given kappa).
    """
    if n < 3:
        raise ValueError("need dimension n >= 3")
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")
    unit = float(np.sign(kappa))
    zeros = analytic_zeros(n, unit)
    p, q = polys_batch(zeros, unit)
    at_zeros = float(np.max(np.concatenate([p, q]), initial=0.0))
    zeros_vanish = bool((_vanishes(p, zeros) & _vanishes(q, zeros)).all())
    spectra = _q_only_zeros(n) if unit < 0 else np.empty((0, n))
    p, q = polys_batch(spectra, unit)
    stray = spectra[_vanishes(q, spectra) & ~_vanishes(p, spectra)]
    return {"passed": zeros_vanish and not len(stray),
            "max_at_zeros": at_zeros, "n_zeros": len(zeros),
            "stray_zeros": len(stray),
            "stray_points": list(stray * np.sqrt(abs(kappa)))}


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
