"""Real spherical harmonics on the unit sphere.

Orthonormal convention: the L2(S^2) norm of every basis function is 1, and
the Condon-Shortley phase is cancelled (Y_{1,1} is a positive multiple of
x). Evaluation is Cartesian and takes no angle: Y_lm is sqrt2 Q_l^m(z)
times Re or Im (x + iy)^m, where Q_l^m = P_l^m / sin^m theta follows the
stable fully-normalized associated-Legendre recurrence in z from a
constant seed, and (x + iy)^m is stepped by one complex multiply per m;
analysis is a weighted least-squares projection, so the
analyze/synthesize round trip is exact (up to conditioning) on band-limited
fields regardless of quadrature error. The weighted Gram matrix of the basis
on a mesh is well conditioned (cond(sqrt(w) B) stays near 1 up to the band
limit), so analysis solves the normal equations with the inverse of a
Cholesky factor, kept with the basis by the level's direction sphere.
Derivatives act on the coefficients through three ladder matrices per band,
exact up to rounding.
A mesh is analysed at its normals: a Wulff mesh's vertex i sits over the
icosphere direction nu_i, so its fields are fields on the direction sphere,
and this module's derivatives reach it by the chain rule
(`operators.covariant_derivatives`, `surface._spectral_graph`).
"""

import numpy as np


# vertex rows per block of the Gram matrix sum in `mesh_basis`
_GRAM_ROWS = 2048


def band_limit(n_vertices):
    """Largest admissible band for a mesh with the given vertex count."""
    return int(np.sqrt(n_vertices) / 2)


def graph_band(n_vertices):
    """Band that carries radius fields of graphs over the sphere."""
    return min(8, band_limit(n_vertices))


def sh_index(ell, m):
    """Column index of (l, m) in the coefficient vector; needs |m| <= l."""
    if ell < 0 or abs(m) > ell:
        raise ValueError(f"harmonic mode needs |m| <= l, got (l, m) = "
                         f"({ell}, {m})")
    return ell * ell + ell + m


def _legendre(z, L):
    """Fully normalized associated Legendre values divided by sin^m theta.

    Yields (m, ell, Q) for m = 0..L and ell = m..L in that order, Q the
    values of Q_l^m = P_l^m / sin^m theta at cos theta = z, a polynomial in
    z, so that Y_lm is sqrt2 Q Re (x + iy)^m for m > 0, sqrt2 Q Im (x + iy)^m
    for -m, and Q for m = 0. The seed Q_m^m is a scalar; every other Q is
    an (n,) array, valid until the next one is yielded (three buffers are
    reused).
    """
    bufs = [np.empty(len(z)) for _ in range(3)]
    qmm = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(L + 1):
        if m > 0:
            qmm *= np.sqrt((2 * m + 1) / (2.0 * m))
        yield m, m, qmm
        # l = m+1..L by the normalized recurrence; Q_{m+1}^m has no
        # Q_{l-2}^m term
        q_prev, q_curr, a_prev = None, qmm, 0.0
        for k, ell in enumerate(range(m + 1, L + 1)):
            a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
            q = bufs[k % 3]
            if ell == m + 1:
                np.multiply(z, a * qmm, out=q)
            else:
                np.multiply(z, q_curr, out=q)
                q_prev *= 1.0 / a_prev         # Q_{l-2}^m is not read again
                q -= q_prev
                q *= a
            q_prev, q_curr, a_prev = q_curr, q, a
            yield m, ell, q


def _points(points):
    """z and x + iy of (n, 3) unit points."""
    pts = np.asarray(points, dtype=float)
    return pts[:, 2], pts[:, 0] + 1j * pts[:, 1]


def real_sph_harm_matrix(points, L):
    """Evaluate the real orthonormal harmonics Y_lm, l <= L, at unit points.

    Returns an (npoints, (L+1)^2) matrix; columns ordered (l, m) with
    m = -l..l. sqrt2 (x + iy)^m is stepped in m by one complex multiply,
    so no angle is taken.
    """
    z, w = _points(points)
    # one contiguous row per harmonic; the caller gets the transpose
    out = np.empty(((L + 1) ** 2, len(z)))
    wm = np.full(len(z), np.sqrt(2.0) + 0j)      # sqrt2 (x + iy)^m
    for m, ell, q in _legendre(z, L):
        if m == 0:
            out[sh_index(ell, 0)] = q
            continue
        if ell == m:
            wm *= w
        np.multiply(q, wm.real, out=out[sh_index(ell, m)])
        np.multiply(q, wm.imag, out=out[sh_index(ell, -m)])
    return out.T


def mesh_basis(mesh, L):
    """Harmonics up to L at the mesh's normals and the triangular factors
    (C^-1, C^-T) of the inverse of their weighted Gram matrix C C^T, kept
    by the mesh's direction sphere for one band, the most recent.

    The normals are the construction directions (the vertices on the
    sphere), shared by every mesh of the level, and the Gram matrix is
    weighted by the icosphere's areas, so it stays near the identity on
    every Wulff mesh. It is summed over blocks of _GRAM_ROWS vertices, so
    no weighted copy of the basis is made. The factors are inverted once so
    that each analysis is two matrix-vector products; a numpy solve would
    refactor per call. A band above `band_limit` is rejected: its Gram
    matrix is not trusted.
    """
    limit = band_limit(mesh.n_vertices)
    if L > limit:
        raise ValueError(f"band {L} exceeds mesh limit {limit}")

    def build(sphere):
        B = real_sph_harm_matrix(sphere.vertices, L)
        gram = np.zeros((B.shape[1],) * 2)
        for lo in range(0, len(B), _GRAM_ROWS):
            rows = B[lo:lo + _GRAM_ROWS]
            w = sphere.weights[lo:lo + _GRAM_ROWS, None]
            gram += rows.T @ (w * rows)
        cinv = np.linalg.inv(np.linalg.cholesky(gram))
        return B, (cinv, cinv.T)
    return mesh.directions.cached(L, build)


def sh_analyze(mesh, values, L):
    """Least-squares projection of per-vertex values onto harmonics up to L."""
    B, (cinv, cinv_t) = mesh_basis(mesh, L)
    return cinv_t @ (cinv @ (B.T @ (mesh.directions.weights * values)))


def _band(coeffs):
    """Band L of a coefficient vector of length (L+1)^2."""
    L = int(np.sqrt(len(coeffs))) - 1
    if L < 0 or (L + 1) ** 2 != len(coeffs):
        raise ValueError("coefficient vector length must be a nonzero "
                         f"perfect square, got {len(coeffs)}")
    return L


def top_band(coeffs):
    """Highest band of a coefficient vector that holds a nonzero
    coefficient, 0 if none does."""
    nonzero = np.flatnonzero(coeffs)
    return int(np.sqrt(nonzero[-1])) if len(nonzero) else 0


def sh_synthesize(coeffs, points):
    """Evaluate the harmonic expansion at arbitrary unit points.

    The expansion is evaluated only up to its `top_band`: a band of zeros
    adds exact zeros, so the values are those of the full vector bit for
    bit. For each m the sums over l of c_lm Q_l^m and c_l,-m Q_l^m are taken
    as one stacked (2, n) accumulation inside the Legendre recurrence and
    then multiplied by sqrt2 Re (x + iy)^m and sqrt2 Im (x + iy)^m, so no
    (npoints, (L+1)^2) matrix is formed.
    """
    _band(coeffs)
    L = top_band(coeffs)
    coeffs = coeffs[:(L + 1) ** 2]
    z, w = _points(points)
    n = len(z)
    # column (l, m) holds c_lm and c_l,-m
    degree = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    pairs = np.stack((coeffs, coeffs[2 * degree * (degree + 1)
                                     - np.arange(len(coeffs))]))
    out = np.zeros(n)
    wm = np.full(n, np.sqrt(2.0) + 0j)           # sqrt2 (x + iy)^m
    acc, tmp = np.empty((2, n)), np.empty((2, n))
    for m, ell, q in _legendre(z, L):
        k = sh_index(ell, m)
        if m == 0:
            out += coeffs[k] * q
            continue
        pair = pairs[:, k:k + 1]
        if ell == m:
            wm *= w
            np.multiply(pair, q, out=acc)
        else:
            np.multiply(pair, q, out=tmp)
            acc += tmp
        if ell == L:
            np.multiply(acc[0], wm.real, out=tmp[0])
            np.multiply(acc[1], wm.imag, out=tmp[1])
            out += tmp[0]
            out += tmp[1]
    return out


# Write a field as the restriction of the harmonic P = sum c_lm r^l Y_lm.
# For P_l harmonic of degree l, x_a P_l = h_{l+1} + r^2 d_a P_l / (2l + 1)
# with h_{l+1} harmonic, so d_a maps band l to band l - 1 with
# D_a[(l-1, m'), (l, m)] = (2l + 1) * integral of x_a Y_lm Y_{l-1,m'} over S^2.
_LADDERS = {}  # L -> read-only (3, (L+1)^2, (L+1)^2) stack of D_x, D_y, D_z


def ladders(L):
    """The matrices D_a taking the coefficients of P to those of d_a P.

    The integrals are products of degree <= 2L, which Gauss-Legendre in
    cos(theta) with L + 1 nodes times 2L + 2 equispaced phi integrates
    exactly; only the l -> l - 1 blocks are kept.
    """
    if L not in _LADDERS:
        from numpy.polynomial.legendre import leggauss
        ct, wt = leggauss(L + 1)
        nphi = 2 * L + 2
        ct, w = np.repeat(ct, nphi), np.repeat(wt * 2 * np.pi / nphi, nphi)
        phi = np.tile(2 * np.pi * np.arange(nphi) / nphi, L + 1)
        st = np.sqrt(1.0 - ct * ct)
        pts = np.column_stack((st * np.cos(phi), st * np.sin(phi), ct))
        B = real_sph_harm_matrix(pts, L)
        ell = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
        scale = (2 * ell + 1) * (ell[:, None] == ell - 1)
        d = np.array([B.T @ ((w * x)[:, None] * B) * scale for x in pts.T])
        d.flags.writeable = False
        _LADDERS[L] = d
    return _LADDERS[L]


def spectral_derivatives(mesh, coeffs):
    """Covariant gradient and Hessian of a band-limited field at the vertices.

    On the unit sphere the covariant gradient is e_i . grad P and the
    covariant Hessian e_i^T (grad^2 P) e_j - (x . grad P) delta_ij, where
    x . grad P = sum l c_lm Y_lm. The coefficients of grad P and grad^2 P
    come from `ladders`, so the value, the degree-weighted field, the three
    partials and the six second partials are one product with the cached
    vertex basis, and exact up to rounding.

    Returns (value (N,), grad (N, 2) in the frame, hess (N, 2, 2)).
    """
    L = _band(coeffs)
    basis = mesh_basis(mesh, L)[0]
    d = ladders(L)
    ell = np.repeat(np.arange(L + 1), 2 * np.arange(L + 1) + 1)
    g = d @ coeffs                               # (3, K): D_a c
    h = (d @ g.T).transpose(0, 2, 1)             # (3, 3, K): D_a D_b c
    rows = np.concatenate(([coeffs, ell * coeffs], g, h[np.triu_indices(3)]))
    val, radial, *grad_p, sxx, sxy, sxz, syy, syz, szz = rows @ basis.T
    hess_p = ((sxx, sxy, sxz), (sxy, syy, syz), (sxz, syz, szz))
    e1, e2 = (e.T for e in mesh.frames)          # rows x, y, z, no copy

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    s1, s2 = ([dot(row, e) for row in hess_p] for e in (e1, e2))
    grad = np.stack((dot(e1, grad_p), dot(e2, grad_p)), axis=1)
    hess = np.empty((len(val), 2, 2))
    hess[:, 0, 0] = dot(e1, s1) - radial
    hess[:, 0, 1] = hess[:, 1, 0] = dot(e2, s1)   # one entry: symmetric
    hess[:, 1, 1] = dot(e2, s2) - radial
    return val, grad, hess
