"""Real spherical harmonics on the unit sphere.

Orthonormal convention: the L2(S^2) norm of every basis function is 1, and
the Condon-Shortley phase is cancelled (Y_{1,1} is a positive multiple of
x). Evaluation uses the stable fully-normalized associated-Legendre
recurrence; analysis is a weighted least-squares projection, so the
analyze/synthesize round trip is exact (up to conditioning) on band-limited
fields regardless of quadrature error. The weighted Gram matrix of the basis
on a mesh is well conditioned (cond(sqrt(w) B) stays near 1 up to the band
limit), so analysis solves the normal equations with the inverse of a
Cholesky factor computed once per mesh and band. Derivatives act on the
coefficients through three ladder matrices per band, exact up to rounding.
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


def _angles(points):
    """cos theta, sin theta, cos phi and sin phi of unit points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    ct = np.clip(z, -1.0, 1.0)
    st = np.sqrt(np.maximum(1.0 - ct * ct, 0.0))
    phi = np.arctan2(y, x)
    return ct, st, np.cos(phi), np.sin(phi)


def _legendre(ct, st, L):
    """Fully normalized associated Legendre values at cos theta = ct.

    Yields (m, ell, P) for m = 0..L and ell = m..L in that order, P the
    values of the normalized P_l^m, so that Y_lm is sqrt2 cos(m phi) P for
    m > 0, sqrt2 sin(m phi) P for -m, and P for m = 0.
    """
    n = len(ct)
    # iterate over m; for each m walk l = m..L with the normalized recurrence
    pmm = np.full(n, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(L + 1):
        if m > 0:
            pmm = pmm * st * np.sqrt((2 * m + 1) / (2.0 * m))
        p_prev = np.zeros(n)   # P_{l-2}^m, seeded as 0
        p_curr = pmm           # P_m^m
        a_prev = 0.0
        for ell in range(m, L + 1):
            if ell == m:
                p = p_curr
            else:
                a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
                if ell == m + 1:
                    p = a * ct * p_curr
                else:
                    p = a * (ct * p_curr - p_prev / a_prev)
                p_prev, p_curr, a_prev = p_curr, p, a
            yield m, ell, p


def real_sph_harm_matrix(points, L):
    """Evaluate the real orthonormal harmonics Y_lm, l <= L, at unit points.

    Returns an (npoints, (L+1)^2) matrix; columns ordered (l, m) with
    m = -l..l. cos(m phi) and sin(m phi) are stepped in m by angle
    addition from one cos and sin of phi.
    """
    ct, st, c1, s1 = _angles(points)
    # one contiguous row per harmonic; the caller gets the transpose
    out = np.empty(((L + 1) ** 2, len(ct)))
    sqrt2 = np.sqrt(2.0)
    cm, sm = np.full(len(ct), sqrt2), np.zeros(len(ct))  # sqrt2 cos, sin(m phi)
    for m, ell, p in _legendre(ct, st, L):
        if m == 0:
            out[sh_index(ell, 0)] = p
            continue
        if ell == m:
            cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
        np.multiply(p, cm, out=out[sh_index(ell, m)])
        np.multiply(p, sm, out=out[sh_index(ell, -m)])
    return out.T


def mesh_basis(mesh, L):
    """Harmonics up to L at the mesh's normals and the triangular factors
    (C^-1, C^-T) of the inverse of their weighted Gram matrix C C^T, built
    once per band and cached on the mesh.

    The normals are the construction directions (the vertices on the
    sphere), and the Gram matrix is weighted by `direction_weights`, the
    icosphere's areas, so it stays near the identity on every Wulff mesh.
    It is summed over blocks of _GRAM_ROWS vertices, so no weighted copy
    of the basis is made. The factors are inverted once so that each
    analysis is two matrix-vector products; a numpy solve would refactor
    per call. A band above `band_limit` is rejected: its Gram matrix is not
    trusted.
    """
    limit = band_limit(mesh.n_vertices)
    if L > limit:
        raise ValueError(f"band {L} exceeds mesh limit {limit}")

    def build(mesh):
        B = real_sph_harm_matrix(mesh.normals, L)
        gram = np.zeros((B.shape[1],) * 2)
        for lo in range(0, len(B), _GRAM_ROWS):
            rows = B[lo:lo + _GRAM_ROWS]
            w = mesh.direction_weights[lo:lo + _GRAM_ROWS, None]
            gram += rows.T @ (w * rows)
        cinv = np.linalg.inv(np.linalg.cholesky(gram))
        return B, (cinv, cinv.T)
    return mesh.cached(("sh_basis", L), build)


def sh_analyze(mesh, values, L):
    """Least-squares projection of per-vertex values onto harmonics up to L."""
    B, (cinv, cinv_t) = mesh_basis(mesh, L)
    return cinv_t @ (cinv @ (B.T @ (mesh.direction_weights * values)))


def _band(coeffs):
    """Band L of a coefficient vector of length (L+1)^2."""
    L = int(np.sqrt(len(coeffs))) - 1
    if L < 0 or (L + 1) ** 2 != len(coeffs):
        raise ValueError("coefficient vector length must be a nonzero "
                         f"perfect square, got {len(coeffs)}")
    return L


def sh_synthesize(coeffs, points):
    """Evaluate the harmonic expansion at arbitrary unit points.

    For each m the sums over l of c_lm P_l^m and c_l,-m P_l^m are taken
    inside the Legendre recurrence and then multiplied by sqrt2 cos(m phi)
    and sqrt2 sin(m phi), so no (npoints, (L+1)^2) matrix is formed.
    """
    L = _band(coeffs)
    ct, st, c1, s1 = _angles(points)
    n = len(ct)
    out = np.zeros(n)
    cm, sm = np.full(n, np.sqrt(2.0)), np.zeros(n)
    acc_c, acc_s = np.zeros(n), np.zeros(n)
    for m, ell, p in _legendre(ct, st, L):
        if m == 0:
            out += coeffs[sh_index(ell, 0)] * p
            continue
        if ell == m:
            acc_c[:] = acc_s[:] = 0.0
        acc_c += coeffs[sh_index(ell, m)] * p
        acc_s += coeffs[sh_index(ell, -m)] * p
        if ell == L:
            cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
            out += acc_c * cm
            out += acc_s * sm
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
    e1, e2 = np.array(mesh.frames).transpose(0, 2, 1).copy()  # rows x, y, z

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    s1, s2 = ([dot(row, e) for row in hess_p] for e in (e1, e2))
    grad = np.stack((dot(e1, grad_p), dot(e2, grad_p)), axis=1)
    hess = np.empty((len(val), 2, 2))
    hess[:, 0, 0] = dot(e1, s1) - radial
    hess[:, 0, 1] = hess[:, 1, 0] = dot(e2, s1)   # one entry: symmetric
    hess[:, 1, 1] = dot(e2, s2) - radial
    return val, grad, hess
