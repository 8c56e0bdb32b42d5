"""Real spherical harmonics on the unit sphere.

Orthonormal convention: the L2(S^2) norm of every basis function is 1, and
the Condon-Shortley phase is cancelled (Y_{1,1} is a positive multiple of
x). Evaluation uses the stable fully-normalized associated-Legendre
recurrence; analysis is a weighted least-squares projection, so the
analyze/synthesize round trip is exact (up to conditioning) on band-limited
fields regardless of quadrature error. The weighted Gram matrix of the basis
on a mesh is well conditioned (cond(sqrt(w) B) stays near 1 up to the band
limit), so analysis solves the normal equations with the inverse of a
Cholesky factor computed once per mesh and band.
"""

import numpy as np


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


def real_sph_harm_matrix(points, L):
    """Evaluate the real orthonormal harmonics Y_lm, l <= L, at unit points.

    Returns an (npoints, (L+1)^2) matrix; columns ordered (l, m) with
    m = -l..l. cos(m phi) and sin(m phi) are stepped in m by angle
    addition from one cos and sin of phi.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    ct = np.clip(z, -1.0, 1.0)
    st = np.sqrt(np.maximum(1.0 - ct * ct, 0.0))
    phi = np.arctan2(y, x)
    c1, s1 = np.cos(phi), np.sin(phi)
    n = len(pts)
    # one contiguous row per harmonic; the caller gets the transpose
    out = np.empty(((L + 1) ** 2, n))
    sqrt2 = np.sqrt(2.0)
    # iterate over m; for each m walk l = m..L with the normalized recurrence
    pmm = np.full(n, np.sqrt(1.0 / (4.0 * np.pi)))
    cm, sm = np.full(n, sqrt2), np.zeros(n)  # sqrt2 cos(m phi), sqrt2 sin(m phi)
    for m in range(L + 1):
        if m > 0:
            pmm = pmm * st * np.sqrt((2 * m + 1) / (2.0 * m))
            cm, sm = cm * c1 - sm * s1, sm * c1 + cm * s1
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
            if m == 0:
                out[sh_index(ell, 0)] = p
            else:
                np.multiply(p, cm, out=out[sh_index(ell, m)])
                np.multiply(p, sm, out=out[sh_index(ell, -m)])
    return out.T


def mesh_basis(mesh, L):
    """Harmonics up to L at the mesh vertices and the triangular factors
    (C^-1, C^-T) of the inverse of their weighted Gram matrix C C^T, built
    once per band and cached on the mesh.

    The factors are inverted once so that each analysis is two
    matrix-vector products; a numpy solve would refactor per call.
    """
    def build(mesh):
        B = real_sph_harm_matrix(mesh.vertices, L)
        gram = B.T @ (mesh.weights[:, None] * B)
        cinv = np.linalg.inv(np.linalg.cholesky(gram))
        return B, (cinv, cinv.T)
    return mesh.cached(("sh_basis", L), build)


def sh_analyze(mesh, values, L):
    """Least-squares projection of per-vertex values onto harmonics up to L."""
    limit = band_limit(mesh.n_vertices)
    if L > limit:
        raise ValueError(f"band {L} exceeds mesh limit {limit}")
    B, (cinv, cinv_t) = mesh_basis(mesh, L)
    return cinv_t @ (cinv @ (B.T @ (mesh.weights * values)))


def sh_synthesize(coeffs, points):
    """Evaluate the harmonic expansion at arbitrary unit points."""
    L = int(np.sqrt(len(coeffs))) - 1
    if (L + 1) ** 2 != len(coeffs):
        raise ValueError("coefficient vector length must be a perfect square")
    return real_sph_harm_matrix(points, L) @ coeffs


# Fourth-order centered stencils on geodesic circles. The second derivative
# along a unit-speed great circle equals the covariant Hessian in that
# direction because the geodesic acceleration is purely normal.
_H_STEP = 1e-2
_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0          # offsets -2h,-h,h,2h
_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # offsets -2h,-h,0,h,2h
# vertices whose stencil harmonics are evaluated at once; each vertex's rows
# depend on its own points only, so the block size bounds the temporaries
# without changing an entry
_BLOCK_VERTICES = 2048


def _stencil_weights():
    """(5, 12) weights of the rows (g1, g2, h11, h22, h12) on the field at
    -2h, -h, h, 2h along e1, e2 and their bisector, less its vertex value.

    Every row's weights, the vertex's included, sum to 0, so acting on the
    differences from the vertex value gives the same rows with much less
    left to cancel.
    """
    w = np.zeros((5, 3, 4))
    w[0, 0] = w[1, 1] = _W1 / _H_STEP
    w2 = _W2[[0, 1, 3, 4]] / _H_STEP ** 2
    w[2, 0] = w[3, 1] = w[4, 2] = w2
    w[4, :2] = -0.5 * w2
    return w.reshape(5, 12)


def _derivative_rows(mesh, L):
    """Stencil combinations of the harmonics: rows (g1, g2, h11, h22, h12).

    Returns a (5, N, (L+1)^2) array; row k times a coefficient vector is
    that derivative at the vertices. The harmonics at the 12 off-vertex
    stencil points are evaluated one vertex block at a time.
    """
    n = mesh.n_vertices
    f0 = mesh_basis(mesh, L)[0]
    e1, e2 = mesh.frames
    dirs = (e1, e2, (e1 + e2) / np.sqrt(2.0))
    offs = np.array([-2 * _H_STEP, -_H_STEP, _H_STEP, 2 * _H_STEP])
    weights = _stencil_weights()
    rows = np.empty((5, n, (L + 1) ** 2))
    for lo in range(0, n, _BLOCK_VERTICES):
        sl = slice(lo, lo + _BLOCK_VERTICES)
        x = mesh.vertices[sl]
        pts = np.concatenate([np.cos(t) * x + np.sin(t) * d[sl]
                              for d in dirs for t in offs])
        # (harmonic, point, vertex) view with the points ordered as pts
        vals = real_sph_harm_matrix(pts, L).T.reshape(-1, 12, len(x))
        vals -= f0[sl].T[:, None]
        out = weights @ vals                     # (harmonic, row, vertex)
        rows[:, sl] = out.transpose(1, 2, 0)
    return rows


def spectral_derivatives(mesh, coeffs):
    """Covariant gradient and Hessian of a band-limited field at the vertices.

    The stencil combinations of the harmonics are built once per band and
    cached on the mesh, so each call is one product with the coefficients.

    Returns (value (N,), grad (N, 2) in the frame, hess (N, 2, 2)).
    """
    n = mesh.n_vertices
    L = int(np.sqrt(len(coeffs))) - 1
    rows = mesh.cached(("sh_stencil", L), lambda m: _derivative_rows(m, L))
    g1, g2, h11, h22, h12 = (rows.reshape(5 * n, -1) @ coeffs).reshape(5, n)
    grad = np.stack((g1, g2), axis=1)
    hess = np.empty((n, 2, 2))
    hess[:, 0, 0] = h11
    hess[:, 1, 1] = h22
    hess[:, 0, 1] = hess[:, 1, 0] = h12
    return mesh_basis(mesh, L)[0] @ coeffs, grad, hess
