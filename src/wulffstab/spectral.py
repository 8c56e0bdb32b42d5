"""Real spherical harmonics on the unit sphere.

Orthonormal convention: the L2(S^2) norm of every basis function is 1, and
the Condon-Shortley phase is cancelled (Y_{1,1} is a positive multiple of
x). Evaluation uses the stable fully-normalized associated-Legendre
recurrence; analysis is a weighted least-squares projection, so the
analyze/synthesize round trip is exact (up to conditioning) on band-limited
fields regardless of quadrature error. The weighted Gram matrix of the basis
on a mesh is well conditioned (cond(sqrt(w) B) stays near 1 up to the band
limit), so analysis solves the normal equations with a Cholesky factor
computed once per mesh and band.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve


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
    m = -l..l.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    ct = np.clip(z, -1.0, 1.0)
    st = np.sqrt(np.maximum(1.0 - ct * ct, 0.0))
    phi = np.arctan2(y, x)
    n = len(pts)
    # one contiguous row per harmonic; the caller gets the transpose
    out = np.empty(((L + 1) ** 2, n))
    sqrt2 = np.sqrt(2.0)
    # iterate over m; for each m walk l = m..L with the normalized recurrence
    pmm = np.full(n, np.sqrt(1.0 / (4.0 * np.pi)))
    for m in range(L + 1):
        if m > 0:
            pmm = pmm * st * np.sqrt((2 * m + 1) / (2.0 * m))
            cm = sqrt2 * np.cos(m * phi)
            sm = sqrt2 * np.sin(m * phi)
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
    """Harmonics up to L at the mesh vertices and the Cholesky factor of
    their weighted Gram matrix, built once per band and cached on the mesh.
    """
    def build(mesh):
        B = real_sph_harm_matrix(mesh.vertices, L)
        return B, cho_factor(B.T @ (mesh.weights[:, None] * B))
    return mesh.cached(("sh_basis", L), build)


def sh_analyze(mesh, values, L):
    """Least-squares projection of per-vertex values onto harmonics up to L."""
    limit = band_limit(mesh.n_vertices)
    if L > limit:
        raise ValueError(f"band {L} exceeds mesh limit {limit}")
    B, gram = mesh_basis(mesh, L)
    return cho_solve(gram, B.T @ (mesh.weights * values))


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


def _stencil_points(mesh):
    points = mesh.vertices
    e1, e2 = mesh.frames
    offs = np.array([-2 * _H_STEP, -_H_STEP, _H_STEP, 2 * _H_STEP])
    dirs = [e1, e2, (e1 + e2) / np.sqrt(2.0)]
    stacks = [points]
    for d in dirs:
        for t in offs:
            stacks.append(np.cos(t) * points + np.sin(t) * d)
    return np.concatenate(stacks)


def spectral_derivatives(mesh, coeffs):
    """Covariant gradient and Hessian of a band-limited field at the vertices.

    The harmonics at the stencil points are evaluated once per band and
    cached on the mesh, which makes repeated calls cheap.

    Returns (value (N,), grad (N, 2) in the frame, hess (N, 2, 2)).
    """
    n = mesh.n_vertices
    L = int(np.sqrt(len(coeffs))) - 1
    stencil = mesh.cached(("sh_stencil", L),
                          lambda m: real_sph_harm_matrix(_stencil_points(m), L))
    vals = (stencil @ coeffs).reshape(13, n)
    h = _H_STEP
    f0 = vals[0]
    out_g = np.empty((n, 2))
    d2 = np.empty((3, n))
    for k in range(3):
        block = vals[1 + 4 * k: 5 + 4 * k]  # rows: -2h, -h, h, 2h
        d1 = (_W1[0] * block[0] + _W1[1] * block[1]
              + _W1[2] * block[2] + _W1[3] * block[3]) / h
        d2[k] = (_W2[0] * block[0] + _W2[1] * block[1] + _W2[2] * f0
                 + _W2[3] * block[2] + _W2[4] * block[3]) / h ** 2
        if k < 2:
            out_g[:, k] = d1
    hess = np.empty((n, 2, 2))
    hess[:, 0, 0] = d2[0]
    hess[:, 1, 1] = d2[1]
    hess[:, 0, 1] = hess[:, 1, 0] = d2[2] - 0.5 * (d2[0] + d2[1])
    return f0, out_g, hess
