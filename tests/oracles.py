"""Slow, independent reference implementations that the tests compare
against, and helpers only the tests use."""

from math import comb, factorial

import numpy as np
from scipy import sparse
from scipy.optimize import minimize_scalar
from scipy.special import gammaln, lpmv

from wulffstab.curvature import gauss_ricci
from wulffstab.einstein import ricci_spectrum
from wulffstab.flatgraph import _D1, _SLOPE_LIMIT, GridField
from wulffstab.integrand import _gauge_ascent
from wulffstab import spectral
from wulffstab.operators import get_operators
from wulffstab.spectral import sh_index
from wulffstab.spheremesh import direction_sphere
from wulffstab.stability import (SpectralGraphSurface, _ratio, center,
                                 kernel_frame, perturbation_field)
from wulffstab.surface import SurfaceGeometry, exp_graph, radial_graph


def real_sph_harm_matrix_reference(points, L):
    """Slow lpmv-based evaluation of the real orthonormal harmonics."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ct = np.clip(pts[:, 2], -1.0, 1.0)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    cols = []
    for ell in range(L + 1):
        for m in range(-ell, ell + 1):
            am = abs(m)
            lognorm = 0.5 * (np.log(2 * ell + 1) - np.log(4 * np.pi)
                             + gammaln(ell - am + 1) - gammaln(ell + am + 1))
            # (-1)^m cancels the Condon-Shortley phase carried by lpmv
            norm = (-1.0) ** am * np.exp(lognorm)
            P = lpmv(am, ell, ct)
            if m == 0:
                cols.append(norm * P)
            elif m > 0:
                cols.append(np.sqrt(2.0) * norm * P * np.cos(am * phi))
            else:
                cols.append(np.sqrt(2.0) * norm * P * np.sin(am * phi))
    return np.column_stack(cols)


def real_sph_harm_exact(points, ell, m, dps=40):
    """Y_lm at each float point in dps-digit arithmetic (mpmath), the
    coordinates taken exactly: sqrt2 N_lm D^m P_l(z) Re (x + iy)^m for m > 0,
    Im (x + iy)^{|m|} for m < 0 and N_l0 P_l(z) for m = 0, with D^m P_l
    from the integer coefficients of the Legendre polynomial
    P_l = 2^-l sum_k (-1)^k C(l, k) C(2l - 2k, l) z^(l - 2k), and
    N_lm^2 = (2l + 1)/(4 pi) (l - |m|)!/(l + |m|)!. This is the harmonics'
    Cartesian form, with no Condon-Shortley phase, evaluated far below
    double rounding."""
    import mpmath
    am = abs(m)
    # coefficients of D^am P_l times 2^l, by power of z
    coef = {}
    for k in range(ell // 2 + 1):
        p = ell - 2 * k
        if p >= am:
            coef[p - am] = ((-1) ** k * comb(ell, k) * comb(2 * ell - 2 * k, ell)
                            * factorial(p) // factorial(p - am))
    with mpmath.workdps(dps):
        norm = mpmath.sqrt(mpmath.mpf(2 * ell + 1) / (4 * mpmath.pi)
                           * mpmath.mpf(factorial(ell - am))
                           / factorial(ell + am)) / mpmath.mpf(2) ** ell
        if m:
            norm *= mpmath.sqrt(2)
        out = []
        for x, y, z in np.asarray(points, dtype=float):
            z = mpmath.mpf(float(z))
            q = mpmath.fsum(c * z ** p for p, c in coef.items())
            w = mpmath.mpc(float(x), float(y)) ** am
            out.append(float(norm * q * (w.real if m >= 0 else w.imag)))
    return np.array(out)


def real_sph_harm_matrix_columns(points, L):
    """The Cartesian harmonics recurrence writing one column of an
    (n, (L+1)^2) matrix at a time."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    z, w = pts[:, 2], pts[:, 0] + 1j * pts[:, 1]
    n = len(pts)
    out = np.empty((n, (L + 1) ** 2))
    qmm = np.sqrt(1.0 / (4.0 * np.pi))
    wm = np.full(n, np.sqrt(2.0) + 0j)          # sqrt2 (x + iy)^m
    for m in range(L + 1):
        if m > 0:
            qmm = qmm * np.sqrt((2 * m + 1) / (2.0 * m))
            # in place, as in `spectral`: numpy may pick another complex
            # loop, with other rounding, for a new output array
            wm *= w
        q_prev, q_curr, a_prev = 0.0, qmm, 0.0
        for ell in range(m, L + 1):
            if ell == m:
                q = q_curr
            else:
                a = np.sqrt((4.0 * ell * ell - 1.0) / (ell * ell - m * m))
                if ell == m + 1:
                    q = z * (a * qmm)
                else:
                    q = a * (z * q_curr - q_prev * (1.0 / a_prev))
                q_prev, q_curr, a_prev = q_curr, q, a
            if m == 0:
                out[:, sh_index(ell, 0)] = q
            else:
                out[:, sh_index(ell, m)] = q * wm.real
                out[:, sh_index(ell, -m)] = q * wm.imag
    return out


# The harmonic kernel of `spectral` before it went Cartesian: angles by
# arctan2, cos and sin, sin theta as sqrt(1 - z^2), and the Legendre
# recurrence carrying sin^m theta.
def _angles(points):
    """cos theta, sin theta, cos phi and sin phi of (n, 3) unit points."""
    pts = np.asarray(points, dtype=float)
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


def real_sph_harm_matrix_trig(points, L):
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


def sh_synthesize_trig(coeffs, points):
    """Evaluate the harmonic expansion at arbitrary unit points.

    For each m the sums over l of c_lm P_l^m and c_l,-m P_l^m are taken
    inside the Legendre recurrence and then multiplied by sqrt2 cos(m phi)
    and sqrt2 sin(m phi), so no (npoints, (L+1)^2) matrix is formed.
    """
    L = spectral._band(coeffs)
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


def sh_analyze_reference(mesh, values, L):
    """Weighted least squares through lstsq on sqrt(w) B, no factor reuse."""
    B = real_sph_harm_matrix_columns(mesh.vertices, L)
    sw = np.sqrt(mesh.weights)
    coeffs, *_ = np.linalg.lstsq(B * sw[:, None], values * sw, rcond=None)
    return coeffs


# Fourth-order centered stencils on geodesic circles. The second derivative
# along a unit-speed great circle equals the covariant Hessian in that
# direction because the geodesic acceleration is purely normal.
STENCIL_W1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0          # -2h,-h,h,2h
STENCIL_W2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # -2h..2h


def stencil_basis_reference(mesh, L, h):
    """Harmonics at the 13N stencil points of step h: the vertices, then 4
    geodesic offsets along e1, e2 and their bisector."""
    points = mesh.vertices
    e1, e2 = mesh.frames
    offs = np.array([-2 * h, -h, h, 2 * h])
    dirs = [e1, e2, (e1 + e2) / np.sqrt(2.0)]
    stacks = [points]
    for d in dirs:
        for t in offs:
            stacks.append(np.cos(t) * points + np.sin(t) * d)
    return spectral.real_sph_harm_matrix(np.concatenate(stacks), L)


def spectral_derivatives_reference(stencil, coeffs, h):
    """Value, gradient and Hessian by synthesizing the field at all 13N
    stencil points of step h (`stencil_basis_reference`) and combining the
    values; the truncation error is O(h^4)."""
    vals = (stencil @ coeffs).reshape(13, -1)
    n = vals.shape[1]
    w1, w2 = STENCIL_W1, STENCIL_W2
    f0 = vals[0]
    out_g = np.empty((n, 2))
    d2 = np.empty((3, n))
    for k in range(3):
        block = vals[1 + 4 * k: 5 + 4 * k]  # rows: -2h, -h, h, 2h
        d1 = (w1[0] * block[0] + w1[1] * block[1]
              + w1[2] * block[2] + w1[3] * block[3]) / h
        d2[k] = (w2[0] * block[0] + w2[1] * block[1] + w2[2] * f0
                 + w2[3] * block[2] + w2[4] * block[3]) / h ** 2
        if k < 2:
            out_g[:, k] = d1
    hess = np.empty((n, 2, 2))
    hess[:, 0, 0] = d2[0]
    hess[:, 1, 1] = d2[1]
    hess[:, 0, 1] = hess[:, 1, 0] = d2[2] - 0.5 * (d2[0] + d2[1])
    return f0, out_g, hess


def recover_radius_spectral_reference(mesh, coeffs, kind, translation):
    """The fixed point of `recover_radius_spectral` at every translation,
    zero included, out of place: new (N, 3) arrays and np.linalg.norm at
    every step."""
    c = np.asarray(translation, dtype=float)
    x0 = mesh.vertices
    s = np.ones(len(x0))
    for _ in range(60):
        y_new = s[:, None] * x0 + c
        y_new /= np.linalg.norm(y_new, axis=1, keepdims=True)
        val = spectral.sh_synthesize(coeffs, y_new)
        rho = np.exp(val) if kind == "exp" else 1.0 + val
        v = rho[:, None] * y_new - c
        s_new = np.linalg.norm(v, axis=1)
        delta = np.abs(s_new - s).max()
        s = s_new
        if delta < 1e-13:
            break
    resid = v / s[:, None] - x0
    ok = np.abs(resid).max() < 1e-9
    radius = np.log(s) if kind == "exp" else s - 1.0
    return radius, bool(ok)


def sweep_row_reference(base, integrand, family, eps, p, tolerance=1e-8):
    """(deficit, distance, ratio) of one amplitude of `scaling_sweep`, from
    the graph of eps times the family's unit field analysed afresh, as
    `exp_graph` or `radial_graph` builds it."""
    values = eps * perturbation_field(base, family)
    if base.integrand is None and family[0] == "harmonic":
        geom = exp_graph(base, values)
    else:
        geom = radial_graph(base, values)
    res = center(SpectralGraphSurface.from_geometry(geom), tolerance=tolerance)
    r = _ratio(geom, integrand, p, res.radius, kernel_frame(base))
    return r.deficit, r.distance, r.ratio


def frame_restriction(A3, e1, e2):
    """2x2 restrictions A[k, l] = e_k . A3 e_l of symmetric ambient matrices.

    A3 is (N, 3, 3) and e1, e2 are (N, 3) tangent frames; three 3-operand
    einsums, the off-diagonal entry computed once, so the result is exactly
    symmetric.
    """
    A = np.empty((len(A3), 2, 2))
    A[:, 0, 0] = np.einsum("ni,nij,nj->n", e1, A3, e1)
    A[:, 0, 1] = A[:, 1, 0] = np.einsum("ni,nij,nj->n", e1, A3, e2)
    A[:, 1, 1] = np.einsum("ni,nij,nj->n", e2, A3, e2)
    return A


def anisotropy_form_reference(integrand, nu, e1, e2):
    """A_F(nu) in the frames (e1, e2) through the full Hessian: P H P
    (`anisotropy_ambient`), symmetrized and restricted by three 3-operand
    einsums (`frame_restriction`)."""
    return frame_restriction(integrand.anisotropy_ambient(nu), e1, e2)


def gauge_reference(integrand, x):
    """`integrand.gauge` with the seed search over all points at once:
    one dense (points, sample) ratio matrix, then the library's ascent."""
    if np.any(np.linalg.norm(x, axis=1) == 0):
        raise ValueError("gauge is undefined at the origin")

    sample = direction_sphere(4).vertices
    fs = integrand.value(sample)
    ratios = x @ sample.T / fs[None, :]
    seed = sample[np.argmax(ratios, axis=1)]

    return _gauge_ascent(integrand, x, seed)


def finish_from_derivatives_reference(psi_d, h_chart):
    """Metric, tangent basis and shape operator of (N, 3, 2) chart columns
    and an (N, 2, 2) chart form through batched QR with a sign fix-up, the
    inverse of R and a three-operand einsum."""
    metric = np.einsum("nki,nkj->nij", psi_d, psi_d)
    q, r = np.linalg.qr(psi_d)
    sign = np.sign(np.einsum("nii->ni", r))
    sign[sign == 0] = 1.0
    q *= sign[:, None, :]
    r *= sign[:, :, None]
    rinv = np.linalg.inv(r)
    s_tau = np.einsum("nki,nkl,nlj->nij", rinv, h_chart, rinv)
    return metric, q, s_tau


def riemann_brute(h):
    """Riemann tensor Riem_ijkl = h_ik h_jl - h_il h_jk by explicit loops."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    riem = np.empty((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    riem[i, j, k, l] = h[i, k] * h[j, l] - h[i, l] * h[j, k]
    return riem


def ricci_from_riemann(riem):
    """Contraction Ric_ij = g^{pq} Riem_ipjq with g = Id."""
    return np.einsum("ipjp->ij", riem)


def ricci_matrix_oracle(lam):
    """Ricci eigenvalues through dense linear algebra on h = diag(lam)."""
    h = np.diag(np.asarray(lam, dtype=float))
    ric, _ = gauss_ricci(h)
    return np.sort(np.linalg.eigvalsh(ric))


def subdivide_reference(vertices, faces):
    """One 4-to-1 icosphere subdivision, one face and one midpoint at a time."""
    edge_mid = {}
    verts = list(vertices)

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in edge_mid:
            m = vertices[i] + vertices[j]
            m /= np.linalg.norm(m)
            edge_mid[key] = len(verts)
            verts.append(m)
        return edge_mid[key]

    new_faces = np.empty((4 * len(faces), 3), dtype=np.int64)
    for k, (a, b, c) in enumerate(faces):
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces[4 * k:4 * k + 4] = [[a, ab, ca], [b, bc, ab], [c, ca, bc],
                                      [ab, bc, ca]]
    return np.array(verts), new_faces


def diff4_roll(values, axis, spacing):
    """Fourth-order centered first derivative from four full np.roll
    copies of the grid; edges are left as NaN."""
    out = np.full_like(values, np.nan)
    core = (_D1[0] * np.roll(values, 2, axis) + _D1[1] * np.roll(values, 1, axis)
            + _D1[3] * np.roll(values, -1, axis) + _D1[4] * np.roll(values, -2, axis))
    sl = [slice(None)] * values.ndim
    sl[axis] = slice(2, -2)
    out[tuple(sl)] = core[tuple(sl)] / spacing
    return out


def flat_graph_shape_reference(field):
    """flat_graph_shape with Du stacked as (n, n, 2), out-of-place squares
    and h written one (i, j) slice of an (n, n, 2, 2) array at a time."""
    u = field.values
    hgrid = field.spacing
    du = np.stack([diff4_roll(u, 0, hgrid), diff4_roll(u, 1, hgrid)], axis=-1)
    gamma = np.sqrt(1.0 + np.sum(du ** 2, axis=-1))
    W = du / gamma[..., None]
    h = np.empty(u.shape + (2, 2))
    for i in range(2):
        for j in range(2):
            h[..., i, j] = diff4_roll(W[..., i], j, hgrid)
    mask = ~np.isnan(h).any(axis=(2, 3))
    slope = np.sqrt(np.sum(du ** 2, axis=-1))
    steep = mask & (slope > _SLOPE_LIMIT)
    warning = bool(steep.any())
    mask &= ~steep
    return h, mask, warning


def cap_reference(x, y, lam):
    return 1.0 - np.sqrt(1.0 - lam ** 2 * (x ** 2 + y ** 2))


def grid_w2p_norm_reference(field, p, mask=None):
    """W^{2,p} norm over the disk with roll differences; a mask is
    intersected with the disk points where no difference is NaN."""
    u = field.values
    hgrid = field.spacing
    ux = diff4_roll(u, 0, hgrid)
    uy = diff4_roll(u, 1, hgrid)
    uxx = diff4_roll(ux, 0, hgrid)
    uxy = diff4_roll(ux, 1, hgrid)
    uyy = diff4_roll(uy, 1, hgrid)
    rho = np.sqrt(field.x ** 2 + field.y ** 2)
    valid = rho <= field.extent
    for arr in (ux, uy, uxx, uxy, uyy):
        valid &= ~np.isnan(arr)
    if mask is not None:
        valid &= mask
    area = hgrid ** 2
    vals = np.abs(u[valid])
    grad = np.sqrt(ux[valid] ** 2 + uy[valid] ** 2)
    hess = np.sqrt(uxx[valid] ** 2 + 2 * uxy[valid] ** 2 + uyy[valid] ** 2)
    norm = 0.0
    for mag in (vals, grad, hess):
        norm += float(np.sum(area * mag ** p) ** (1.0 / p))
    return norm


def polys_batch_reference(lams, kappa, block_rows=8192):
    """p, q over a batch of spectra, row by row: a spectrum's pair terms
    are one row of a (m, n(n-1)) array, summed by np.sum, with the pair
    indices rebuilt per call and out-of-place temporaries."""
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[1]
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    p, q = np.empty(len(lams)), np.empty(len(lams))
    for a in range(0, len(lams), block_rows):
        rows = slice(a, a + block_rows)
        block = lams[rows]
        pairs = np.take(block, i, axis=1) * np.take(block, j, axis=1)
        p[rows] = np.sum((pairs - kappa) ** 2, axis=1)
        Lam = block * (block.sum(axis=1, keepdims=True) - block)
        q[rows] = np.sum((Lam - (n - 1) * kappa) ** 2, axis=1)
    return p, q


def cap_fit_reference(field, p=2):
    """cap_fit_residual with the roll-based norm, its per-call disk and NaN
    scan, and a polish that evaluates the objective afresh at every use,
    the current lambda included."""
    lam_max = 0.999 / (field.extent * np.sqrt(2.0))

    def objective(lam):
        diff = GridField(field.values - cap_reference(field.x, field.y, lam),
                         field.extent)
        return grid_w2p_norm_reference(diff, p)

    res = minimize_scalar(lambda lam: objective(lam) ** 2,
                          bounds=(0.0, lam_max), method="bounded",
                          options={"xatol": 1e-14})
    lam = float(res.x)
    for delta in (1e-5, 1e-8):
        f0, fm, fp = (objective(lam) ** 2, objective(lam - delta) ** 2,
                      objective(lam + delta) ** 2)
        denom = fm - 2 * f0 + fp
        if denom > 0:
            cand = lam + 0.5 * delta * (fm - fp) / denom
            if 0 < cand < lam_max and objective(cand) < objective(lam):
                lam = cand
    return float(objective(lam)), lam


def pinching_check_provable(lam, lambda_low):
    """|Ric_dev|^2 against the provable factor (n-2)^2 Lambda^2 |h_dev|^2.

    Pointwise, Lambda_i - Lambda_j = (lambda_i - lambda_j) sum_{k != i,j}
    lambda_k and the inner sum has n-2 terms, each >= Lambda; squaring and
    summing gives |Ric_dev|^2 >= (n-2)^2 Lambda^2 |h_dev|^2. Returns
    (lhs, rhs, pass).
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    Lam = ricci_spectrum(lam)
    ric_dev2 = float(np.sum(Lam ** 2) - Lam.sum() ** 2 / n)
    rhs = (n - 2) ** 2 * lambda_low ** 2 * float(np.sum(lam ** 2)
                                                 - lam.sum() ** 2 / n)
    return ric_dev2, rhs, bool(ric_dev2 >= rhs - 1e-12 * max(1.0, rhs))


def geometry_from_positions(base, positions):
    """Geometry of an arbitrary node-indexed surface over the sphere, its
    derivatives taken through the directions (`get_operators`, whose
    `jacobian_ambient` refuses a Wulff mesh), so the positions are read at
    `graph_band`.

    Used for surfaces that are not given as graphs (certificate
    counterexamples). Orientation follows the face winding of the base.
    """
    ops = get_operators(base)
    psi_d = ops.jacobian_ambient(positions)
    nu = np.cross(psi_d[:, :, 0], psi_d[:, :, 1])
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    # orient against averaged face normals
    p = positions[base.faces]
    fn = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    ref = np.zeros_like(positions)
    np.add.at(ref, base.faces.ravel(), np.repeat(fn, 3, axis=0))
    flip = np.einsum("ni,ni->n", nu, ref) < 0
    nu[flip] *= -1.0
    jac_nu = ops.jacobian_ambient(nu)
    h_chart = np.einsum("nki,nkj->nij", psi_d, jac_nu)
    h_chart = 0.5 * (h_chart + np.swapaxes(h_chart, 1, 2))
    return SurfaceGeometry(base, positions, nu,
                           (psi_d[:, :, 0], psi_d[:, :, 1]), h_chart, None,
                           "mesh", None)


def wulff_graph_stencil(wmesh, stencils, values):
    """Geometry of {x + u(x) nu_W(x)} over a Wulff mesh, from mesh stencils.

    The Gauss map of W gives the first derivatives (d nu_W = A_F^-1); the
    values and the normal field are differentiated with the cubic fits of
    `stencils_reference(wmesh)`, so the result carries their O(h^2) error.
    """
    g1, g2 = stencils[:2]
    grad = np.column_stack((g1 @ values, g2 @ values))
    e1, e2 = wmesh.frames
    frames = np.stack((e1, e2), axis=2)
    sw = wmesh.shape_operator  # (N, 2, 2) in frame
    nu_w = wmesh.normals
    positions = wmesh.vertices + values[:, None] * nu_w
    psi_d = np.empty((len(values), 3, 2))
    for i in range(2):
        dn = np.einsum("nk,nak->na", sw[:, :, i], frames)  # d nu_W[e_i]
        psi_d[:, :, i] = (frames[:, :, i] + values[:, None] * dn
                          + grad[:, i:i + 1] * nu_w)
    nu = np.cross(psi_d[:, :, 0], psi_d[:, :, 1])
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    flip = np.einsum("ni,ni->n", nu, nu_w) < 0
    nu[flip] *= -1.0
    jac_nu = np.stack((g1 @ nu, g2 @ nu), axis=2)  # (N, 3, 2)
    h_chart = np.einsum("nki,nkj->nij", psi_d, jac_nu)
    # the congruence is linear, so symmetrizing the form first gives the
    # symmetric part of the shape operator
    h_chart = 0.5 * (h_chart + np.swapaxes(h_chart, 1, 2))
    return SurfaceGeometry(wmesh, positions, nu,
                           (psi_d[:, :, 0], psi_d[:, :, 1]), h_chart, values,
                           "radial", None)


def vertex_adjacency_reference(n_vertices, faces):
    nbrs = [set() for _ in range(n_vertices)]
    for a, b, c in faces:
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    return [np.array(sorted(s), dtype=np.int64) for s in nbrs]


def two_ring_reference(nbrs, i):
    out = set(nbrs[i].tolist())
    for j in nbrs[i]:
        out.update(nbrs[j].tolist())
    out.discard(i)
    return np.array(sorted(out), dtype=np.int64)


# monomials of the cubic fit in chart coordinates (a, b); the 1/2 and 1/6
# factors make the quadratic coefficients the Hessian entries
EXPONENTS = np.array([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                      (3, 0), (2, 1), (1, 2), (0, 3)])
FACTORS = np.array([1.0, 1, 1, 0.5, 1, 0.5, 1 / 6, 0.5, 0.5, 1 / 6])


def design_matrix_reference(y):
    """Cubic monomials (..., m, 10) of chart points y (..., m, 2)."""
    m = y[..., 0:1] ** EXPONENTS[:, 0] * y[..., 1:2] ** EXPONENTS[:, 1]
    return m * FACTORS


def stencils_reference(mesh):
    """g1, g2, h11, h12, h22 as CSR matrices, from one weighted cubic fit
    per vertex over itself and its two-ring in tangent-plane projection
    coordinates, with weights exp(-(r / mean ring radius)^2).

    The projection chart agrees with normal coordinates to second order,
    so the fitted gradient and Hessian are the covariant ones up to
    O(h^2). The fits of equally large stencils share one stacked pinv.
    """
    e1, e2 = mesh.frames
    nbrs = vertex_adjacency_reference(mesh.n_vertices, mesh.faces)
    stencils = [np.concatenate(([i], two_ring_reference(nbrs, i)))
                for i in range(mesh.n_vertices)]
    sizes = np.array([len(s) for s in stencils])
    rows, cols, data = [], [], []
    for size in np.unique(sizes):
        verts = np.flatnonzero(sizes == size)
        idx = np.array([stencils[i] for i in verts])
        d = mesh.vertices[idx] - mesh.vertices[verts][:, None, :]
        y = np.stack((np.einsum("bmk,bk->bm", d, e1[verts]),
                      np.einsum("bmk,bk->bm", d, e2[verts])), axis=2)
        r = np.linalg.norm(y, axis=2)
        w = np.exp(-((r / r[:, 1:].mean(axis=1, keepdims=True)) ** 2))
        pinv = np.linalg.pinv(design_matrix_reference(y) * w[..., None],
                              rcond=1e-10)
        pinv *= w[:, None, :]
        rows.append(np.repeat(verts, size))
        cols.append(idx.ravel())
        data.append(pinv[:, 1:6].transpose(1, 0, 2).reshape(5, -1))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    n = mesh.n_vertices
    return [sparse.csr_matrix((d, (rows, cols)), shape=(n, n))
            for d in np.concatenate(data, axis=1)]


def write_mesh_text_reference(path, vertices, normals, faces, header):
    """`wulff.write_mesh_text` formatting one line at a time."""
    lines = [f"# {header}"]
    lines += ["v" + " %.17g" * 6 % tuple(row)
              for row in np.hstack((vertices, normals)).tolist()]
    lines += ["f %d %d %d" % tuple(f) for f in np.asarray(faces).tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# blocking and step count of `recover_radius_mesh_reference`, as in the library
NEWTON_ROWS = 1 << 13
NEWTON_STEPS = 30


def _dot(a, b):
    return np.einsum("ni,ni->n", a, b)


def recover_radius_mesh_reference(base, coeffs, translation):
    """`surface.recover_radius_mesh` as it was before its step was taken
    in the frame of nu_i: Newton in (eta, s) on
    x(eta) + u(eta) eta - c = x(nu_i) + s nu_i with the ambient residual and
    Jacobian columns j_k = (A_F(eta) + u) t_k + (d_k u) eta, the tangent
    gradients as one einsum over the stacked (N, 3, 2) tangents t_k and one
    Hessian-vector product per tangent. Same start, stopping rule (1e-13
    moves, NEWTON_STEPS evaluations), blocking and ok test (1e-9)."""
    c = np.asarray(translation, dtype=float)
    band = int(np.sqrt(len(coeffs))) - 1
    basis = spectral.mesh_basis(base, band)[0]
    if not c.any():
        return basis @ coeffs, True
    integ = base.integrand
    partials = np.column_stack((coeffs, *(spectral.ladders(band) @ coeffs)))
    radius, resid = np.empty((2, base.n_vertices))
    for lo in range(0, base.n_vertices, NEWTON_ROWS):
        rows = slice(lo, lo + NEWTON_ROWS)
        x0, nu, f1, f2 = (a[rows] for a in (base.vertices, base.normals,
                                            *base.frames))
        syn = basis[rows] @ partials
        eta, s = nu, syn[:, 0]
        live = np.arange(len(x0))
        for step in range(NEWTON_STEPS):
            if step:
                syn = spectral.real_sph_harm_matrix(eta, band) @ partials
            t1, t2 = (f - _dot(f, eta)[:, None] * eta for f in (f1, f2))
            u, g = syn[:, 0], np.einsum("na,nak->nk", syn[:, 1:],
                                        np.stack((t1, t2), axis=2))
            res = (integ.fbar_grad(eta) + u[:, None] * eta - c - x0
                   - s[:, None] * nu)
            j1, j2 = (integ.fbar_hess_vec(eta, t) + u[:, None] * t
                      + g[:, k, None] * eta for k, t in enumerate((t1, t2)))
            m11, m12, m21, m22 = (_dot(f, j) for f in (f1, f2)
                                  for j in (j1, j2))
            r1, r2 = _dot(f1, res), _dot(f2, res)
            det = m11 * m22 - m12 * m21
            d1 = (m12 * r2 - m22 * r1) / det
            d2 = (m21 * r1 - m11 * r2) / det
            ds = _dot(nu, res + d1[:, None] * j1 + d2[:, None] * j2)
            stop = ((np.maximum(np.hypot(d1, d2), np.abs(ds)) < 1e-13)
                    | (step == NEWTON_STEPS - 1))
            radius[lo + live[stop]] = s[stop]
            resid[lo + live[stop]] = np.linalg.norm(res[stop], axis=1)
            go = ~stop
            if not go.any():
                break
            live, x0, nu, f1, f2 = (a[go] for a in (live, x0, nu, f1, f2))
            eta = eta[go] + d1[go, None] * t1[go] + d2[go, None] * t2[go]
            eta /= np.linalg.norm(eta, axis=1, keepdims=True)
            s = s[go] + ds[go]
    return radius, bool(resid.max() < 1e-9)
