"""Hypersurface geometry from radial parametrizations.

Surfaces are graphs over a base (the unit sphere or a Wulff mesh):

* psi(x) = x + u(x) nu_W(x)  over a Wulff shape (radial graph),
* psi(x) = e^{f(x)} x        over the sphere (exponential graph).

Both bases are parametrized by the direction sphere: vertex i of a Wulff
mesh is x(nu_i) = grad Fbar(nu_i) over the icosphere direction nu_i, and
its normal and frame are the icosphere's. The radius is therefore carried
spectrally over the directions on both, so first and second derivatives of
the parametrization are exact up to rounding (ladder matrices on the
harmonic coefficients; 1e-13 on the linear modes and Y20), and the second
derivatives of x(nu) come in closed form from the integrand. Curvature
deficits remain resolvable down to amplitudes of 1e-4, and the unperturbed
Wulff shape reads a deficit at rounding level.
"""

import numpy as np

from . import spectral
from .nearest import SiteGrid
# bound here too: bench/selftest.py checks that its tracer wraps
# surface.get_operators
from .operators import get_operators  # noqa: F401
from .spheremesh import (rowcross, rowdot, rownorm, sphere_newton,
                         sym2_congruence)


class SurfaceGeometry:
    """Per-node geometry of a parametrized closed surface, from its chart
    columns (d_1 psi, d_2 psi), a pair of (N, 3) arrays, and the symmetric
    (N, 2, 2) form <d nu[d_i], d_j> in that chart, of which the (0, 1)
    entry is read; normal is the unit normal the form was taken with.

    Gram-Schmidt on the columns gives psi_d = q R with q orthonormal and R
    upper triangular with a positive diagonal; the shape operator in the
    basis q is the congruence R^-T form R^-1, written out entrywise.

    Attributes
    ----------
    base : the mesh the surface is a graph over
    positions : (N, 3) node positions psi
    metric : (N, 2, 2) induced metric in the chart
    normal : (N, 3) outward unit normal nu_Sigma
    tangent_basis : (N, 3, 2) orthonormal basis q of the tangent plane
    shape_operator : (N, 2, 2) d(nu_Sigma) in the basis q, exactly symmetric
    mean_curvature : (N,) trace of the shape operator
    area_element : (N,) sqrt(det metric), the product R_11 R_22
    weights : (N,) quadrature weights on the surface
    radius : the defining radius field (u or f), or None
    kind : 'radial' or 'exp'
    radius_coeffs : the radius's harmonic expansion over the construction
        directions, or None for a surface not built from one
    """

    def __init__(self, base, positions, normal, columns, form, radius, kind,
                 radius_coeffs):
        a, b = columns
        g11, g12, g22 = rowdot(a, a), rowdot(a, b), rowdot(b, b)
        self.metric = np.stack((g11, g12, g12, g22), axis=1).reshape(-1, 2, 2)
        r11 = np.sqrt(g11)
        q1 = a / r11[:, None]
        r12 = g12 / r11
        w = b - r12[:, None] * q1
        r22 = rownorm(w)
        self.tangent_basis = np.stack((q1, w / r22[:, None]), axis=2)
        # R^-1 = [[u, v], [0, d]]
        u, d = 1.0 / r11, 1.0 / r22
        v = -r12 * u * d
        h11, h12, h22 = form[:, 0, 0], form[:, 0, 1], form[:, 1, 1]
        hv = v * h11 + d * h12     # (form R^-1)_{12}
        s11, s12 = u * u * h11, u * hv
        s22 = v * hv + d * (v * h12 + d * h22)
        self.shape_operator = np.stack((s11, s12, s12, s22),
                                       axis=1).reshape(-1, 2, 2)
        self.mean_curvature = s11 + s22
        self.area_element = r11 * r22
        self.weights = base.weights * self.area_element
        self.base = base
        self.positions = positions
        self.normal = normal
        self.radius = radius
        self.kind = kind
        self.radius_coeffs = radius_coeffs

    @property
    def n_nodes(self):
        return len(self.positions)


def _analyse_radius(mesh, values):
    """(coeffs, value, gradient, Hessian) of a radius field over mesh.

    The field is analysed at `spectral.graph_band` over the construction
    directions and differentiated exactly on the direction sphere
    (`spectral.spectral_derivatives`). The four are linear in the field, so
    eps times them are, up to rounding, those of eps times the field
    (`amplitude_graphs`). A field that is not finite is refused.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("radius field must be finite")
    band = spectral.graph_band(mesh.n_vertices)
    coeffs = spectral.sh_analyze(mesh, values, band)
    return (coeffs, *spectral.spectral_derivatives(mesh, coeffs))


def _spectral_graph(mesh, values, field, kind):
    """Geometry of a graph over the sphere or a Wulff mesh, spectrally.

    field is the radius's (coeffs, value, gradient, Hessian) over the
    construction directions nu (`_analyse_radius` of values, or eps times
    that of a unit field, `amplitude_graphs`), values the radius at the
    nodes. Over the sphere the surface is {rho(nu) nu}, with rho = e^f
    ('exp') or 1 + u ('radial'):
        Psi_i = rho_i nu + rho e_i,
        Psi_ij = rho_ij nu + rho_i e_j + rho_j e_i - rho delta_ij nu.
    Over a Wulff mesh it is {x(nu) + u(nu) nu} with x = grad Fbar, dx = A
    and d^2 x[e_i, e_j] = T_{e_i} e_j (`Integrand.fbar_hess_deriv_vec`):
        Psi_i = (A + u) e_i + u_i nu,
        Psi_ij = T_{e_i} e_j + u_ij nu + u_i e_j + u_j e_i - u delta_ij nu,
    and <T_{e_i} e_j, nu_Sigma> = e_i . T_{nu_Sigma} e_j by the symmetry of
    D^3 Fbar (`Integrand.hess_deriv_form`). The chart is then taken to W
    arclength, entrywise: the columns Psi_k to (Psi A^-1)_k and the form h
    to the congruence A^-1 h A^-1 (`sym2_congruence`), so the weights are
    W's areas times the area element. h_12 is formed once, so the form and
    the shape operator are exactly symmetric.
    """
    coeffs, val, grad, hess = field
    wulff = mesh.integrand is not None
    if kind == "exp":
        rho = np.exp(val)
        rho_d = rho[:, None] * grad
    else:
        rho = val if wulff else 1.0 + val
        rho_d = grad
    x = mesh.normals   # on the sphere the same array as mesh.vertices
    e1, e2 = mesh.frames
    psi1 = rho_d[:, 0:1] * x + rho[:, None] * e1
    psi2 = rho_d[:, 1:2] * x + rho[:, None] * e2
    if wulff:
        A = mesh.anisotropy
        psi1 += A[:, 0, 0, None] * e1 + A[:, 1, 0, None] * e2
        psi2 += A[:, 0, 1, None] * e1 + A[:, 1, 1, None] * e2
        positions = mesh.vertices + values[:, None] * x
    else:
        positions = rho[:, None] * x
    nu = rowcross(psi1, psi2)
    nu /= rownorm(nu)[:, None]
    nx = rowdot(nu, x)
    nfe = (rowdot(nu, e1), rowdot(nu, e2))
    h = np.empty((len(x), 2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        rho_ij = hess[:, i, j]
        if kind == "exp":
            rho_ij = rho * (rho_ij + grad[:, i] * grad[:, j])
        h_ij = rho_ij * nx + rho_d[:, i] * nfe[j] + rho_d[:, j] * nfe[i]
        if i == j:
            h_ij -= rho * nx
        h[:, i, j] = h[:, j, i] = -h_ij
    if wulff:
        h -= mesh.integrand.hess_deriv_form(x, nu, e1, e2)
        sw = mesh.shape_operator
        psi1, psi2 = (sw[:, 0, 0, None] * psi1 + sw[:, 1, 0, None] * psi2,
                      sw[:, 0, 1, None] * psi1 + sw[:, 1, 1, None] * psi2)
        h = sym2_congruence(sw, h)
    return SurfaceGeometry(mesh, positions, nu, (psi1, psi2), h, values,
                           kind, coeffs)


def reach_violation(base, values):
    """'max |u| = ... >= reach ...' if the radius values leave the tubular
    neighborhood of base, else the empty string."""
    umax = float(np.abs(values).max())
    if umax < base.reach:
        return ""
    return f"max |u| = {umax:g} >= reach {base.reach:g}"


def radial_graph(base, values):
    """Geometry of the radial graph psi(x) = x + u(x) nu_base(x).

    The radius is analysed (`_analyse_radius`) and carried spectrally over
    the construction directions of either base (`_spectral_graph`). Nodes
    must be finite and stay inside the tubular neighborhood of the base.
    """
    values = np.asarray(values, dtype=float)
    field = _analyse_radius(base, values)
    violation = reach_violation(base, values)
    if violation:
        raise ValueError(
            f"radius leaves the tubular neighborhood: {violation}")
    return _spectral_graph(base, values, field, "radial")


def exp_graph(mesh, values):
    """Geometry of the isotropic graph psi(x) = e^{f(x)} x over the sphere."""
    if mesh.integrand is not None:
        raise ValueError("exp_graph is a graph over the unit sphere; use "
                         "radial_graph over a Wulff mesh")
    values = np.asarray(values, dtype=float)
    return _spectral_graph(mesh, values, _analyse_radius(mesh, values),
                           "exp")


def amplitude_graphs(base, unit, kind):
    """The graphs over base of radius eps times the unit field, as the
    function eps -> (geometry, ""), or (None, violation) where a radial
    graph leaves the tubular reach of base (`reach_violation`).

    kind is 'exp' (`exp_graph`, over the sphere only) or 'radial'
    (`radial_graph`). The unit field is analysed once, here, and each
    amplitude's graph is `_spectral_graph` of eps times its coefficients,
    value, gradient and Hessian, which agree with an analysis of eps times
    the field up to rounding: a sweep over amplitudes analyses its shape
    once. A unit field that is not finite is refused here.
    """
    if kind == "exp" and base.integrand is not None:
        raise ValueError("exp_graph is a graph over the unit sphere; use "
                         "radial_graph over a Wulff mesh")
    unit = np.asarray(unit, dtype=float)
    field = _analyse_radius(base, unit)

    def graph(eps):
        if not np.isfinite(eps):
            raise ValueError(f"amplitude must be finite, got {eps!r}")
        values = eps * unit
        if kind == "radial":
            violation = reach_violation(base, values)
            if violation:
                return None, violation
        return _spectral_graph(base, values, [eps * a for a in field],
                               kind), ""
    return graph


# --- projection onto the base -------------------------------------------


def project_to_wulff(wmesh, points, seeds, n_newton=30):
    """Foot points on a Wulff shape along its normal lines.

    Solves the nearest-point condition P_nu(q - x(nu)) = 0 for the
    construction direction nu by a damped Newton iteration started at
    seeds, one unit direction per point; the Newton matrix is A_F + t Id
    with t the signed normal offset. A point already on the normal line of
    its seed stops at step 0, with the foot x(seed).

    Returns (feet, directions, offsets, converged); converged is measured
    at the returned feet.
    """
    integ = wmesh.integrand

    def residual(nu):
        x = integ.fbar_grad(nu)
        e = points - x
        t = rowdot(e, nu)
        res = e - t[:, None] * nu
        return x, t, res, rownorm(res) < 1e-12

    def foot_point(nu, e1, e2):
        _, t, res, converged = residual(nu)
        if converged.all():
            return None
        A2 = integ.anisotropy_form(nu, e1, e2)
        A2 += t[:, None, None] * np.eye(2)[None]
        return A2, np.stack((rowdot(e1, res), rowdot(e2, res)), axis=1)

    nu = sphere_newton(np.asarray(seeds, dtype=float), foot_point, n_newton,
                       0.3)
    x, t, _, converged = residual(nu)
    return x, nu, t, converged


class GraphCertificate:
    """Numerical surrogate for the graph property of a surface over a base.

    margin is the minimum over nodes of <nu_Sigma(q), nu_base(p(q))>;
    the certificate passes when it exceeds the threshold.
    """

    threshold = 0.1

    def __init__(self, margins, radius, diagnostics=None):
        self.margins = margins
        self.margin = float(margins.min())
        self.radius = radius
        self.diagnostics = diagnostics or {}
        self.passed = self.margin > self.threshold and not self.diagnostics


def projection_certificate(geom):
    """Project surface nodes to their base, `geom.base`, and certify the
    graph property.

    Node i of the surface is taken to be a graph over base vertex i, so on
    a Wulff base its projection starts from that vertex's normal.
    """
    base = geom.base
    q = geom.positions
    diagnostics = {}
    if base.integrand is not None:
        _, dirs, t, conv = project_to_wulff(base, q, base.normals)
        if not conv.all():
            diagnostics["unconverged_feet"] = int((~conv).sum())
        radius = t
    else:
        r = rownorm(q)
        if r.min() < 1e-8:
            diagnostics["node_at_origin"] = True
        dirs = q / np.maximum(r, 1e-300)[:, None]
        radius = r - 1.0
    margins = rowdot(geom.normal, dirs)
    return GraphCertificate(margins, radius, diagnostics)


# --- radius recovery for translated surfaces ----------------------------


def recover_radius_spectral(mesh, coeffs, kind, translation):
    """Radius over the sphere of the translated surface {rho(y) y} - c.

    For each node direction x0, solves rho(y) y - c = s x0 by the fixed
    point y = normalize(s x0 + c), s = |rho(y) y - c|, for at most 60 steps
    or until s moves by less than 1e-13. The steps reuse two (3, N)
    buffers and take each operation of the formulas above in their order
    (`rownorm` is np.linalg.norm's sum), so neither the buffers nor their
    layout moves a bit of the radii. Returns the radius field in the
    convention of `kind` ('exp' gives log s, 'radial' s - 1).

    At c = 0 the fixed point stops at y = x0, s = |rho(x0)|, so the field
    is read off the cached vertex basis, and the residual vanishes exactly
    where rho > 0.
    """
    c = np.asarray(translation, dtype=float)
    band = int(np.sqrt(len(coeffs))) - 1
    if not c.any() and band <= spectral.band_limit(mesh.n_vertices):
        radius = spectral.mesh_basis(mesh, band)[0] @ coeffs
        rho = np.exp(radius) if kind == "exp" else 1.0 + radius
        return radius, bool((rho > 0).all())
    # coordinates first: x0 and the two buffers, y and then rho(y) y - c,
    # are (3, N) with contiguous rows, so each step is whole-row arithmetic
    # and their transposes are the (N, 3) points
    x0 = np.ascontiguousarray(mesh.vertices.T)
    c = c[:, None]
    s = np.ones(x0.shape[1])
    y, v = np.empty((2, *x0.shape))
    for _ in range(60):
        np.multiply(s, x0, out=y)
        y += c
        y /= rownorm(y.T)
        rho = spectral.sh_synthesize(coeffs, y.T)
        if kind == "exp":
            np.exp(rho, out=rho)
        else:
            rho += 1.0
        np.multiply(rho, y, out=v)
        v -= c
        s_new = rownorm(v.T)
        delta = np.abs(s_new - s).max()
        s = s_new
        if delta < 1e-13:
            break
    v /= s
    v -= x0
    ok = np.abs(v).max() < 1e-9
    radius = np.log(s) if kind == "exp" else s - 1.0
    return radius, bool(ok)


# nodes per row block of `recover_radius_mesh`
_NEWTON_ROWS = 1 << 13
# evaluations per node in `recover_radius_mesh`, the last one only a check
_NEWTON_STEPS = 30


def recover_radius_mesh(base, coeffs, translation):
    """Radius over a Wulff mesh of the translated graph {x + u nu} - c,
    with x = grad Fbar and u the harmonic expansion coeffs over the
    directions nu.

    For base node i, Newton in (eta, s) solves
    x(eta) + u(eta) eta - c = x(nu_i) + s nu_i, starting at eta = nu_i and
    s = u(nu_i), with the residual and the Jacobian taken by their
    components in the frame (f_1, f_2, nu_i) of nu_i, where x(nu_i) + c
    has fixed components; no ambient residual or Jacobian column is
    formed. The Jacobian columns are -nu_i and
    j_k = (H + u) t_k + g_k eta, with H = hess Fbar(eta),
    t_k = f_k - a_k eta the frame projected to eta's tangent plane
    (a_k = f_k . eta, b = nu_i . eta) and g_k = t_k . grad u. H eta = 0
    (Fbar is 1-homogeneous), so H t_k = H f_k, one stacked
    `fbar_hess_vec` per step, and
        f_l . j_k = f_l . H f_k + u (delta_lk - a_l a_k) + a_l g_k,
        nu_i . j_k = nu_i . H f_k + b (g_k - u a_k);
    the f components give a 2x2 solve for the move of eta along t_k, the
    nu_i components the s-update. u and its three ladder partials
    (`spectral.ladders`) come from one product with the harmonics at eta,
    read off the cached vertex basis at the start. A node stops, without
    taking the step, once it moves neither eta nor s by 1e-13 (s alone
    does not move at first wherever c is tangent to the base), or at its
    _NEWTON_STEPS-th evaluation; ok is false if any node's residual there
    exceeds 1e-9. Nodes are solved _NEWTON_ROWS at a time, each on its own,
    so the working set stays bounded and the radii do not depend on the
    block. At c = 0 the field is read off the vertex basis.
    """
    c = np.asarray(translation, dtype=float)
    band = int(np.sqrt(len(coeffs))) - 1
    basis = spectral.mesh_basis(base, band)[0]
    if not c.any():
        return basis @ coeffs, True
    integ = base.integrand
    # columns: the coefficients of u and of its three partials
    partials = np.column_stack((coeffs, *(spectral.ladders(band) @ coeffs)))
    radius, resid = np.empty((2, base.n_vertices))
    for lo in range(0, base.n_vertices, _NEWTON_ROWS):
        rows = slice(lo, lo + _NEWTON_ROWS)
        # (3, 3, n): f_1, f_2 and nu_i of each node, coordinates first, so
        # that the frame components of a vector are three products of
        # contiguous rows; F is its (3, n, 3) view
        frame = np.stack([e[rows].T for e in (*base.frames, base.normals)])
        F = frame.transpose(0, 2, 1)
        target = rowdot(F, base.vertices[rows] + c)      # (3, n)
        # (4, n): u, grad u, transposed into contiguous rows; a node's row
        # of the product does not depend on the block's row count
        syn = (basis[rows] @ partials).T.copy()
        eta, s = F[2], syn[0]
        live = np.arange(len(s))
        for step in range(_NEWTON_STEPS):
            if step:
                syn = (spectral.real_sph_harm_matrix(eta, band)
                       @ partials).T.copy()
            u = syn[0]
            ab = rowdot(F, eta)                          # a_1, a_2, b
            a, b = ab[:2], ab[2]
            G = rowdot(F, syn[1:].T)                     # grad u in the frame
            g = G[:2] - a * (ab[0] * G[0] + ab[1] * G[1] + b * G[2])
            r1, r2, rn = rowdot(F, integ.fbar_grad(eta)) + u * ab - target
            rn -= s
            # f_l . H f_k (l = 1, 2) and nu_i . H f_k, (3, 2, n)
            h = rowdot(F[:, None], integ.fbar_hess_vec(eta, F[:2]))
            ua = u * a
            m11 = h[0, 0] + u - ua[0] * a[0] + a[0] * g[0]
            m12 = h[0, 1] - ua[0] * a[1] + a[0] * g[1]
            m21 = h[1, 0] - ua[1] * a[0] + a[1] * g[0]
            m22 = h[1, 1] + u - ua[1] * a[1] + a[1] * g[1]
            det = m11 * m22 - m12 * m21
            d1 = (m12 * r2 - m22 * r1) / det
            d2 = (m21 * r1 - m11 * r2) / det
            # nu_i . j_k = nu_i . H f_k + b (g_k - u a_k)
            jn1, jn2 = h[2] + b * (g - ua)
            ds = rn + d1 * jn1 + d2 * jn2
            stop = ((np.maximum(np.hypot(d1, d2), np.abs(ds)) < 1e-13)
                    | (step == _NEWTON_STEPS - 1))
            if stop.any():
                radius[lo + live[stop]] = s[stop]
                resid[lo + live[stop]] = np.sqrt(
                    r1[stop] ** 2 + r2[stop] ** 2 + rn[stop] ** 2)
                go = ~stop
                if not go.any():
                    break
                live, frame, target = live[go], frame[:, :, go], target[:, go]
                F = frame.transpose(0, 2, 1)
                d1, d2, ds, s, a, eta = (d1[go], d2[go], ds[go], s[go],
                                         a[:, go], eta[go])
            # eta + d1 t_1 + d2 t_2
            eta = ((1.0 - d1 * a[0] - d2 * a[1])[:, None] * eta
                   + d1[:, None] * F[0] + d2[:, None] * F[1])
            eta /= np.sqrt(rowdot(eta, eta))[:, None]
            s = s + ds
    return radius, bool(resid.max() < 1e-9)


# --- distances ------------------------------------------------------------


def symmetric_point_distance(a, b):
    """Largest distance from a point of either set to the nearest point of
    the other."""
    return float(max(SiteGrid(b).distances(a).max(),
                     SiteGrid(a).distances(b).max()))


def hausdorff_distance(geom, base):
    """Node-sampled symmetric Hausdorff distance of a SurfaceGeometry from a
    mesh, at the centroid offset.

    The nodes of geom are compared with the vertices of base after
    translating them by t0 = mean(geom) - mean(base), so the value is an
    upper bound on the minimum over translations, and exact for a
    translate of the base. Point sets go to `symmetric_point_distance`.
    """
    a, b = geom.positions, base.vertices
    return symmetric_point_distance(a - (a.mean(axis=0) - b.mean(axis=0)), b)
