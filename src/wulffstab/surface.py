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
from .spheremesh import sphere_newton


class SurfaceGeometry:
    """Per-node geometry of a parametrized closed surface.

    Attributes
    ----------
    base : the mesh the surface is a graph over
    positions : (N, 3) node positions psi
    metric : (N, 2, 2) induced metric in the base tangent frame
    normal : (N, 3) outward unit normal nu_Sigma
    tangent_basis : (N, 3, 2) orthonormal basis of the surface tangent plane
    shape_operator : (N, 2, 2) d(nu_Sigma) in the tangent basis (symmetric)
    mean_curvature : (N,) trace of the shape operator
    area_element : (N,) sqrt(det metric)
    weights : (N,) quadrature weights on the surface
    radius : the defining radius field (u or f), or None
    kind : 'radial' or 'exp'
    shape_asymmetry : largest |S_12 - S_21| of the shape operator before
        it is symmetrized
    """

    def __init__(self, base, positions, metric, normal, tangent_basis,
                 shape_operator, radius, kind, shape_asymmetry):
        self.base = base
        self.positions = positions
        self.metric = metric
        self.normal = normal
        self.tangent_basis = tangent_basis
        self.shape_operator = 0.5 * (shape_operator
                                     + np.swapaxes(shape_operator, 1, 2))
        self.shape_asymmetry = shape_asymmetry
        self.mean_curvature = np.einsum("nii->n", self.shape_operator)
        self.area_element = np.sqrt(metric[:, 0, 0] * metric[:, 1, 1]
                                    - metric[:, 0, 1] * metric[:, 1, 0])
        self.weights = base.weights * self.area_element
        self.radius = radius
        self.kind = kind

    @property
    def n_nodes(self):
        return len(self.positions)


def _finish_from_derivatives(base, positions, psi_d, nu, h_chart, radius,
                             kind):
    """Assemble geometry from chart derivatives and a second fundamental form.

    psi_d is (N, 3, 2); nu is the oriented unit normal the caller also used
    to build h_chart, the bilinear form <d nu[d_i], d_j> in the chart basis.

    Gram-Schmidt on the two columns gives psi_d = q R with q orthonormal
    and R upper triangular with a positive diagonal; the shape operator in
    the basis q is the congruence R^-T h_chart R^-1, written out entrywise
    with no symmetry of h_chart assumed.
    """
    a, b = psi_d[:, :, 0], psi_d[:, :, 1]
    g11 = np.einsum("ni,ni->n", a, a)
    g12 = np.einsum("ni,ni->n", a, b)
    g22 = np.einsum("ni,ni->n", b, b)
    metric = np.empty((len(a), 2, 2))
    metric[:, 0, 0] = g11
    metric[:, 0, 1] = metric[:, 1, 0] = g12
    metric[:, 1, 1] = g22
    r11 = np.sqrt(g11)
    q1 = a / r11[:, None]
    r12 = g12 / r11
    w = b - r12[:, None] * q1
    r22 = np.sqrt(np.einsum("ni,ni->n", w, w))
    q = np.stack((q1, w / r22[:, None]), axis=2)
    # R^-1 = [[u, v], [0, d]]
    u, d = 1.0 / r11, 1.0 / r22
    v = -r12 * u * d
    h11, h12 = h_chart[:, 0, 0], h_chart[:, 0, 1]
    h21, h22 = h_chart[:, 1, 0], h_chart[:, 1, 1]
    hv1 = v * h11 + d * h12     # (h R^-1)_{12}
    hv2 = v * h21 + d * h22     # (h R^-1)_{22}
    s_tau = np.empty_like(metric)
    s_tau[:, 0, 0] = u * u * h11
    s_tau[:, 0, 1] = u * hv1
    s_tau[:, 1, 0] = u * (v * h11 + d * h21)
    s_tau[:, 1, 1] = v * hv1 + d * hv2
    asym = float(np.abs(s_tau[:, 0, 1] - s_tau[:, 1, 0]).max())
    return SurfaceGeometry(base, positions, metric, nu, q, s_tau,
                           radius, kind, asym)


def _spectral_graph(mesh, values, kind):
    """Geometry of a graph over the sphere or a Wulff mesh, spectrally.

    The radius is analysed at `graph_band` over the construction
    directions nu and differentiated exactly on the direction sphere. Over
    the sphere the surface is {rho(nu) nu}, with rho = e^f ('exp') or
    1 + u ('radial'):
        Psi_i = rho_i nu + rho e_i,
        Psi_ij = rho_ij nu + rho_i e_j + rho_j e_i - rho delta_ij nu.
    Over a Wulff mesh it is {x(nu) + u(nu) nu} with x = grad Fbar, dx = A
    and d^2 x[e_i, e_j] = T_{e_i} e_j (`Integrand.fbar_hess_deriv_vec`):
        Psi_i = (A + u) e_i + u_i nu,
        Psi_ij = T_{e_i} e_j + u_ij nu + u_i e_j + u_j e_i - u delta_ij nu,
    and <T_{e_i} e_j, nu_Sigma> = e_i . T_{nu_Sigma} e_j by the symmetry of
    D^3 Fbar (`Integrand.hess_deriv_form`). The chart is then taken to W arclength (Psi_d A^-1 and
    A^-1 h A^-1), so the weights are W's areas times the area element.
    """
    band = spectral.graph_band(mesh.n_vertices)
    coeffs = spectral.sh_analyze(mesh, values, band)
    val, grad, hess = spectral.spectral_derivatives(mesh, coeffs)
    wulff = mesh.integrand is not None
    if kind == "exp":
        rho = np.exp(val)
        rho_d = rho[:, None] * grad
        rho_dd = rho[:, None, None] * (hess
                                       + grad[:, :, None] * grad[:, None, :])
    else:
        rho = val if wulff else 1.0 + val
        rho_d = grad
        rho_dd = hess
    x = mesh.normals   # on the sphere the same array as mesh.vertices
    e1, e2 = mesh.frames
    frames = np.stack((e1, e2), axis=2)  # (N, 3, 2)
    psi_d = rho_d[:, None, :] * x[:, :, None] + rho[:, None, None] * frames
    if wulff:
        psi_d += frames @ mesh.anisotropy
        positions = mesh.vertices + values[:, None] * x
    else:
        positions = rho[:, None] * x
    nu = np.cross(psi_d[:, :, 0], psi_d[:, :, 1])
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    h_chart = np.empty((len(x), 2, 2))
    nx = np.einsum("ni,ni->n", nu, x)
    nfe = np.einsum("ni,nik->nk", nu, frames)
    for i in range(2):
        for j in range(2):
            val_ij = rho_dd[:, i, j] * nx + rho_d[:, i] * nfe[:, j] \
                + rho_d[:, j] * nfe[:, i]
            if i == j:
                val_ij -= rho * nx
            h_chart[:, i, j] = -val_ij
    if wulff:
        h_chart -= mesh.integrand.hess_deriv_form(x, nu, e1, e2)
        sw = mesh.shape_operator
        psi_d = psi_d @ sw
        h_chart = sw @ h_chart @ sw
    geom = _finish_from_derivatives(mesh, positions, psi_d, nu, h_chart,
                                    values, kind)
    geom.radius_coeffs = coeffs
    geom.band_residual = float(np.abs(val - values).max())
    return geom


def reach_violation(base, values):
    """'max |u| = ... >= reach ...' if the radius values leave the tubular
    neighborhood of base, else the empty string."""
    umax = float(np.abs(values).max())
    if umax < base.reach:
        return ""
    return f"max |u| = {umax:g} >= reach {base.reach:g}"


def radial_graph(base, values):
    """Geometry of the radial graph psi(x) = x + u(x) nu_base(x).

    The radius is carried spectrally over the construction directions of
    either base (`_spectral_graph`). Nodes must stay inside the tubular
    neighborhood of the base.
    """
    values = np.asarray(values, dtype=float)
    violation = reach_violation(base, values)
    if violation:
        raise ValueError(
            f"radius leaves the tubular neighborhood: {violation}")
    return _spectral_graph(base, values, "radial")


def exp_graph(mesh, values):
    """Geometry of the isotropic graph psi(x) = e^{f(x)} x over the sphere."""
    if mesh.integrand is not None:
        raise ValueError("exp_graph is a graph over the unit sphere; use "
                         "radial_graph over a Wulff mesh")
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("radius field must be finite")
    return _spectral_graph(mesh, values, "exp")


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
        t = np.einsum("ni,ni->n", e, nu)
        res = e - t[:, None] * nu
        return x, t, res, np.linalg.norm(res, axis=1) < 1e-12

    def foot_point(nu, e1, e2):
        _, t, res, converged = residual(nu)
        if converged.all():
            return None
        A2 = integ.anisotropy_form(nu, e1, e2)
        A2 += t[:, None, None] * np.eye(2)[None]
        return A2, np.einsum("nik,ni->nk", np.stack((e1, e2), axis=2), res)

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
        margins = np.einsum("ni,ni->n", geom.normal, dirs)
    else:
        r = np.linalg.norm(q, axis=1)
        if r.min() < 1e-8:
            diagnostics["node_at_origin"] = True
        dirs = q / np.maximum(r, 1e-300)[:, None]
        radius = r - 1.0
        margins = np.einsum("ni,ni->n", geom.normal, dirs)
    return GraphCertificate(margins, radius, diagnostics)


# --- radius recovery for translated surfaces ----------------------------


def recover_radius_spectral(mesh, coeffs, kind, translation):
    """Radius over the sphere of the translated surface {rho(y) y} - c.

    For each node direction x0, solves rho(y) y - c = s x0 by the fixed
    point y = normalize(s x0 + c), s = |rho(y) y - c|, for at most 60 steps
    or until s moves by less than 1e-13. Returns the radius field in the
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


# nodes per row block of `recover_radius_mesh`
_NEWTON_ROWS = 1 << 13
# evaluations per node in `recover_radius_mesh`, the last one only a check
_NEWTON_STEPS = 30


def _dot(a, b):
    return np.einsum("ni,ni->n", a, b)


def recover_radius_mesh(base, coeffs, translation):
    """Radius over a Wulff mesh of the translated graph {x + u nu} - c,
    with x = grad Fbar and u the harmonic expansion coeffs over the
    directions nu.

    For base node i, Newton in (eta, s) solves
    x(eta) + u(eta) eta - c = x(nu_i) + s nu_i, starting at eta = nu_i and
    s = u(nu_i). Its Jacobian columns are j_k = (A_F(eta) + u) t_k
    + (d_k u) eta along the frame of nu_i projected to eta's tangent plane
    (t_k), and -nu_i; the frame components give a 2x2 solve for the move
    of eta, and the normal component the s-update. u and its three ladder
    partials (`spectral.ladders`) come from one product with the harmonics
    at eta, read off the cached vertex basis at the start. A node stops,
    without taking the step, once it moves neither eta nor s by 1e-13 (s
    alone does not move at first wherever c is tangent to the base), or at
    its _NEWTON_STEPS-th evaluation; ok is false if any node's residual
    there exceeds 1e-9. Nodes are solved _NEWTON_ROWS at a time, each on
    its own, so the working set stays bounded and the radii do not depend
    on the block. At c = 0 the field is read off the vertex basis.
    """
    c = np.asarray(translation, dtype=float)
    band = int(np.sqrt(len(coeffs))) - 1
    basis = spectral.mesh_basis(base, band)[0]
    if not c.any():
        return basis @ coeffs, True
    integ = base.integrand
    partials = np.column_stack((coeffs, *(spectral.ladders(band) @ coeffs)))
    radius, resid = np.empty((2, base.n_vertices))
    for lo in range(0, base.n_vertices, _NEWTON_ROWS):
        rows = slice(lo, lo + _NEWTON_ROWS)
        x0, nu, f1, f2 = (a[rows] for a in (base.vertices, base.normals,
                                            *base.frames))
        syn = basis[rows] @ partials
        eta, s = nu, syn[:, 0]
        live = np.arange(len(x0))
        for step in range(_NEWTON_STEPS):
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
                    | (step == _NEWTON_STEPS - 1))
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


# --- distances ------------------------------------------------------------


def symmetric_point_distance(a, b):
    """Largest distance from a point of either set to the nearest point of
    the other."""
    return float(max(SiteGrid(b).distances(a).max(),
                     SiteGrid(a).distances(b).max()))


def hausdorff_distance(geom, base):
    """Node-sampled symmetric Hausdorff distance at the centroid offset.

    The node sets are compared after translating geom by t0 = mean(geom) -
    mean(base), so the value is an upper bound on the minimum over
    translations, and exact for a translate of the base.
    """
    a = geom.positions if isinstance(geom, SurfaceGeometry) else np.asarray(geom)
    b = base.vertices if hasattr(base, "vertices") else np.asarray(base)
    return symmetric_point_distance(a - (a.mean(axis=0) - b.mean(axis=0)), b)
