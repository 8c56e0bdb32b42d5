"""Stability operator, kernel projections, centering and scaling experiments.

The translation modes phi_c(x) = <c, nu_W(x)> span the kernel of the
stability operator L[u] = div(A_F grad u) + H u on the Wulff shape. Fields
on a Wulff mesh are fields of the construction direction nu, so L, like
the W^{2,p} distance, is taken in closed form through the direction
sphere, exact up to rounding on band-limited fields. The kernel component
v_u of a radius field is its L2 projection onto these modes; centering
translates the surface until v vanishes, a fixed point that contracts
linearly (`center`). The radius of a translate is recovered from its
harmonic expansion on both bases, so it carries no mesh error.
"""

import numpy as np

from . import spectral
from .operators import lp_norm, w2p_norm
from .curvature import anisotropic_shape_operator, trace_free
from .spheremesh import sym2_product
from .surface import (amplitude_graphs, projection_certificate,
                      recover_radius_spectral, recover_radius_mesh)

# the smallness gate of `center`: the largest |radius| it starts from
CENTER_RADIUS_MAX = 0.45


class KernelFrame:
    """L2-orthonormal frame of translation modes over a base mesh."""

    def __init__(self, vectors, fields, gram_residual):
        self.vectors = vectors            # (3, 3): rows are w_i
        self.fields = fields              # (N, 3): columns are phi_i
        self.gram_residual = gram_residual


def kernel_frame(base):
    """Orthonormalize {<e_k, nu_W>} in the discrete L2 inner product;
    built once per mesh and cached on it."""
    return base.cached("kernel_frame", _kernel_frame)


def _kernel_frame(base):
    nu = base.normals
    w = base.weights[:, None]
    gram = nu.T @ (w * nu)
    evals, evecs = np.linalg.eigh(gram)
    if evals.min() < 1e-6 * evals.max():
        raise ValueError("degenerate Gram matrix of translation modes")
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.T
    vectors = inv_sqrt  # w_i = sum_k inv_sqrt[i, k] e_k
    fields = nu @ vectors.T
    resid = fields.T @ (w * fields) - np.eye(3)
    return KernelFrame(vectors, fields, float(np.abs(resid).max()))


def kernel_component(frame, values, weights):
    """v_u = sum_i <u, phi_i>_{L2} w_i."""
    return (weights * values) @ frame.fields @ frame.vectors


def stability_operator(base, integrand, values):
    """L[u] = div(A_F grad u) + H u on the base, through the directions.

    H is the classical mean curvature of the base (2 on the unit sphere,
    tr A_W^-1 on a Wulff mesh). With dx = A_W over the directions,
    grad_W u = A_W^-1 grad_S u and div_W V = tr(A_W^-1 grad_S V), so for an
    integrand with A_F = lam A_W, lam constant (the base's own, or any
    constant integrand over the sphere),
        L[u] = lam tr(A_W^-1 Hess_S u) + tr(A_W^-1) u,
    with Hess_S exact on the field's expansion at `spectral.graph_band`.
    For lam = 1 it vanishes pointwise on the translation modes <c, nu>,
    whose Hess_S is -<c, nu> Id. Another integrand raises ValueError.
    """
    band = spectral.graph_band(base.n_vertices)
    coeffs = spectral.sh_analyze(base, values, band)
    val, _, hess = spectral.spectral_derivatives(base, coeffs)
    A2 = integrand.anisotropy_form(base.normals, *base.frames)
    sw = base.shape_operator
    ratio = sym2_product(A2, sw)
    lam = 0.5 * (ratio[:, 0, 0] + ratio[:, 1, 1])
    spread = np.abs(ratio - lam[:, None, None] * np.eye(2)).max() \
        + np.ptp(lam)
    if spread > 1e-9 * lam.max():
        raise ValueError(f"stability_operator needs A_F proportional to the "
                         f"base's A_W; A_F A_W^-1 varies by {spread:g}")
    # tr(A_W^-1 Hess_S u)
    tr = (sw[:, 0, 0] * hess[:, 0, 0] + sw[:, 0, 1] * hess[:, 1, 0]
          + sw[:, 1, 0] * hess[:, 0, 1] + sw[:, 1, 1] * hess[:, 1, 1])
    return lam * tr + base.mean_curvature * val


class CenteringResult:
    """Outcome of the centering fixed point; radius is the field at c."""

    def __init__(self, c, radius, iterations, trace, diagnostics=None):
        self.c = c
        self.radius = radius
        self.iterations = iterations
        self.trace = trace
        self.diagnostics = diagnostics or {}


class SpectralGraphSurface:
    """Graph over the sphere or a Wulff mesh with spectrally carried radius.

    coeffs is the radius's harmonic expansion over the directions and kind
    its convention ('exp' or 'radial', always 'radial' over a Wulff mesh).
    A translate's radius comes from `recover_radius_spectral` over the
    sphere and from `recover_radius_mesh` over a Wulff mesh.
    """

    def __init__(self, mesh, coeffs, kind):
        self.base = mesh
        self.coeffs = coeffs
        self.kind = kind

    @classmethod
    def from_geometry(cls, geom):
        return cls(geom.base, geom.radius_coeffs, geom.kind)

    def radius_field(self, c):
        if self.base.integrand is None:
            radius, ok = recover_radius_spectral(self.base, self.coeffs,
                                                 self.kind, c)
        else:
            radius, ok = recover_radius_mesh(self.base, self.coeffs, c)
        if not ok:
            raise RuntimeError(
                f"graph property lost at translation c = {c}")
        return radius


def center(surf, tolerance=1e-8, max_iter=25):
    """Drive the kernel component of the radius to zero by translating.

    Each step translates by the current kernel component (Sigma_c = Sigma - c
    convention), re-reads the radius over the base and recomputes v. The
    contraction is linear: for a translation mode of amplitude eps the
    residual falls by a factor of about 0.4 eps^2 per step, on the sphere
    and on a Wulff mesh alike (quadratic:1,1,4 reads 0.25-0.42 eps^2 at
    levels 4 and 5, independent of the level), and by about 0.5 eps for a
    Y21 mode of amplitude eps beside one. A non-decreasing residual
    above tolerance is recorded as a sign-convention diagnostic. A starting
    radius above CENTER_RADIUS_MAX in absolute value is rejected.
    """
    base = surf.base
    frame = kernel_frame(base)
    u = surf.radius_field(np.zeros(3))
    if np.abs(u).max() > CENTER_RADIUS_MAX:
        raise ValueError(
            f"radius too large for centering: max |u| = {np.abs(u).max():g}")
    c = np.zeros(3)
    v = kernel_component(frame, u, base.weights)
    trace = [float(np.linalg.norm(v))]
    diagnostics = {}
    # iterations counts radius evaluations; an already-centered surface is 1
    while trace[-1] > tolerance and len(trace) <= max_iter:
        step = v
        try:
            u = surf.radius_field(c + step)
        except RuntimeError as exc:
            raise RuntimeError(
                f"{exc}; last valid translation c = {c}") from exc
        c = c + step
        v = kernel_component(frame, u, base.weights)
        trace.append(float(np.linalg.norm(v)))
        if trace[-1] > tolerance and trace[-1] >= trace[-2]:
            diagnostics["sign_warning"] = (
                "kernel residual did not decrease; check the Sigma_c = "
                "Sigma - c convention")
            break
    return CenteringResult(c, u, len(trace), trace, diagnostics)


def _distance_norm(base, values, v, p):
    """||u - phi_v||_{W^{2,p}} over the base."""
    return w2p_norm(values - base.normals @ v, p, base)


class StabilityRatio:
    """Deficit, distance and their ratio for one surface."""

    def __init__(self, deficit, distance, ratio, v_u):
        self.deficit = deficit
        self.distance = distance
        self.ratio = ratio
        self.v_u = v_u


def stability_ratio(geom, integrand, p):
    """Measure ||S_F_dev||_{L^p(Sigma)} against ||u - phi_{v_u}||_{W^{2,p}(W)}."""
    return _ratio(geom, integrand, p, geom.radius, kernel_frame(geom.base))


def _ratio(geom, integrand, p, radius, frame):
    """Deficit of geom against the W^{2,p} distance of radius over its base."""
    s_field, _ = anisotropic_shape_operator(geom, integrand)
    deficit = lp_norm(trace_free(s_field), p, geom.weights)
    v_u = kernel_component(frame, radius, geom.base.weights)
    distance = _distance_norm(geom.base, radius, v_u, p)
    ratio = distance / deficit if deficit > 1e-14 else np.nan
    return StabilityRatio(deficit, distance, ratio, v_u)


class ScalingFit:
    """Log-log regression of a measured quantity against amplitude."""

    def __init__(self, amplitudes, values):
        amplitudes = np.asarray(amplitudes, dtype=float)
        values = np.asarray(values, dtype=float)
        if len(amplitudes) < 5:
            raise ValueError("need at least 5 amplitudes")
        if amplitudes.max() / amplitudes.min() < 10.0:
            raise ValueError("amplitudes must span at least one decade")
        lx, ly = np.log(amplitudes), np.log(values)
        A = np.column_stack((lx, np.ones_like(lx)))
        (self.slope, self.intercept), res, *_ = np.linalg.lstsq(A, ly, rcond=None)
        ss_tot = float(((ly - ly.mean()) ** 2).sum())
        ss_res = float(res[0])
        self.r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        self.amplitudes = amplitudes
        self.values = values


def family_coeffs(family, band):
    """Unit-amplitude harmonic expansion of a perturbation family over the
    directions, exactly, in the padded layout of band ((band + 1)^2
    coefficients, every one outside the family's own exactly 0).

    family is ('harmonic', l, m), the mode Y_lm (a single 1), or
    ('kernel', c), the translation mode <c, nu> = sqrt(4 pi / 3)
    (c_y Y_1,-1 + c_z Y_10 + c_x Y_11) (Y_11 is a positive multiple of x,
    `spectral`). A mode above band, an unknown family or a kernel vector
    that is not finite raises ValueError.
    """
    kind = family[0]
    if kind not in ("harmonic", "kernel"):
        raise ValueError(f"unknown perturbation family {family!r}")
    ell = family[1] if kind == "harmonic" else 1
    if ell > band:
        raise ValueError(f"perturbation family {family!r} lies above "
                         f"band {band}")
    coeffs = np.zeros((band + 1) ** 2)
    if kind == "harmonic":
        coeffs[spectral.sh_index(ell, family[2])] = 1.0
        return coeffs
    c = np.asarray(family[1], dtype=float)
    if c.shape != (3,) or not np.isfinite(c).all():
        raise ValueError(f"kernel family needs a finite 3-vector, got {c}")
    coeffs[1:4] = np.sqrt(4.0 * np.pi / 3.0) * c[[1, 2, 0]]
    return coeffs


def _family_graphs(base, family):
    """`surface.amplitude_graphs` of the family's exact expansion at
    `spectral.graph_band` over base (`family_coeffs`), of the kind
    `perturbed_graph` documents."""
    coeffs = family_coeffs(family, spectral.graph_band(base.n_vertices))
    harmonic = family[0] == "harmonic"
    kind = "exp" if base.integrand is None and harmonic else "radial"
    return amplitude_graphs(base, coeffs, kind)


def perturbed_graph(base, family, eps):
    """(geometry, "") of the family's perturbation at amplitude eps over
    base, or (None, violation) if eps times its unit field leaves the
    base's tubular reach (`surface.reach_violation`).

    A harmonic family over the sphere takes the exponential graph, any other
    the radial graph: the exponential graph of a translation mode agrees
    with an exact translate to third order, hiding the quadratic deficit.
    The graph is built by `surface.amplitude_graphs` from eps times the
    family's exact expansion (`family_coeffs`) and its derivatives, the
    builder `scaling_sweep` runs once per sweep, so both give the same
    surface at eps bit for bit. Nothing is fitted: the radius at the nodes
    is the expansion's synthesis there.
    """
    return _family_graphs(base, family)(eps)


def _sweep_row(graph, integrand, eps, p, tolerance, frame):
    """The row of one amplitude of `scaling_sweep`: its measurements, or a
    warning entry. Its geometry is released on return, before the next
    amplitude's is built."""
    geom, violation = graph(eps)
    if violation:
        return {"epsilon": eps, "warning": "outside_reach",
                "detail": violation}
    cert = projection_certificate(geom)
    if not cert.passed:
        return {"epsilon": eps, "warning": "certificate_failed",
                "eta": cert.margin,
                "detail": f"eta margin {cert.margin:g} <= threshold "
                          f"{cert.threshold:g}"}
    try:
        res = center(SpectralGraphSurface.from_geometry(geom),
                     tolerance=tolerance)
    except (ValueError, RuntimeError) as exc:
        return {"epsilon": eps, "warning": "centering_failed",
                "eta": cert.margin, "detail": str(exc)}
    r = _ratio(geom, integrand, p, res.radius, frame)
    return {"epsilon": eps, "deficit": r.deficit, "distance": r.distance,
            "ratio": r.ratio, "eta": cert.margin,
            "iterations": res.iterations}


def scaling_sweep(base, integrand, family, amplitudes, p, tolerance=1e-8):
    """Sweep amplitudes, measure deficit and post-centering distance, fit slopes.

    The family's exact expansion (`family_coeffs`) is differentiated once
    for the whole sweep, and each amplitude's surface is built from eps
    times it by the builder `perturbed_graph` takes, so it is the surface
    `wulffstab curvature` builds at that amplitude bit for bit. Returns
    (deficit_fit, distance_fit, rows); a radius outside the base's tubular
    reach, a certificate failure or a centering failure truncates the sweep
    with a warning entry in the last row.
    """
    frame = kernel_frame(base)
    graph = _family_graphs(base, family)
    rows = []
    for eps in amplitudes:
        rows.append(_sweep_row(graph, integrand, eps, p, tolerance, frame))
        if "warning" in rows[-1]:
            break
    done = [r for r in rows if "warning" not in r]
    used = [r["epsilon"] for r in done]
    deficits = [r["deficit"] for r in done]
    distances = [r["distance"] for r in done]
    try:
        deficit_fit = ScalingFit(used, deficits)
        distance_fit = ScalingFit(used, distances)
    except ValueError:
        # truncated too early for a fit; rows still carry the measurements
        deficit_fit = distance_fit = None
    return deficit_fit, distance_fit, rows
