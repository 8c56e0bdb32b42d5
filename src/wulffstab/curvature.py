"""Anisotropic shape operators, trace-free deficits and Gauss-equation algebra."""

import numpy as np

from .minimize import bounded_brent
from .operators import lp_norm


def anisotropic_shape_operator(geom, integrand):
    """S_F = A_F(nu_Sigma) o d(nu_Sigma) per node, plus H_F = tr S_F.

    Both factors act on the surface tangent plane (which equals the tangent
    plane of the sphere at nu_Sigma), so the composition is a 2x2 product
    in the node's orthonormal surface basis.

    Returns S_F as an (N, 2, 2) array in the bases `geom.tangent_basis`
    (a mixed (1,1) tensor, not symmetric in general) and H_F as (N,).
    """
    if not integrand.is_elliptic:
        raise ValueError(
            f"integrand is not elliptic (margin {integrand.ellipticity_margin:g})")
    tau = geom.tangent_basis  # (N, 3, 2)
    A2 = integrand.anisotropy_form(geom.normal, tau[:, :, 0], tau[:, :, 1])
    s_f = A2 @ geom.shape_operator
    return s_f, np.einsum("nii->n", s_f)


def trace_free(values):
    """Trace-free part T - (tr T / 2) Id of a per-node 2x2 tensor, as an
    (N, 2, 2) array; its `lp_norm` is the deficit when T is S_F."""
    tr = np.einsum("nii->n", values)
    return values - 0.5 * tr[:, None, None] * np.eye(2)[None]


class DeficitReport:
    """Measured oscillation and deficit quantities for one surface.

    lambda_star minimizes ||S_F - lambda Id||_{L^p}; h_mean_over_n is the
    paper-style comparison value H_bar_F / n; c_osc is the measured ratio
    oscillation / deficit.
    """

    def __init__(self, p, deficit, lambda_star, oscillation, h_mean_over_n):
        self.p = p
        self.deficit = deficit
        self.lambda_star = lambda_star
        self.oscillation = oscillation
        self.h_mean_over_n = h_mean_over_n
        self.c_osc = oscillation / deficit if deficit > 1e-14 else np.nan


def oscillation_deficit(s_field, hf, weights, p):
    """Minimal oscillation min_lambda ||S_F - lambda Id||_{L^p} and deficit
    of S_F, an (N, 2, 2) array, with hf = tr S_F.

    The map lambda -> norm is convex for p > 1, so a bounded Brent search
    over the eigenvalue range suffices.
    """
    if not 1 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")

    def osc(lam):
        return lp_norm(s_field - lam * np.eye(2)[None], p, weights)

    eigs = np.linalg.eigvals(s_field).real
    lo, hi = float(eigs.min()) - 1e-6, float(eigs.max()) + 1e-6
    lam, oscillation, _ = bounded_brent(osc, lo, hi, xatol=1e-12)
    deficit = lp_norm(trace_free(s_field), p, weights)
    area = float(weights.sum())
    h_mean_over_n = float(np.sum(weights * hf) / area) / 2.0
    return DeficitReport(p, deficit, float(lam), oscillation, h_mean_over_n)


# --- pointwise Gauss-equation algebra (any dimension) ----------------------


def gauss_ricci(h):
    """Ricci tensor and scalar curvature of a hypersurface from h.

    Gauss equation with the flat ambient metric: Ric = H h - h^2 and
    R = H^2 - |h|^2, in an orthonormal frame (g = Id).
    """
    h = np.asarray(h, dtype=float)
    H = np.trace(h)
    ric = H * h - h @ h
    r = H ** 2 - float(np.sum(h * h))
    return ric, r
