"""Second fundamental form of flat graphs over a disk, and the cap model fit.

For a graph z -> (z, u(z)) the second fundamental form is
h(u)^i_j = D_j(D^i u / sqrt(1 + |Du|^2)); it is evaluated literally as a
nested difference, with fourth-order centered stencils on a uniform grid.
The model-case fit measures the W^{2,p} distance of u to the spherical cap
family 1 - sqrt(1 - lambda^2 |z|^2), minimized over lambda.
"""

import numpy as np
from scipy.optimize import minimize_scalar

_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # offsets -2..2


class GridField:
    """Scalar samples on a uniform square grid covering [-R, R]^2."""

    def __init__(self, values, extent):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("grid values must be square")
        self.values = values
        self.extent = float(extent)
        self.n = values.shape[0]
        self.spacing = 2.0 * extent / (self.n - 1)
        axis = np.linspace(-extent, extent, self.n)
        self.x, self.y = np.meshgrid(axis, axis, indexing="ij")

    @classmethod
    def from_function(cls, fn, extent, n):
        axis = np.linspace(-extent, extent, n)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        return cls(fn(X, Y), extent)


def _diff4(values, axis, spacing):
    """Fourth-order centered first derivative; edges are left as NaN."""
    out = np.full_like(values, np.nan)
    core = (_D1[0] * np.roll(values, 2, axis) + _D1[1] * np.roll(values, 1, axis)
            + _D1[3] * np.roll(values, -1, axis) + _D1[4] * np.roll(values, -2, axis))
    sl = [slice(None)] * values.ndim
    sl[axis] = slice(2, -2)
    out[tuple(sl)] = core[tuple(sl)] / spacing
    return out


def flat_graph_shape(field, slope_limit=4.5):
    """h(u)^i_j by nested fourth-order differences.

    Returns (h, mask, warning): h is (n, n, 2, 2) with NaN outside the
    mask, which excludes stencil margins and any rim region where the
    gradient exceeds slope_limit (graph turning vertical); a trimmed rim
    sets the warning flag.
    """
    u = field.values
    hgrid = field.spacing
    du = np.stack([_diff4(u, 0, hgrid), _diff4(u, 1, hgrid)], axis=-1)
    gamma = np.sqrt(1.0 + np.sum(du ** 2, axis=-1))
    W = du / gamma[..., None]
    h = np.empty(u.shape + (2, 2))
    for i in range(2):
        for j in range(2):
            h[..., i, j] = _diff4(W[..., i], j, hgrid)
    mask = ~np.isnan(h).any(axis=(2, 3))
    slope = np.sqrt(np.sum(du ** 2, axis=-1))
    steep = mask & (slope > slope_limit)
    warning = bool(steep.any())
    mask &= ~steep
    return h, mask, warning


def _cap(x, y, lam):
    return 1.0 - np.sqrt(1.0 - lam ** 2 * (x ** 2 + y ** 2))


def grid_w2p_norm(field, p, mask=None):
    """W^{2,p} norm over the disk: value, gradient and Hessian L^p norms."""
    u = field.values
    hgrid = field.spacing
    ux = _diff4(u, 0, hgrid)
    uy = _diff4(u, 1, hgrid)
    uxx = _diff4(ux, 0, hgrid)
    uxy = _diff4(ux, 1, hgrid)
    uyy = _diff4(uy, 1, hgrid)
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


def cap_fit_residual(field, p=2):
    """min over lambda of ||u - cap(lambda)||_{W^{2,p}} on the disk.

    Returns (residual, lambda_star). The search bracket keeps the cap
    real on the whole grid square.
    """
    lam_max = 0.999 / (field.extent * np.sqrt(2.0))
    norms = {}  # lambda -> objective; Brent and the polish revisit lambdas

    def objective(lam):
        if lam not in norms:
            diff = GridField(field.values - _cap(field.x, field.y, lam),
                             field.extent)
            norms[lam] = grid_w2p_norm(diff, p)
        return norms[lam]

    # the squared residual is smooth at the bottom, so Brent localizes the
    # minimizer even when the norm itself has a kink
    res = minimize_scalar(lambda lam: objective(lam) ** 2,
                          bounds=(0.0, lam_max), method="bounded",
                          options={"xatol": 1e-14})
    lam = float(res.x)
    # parabolic polish on the squared objective
    for delta in (1e-5, 1e-8):
        f0, fm, fp = (objective(lam) ** 2, objective(lam - delta) ** 2,
                      objective(lam + delta) ** 2)
        denom = fm - 2 * f0 + fp
        if denom > 0:
            cand = lam + 0.5 * delta * (fm - fp) / denom
            if 0 < cand < lam_max and objective(cand) < objective(lam):
                lam = cand
    return float(objective(lam)), lam
