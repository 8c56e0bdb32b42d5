"""Second fundamental form of flat graphs over a disk, and the cap model fit.

For a graph z -> (z, u(z)) the second fundamental form is
h(u)^i_j = D_j(D^i u / sqrt(1 + |Du|^2)); it is evaluated literally as a
nested difference, with fourth-order centered stencils on a uniform grid.
The model-case fit measures the W^{2,p} distance of u to the spherical cap
family 1 - sqrt(1 - lambda^2 |z|^2), minimized over lambda.
"""

from functools import cached_property

import numpy as np

from .minimize import bounded_brent

_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # offsets -2..2
_CHUNK = 1 << 15  # grid entries per difference pass


class GridField:
    """Scalar samples on a uniform square grid covering [-R, R]^2.

    The coordinate grids x and y are built on first use, so a field made
    inside an optimizer loop costs no meshgrid.
    """

    def __init__(self, values, extent):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("grid values must be square")
        self.values = values
        self.extent = float(extent)
        self.n = values.shape[0]
        self.spacing = 2.0 * extent / (self.n - 1)

    @cached_property
    def _coords(self):
        axis = np.linspace(-self.extent, self.extent, self.n)
        return np.meshgrid(axis, axis, indexing="ij")

    @property
    def x(self):
        return self._coords[0]

    @property
    def y(self):
        return self._coords[1]

    @classmethod
    def from_function(cls, fn, extent, n):
        axis = np.linspace(-extent, extent, n)
        X, Y = np.meshgrid(axis, axis, indexing="ij")
        return cls(fn(X, Y), extent)


def _diff4(values, axis, spacing):
    """Fourth-order centered first derivative; edges are left as NaN.

    On the flattened C-ordered grid a shift along an axis is a shift by
    that axis's stride, so the core is summed from four shifted 1-D slices
    in stencil order (offsets -2, -1, 1, 2), in place in the output, then
    divided by the spacing. It is taken _CHUNK entries at a time, so each
    pass reads from cache. Points whose stencil wraps past a row end lie in
    the edge band and are overwritten with NaN.
    """
    flat = np.ascontiguousarray(values).ravel()
    step = int(np.prod(values.shape[axis + 1:]))
    span = max(flat.size - 4 * step, 0)
    out = np.empty_like(flat)
    term = np.empty(min(span, _CHUNK))
    for a in range(0, span, _CHUNK):
        b = min(a + _CHUNK, span)
        core, tmp = out[2 * step + a:2 * step + b], term[:b - a]
        np.multiply(_D1[0], flat[a:b], out=core)
        for k in (1, 3, 4):
            np.multiply(_D1[k], flat[k * step + a:k * step + b], out=tmp)
            core += tmp
        core /= spacing
    out = out.reshape(values.shape)
    edge = [slice(None)] * values.ndim
    for band in (slice(0, 2), slice(-2, None)):
        edge[axis] = band
        out[tuple(edge)] = np.nan
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


def _differences(u, spacing):
    """ux, uy, uxx, uxy, uyy by nested fourth-order differences."""
    ux = _diff4(u, 0, spacing)
    uy = _diff4(u, 1, spacing)
    return ux, uy, _diff4(ux, 0, spacing), _diff4(ux, 1, spacing), _diff4(uy, 1, spacing)


def _disk_mask(r2, extent, diffs):
    """Grid points on the closed disk where no difference is NaN."""
    valid = np.sqrt(r2) <= extent
    for arr in diffs:
        valid &= ~np.isnan(arr)
    return valid


def grid_w2p_norm(field, p, mask=None):
    """W^{2,p} norm over the disk: value, gradient and Hessian L^p norms.

    mask, when given, is the boolean grid of points to integrate over, and
    the caller vouches that no difference of field.values is NaN there.
    Without it the norm runs over the points of the disk rho <= extent
    where none of the five differences is NaN.
    """
    u = field.values
    hgrid = field.spacing
    ux, uy, uxx, uxy, uyy = diffs = _differences(u, hgrid)
    valid = mask
    if valid is None:
        valid = _disk_mask(field.x ** 2 + field.y ** 2, field.extent, diffs)
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
    1 - sqrt(1 - lambda^2 |z|^2) real on the whole grid square, so inside
    it a difference of u - cap is NaN exactly where that of u is: the
    integration mask is taken once per fit from u. A polish step past the
    bracket falls back to the per-call NaN scan.
    """
    lam_max = 0.999 / (field.extent * np.sqrt(2.0))
    u, extent = field.values, field.extent
    r2 = field.x ** 2 + field.y ** 2
    mask = _disk_mask(r2, extent, _differences(u, field.spacing))
    norms = {}  # lambda -> objective; Brent and the polish revisit lambdas

    def objective(lam):
        if lam not in norms:
            diff = GridField(u - (1.0 - np.sqrt(1.0 - lam ** 2 * r2)), extent)
            norms[lam] = grid_w2p_norm(diff, p,
                                       mask if abs(lam) <= lam_max else None)
        return norms[lam]

    # the squared residual is smooth at the bottom, so Brent localizes the
    # minimizer even when the norm itself has a kink
    lam = float(bounded_brent(lambda lam: objective(lam) ** 2, 0.0, lam_max,
                              xatol=1e-14)[0])
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
