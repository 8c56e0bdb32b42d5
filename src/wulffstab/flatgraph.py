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
_STRIDE, _MIN_SUB = 4, 41  # cap fit search subgrid: stride, fewest points a side
_POLISH_STEPS = 6  # most delta = 1e-5 steps of the cap fit's polish
_SLOPE_LIMIT = 4.5  # |Du| past which flat_graph_shape trims the rim


class GridField:
    """Scalar samples on a uniform n x n grid covering [-R, R]^2, n >= 2
    and R finite and positive.

    The coordinate grids x and y are built on first use, so a field made
    inside an optimizer loop costs no meshgrid.
    """

    def __init__(self, values, extent):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("grid values must be square")
        if values.shape[0] < 2:
            raise ValueError(f"grid needs n >= 2 points a side, got n = "
                             f"{values.shape[0]}")
        extent = float(extent)
        if not 0.0 < extent < np.inf:
            raise ValueError(f"grid extent must be finite and positive, got "
                             f"{extent!r}")
        self.values = values
        self.extent = extent
        self.n = values.shape[0]
        self.spacing = 2.0 * extent / (self.n - 1)
        self._diffs = (None,) * 5  # difference grids a cap fit reuses

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


def _diff4(values, axis, spacing, out=None):
    """Fourth-order centered first derivative; edges are left as NaN.

    On the flattened C-ordered grid a shift along an axis is a shift by
    that axis's stride, so the core is summed from four shifted 1-D slices
    in stencil order (offsets -2, -1, 1, 2), in place in the output, then
    divided by the spacing. It is taken _CHUNK entries at a time, so each
    pass reads from cache. Points whose stencil wraps past a row end lie in
    the edge band and are overwritten with NaN. out, if given, is a
    C-contiguous grid of values' shape.
    """
    flat = np.ascontiguousarray(values).ravel()
    step = int(np.prod(values.shape[axis + 1:]))
    span = max(flat.size - 4 * step, 0)
    out = np.empty(values.shape) if out is None else out
    out_flat = out.reshape(-1)
    term = np.empty(min(span, _CHUNK))
    for a in range(0, span, _CHUNK):
        b = min(a + _CHUNK, span)
        core, tmp = out_flat[2 * step + a:2 * step + b], term[:b - a]
        np.multiply(_D1[0], flat[a:b], out=core)
        for k in (1, 3, 4):
            np.multiply(_D1[k], flat[k * step + a:k * step + b], out=tmp)
            core += tmp
        core /= spacing
    edge = [slice(None)] * values.ndim
    for band in (slice(0, 2), slice(-2, None)):
        edge[axis] = band
        out[tuple(edge)] = np.nan
    return out


def flat_graph_shape(field):
    """h(u)^i_j by nested fourth-order differences.

    Returns (h, mask, warning): h is (n, n, 2, 2) with NaN outside the
    mask, which excludes stencil margins and any rim region where |Du|
    exceeds _SLOPE_LIMIT = 4.5 (graph turning vertical); a trimmed rim
    sets the warning flag. h is a view of one (2, 2, n, n) grid.
    """
    u = field.values
    hgrid = field.spacing
    du = np.empty((2,) + u.shape)
    for i in range(2):
        _diff4(u, i, hgrid, out=du[i])
    slope = np.square(du[0])
    slope += np.square(du[1])
    gamma = np.sqrt(1.0 + slope)
    np.sqrt(slope, out=slope)
    du /= gamma
    h = np.empty((2, 2) + u.shape)
    for i in range(2):
        for j in range(2):
            _diff4(du[i], j, hgrid, out=h[i, j])
    mask = ~np.isnan(h).any(axis=(0, 1))
    steep = mask & (slope > _SLOPE_LIMIT)
    warning = bool(steep.any())
    mask &= ~steep
    return h.transpose(2, 3, 0, 1), mask, warning


def _differences(u, spacing, out=(None,) * 5):
    """ux, uy, uxx, uxy, uyy by nested fourth-order differences (into out)."""
    ux = _diff4(u, 0, spacing, out[0])
    uy = _diff4(u, 1, spacing, out[1])
    return (ux, uy, _diff4(ux, 0, spacing, out[2]),
            _diff4(ux, 1, spacing, out[3]), _diff4(uy, 1, spacing, out[4]))


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
    where none of the five differences is NaN. There is no gather: the
    squared magnitudes are formed in place in the difference grids (a cap
    fit's field brings its own), raised to p/2 unless p = 2, zeroed outside
    the mask and summed. Raises ValueError unless 1 <= p < inf, or if the
    mask is empty.
    """
    if not 1 <= p < np.inf:
        raise ValueError(f"the W^{{2,p}} norm needs finite p >= 1, got p = {p}")
    u = field.values
    ux, uy, uxx, uxy, uyy = diffs = _differences(u, field.spacing, field._diffs)
    valid = mask
    if valid is None:
        valid = _disk_mask(field.x ** 2 + field.y ** 2, field.extent, diffs)
    if not valid.any():
        raise ValueError("the W^{2,p} integration mask is empty")
    for arr in diffs:
        np.square(arr, out=arr)
    ux += uy                        # |Du|^2
    uxy += uxy
    uxx += uxy
    uxx += uyy                      # |D^2 u|^2
    np.square(u, out=uy)            # u^2, in the spent uy grid
    outside = ~valid
    norm = 0.0
    for sq in (uy, ux, uxx):
        if p != 2:
            np.power(sq, 0.5 * p, out=sq)
        np.copyto(sq, 0.0, where=outside)
        norm += float((field.spacing ** 2 * np.sum(sq)) ** (1.0 / p))
    return norm


def _cap_objective(values, extent, p):
    """The cap fit's objective lambda -> ||u - cap(lambda)||_{W^{2,p}} on one
    grid of u over [-extent, extent]^2, and its integration mask.

    r^2, the mask and the work grids are built once, and each lambda's norm
    is computed once (Brent and the polish revisit lambdas). Inside the
    search bracket the cap 1 - sqrt(1 - lambda^2 |z|^2) is real on the
    whole grid square, so a difference of u - cap is NaN exactly where that
    of u is and the mask is taken from u; a lambda past the bracket falls
    back to the per-call NaN scan. u - cap goes into one grid, and its
    differences into the five grids that set the mask.
    """
    field = GridField(np.ascontiguousarray(values), extent)
    u, lam_max = field.values, _lam_max(extent)
    r2 = field.x ** 2 + field.y ** 2
    work = GridField(np.empty(u.shape), extent)
    work._diffs = _differences(u, field.spacing)
    mask = _disk_mask(r2, extent, work._diffs)
    norms = {}

    def objective(lam):
        if lam not in norms:
            cap = np.multiply(lam ** 2, r2, out=work.values)
            np.sqrt(np.subtract(1.0, cap, out=cap), out=cap)
            np.subtract(u, np.subtract(1.0, cap, out=cap), out=cap)
            norms[lam] = grid_w2p_norm(work, p,
                                       mask if abs(lam) <= lam_max else None)
        return norms[lam]
    return objective, mask


def _lam_max(extent):
    """The largest lambda whose cap is real on the whole grid square."""
    return 0.999 / (extent * np.sqrt(2.0))


def cap_fit_residual(field, p=2):
    """min over lambda of ||u - cap(lambda)||_{W^{2,p}} on the disk.

    Returns (residual, lambda_star). A bounded Brent search on the squared
    objective finds lambda on the stride-4 subgrid u[::4, ::4] when it
    spans the same square ((n - 1) divisible by 4) with at least 41 points
    a side and a nonempty disk mask of its own; a norm there costs about
    1/16 of one on the full grid. Otherwise the search runs on the full
    grid. A parabolic polish on the full grid then repeats a delta = 1e-5
    Newton step until one moves lambda by at most 1e-7 (the subgrid's
    minimizer can sit a few 1e-3 away on fields that are no cap), and ends
    with one delta = 1e-8 step.
    Raises ValueError unless 1 <= p < inf, or if the mask is empty (u all
    NaN, n <= 8).
    """
    lam_max = _lam_max(field.extent)
    objective, _ = _cap_objective(field.values, field.extent, p)
    search, sub = objective, field.values[::_STRIDE, ::_STRIDE]
    if (field.n - 1) % _STRIDE == 0 and len(sub) >= _MIN_SUB:
        coarse, coarse_mask = _cap_objective(sub, field.extent, p)
        if coarse_mask.any():
            search = coarse
    # the squared residual is smooth at the bottom, so Brent localizes the
    # minimizer even when the norm itself has a kink
    lam = float(bounded_brent(lambda lam: search(lam) ** 2, 0.0, lam_max,
                              xatol=1e-14)[0])
    # parabolic polish on the squared objective
    for delta, steps in ((1e-5, _POLISH_STEPS), (1e-8, 1)):
        for _ in range(steps):
            f0, fm, fp = (objective(lam) ** 2, objective(lam - delta) ** 2,
                          objective(lam + delta) ** 2)
            denom = fm - 2 * f0 + fp
            if not denom > 0:
                break
            cand = lam + 0.5 * delta * (fm - fp) / denom
            if not (0 < cand < lam_max and objective(cand) < objective(lam)):
                break
            prev, lam = lam, cand
            if abs(lam - prev) <= 1e-7:
                break
    return float(objective(lam)), lam
