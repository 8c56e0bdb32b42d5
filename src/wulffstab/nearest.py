"""Exact nearest-site distances on a uniform grid of cells, in numpy.

The sites are bucketed in cubic cells and sorted by cell, so the sites of
a run of cells along the last axis are one contiguous slice. A query takes
the minimum over the 27 cells around its own; when that minimum may exceed
the distance to the nearest cell it did not look at, it is compared with
every site instead. So every distance is exact. A squared distance is
dx^2 + dy^2 + dz^2 added in that order, as scipy's cKDTree adds it, so the
distances equal cKDTree's bit for bit.
"""

import numpy as np

# cells per site, about the sample spacing on surface-like sets at the sizes
# the Hausdorff distances use; the cell table stays linear in the site count
_CELLS_PER_SITE = 16
# a search sure of its minimum only below the distance to the nearest
# unsearched cell, shrunk by this factor against rounding in the cell index
_MARGIN_SLACK = 1.0 - 1e-9
# points searched per block, which bounds the candidate arrays
_QUERY_BLOCK = 8192
# query-site pairs per block of the brute-force fallback
_BRUTE_BLOCK = 1 << 16


class SiteGrid:
    """Sites (M, 3) bucketed for exact nearest-site distances.

    Built once and queried many times; the sites must be finite.
    """

    def __init__(self, sites):
        sites = np.asarray(sites, dtype=float)
        if sites.ndim != 2 or sites.shape[1] != 3 or not len(sites):
            raise ValueError("sites must be a non-empty (M, 3) array")
        if not np.isfinite(sites).all():
            raise ValueError("sites must be finite")
        self.n_sites = len(sites)
        self.lo = sites.min(axis=0)
        span = sites.max(axis=0) - self.lo
        extent = max(span.max(), 1e-300)
        # flat or collinear sets get a volume as if 1e-3 of their extent
        # deep, so the cell size stays positive
        volume = np.prod(np.maximum(span, 1e-3 * extent))
        self.h = max((volume / (_CELLS_PER_SITE * self.n_sites)) ** (1 / 3),
                     1e-6 * extent)
        self.inner = (span // self.h).astype(np.intp) + 1
        # one empty cell on each side, so the 27 cells of a query stay
        # inside the table
        dims = self.inner + 2
        self.stride = np.array([dims[1] * dims[2], dims[2], 1])
        cell = np.minimum(((sites - self.lo) // self.h).astype(np.intp),
                          self.inner - 1)
        key = (cell + 1) @ self.stride
        self.xyz = np.ascontiguousarray(sites[np.argsort(key)].T)
        # sites of cell k are xyz[:, start[k]:start[k + 1]]
        self.start = np.zeros(np.prod(dims) + 1, dtype=np.intp)
        np.cumsum(np.bincount(key, minlength=np.prod(dims)),
                  out=self.start[1:])

    def distances(self, points):
        """Distance to the nearest site per point (N, 3)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("query points must be an (N, 3) array")
        if not np.isfinite(points).all():
            raise ValueError("query points must be finite")
        d2 = np.empty(len(points))
        sure = np.empty(len(points), dtype=bool)
        for a in range(0, len(points), _QUERY_BLOCK):
            block = slice(a, a + _QUERY_BLOCK)
            d2[block], sure[block] = self._search(points[block])
        todo = np.flatnonzero(~sure)
        if todo.size:
            d2[todo] = self._brute(points[todo])
        return np.sqrt(d2)

    def _search(self, pts):
        """Minimum squared distance over the 27 cells around each point's
        cell, and the mask of points for which no other site is closer."""
        u = (pts - self.lo) / self.h
        cell = np.clip(np.floor(u), 0, self.inner - 1)
        # distance to the nearest face of the searched block that has grid
        # cells beyond it (a point outside the grid has no cell of its own)
        low, high = cell - 1, cell + 2
        gap = np.minimum(np.where(low > 0, u - low, np.inf),
                         np.where(high < self.inner, high - u, np.inf))
        margin = self.h * np.maximum(gap.min(axis=1), 0.0) * _MARGIN_SLACK
        # the block is 3 x 3 runs of 3 cells along z
        r = np.arange(-1, 2)
        runs = (r[:, None] * self.stride[0] + r * self.stride[1]).ravel()
        first_key = ((cell.astype(np.intp) + 1) @ self.stride)[:, None] \
            + (runs - 1)
        first = self.start[first_key].ravel()
        count = self.start[first_key + 3].ravel() - first
        per_point = count.reshape(len(pts), -1).sum(axis=1)
        # one entry per candidate: its position in xyz and its point
        full = np.flatnonzero(count)
        count = count[full]
        run = np.repeat(np.arange(len(full)), count)
        pos = np.arange(len(run)) + (first[full] - (np.cumsum(count)
                                                    - count))[run]
        point = (full // len(runs))[run]
        d = pts[:, 0][point] - self.xyz[0][pos]
        d2 = d * d
        d = pts[:, 1][point] - self.xyz[1][pos]
        d2 += d * d
        d = pts[:, 2][point] - self.xyz[2][pos]
        d2 += d * d
        best = np.full(len(pts), np.inf)
        has = per_point > 0
        if has.any():
            seg = (np.cumsum(per_point) - per_point)[has]
            best[has] = np.minimum.reduceat(d2, seg)
        return best, best <= margin * margin

    def _brute(self, pts):
        """Minimum squared distance by comparing each point with every
        site."""
        step = max(1, _BRUTE_BLOCK // self.n_sites)
        best = np.empty(len(pts))
        for a in range(0, len(pts), step):
            block = pts[a:a + step]
            d = block[:, 0, None] - self.xyz[0]
            d2 = d * d
            d = block[:, 1, None] - self.xyz[1]
            d2 += d * d
            d = block[:, 2, None] - self.xyz[2]
            d2 += d * d
            best[a:a + step] = d2.min(axis=1)
        return best
