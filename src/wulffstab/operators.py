"""Covariant differential operators and norms on triangulated surfaces.

On the sphere and on Wulff meshes, fields are fields of the construction
direction nu, so their covariant derivatives are exact ones of their
harmonic expansion over the directions, pulled to the Wulff shape by the
chain rule (`covariant_derivatives`); the W^{2,p} norm uses them.

For any other triangulated surface, `DerivativeOperators` fits derivatives
by weighted least-squares polynomials over the one- and two-ring of each
vertex, in tangent-plane projection coordinates. The projection chart
agrees with normal coordinates to second order, so the fitted gradient and
Hessian are the covariant ones at the vertex, up to O(h^2). Fits are
precomputed once per mesh as one padded table of stencil nodes and their
weights; each is solved by normal equations in chart coordinates scaled by
the mean ring radius, or by SVD where the normal equations would lose
accuracy.
"""

import numpy as np

from . import spectral
from .spheremesh import (expand_rows, frame_restriction, stack_rows,
                         unique_rows)


class TensorField:
    """Per-vertex 2x2 tensor in the local tangent frame.

    kind is 'bilinear' for symmetric second-order forms and 'operator' for
    mixed (1,1) tensors such as shape operators. Norms use the Frobenius
    norm pointwise, which is invariant under per-vertex frame rotations.
    """

    def __init__(self, values, kind="bilinear"):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1:] != (2, 2):
            raise ValueError("TensorField expects (N, 2, 2) values")
        if kind not in ("bilinear", "operator"):
            raise ValueError(f"unknown tensor kind {kind!r}")
        self.values = values
        self.kind = kind

    def __len__(self):
        return len(self.values)

    def pointwise_norm(self):
        return np.linalg.norm(self.values, axis=(1, 2))

    def trace(self):
        return np.einsum("nii->n", self.values)


# monomials of the cubic fit in chart coordinates (a, b):
# 1, a, b, a^2, ab, b^2, a^3, a^2 b, a b^2, b^3; coefficients of the
# quadratic block are the Hessian entries thanks to the 1/2 factors
_FACTORS = np.array([1.0, 1, 1, 0.5, 1, 0.5, 1 / 6, 0.5, 0.5, 1 / 6])
# vertices per block of the two-ring build and of `_apply`'s gathers
_BLOCK_VERTICES = 8192
# stencils fitted per batch: a fit holds about 7 KB per vertex (charts,
# design matrix, normal equations, rows), so a block stays near 1 MB; each
# fit is solved on its own, so the block size changes no entry
_FIT_BLOCK = 128
# largest entry of |X A - I| accepted from the normal equations; their error
# grows with cond(A)^2, so fits beyond it are refitted by SVD
_NORMAL_TOL = 1e-11
# smallest smin/smax of the scaled design matrix that counts as full rank
_RCOND = 1e-10


def _design_matrix(y, w):
    """Weighted design matrices A (B, m, 10) of charts y (B, m, 2) with node
    weights w (B, m): the transposed view of fit-major rows (B, 10, m),
    written in place."""
    a, b = y[..., 0], y[..., 1]
    aa, bb = a * a, b * b
    rows = np.empty((len(y), len(_FACTORS), y.shape[1]))
    for k, mono in enumerate((np.ones_like(a), a, b, aa, a * b, bb,
                              aa * a, aa * b, a * bb, bb * b)):
        np.multiply(mono, _FACTORS[k], out=rows[:, k])
    rows *= w[:, None, :]
    return rows.transpose(0, 2, 1)


def _fit_rows(y):
    """Weighted cubic fits of a batch of stencils in chart coordinates.

    y is (B, m, 2): node 0 at the origin, then its ring. Returns the (B, 5, m)
    rows mapping values at the nodes to g1, g2, h11, h12, h22, and a (B,)
    mask of the fits whose design matrix has full rank.

    Each fit is pinv(A) of the weighted design matrix A in coordinates
    divided by the mean ring radius rbar, which keeps cond(A) in the
    hundreds on round and mildly anisotropic meshes (unscaled, it grows
    past 1e5 from level 4 on). It is solved as X = (A^T A)^{-1} A^T; where
    X A misses the identity by more than _NORMAL_TOL (rings stretched by a
    strongly anisotropic integrand), by SVD instead. Row k of X is then
    divided by rbar^deg(k), giving pinv of the unscaled A.
    """
    r = np.linalg.norm(y, axis=2)
    rbar = r[:, 1:].mean(axis=1, keepdims=True)
    rbar[rbar == 0] = 1.0    # a ring collapsed onto its vertex: rank 1
    w = np.exp(-((r / rbar) ** 2))
    A = _design_matrix(y / rbar[..., None], w)
    At = A.transpose(0, 2, 1)
    try:
        X = np.linalg.solve(At @ A, At)
    except np.linalg.LinAlgError:
        # an exactly singular A^T A fails the whole batch: refit it by SVD
        X = np.full(At.shape, np.nan)
    redo = ~(np.abs(X @ A - np.eye(len(_FACTORS))).max(axis=(1, 2))
             <= _NORMAL_TOL)
    ok = np.ones(len(y), dtype=bool)
    if redo.any():
        X[redo] = np.linalg.pinv(A[redo], rcond=_RCOND)
        s = np.linalg.svd(A[redo], compute_uv=False)
        ok[redo] = s[:, -1] > _RCOND * s[:, 0]
    # rbar^deg of the gradient and Hessian monomials
    r2 = rbar * rbar
    scale = np.concatenate((rbar, rbar, r2, r2, r2), axis=1)
    rows = X[:, 1:6] / scale[..., None] * w[:, None, :]
    return rows, ok


def _two_rings(adjacency):
    """Two-ring of each vertex without the vertex, ascending, as an
    (N, width) table padded with -1; built in blocks of _BLOCK_VERTICES."""
    parts = []
    for lo in range(0, len(adjacency), _BLOCK_VERTICES):
        one = adjacency[lo:lo + _BLOCK_VERTICES]
        ring = expand_rows(adjacency, one)
        verts = np.arange(lo, lo + len(one))
        parts.append(unique_rows(np.where(ring == verts[:, None], -1, ring)))
    return stack_rows(parts)


class DerivativeOperators:
    """Stencils for gradient and Hessian in vertex frames.

    Built from any mesh exposing vertices, frames and a padded neighbour
    table (`spheremesh.vertex_adjacency`). Each vertex gets a weighted
    cubic fit over itself and its two-ring; vertices with equally large
    rings are fitted together, in blocks of at most _FIT_BLOCK, by batched
    normal equations or SVD (`_fit_rows`), so the build's temporaries do
    not grow with the mesh. A two-ring too small or too degenerate for a
    cubic fit raises ValueError.

    Attributes
    ----------
    nodes : (K, N) int32 table; column i holds the stencil nodes of vertex i
        in ascending order, K the largest stencil. A vertex with fewer
        nodes repeats its own index, with weight 0.
    weights : (5, K, N) the weights of the channels g1, g2, h11, h12, h22
        on those nodes.

    A channel applied to values adds weight times value over k = 0..K-1,
    starting from 0, in the order a CSR matrix-vector product adds its
    row, so for finite values the result equals that product bit for bit.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        n = mesh.n_vertices
        e1, e2 = mesh.frames
        adj = mesh.adjacency
        degenerate = np.flatnonzero((adj >= 0).sum(axis=1) < 3)
        if degenerate.size:
            raise ValueError(f"degenerate one-ring at vertex {degenerate[0]}")
        ring = _two_rings(adj)
        # stencil nodes: the vertex itself, then its two-ring in index order
        sizes = (ring >= 0).sum(axis=1) + 1
        if sizes.min() < len(_FACTORS):
            i = int(np.argmin(sizes))
            raise ValueError(f"two-ring of vertex {i} has {sizes[i]} nodes; "
                             f"the cubic fit needs {len(_FACTORS)}")
        self.nodes = np.broadcast_to(np.arange(n, dtype=np.int32),
                                     (sizes.max(), n)).copy()
        self.weights = np.zeros((5,) + self.nodes.shape)
        bad = []
        for size in np.unique(sizes):
            group = np.flatnonzero(sizes == size)
            for lo in range(0, len(group), _FIT_BLOCK):
                verts = group[lo:lo + _FIT_BLOCK]
                idx = np.empty((len(verts), size), dtype=np.intp)
                idx[:, 0] = verts
                idx[:, 1:] = ring[verts, :size - 1]
                d = mesh.vertices[idx] - mesh.vertices[verts][:, None, :]
                y = np.stack((np.einsum("gki,gi->gk", d, e1[verts]),
                              np.einsum("gki,gi->gk", d, e2[verts])), axis=2)
                fit, ok = _fit_rows(y)
                bad.append(verts[~ok])
                order = np.argsort(idx, axis=1)
                self.nodes[:size, verts] = np.take_along_axis(idx, order, 1).T
                self.weights[:, :size, verts] = np.take_along_axis(
                    fit, order[:, None, :], 2).transpose(1, 2, 0)
        bad = np.concatenate(bad)
        if bad.size:
            raise ValueError(f"rank-deficient cubic fit over the two-ring "
                             f"of vertex {bad.min()}")

    def _apply(self, channels, fields):
        """Channels (a slice of weights) applied to fields (c, N); returns
        (channels, c, N). Gathers the values at all nodes of a block of
        vertices at once, then adds the weighted columns in order."""
        weights = self.weights[channels, :, None, :]
        out = np.zeros((len(weights),) + fields.shape)
        for lo in range(0, fields.shape[1], _BLOCK_VERTICES):
            cols = slice(lo, lo + _BLOCK_VERTICES)
            values = np.take(fields, self.nodes[:, cols], axis=1)
            w, acc = weights[..., cols], out[..., cols]
            term = np.empty_like(acc)
            for k in range(len(self.nodes)):
                np.multiply(w[:, k], values[:, k], out=term)
                acc += term
        return out

    def gradient(self, values):
        """Covariant gradient, (N, 2) components in the vertex frames."""
        g1, g2 = self._apply(slice(0, 2), _fields(values))[:, 0]
        return np.column_stack((g1, g2))

    def gradient_ambient(self, values):
        """Covariant gradient as tangent vectors in ambient coordinates."""
        g = self.gradient(values)
        e1, e2 = self.mesh.frames
        return g[:, 0:1] * e1 + g[:, 1:2] * e2

    def jacobian_ambient(self, vectors):
        """Tangential derivative of an ambient-vector-valued field.

        Returns (N, 3, 2): columns are derivatives along the frame
        directions e1 and e2.
        """
        g = self._apply(slice(0, 2), _fields(vectors))
        return np.ascontiguousarray(g.transpose(2, 1, 0))

    def hessian(self, values):
        """Covariant Hessian, (N, 2, 2) in the vertex frames (symmetric)."""
        h11, h12, h22 = self._apply(slice(2, 5), _fields(values))[:, 0]
        H = np.empty((len(h11), 2, 2))
        H[:, 0, 0] = h11
        H[:, 1, 1] = h22
        H[:, 0, 1] = H[:, 1, 0] = h12
        return H

    def divergence(self, vectors):
        """Surface divergence of a tangent vector field.

        Accepts either (N, 2) frame components or (N, 3) ambient vectors.
        Uses div X = sum_k <grad X^k, e_k> over ambient components, which is
        exact for tangent fields and adjoint to -grad up to quadrature.
        """
        vectors = np.asarray(vectors, dtype=float)
        e1, e2 = self.mesh.frames
        if vectors.shape[1] == 2:
            vectors = vectors[:, 0:1] * e1 + vectors[:, 1:2] * e2
        g1, g2 = self._apply(slice(0, 2), _fields(vectors))
        div = np.zeros(len(vectors))
        for k in range(3):
            div += g1[k] * e1[:, k]
            div += g2[k] * e2[:, k]
        return div

    def laplacian(self, values):
        """Laplace-Beltrami via divergence of the gradient."""
        return self.divergence(self.gradient_ambient(values))


def _fields(values):
    """Values (N,) or (N, c) as c contiguous rows of length N."""
    values = np.asarray(values, dtype=float)
    return np.ascontiguousarray(values.reshape(len(values), -1).T)


def lp_norm(values, p, weights):
    """(integral |v|^p dV)^(1/p) with vertex quadrature weights.

    values may be scalar (N,), vector (N, d), matrix (N, 2, 2) or a
    TensorField; the pointwise magnitude is the Frobenius norm.
    """
    if p <= 1:
        raise ValueError("p must be > 1")
    if isinstance(values, TensorField):
        mag = values.pointwise_norm()
    else:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            mag = np.abs(values)
        else:
            mag = np.sqrt(np.sum(values.reshape(len(values), -1) ** 2, axis=1))
    return float(np.sum(weights * mag ** p) ** (1.0 / p))


def covariant_derivatives(mesh, values, coeffs=None):
    """Covariant gradient (N, 2) and Hessian (N, 2, 2) of a field on the
    sphere or a Wulff mesh, in the mesh frames, through the directions.

    The field is analysed at `spectral.graph_band` (or given by its
    harmonic coefficients) and differentiated exactly on the direction
    sphere (`spectral.spectral_derivatives`). Over a Wulff mesh, with
    dx = A over the directions and A^-1 its shape operator:
        grad_W f = A^-1 grad_S f,
        Hess_W f = A^-1 (Hess_S f - T_G) A^-1,  G = grad_W f,
    where T_G = D^3 Fbar[G] restricted to the frame
    (`Integrand.fbar_hess_deriv`) carries the Christoffel symbols of the
    metric A^2 in the direction chart.
    """
    if coeffs is None:
        band = spectral.graph_band(mesh.n_vertices)
        coeffs = spectral.sh_analyze(mesh, values, band)
    _, grad, hess = spectral.spectral_derivatives(mesh, coeffs)
    if mesh.integrand is None:
        return grad, hess
    sw = mesh.shape_operator
    grad = np.einsum("nij,nj->ni", sw, grad)
    e1, e2 = mesh.frames
    tangent = grad[:, 0:1] * e1 + grad[:, 1:2] * e2
    christoffel = frame_restriction(
        mesh.integrand.fbar_hess_deriv(mesh.normals, tangent), e1, e2)
    return grad, sw @ (hess - christoffel) @ sw


def w2p_norm(values, p, mesh, coeffs=None):
    """Sobolev W^{2,p} norm: ||u||_p + ||grad u||_p + ||Hess u||_p.

    The derivatives are exact ones of the field's harmonic expansion over
    the directions (`covariant_derivatives`): the supplied coefficients,
    or an analysis at `spectral.graph_band` on either base.
    """
    values = np.asarray(values, dtype=float)
    grad, hess = covariant_derivatives(mesh, values, coeffs)
    w = mesh.weights
    return lp_norm(values, p, w) + lp_norm(grad, p, w) + lp_norm(hess, p, w)


def get_operators(mesh):
    """DerivativeOperators of a mesh, built once and cached on it."""
    return mesh.cached("operators", DerivativeOperators)


def surface_gradient(mesh, values):
    """Covariant gradient as ambient tangent vectors, (N, 3)."""
    return get_operators(mesh).gradient_ambient(values)


def surface_divergence(mesh, vectors):
    """Surface divergence of a tangent vector field ((N, 2) frame or (N, 3))."""
    return get_operators(mesh).divergence(vectors)
