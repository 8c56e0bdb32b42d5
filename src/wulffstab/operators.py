"""Covariant differential operators and norms on triangulated surfaces.

Derivatives come from weighted least-squares polynomial fits over the
one- and two-ring of each vertex, in tangent-plane projection coordinates.
The projection chart agrees with normal coordinates to second order, so the
fitted gradient and Hessian are the covariant ones at the vertex. Fits are
precomputed once per mesh as sparse stencil matrices; each is solved by
normal equations in chart coordinates scaled by the mean ring radius, or by
SVD where the normal equations would lose accuracy.
"""

import numpy as np
from scipy import sparse

from . import spectral


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
# stencils fitted per batch; each fit is solved on its own, so the block
# size bounds the temporaries without changing an entry
_BLOCK_VERTICES = 8192
# largest entry of |X A - I| accepted from the normal equations; their error
# grows with cond(A)^2, so fits beyond it are refitted by SVD
_NORMAL_TOL = 1e-11
# smallest smin/smax of the scaled design matrix that counts as full rank
_RCOND = 1e-10


def _design_matrix(y):
    a, b = y[..., 0], y[..., 1]
    aa, bb = a * a, b * b
    m = np.stack((np.ones_like(a), a, b, aa, a * b, bb,
                  aa * a, aa * b, a * bb, bb * b), axis=-1)
    return m * _FACTORS


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
    A = _design_matrix(y / rbar[..., None]) * w[..., None]
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
    scale = _design_matrix(np.repeat(rbar, 2, axis=1))[:, 1:6] / _FACTORS[1:6]
    rows = X[:, 1:6] / scale[..., None] * w[:, None, :]
    return rows, ok


class DerivativeOperators:
    """Sparse stencil matrices for gradient and Hessian in vertex frames.

    Built from any mesh exposing vertices, frames and a CSR adjacency. Each
    vertex gets a weighted cubic fit over itself and its two-ring; vertices
    with equally large rings are fitted together, in blocks of at most
    _BLOCK_VERTICES, by batched normal equations or SVD (`_fit_rows`). A
    two-ring too small or too degenerate for a cubic fit raises ValueError.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        n = mesh.n_vertices
        e1, e2 = mesh.frames
        adj = mesh.adjacency
        degenerate = np.flatnonzero(np.diff(adj.indptr) < 3)
        if degenerate.size:
            raise ValueError(f"degenerate one-ring at vertex {degenerate[0]}")
        ring = (adj + adj @ adj).tocsr()
        ring.setdiag(0)
        ring.eliminate_zeros()
        ring.sort_indices()
        # stencil nodes: the vertex itself, then its two-ring in index order
        sizes = np.diff(ring.indptr) + 1
        if sizes.min() < len(_FACTORS):
            i = int(np.argmin(sizes))
            raise ValueError(f"two-ring of vertex {i} has {sizes[i]} nodes; "
                             f"the cubic fit needs {len(_FACTORS)}")
        rows, cols, data, bad = [], [], [], []
        for size in np.unique(sizes):
            group = np.flatnonzero(sizes == size)
            for lo in range(0, len(group), _BLOCK_VERTICES):
                verts = group[lo:lo + _BLOCK_VERTICES]
                idx = np.empty((len(verts), size), dtype=np.int64)
                idx[:, 0] = verts
                idx[:, 1:] = ring.indices[ring.indptr[verts][:, None]
                                          + np.arange(size - 1)]
                d = mesh.vertices[idx] - mesh.vertices[verts][:, None, :]
                y = np.stack((np.einsum("gki,gi->gk", d, e1[verts]),
                              np.einsum("gki,gi->gk", d, e2[verts])), axis=2)
                fit, ok = _fit_rows(y)
                bad.append(verts[~ok])
                rows.append(np.repeat(verts, size))
                cols.append(idx.ravel())
                data.append(fit.transpose(1, 0, 2).reshape(5, -1))
        bad = np.concatenate(bad)
        if bad.size:
            raise ValueError(f"rank-deficient cubic fit over the two-ring "
                             f"of vertex {bad.min()}")
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        data = np.concatenate(data, axis=1)
        # channels: g1, g2, h11, h12, h22
        self.g1, self.g2, self.h11, self.h12, self.h22 = [
            sparse.csr_matrix((data[ch], (rows, cols)), shape=(n, n))
            for ch in range(5)]

    def gradient(self, values):
        """Covariant gradient, (N, 2) components in the vertex frames."""
        values = np.asarray(values, dtype=float)
        return np.column_stack((self.g1 @ values, self.g2 @ values))

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
        vectors = np.asarray(vectors, dtype=float)
        out = np.empty((len(vectors), 3, 2))
        for k in range(3):
            out[:, k, 0] = self.g1 @ vectors[:, k]
            out[:, k, 1] = self.g2 @ vectors[:, k]
        return out

    def hessian(self, values):
        """Covariant Hessian, (N, 2, 2) in the vertex frames (symmetric)."""
        values = np.asarray(values, dtype=float)
        H = np.empty((len(values), 2, 2))
        H[:, 0, 0] = self.h11 @ values
        H[:, 1, 1] = self.h22 @ values
        H[:, 0, 1] = H[:, 1, 0] = self.h12 @ values
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
        div = np.zeros(len(vectors))
        for k in range(3):
            div += (self.g1 @ vectors[:, k]) * e1[:, k]
            div += (self.g2 @ vectors[:, k]) * e2[:, k]
        return div

    def laplacian(self, values):
        """Laplace-Beltrami via divergence of the gradient."""
        return self.divergence(self.gradient_ambient(values))


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


def w2p_norm(values, p, mesh, coeffs=None):
    """Sobolev W^{2,p} norm: ||u||_p + ||grad u||_p + ||Hess u||_p.

    If harmonic coefficients are supplied the derivatives are spectral
    (round sphere only); otherwise they come from the mesh stencils.
    """
    values = np.asarray(values, dtype=float)
    if coeffs is not None:
        _, grad, hess = spectral.spectral_derivatives(mesh, coeffs)
    else:
        ops = get_operators(mesh)
        grad = ops.gradient(values)
        hess = ops.hessian(values)
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
