"""Covariant differential operators and norms on the sphere and Wulff meshes.

Fields on these meshes are fields of the construction direction nu, so
their covariant derivatives are exact ones of their harmonic expansion
over the directions, pulled to the Wulff shape by the chain rule
(`covariant_derivatives`). The W^{2,p} norm and `DerivativeOperators`
(gradient, Hessian, divergence, Laplacian) are built on them.
"""

import numpy as np

from . import spectral
from .spheremesh import rowdot, sym2_congruence


def lp_norm(values, p, weights):
    """(integral |v|^p dV)^(1/p) with vertex quadrature weights.

    values is a per-node array: scalar (N,), vector (N, d) or a 2x2 tensor
    per node (N, 2, 2). The pointwise magnitude is the absolute value or
    the Euclidean / Frobenius norm, which is invariant under per-node
    rotations of the frame. Raises ValueError unless 1 < p < inf.
    """
    if not 1 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        mag = np.abs(values)
    else:
        mag = np.sqrt(np.sum(values.reshape(len(values), -1) ** 2, axis=1))
    return float(np.sum(weights * mag ** p) ** (1.0 / p))


def covariant_derivatives(mesh, values):
    """Covariant gradient (N, 2) and Hessian (N, 2, 2) of a field on the
    sphere or a Wulff mesh, in the mesh frames, through the directions.

    The field is analysed at `spectral.graph_band` and differentiated
    exactly on the direction sphere (`spectral.spectral_derivatives`), so
    the result is exact up to rounding for fields up to that band; the
    analysis drops higher modes. Over a Wulff mesh, with dx = A over the
    directions and A^-1 its shape operator:
        grad_W f = A^-1 grad_S f,
        Hess_W f = A^-1 (Hess_S f - T_G) A^-1,  G = grad_W f,
    where T_G = D^3 Fbar[G] in the frame (`Integrand.hess_deriv_form`)
    carries the Christoffel symbols of the metric A^2 in the direction
    chart. Both products with A^-1 are entrywise, and the Hessian is
    exactly symmetric (`sym2_congruence`).
    """
    band = spectral.graph_band(mesh.n_vertices)
    coeffs = spectral.sh_analyze(mesh, values, band)
    _, grad, hess = spectral.spectral_derivatives(mesh, coeffs)
    if mesh.integrand is None:
        return grad, hess
    sw = mesh.shape_operator
    g1, g2 = grad[:, 0], grad[:, 1]
    grad = np.stack((sw[:, 0, 0] * g1 + sw[:, 0, 1] * g2,
                     sw[:, 1, 0] * g1 + sw[:, 1, 1] * g2), axis=1)
    e1, e2 = mesh.frames
    tangent = grad[:, 0:1] * e1 + grad[:, 1:2] * e2
    christoffel = mesh.integrand.hess_deriv_form(mesh.normals, tangent, e1, e2)
    return grad, sym2_congruence(sw, hess - christoffel)


def w2p_norm(values, p, mesh):
    """Sobolev W^{2,p} norm: ||u||_p + ||grad u||_p + ||Hess u||_p.

    The derivatives are exact ones of the field's harmonic expansion at
    `spectral.graph_band` over the directions (`covariant_derivatives`),
    on either base.
    """
    values = np.asarray(values, dtype=float)
    grad, hess = covariant_derivatives(mesh, values)
    w = mesh.weights
    return lp_norm(values, p, w) + lp_norm(grad, p, w) + lp_norm(hess, p, w)


class DerivativeOperators:
    """Covariant derivatives of fields on the sphere or a Wulff mesh, in
    the vertex frames, all taken from `covariant_derivatives`.

    Each field is analysed at `spectral.graph_band` over the directions and
    differentiated exactly; the analysis drops higher modes. The gradient,
    Hessian and Laplacian are therefore exact up to rounding for fields up
    to that band, on either base. Vector fields are differentiated one
    ambient component at a time, so `jacobian_ambient` and `divergence`
    are exact only where those components lie in the band too: on the
    sphere the gradient of a field of band at most graph_band - 1 does, and
    divergence(gradient f) is the Laplacian up to rounding. On a Wulff mesh
    grad_W f = A^-1 grad_S f carries A^-1 of Fbar, which is not
    band-limited, and the dropped modes stay at any level (for Y31 on
    quadratic:1,1,4 the two Laplacians differ by about 2e-3 relative at
    levels 3-5), so both raise ValueError there.
    """

    def __init__(self, mesh):
        self.mesh = mesh

    def gradient(self, values):
        """Covariant gradient grad_W f = A^-1 grad_S f, (N, 2) components
        in the vertex frames."""
        return covariant_derivatives(self.mesh, values)[0]

    def gradient_ambient(self, values):
        """Covariant gradient as tangent vectors in ambient coordinates."""
        g = self.gradient(values)
        e1, e2 = self.mesh.frames
        return g[:, 0:1] * e1 + g[:, 1:2] * e2

    def jacobian_ambient(self, vectors):
        """Tangential derivative of an ambient-vector-valued field.

        Returns (N, 3, 2): row k is the gradient of the component X^k, so
        the columns are derivatives along the frame directions e1 and e2.
        """
        if self.mesh.integrand is not None:
            raise ValueError("jacobian_ambient and divergence run on the "
                             "sphere only: on a Wulff mesh A^-1 grad_S f is "
                             "not band-limited")
        vectors = np.asarray(vectors, dtype=float)
        return np.stack([self.gradient(x) for x in vectors.T], axis=1)

    def hessian(self, values):
        """Covariant Hessian Hess_W f = A^-1 (Hess_S f - T_G) A^-1,
        (N, 2, 2) in the vertex frames (symmetric)."""
        return covariant_derivatives(self.mesh, values)[1]

    def divergence(self, vectors):
        """Surface divergence of a tangent vector field.

        Accepts either (N, 2) frame components or (N, 3) ambient vectors.
        Uses div X = sum_k <grad X^k, e_k> over the ambient components.
        """
        vectors = np.asarray(vectors, dtype=float)
        e1, e2 = self.mesh.frames
        if vectors.shape[1] == 2:
            vectors = vectors[:, 0:1] * e1 + vectors[:, 1:2] * e2
        jac = self.jacobian_ambient(vectors)
        return rowdot(jac[:, :, 0], e1) + rowdot(jac[:, :, 1], e2)

    def laplacian(self, values):
        """Laplace-Beltrami operator, the trace of the covariant Hessian."""
        hess = self.hessian(values)
        return hess[:, 0, 0] + hess[:, 1, 1]


def get_operators(mesh):
    """DerivativeOperators of a mesh, built once and cached on it."""
    return mesh.cached("operators", DerivativeOperators)

