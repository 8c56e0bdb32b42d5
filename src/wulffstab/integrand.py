"""Anisotropic surface-energy densities on the sphere.

An integrand F > 0 on S^2 is represented through its 1-homogeneous extension
Fbar(x) = |x| F(x/|x|), whose ambient derivatives up to the third are
closed-form for every family. This gives all derived quantities directly:

* intrinsic gradient  DF(nu) = grad Fbar(nu) - F(nu) nu
* anisotropy matrix   A_F(nu) = hess Fbar(nu) restricted to the tangent plane
  (the normal direction is annihilated by 1-homogeneity), formed in a
  tangent frame from Hessian-vector products (`anisotropy_form`)
* normal map onto the Wulff shape  x(nu) = grad Fbar(nu) = DF(nu) + F(nu) nu,
  with dx = A_F and d^2 x[v, w] = T_v w, T_v = D^3 Fbar[v], a product in
  closed form (`fbar_hess_deriv_vec`) and in a frame (`hess_deriv_form`)
"""

import numpy as np

from . import spheremesh
from .spheremesh import (EllipticityError, rowdot, rownorm, sphere_newton,
                         sym2_eigvalsh, tangent_frames)

UNIT_TOL = 1e-12


# real orthonormal spherical harmonics as homogeneous polynomials, used as
# perturbation modes; keys are (l, m)
_C = {
    "y00": np.sqrt(1 / (4 * np.pi)),
    "y1": np.sqrt(3 / (4 * np.pi)),
    "y2d": np.sqrt(15 / (4 * np.pi)),
    "y20": np.sqrt(5 / (16 * np.pi)),
    "y22": np.sqrt(15 / (16 * np.pi)),
    "y3a": np.sqrt(35 / (32 * np.pi)),
    "y3b": np.sqrt(105 / (4 * np.pi)),
    "y3c": np.sqrt(21 / (32 * np.pi)),
    "y30": np.sqrt(7 / (16 * np.pi)),
    "y32": np.sqrt(105 / (16 * np.pi)),
}

HARMONIC_POLYNOMIALS = {
    (0, 0): {(0, 0, 0): _C["y00"]},
    (1, -1): {(0, 1, 0): _C["y1"]},
    (1, 0): {(0, 0, 1): _C["y1"]},
    (1, 1): {(1, 0, 0): _C["y1"]},
    (2, -2): {(1, 1, 0): _C["y2d"]},
    (2, -1): {(0, 1, 1): _C["y2d"]},
    (2, 0): {(0, 0, 2): 2 * _C["y20"], (2, 0, 0): -_C["y20"], (0, 2, 0): -_C["y20"]},
    (2, 1): {(1, 0, 1): _C["y2d"]},
    (2, 2): {(2, 0, 0): _C["y22"], (0, 2, 0): -_C["y22"]},
    (3, -3): {(2, 1, 0): 3 * _C["y3a"], (0, 3, 0): -_C["y3a"]},
    (3, -2): {(1, 1, 1): _C["y3b"]},
    (3, -1): {(0, 1, 2): 4 * _C["y3c"], (2, 1, 0): -_C["y3c"], (0, 3, 0): -_C["y3c"]},
    (3, 0): {(0, 0, 3): 2 * _C["y30"], (2, 0, 1): -3 * _C["y30"], (0, 2, 1): -3 * _C["y30"]},
    (3, 1): {(1, 0, 2): 4 * _C["y3c"], (3, 0, 0): -_C["y3c"], (1, 2, 0): -_C["y3c"]},
    (3, 2): {(2, 0, 1): _C["y32"], (0, 2, 1): -_C["y32"]},
    (3, 3): {(3, 0, 0): _C["y3a"], (1, 2, 0): -3 * _C["y3a"]},
}


class HomogeneousPolynomial:
    """Homogeneous polynomial in (x, y, z), given as an exponent ->
    coefficient dict of one total degree. Its partial derivatives are
    polynomials too (`partial`), and every derivative is composed of them.
    The zero polynomial has no terms and no degree."""

    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)
        self.degree = sum(next(iter(self.coeffs))) if self.coeffs else None
        self._partials = {}

    def value(self, pts):
        """P at each row of the (n, 3) array pts. The monomials are read
        from per-axis tables of powers built by repeated products, since
        x ** 3 through pow is slow on negative entries."""
        px, py, pz = (_powers(pts[:, a], max((e[a] for e in self.coeffs),
                                             default=0)) for a in range(3))
        out = np.zeros(len(pts))
        for (i, j, k), c in self.coeffs.items():
            out += c * px[i] * py[j] * pz[k]
        return out

    def partial(self, axis):
        """dP/dx_axis as a polynomial, built once and kept."""
        if axis not in self._partials:
            terms = {tuple(n - (a == axis) for a, n in enumerate(e)): c * e[axis]
                     for e, c in self.coeffs.items() if e[axis]}
            self._partials[axis] = HomogeneousPolynomial(terms)
        return self._partials[axis]

    def grad(self, pts):
        return np.stack([self.partial(a).value(pts) for a in range(3)], axis=1)

    def hess(self, pts):
        return np.stack([self.partial(a).grad(pts) for a in range(3)], axis=1)

    def hess_vec(self, pts, v):
        """hess P v = sum_b v_b grad(dP/dx_b), without forming hess P; v may
        carry leading axes before (n, 3)."""
        return sum(self.partial(b).grad(pts) * v[..., b, None]
                   for b in range(3))

    def hess_deriv_vec(self, pts, v, w):
        """D^3 P[v, w, .] = sum_c v_c hess(dP/dx_c) w."""
        return sum(self.partial(c).hess_vec(pts, w) * v[..., c, None]
                   for c in range(3))


def _powers(x, top):
    """[x^0, x^1, ..., x^top] of an array, each the last times x."""
    table = [np.ones_like(x), x]
    for _ in range(top - 1):
        table.append(table[-1] * x)
    return table


def _frame_form(e1, e2, h):
    """(N, 2, 2) forms e_k . B e_l of a symmetric B from its products
    h = (B e1, B e2), a pair or a (2, N, 3) stack; the off-diagonal entry
    is computed once, so each form is exactly symmetric."""
    A = np.empty((len(e1), 2, 2))
    A[:, 0, 0] = rowdot(e1, h[0])
    A[:, 0, 1] = A[:, 1, 0] = rowdot(e1, h[1])
    A[:, 1, 1] = rowdot(e2, h[1])
    return A


class Integrand:
    """Anisotropic integrand on S^2 with closed-form derived quantities.

    Construct through the classmethods constant, quadratic_form or
    fourier_perturbed. The ellipticity margin (smallest eigenvalue of
    A_F over a dense direction sample) is computed once at construction.
    Fbar, its gradient, its Hessian as a matrix (`fbar_hess`) and as a
    product (`fbar_hess_vec`), and its third derivative as a product
    (`fbar_hess_deriv_vec`, T_v w, which the second derivatives of the
    Wulff map x(nu) = grad Fbar(nu) need) have one closed form per family:

    * constant V:    Fbar = V r, the radial term c |x| with c = V
    * quadratic M:   Fbar = s = sqrt(x.Mx),
                     hess Fbar v = (Mv - Mx (Mx.v)/s^2)/s
    * fourier:       Fbar = c r + a P(x) r^(1-d) for a harmonic polynomial
                     P of degree d: the radial term with c = b, plus the
                     perturbation differentiated term by term

    Every 2x2 frame form (`anisotropy_form`, `hess_deriv_form`) is taken
    from two such products.
    """

    def __init__(self, family, params):
        self.family = family
        self.params = params
        self.ellipticity_margin = self._compute_margin()

    # families -------------------------------------------------------------

    @classmethod
    def constant(cls, value=1.0):
        if not 0 < value < np.inf:
            raise ValueError(f"constant integrand value must be finite and "
                             f"positive, got {value!r}")
        return cls("constant", {"value": float(value)})

    @classmethod
    def quadratic_form(cls, matrix):
        M = np.asarray(matrix, dtype=float)
        if not np.isfinite(M).all():
            raise ValueError("matrix entries must be finite")
        if M.shape != (3, 3) or not np.allclose(M, M.T, atol=1e-14):
            raise ValueError("matrix must be symmetric 3x3")
        if np.linalg.eigvalsh(M).min() <= 0:
            raise ValueError("matrix must be positive definite")
        return cls("quadratic", {"M": M})

    @classmethod
    def fourier_perturbed(cls, base, amplitude, mode):
        """base + amplitude * (harmonic polynomial mode restricted to S^2).

        mode is an (l, m) key of HARMONIC_POLYNOMIALS, a real spherical
        harmonic of degree l <= 3.
        """
        for name, v in (("base", base), ("amplitude", amplitude)):
            if not np.isfinite(v):
                raise ValueError(f"fourier {name} must be finite, got {v!r}")
        try:
            coeffs = HARMONIC_POLYNOMIALS[mode]
        except (KeyError, TypeError):
            raise ValueError(f"fourier mode (l, m) = {mode!r} is not one of "
                             "the tabulated harmonics (|m| <= l <= 3)") from None
        self = cls("fourier", {"base": float(base), "amplitude": float(amplitude),
                               "poly": HomogeneousPolynomial(coeffs)})
        sample = _dense_sample().vertices
        if self.value(sample).min() <= 0:
            raise ValueError("perturbed integrand is not positive on the sphere")
        return self

    # 1-homogeneous extension ----------------------------------------------

    @property
    def _radial(self):
        """c of the radial term c |x|: the constant, or the Fourier base."""
        return self.params["value" if self.family == "constant" else "base"]

    def _perturbation(self):
        """(a, P, k) of the Fourier term a P(x) r^k, k = 1 - deg P."""
        p = self.params["poly"]
        return self.params["amplitude"], p, 1 - p.degree

    def fbar(self, x):
        if self.family == "quadratic":
            return np.sqrt(rowdot(x @ self.params["M"], x))
        r = rownorm(x)
        out = self._radial * r
        if self.family == "fourier":
            a, p, k = self._perturbation()
            out += a * p.value(x) * r ** k
        return out

    def fbar_grad(self, x):
        if self.family == "quadratic":
            Mx = x @ self.params["M"]
            return Mx / np.sqrt(rowdot(Mx, x))[:, None]
        r = rownorm(x)[:, None]
        out = self._radial * x / r
        if self.family == "fourier":
            a, p, k = self._perturbation()
            pv = p.value(x)[:, None]
            out += a * (p.grad(x) * r ** k + k * pv * x * r ** (k - 2))
        return out

    def fbar_hess(self, x):
        if self.family == "quadratic":
            M = self.params["M"]
            Mx = x @ M
            s = np.sqrt(rowdot(Mx, x))[:, None, None]
            return M[None] / s - Mx[:, :, None] * Mx[:, None, :] / s ** 3
        r = rownorm(x)[:, None, None]
        eye = np.eye(3)[None]
        outer = x[:, :, None] * x[:, None, :]
        out = self._radial * (eye - outer / r ** 2) / r
        if self.family == "fourier":
            a, p, k = self._perturbation()
            pv = p.value(x)[:, None, None]
            pg = p.grad(x)
            cross = (pg[:, :, None] * x[:, None, :]
                     + x[:, :, None] * pg[:, None, :])
            out += a * (p.hess(x) * r ** k
                        + k * cross * r ** (k - 2)
                        + k * pv * eye * r ** (k - 2)
                        + k * (k - 2) * pv * outer * r ** (k - 4))
        return out

    def fbar_hess_vec(self, x, v):
        """hess Fbar(x) v per point, (N, 3), without forming a Hessian.

        v is (N, 3) or a stack (..., N, 3) of several vectors per point, such
        as a tangent frame (2, N, 3); the terms of x are formed once for the
        stack. The same terms as `fbar_hess`, each applied to v:
        V (v - x (x.v)/r^2)/r for a constant, (Mv - Mx (Mx.v)/s^2)/s for a
        quadratic form.
        """
        if self.family == "quadratic":
            M = self.params["M"]
            Mx = x @ M
            s = np.sqrt(rowdot(x, Mx))[:, None]
            return (v @ M - Mx * (rowdot(Mx, v)[..., None] / s ** 2)) / s
        r = np.sqrt(rowdot(x, x))[:, None]
        xv = rowdot(x, v)[..., None]
        out = self._radial * (v - x * (xv / r ** 2)) / r
        if self.family == "fourier":
            a, p, k = self._perturbation()
            pv = p.value(x)[:, None]
            pg = p.grad(x)
            out += a * (p.hess_vec(x, v) * r ** k
                        + k * (pg * xv + x * rowdot(pg, v)[..., None] + pv * v)
                        * r ** (k - 2)
                        + k * (k - 2) * pv * x * xv * r ** (k - 4))
        return out

    def fbar_hess_deriv_vec(self, x, v, w):
        """T_v w per point, (N, 3), T_v = d/dt hess Fbar(x + t v) at t = 0,
        without forming T_v.

        D^3 Fbar is symmetric in its three slots, so T_v w = T_w v, and at a
        unit x, T_x w = -hess Fbar(x) w by (-1)-homogeneity of the Hessian.
        With s = x.v, q = x.w: c |x| gives
        c (3 s q x/r^2 - (s w + q v + (v.w) x))/r^3, and a quadratic form
        (3 (m.v)(m.w) m/S^2 - ((m.v) Mw + (m.w) Mv + (v.Mw) m))/S^3 with
        m = Mx, S^2 = x.Mx.
        """
        if self.family == "quadratic":
            M = self.params["M"]
            m, mv, mw = x @ M, v @ M, w @ M
            S = np.sqrt(rowdot(m, x))[:, None]
            qv, qw = rowdot(m, v)[..., None], rowdot(m, w)[..., None]
            return (3 * qv * qw * m / S ** 2
                    - (qv * mw + qw * mv + rowdot(mv, w)[..., None] * m)
                    ) / S ** 3
        r = np.sqrt(rowdot(x, x))[:, None]
        s, q, vw = (rowdot(x, v)[..., None], rowdot(x, w)[..., None],
                    rowdot(v, w)[..., None])
        sym = s * w + q * v + vw * x
        out = self._radial * (3 * s * q * x / r ** 2 - sym) / r ** 3
        if self.family == "fourier":
            # d/dt of each term of fbar_hess_vec's perturbation along v
            a, p, k = self._perturbation()
            pv = p.value(x)[:, None]
            pg = p.grad(x)
            gv, gw = rowdot(pg, v)[..., None], rowdot(pg, w)[..., None]
            hv, hw = p.hess_vec(x, v), p.hess_vec(x, w)
            out += a * (p.hess_deriv_vec(x, v, w) * r ** k
                        + k * (s * hw + q * hv + vw * pg
                               + gw * v + gv * w + rowdot(hv, w)[..., None] * x)
                        * r ** (k - 2)
                        + k * (k - 2) * (s * q * pg + (s * gw + q * gv) * x
                                         + pv * sym) * r ** (k - 4)
                        + k * (k - 2) * (k - 4) * s * q * pv * x
                        * r ** (k - 6))
        return out

    # derived quantities ----------------------------------------------------

    def value(self, nu):
        """F at unit directions (no unit check; use evaluate for the contract)."""
        return self.fbar(nu)

    def evaluate(self, nu):
        """F (N,), intrinsic gradient DF (N, 3) and intrinsic Hessian D2F
        (N, 3, 3) at unit directions nu (N, 3).

        DF is a tangent 3-vector and D2F an ambient 3x3 matrix that
        annihilates nu (rows and columns tangent).
        """
        r = rownorm(nu)
        if np.any(np.abs(r - 1.0) > UNIT_TOL):
            raise ValueError("evaluate expects unit directions (|nu| = 1)")
        F = self.fbar(nu)
        DF = self.fbar_grad(nu) - F[:, None] * nu
        P = np.eye(3)[None] - nu[:, :, None] * nu[:, None, :]
        D2F = self.anisotropy_ambient(nu) - F[:, None, None] * P
        return F, DF, D2F

    def anisotropy_form(self, nu, e1, e2):
        """A_F(nu) in the tangent frames (e1, e2): the (N, 2, 2) forms
        e_k . hess Fbar(nu) e_l from one stacked Hessian-vector product,
        exactly symmetric."""
        return _frame_form(e1, e2, self.fbar_hess_vec(nu, np.stack((e1, e2))))

    def hess_deriv_form(self, x, v, e1, e2):
        """T_v at x in the tangent frames (e1, e2): the (N, 2, 2) forms
        e_k . T_v e_l from two products `fbar_hess_deriv_vec`, exactly
        symmetric. (One stacked product would hold twice the temporaries
        where the graph geometry holds the most arrays.)"""
        return _frame_form(e1, e2, (self.fbar_hess_deriv_vec(x, v, e1),
                                    self.fbar_hess_deriv_vec(x, v, e2)))

    def anisotropy_ambient(self, nu):
        """A_F(nu) as ambient (N, 3, 3) matrices with nu in their kernel."""
        H = self.fbar_hess(nu)
        # project out the numerically nonzero normal component; the exact
        # matrix is symmetric, so symmetrize away matmul round-off
        P = np.eye(3)[None] - nu[:, :, None] * nu[:, None, :]
        out = P @ H @ P
        return 0.5 * (out + np.swapaxes(out, 1, 2))

    def anisotropy(self, nu):
        """A_F at unit directions nu (N, 3): the (N, 2, 2) forms in the
        frames `tangent_frames(nu)`, as `anisotropy_form` gives them.

        Raises EllipticityError, naming the worst direction, unless every
        form is positive definite.
        """
        A = self.anisotropy_form(nu, *tangent_frames(nu))
        mins = sym2_eigvalsh(A)[0]
        if np.any(mins <= 0):
            bad = nu[int(np.argmin(mins))]
            raise EllipticityError(f"A_F not positive definite at nu = {bad}")
        return A

    def _compute_margin(self):
        sample = _dense_sample()
        A = self.anisotropy_form(sample.vertices, *sample.frames)
        return float(sym2_eigvalsh(A)[0].min())

    @property
    def is_elliptic(self):
        return self.ellipticity_margin > 0


def _dense_sample():
    """The level-4 direction sphere, whose 2562 vertices are the directions
    of the ellipticity margin, the positivity check and the gauge's seeds."""
    return spheremesh.direction_sphere(4)


# points whose seed ratios against the dense sample are formed at once:
# 10.5 MB per block for the level-4 sample
_GAUGE_BLOCK = 512


def gauge(integrand, x):
    """Gauge function F* (N,) and its gradient (N, 3) at ambient points x
    (N, 3).

    F*(x) = sup over unit nu of <x, nu>/F(nu), located by a coarse
    icosphere sample, searched _GAUGE_BLOCK points at a time, followed by
    ten damped Newton ascent steps on the sphere. The envelope rule gives
    grad F*(x) = nu*/F(nu*) at the maximizer.
    """
    if np.any(rownorm(x) == 0):
        raise ValueError("gauge is undefined at the origin")

    sample = _dense_sample().vertices
    fs = integrand.value(sample)
    seed = np.empty_like(x)
    lo = 0
    # a lone last point joins the block before it: numpy takes a one-row
    # product through gemv, which can round unlike the gemm of the rows
    for hi in (*range(_GAUGE_BLOCK, len(x) - 1, _GAUGE_BLOCK), len(x)):
        ratios = x[lo:hi] @ sample.T
        ratios /= fs
        seed[lo:hi] = sample[np.argmax(ratios, axis=1)]
        lo = hi

    return _gauge_ascent(integrand, x, seed)


def _gauge_ascent(integrand, x, seed):
    """(F*, grad F*) at x from ten damped Newton ascent steps on the sphere
    of g = <x, nu>/F(nu), started at the seed directions."""
    def ascent(nu, e1, e2):
        F = integrand.value(nu)
        u = rowdot(x, nu)
        # frame components of the tangential gradients of <x, nu> and F:
        # the frame is tangent, so e_k . P x = e_k . x and
        # e_k . DF = e_k . grad Fbar
        grad = integrand.fbar_grad(nu)
        Du2 = np.stack((rowdot(e1, x), rowdot(e2, x)), axis=1)
        DF2 = np.stack((rowdot(e1, grad), rowdot(e2, grad)), axis=1)
        D2F = integrand.anisotropy_form(nu, e1, e2)
        D2F -= F[:, None, None] * np.eye(2)[None]
        # derivatives of g = u/F on the sphere; Hess of a linear restriction
        # is -u * Id
        Dg = (F[:, None] * Du2 - u[:, None] * DF2) / F[:, None] ** 2
        D2g = (-u[:, None, None] * np.eye(2)[None] / F[:, None, None]
               - (Du2[:, :, None] * DF2[:, None, :]
                  + DF2[:, :, None] * Du2[:, None, :]) / F[:, None, None] ** 2
               - u[:, None, None] * D2F / F[:, None, None] ** 2
               + 2 * u[:, None, None] * DF2[:, :, None] * DF2[:, None, :]
               / F[:, None, None] ** 3)
        return D2g, -Dg

    nu = sphere_newton(seed, ascent, 10, 0.5)
    F = integrand.value(nu)
    return rowdot(x, nu) / F, nu / F[:, None]
