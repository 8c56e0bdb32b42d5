import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (anisotropy_form_reference, frame_restriction,
                     gauge_reference)
from wulffstab import EllipticityError, Integrand, build_wulff, gauge
from wulffstab import integrand as integrand_module
from wulffstab import surface
from wulffstab.config import parse_integrand
from wulffstab.curvature import anisotropic_shape_operator
from wulffstab.integrand import (_GAUGE_BLOCK, HARMONIC_POLYNOMIALS,
                                 HomogeneousPolynomial)
from wulffstab import spectral
from wulffstab.spheremesh import direction_sphere, tangent_frames
from wulffstab.stability import stability_operator

rng = np.random.default_rng(100)


def random_units(n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def geodesic_hessian(integrand, nu, h=1e-4):
    """Central finite differences of F along geodesics: intrinsic Hessian."""
    e1, e2 = (v[0] for v in tangent_frames(nu[None, :]))

    def F(p):
        return integrand.value(p[None, :])[0]

    out = np.zeros((2, 2))
    for i, d in enumerate((e1, e2)):
        out[i, i] = (F(np.cos(h) * nu + np.sin(h) * d) - 2 * F(nu)
                     + F(np.cos(h) * nu - np.sin(h) * d)) / h ** 2
    dd = (e1 + e2) / np.sqrt(2)
    mixed = (F(np.cos(h) * nu + np.sin(h) * dd) - 2 * F(nu)
             + F(np.cos(h) * nu - np.sin(h) * dd)) / h ** 2
    out[0, 1] = out[1, 0] = mixed - (out[0, 0] + out[1, 1]) / 2
    return out, (e1, e2)


def evaluate_one(integrand, nu):
    """F, DF and D2F at one direction, through the (N, 3) call."""
    return (a[0] for a in integrand.evaluate(nu[None]))


def test_constant_evaluate():
    I = Integrand.constant()
    F, DF, D2F = evaluate_one(I, np.array([0.0, 0.0, 1.0]))
    assert F == 1.0
    assert_allclose(DF, 0.0, atol=1e-15)
    assert_allclose(D2F, 0.0, atol=1e-15)


def test_quadratic_value_at_pole():
    I = Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0]))
    F, _, _ = evaluate_one(I, np.array([0.0, 0.0, 1.0]))
    assert_allclose(F, 2.0, rtol=1e-15)


@pytest.mark.parametrize("family", ["quadratic", "fourier"])
def test_intrinsic_hessian_matches_geodesic_differences(family):
    if family == "quadratic":
        M = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 3.0]])
        I = Integrand.quadratic_form(M)
    else:
        I = Integrand.fourier_perturbed(1.0, 0.08, (3, 2))
    for nu in random_units(20):
        Hfd, (e1, e2) = geodesic_hessian(I, nu)
        _, _, D2F = evaluate_one(I, nu)
        Hcl = np.array([[e1 @ D2F @ e1, e1 @ D2F @ e2],
                        [e2 @ D2F @ e1, e2 @ D2F @ e2]])
        assert_allclose(Hcl, Hfd, atol=1e-6)


def test_tangency_invariants():
    I = Integrand.fourier_perturbed(1.0, 0.05, (2, 1))
    for nu in random_units(10):
        F, DF, D2F = evaluate_one(I, nu)
        assert F > 0
        assert abs(DF @ nu) < 1e-13
        assert np.abs(D2F @ nu).max() < 1e-13
        assert np.abs(nu @ D2F).max() < 1e-13


def test_evaluate_rejects_non_unit():
    I = Integrand.constant()
    with pytest.raises(ValueError):
        I.evaluate(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]]))


def test_anisotropy_constant_is_identity():
    A = Integrand.constant().anisotropy(random_units(6))
    assert A.shape == (6, 2, 2)
    assert_allclose(A, np.tile(np.eye(2), (6, 1, 1)), atol=1e-14)


def test_anisotropy_names_the_direction_that_is_not_elliptic():
    """A_F of fourier:1,1.2,2,0 is positive definite on the equator but not
    near the poles, so anisotropy raises EllipticityError there, naming the
    direction with the smallest eigenvalue."""
    bad = Integrand.fourier_perturbed(1.0, 1.2, (2, 0))
    assert not bad.is_elliptic
    assert bad.anisotropy(np.array([[1.0, 0.0, 0.0]])).shape == (1, 2, 2)
    poles = np.array([[0.6, 0.0, 0.8], [0.0, 0.0, 1.0]])
    with pytest.raises(EllipticityError, match=r"nu = \[0\. 0\. 1\.\]"):
        bad.anisotropy(poles)


def test_anisotropy_matches_fd_hessian_plus_f():
    I = Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0]))
    nu = np.array([0.0, 0.0, 1.0])
    Hfd, (e1, e2) = geodesic_hessian(I, nu)
    A = I.anisotropy(nu[None])[0]
    frame_fd = Hfd + I.value(nu[None])[0] * np.eye(2)
    # express the computed matrix in the FD frame for comparison
    E = np.stack((e1, e2), axis=1)
    A3 = I.anisotropy_ambient(nu[None])[0]
    assert_allclose(E.T @ A3 @ E, frame_fd, atol=1e-6)
    assert_allclose(A, A.T, atol=0)
    assert np.linalg.eigvalsh(A)[0] > 0


def test_anisotropy_symmetric_exactly():
    I = Integrand.fourier_perturbed(1.0, 0.1, (2, 2))
    A3 = I.anisotropy_ambient(random_units(5))
    assert np.abs(A3 - np.swapaxes(A3, 1, 2)).max() == 0.0


def test_ellipticity_margin_positive_and_violation_detected():
    assert Integrand.constant().ellipticity_margin > 0.99
    I = Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0]))
    assert I.ellipticity_margin > 0
    # strong perturbation loses positivity of F
    with pytest.raises(ValueError):
        Integrand.fourier_perturbed(1.0, 5.0, (2, 0))


def test_gauge_euclidean_and_homogeneity():
    I = Integrand.constant()
    x = np.array([[0.3, -1.2, 0.4]])
    v, g = gauge(I, x)
    assert_allclose(v, np.linalg.norm(x, axis=1), rtol=1e-12)
    assert_allclose(g, x / np.linalg.norm(x), atol=1e-12)
    v2, _ = gauge(I, 2 * x)
    assert_allclose(v2, 2 * v, rtol=1e-12)
    with pytest.raises(ValueError):
        gauge(I, np.vstack((x, np.zeros(3))))


def test_gauge_closed_form_ellipsoid():
    M = np.diag([1.0, 1.0, 4.0])
    I = Integrand.quadratic_form(M)
    Minv = np.linalg.inv(M)
    pts = rng.normal(size=(12, 3)) * 2
    vals, grads = gauge(I, pts)
    exact = np.sqrt(np.einsum("ni,ij,nj->n", pts, Minv, pts))
    assert_allclose(vals, exact, rtol=1e-10)
    gex = pts @ Minv / exact[:, None]
    assert_allclose(grads, gex, atol=1e-9)


@pytest.mark.parametrize("n", [1500, 1025])
def test_blocked_gauge_matches_dense_seed_search(n):
    """The seed search runs in blocks of _GAUGE_BLOCK points: 1,500 points
    make three blocks, and at 1,025 the lone last point joins the second.
    Values and gradients equal the one-block search bit for bit."""
    assert n > 2 * _GAUGE_BLOCK
    pts = np.random.default_rng(n).normal(size=(n, 3))
    for I in (Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0])),
              Integrand.fourier_perturbed(1.0, 0.1, (3, 1))):
        vals, grads = gauge(I, pts)
        want_vals, want_grads = gauge_reference(I, pts)
        np.testing.assert_array_equal(vals, want_vals)
        np.testing.assert_array_equal(grads, want_grads)


def test_robin_identity_at_wulff_vertices(wulff4, ellipsoid_integrand):
    """F(nu) dF*[c] = <nu, c> at Wulff vertices; literal for F == 1."""
    W = wulff4
    I = ellipsoid_integrand
    sample = W.vertices[::97]
    nu = W.normals[::97]
    _, grads = gauge(I, sample)
    F = I.value(nu)
    for c in rng.normal(size=(10, 3)):
        lhs = F * (grads @ c)
        rhs = nu @ c
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() < 1e-4


def test_robin_identity_literal_isotropic(sphere5):
    I = Integrand.constant()
    z = sphere5.vertices[::211]
    _, grads = gauge(I, z)
    for c in rng.normal(size=(10, 3)):
        assert np.abs(grads @ c - z @ c).max() / np.abs(z @ c).max() < 1e-4


def test_harmonic_polynomial_table_matches_basis():
    """Tabulated Cartesian harmonics agree with the Legendre-recurrence basis."""
    pts = random_units(50)
    for (ell, m), coeffs in HARMONIC_POLYNOMIALS.items():
        poly = HomogeneousPolynomial(coeffs)
        col = spectral.real_sph_harm_matrix(pts, ell)[:, spectral.sh_index(ell, m)]
        assert_allclose(poly.value(pts), col, atol=1e-12,
                        err_msg=f"(l, m) = {(ell, m)}")


def test_homogeneous_polynomial_derivatives():
    poly = HomogeneousPolynomial(HARMONIC_POLYNOMIALS[(3, 1)])
    pts = rng.normal(size=(5, 3))
    h = 1e-6
    for p in pts:
        g = poly.grad(p[None])[0]
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fd = (poly.value((p + e)[None])[0] - poly.value((p - e)[None])[0]) / (2 * h)
            assert_allclose(g[ax], fd, rtol=1e-7, atol=1e-9)
        H = poly.hess(p[None])[0]
        assert_allclose(H, H.T, atol=1e-12)


def hessian_difference(integ, x, v, h=1e-5):
    """Central difference of fbar_hess along v: T_v to O(h^2)."""
    return (integ.fbar_hess(x + h * v) - integ.fbar_hess(x - h * v)) / (2 * h)


@pytest.mark.parametrize("descriptor", [
    "constant:2", "quadratic:1,1,4",
    "quadratic:2,0.3,0.1,0.3,1,0.2,0.1,0.2,3",
    "fourier:1,0.265,3,0", "fourier:1,0.05,2,0", "fourier:1,0.1,3,2"])
def test_hess_deriv_matches_central_differences(descriptor):
    """T_v w = d/dt hess Fbar(x + t v) w against central differences of
    fbar_hess at points off the sphere, and T_v w = T_w v."""
    integ = parse_integrand(descriptor)
    gen = np.random.default_rng(5)
    x = random_units(40) * gen.uniform(0.5, 2.0, size=(40, 1))
    v, w = gen.normal(size=(2, 40, 3))
    fd = np.einsum("nij,nj->ni", hessian_difference(integ, x, v), w)
    Tvw = integ.fbar_hess_deriv_vec(x, v, w)
    assert np.abs(Tvw - fd).max() <= 1e-7 * np.abs(Tvw).max()
    assert_allclose(integ.fbar_hess_deriv_vec(x, w, v), Tvw,
                    atol=1e-13 * np.abs(Tvw).max())


def test_hess_deriv_along_the_point_is_minus_the_hessian():
    """hess Fbar is (-1)-homogeneous, so T_x w = -hess Fbar(x) w."""
    x = random_units(20)
    w = rng.normal(size=(20, 3))
    for integ in (Integrand.quadratic_form(np.diag([1.0, 2.0, 5.0])),
                  Integrand.fourier_perturbed(1.0, 0.2, (3, 1))):
        assert_allclose(integ.fbar_hess_deriv_vec(x, x, w),
                        -integ.fbar_hess_vec(x, w), atol=1e-13)


def _spd_descriptor(gen):
    A = gen.normal(size=(3, 3))
    M = A @ A.T + 0.5 * np.eye(3)
    return "quadratic:" + ",".join(repr(float(c)) for c in (M + M.T).ravel() / 2)


PRODUCT_FAMILIES = (
    ["constant:0.7"]
    + [_spd_descriptor(np.random.default_rng(seed)) for seed in range(4)]
    + [f"fourier:1,0.05,{ell},{m}" for ell, m in HARMONIC_POLYNOMIALS])


@pytest.mark.parametrize("descriptor", PRODUCT_FAMILIES)
def test_products_match_the_dense_hessian(descriptor):
    """Over every family, random SPD quadratic forms and every tabulated
    Fourier mode (degree 0 and 1 modes have vanishing second partials,
    degree 2 ones vanishing third partials): fbar_hess_vec is fbar_hess
    applied to v, fbar_hess_deriv_vec the central difference of fbar_hess
    applied to w, T_v w = T_w v, and hess_deriv_form is exactly symmetric
    and the frame restriction of the difference tensor."""
    integ = parse_integrand(descriptor)
    gen = np.random.default_rng(17)
    nu = random_units(50)
    x = nu * gen.uniform(0.5, 2.0, size=(50, 1))
    v, w = gen.normal(size=(2, 50, 3))
    H = integ.fbar_hess(x)
    Hv = np.einsum("nij,nj->ni", H, v)
    assert np.abs(integ.fbar_hess_vec(x, v) - Hv).max() \
        <= 1e-13 * np.abs(Hv).max()
    fd = hessian_difference(integ, x, v)
    scale = np.abs(fd).max()
    Tvw = integ.fbar_hess_deriv_vec(x, v, w)
    assert np.abs(Tvw - np.einsum("nij,nj->ni", fd, w)).max() \
        <= 1e-7 * scale * np.abs(w).max()
    assert np.abs(integ.fbar_hess_deriv_vec(x, w, v) - Tvw).max() \
        <= 1e-13 * scale * np.abs(w).max()
    e1, e2 = tangent_frames(nu)
    form = integ.hess_deriv_form(x, v, e1, e2)
    assert np.array_equal(form, np.swapaxes(form, 1, 2))
    assert np.abs(form - frame_restriction(fd, e1, e2)).max() <= 1e-7 * scale


@pytest.mark.parametrize("mode", [(0, 0), (1, -1), (2, 2), (3, 1)])
def test_constant_is_the_fourier_radial_term(mode):
    """constant:V and fourier:V,0,l,m share the radial term c |x|, so every
    product and value agrees bit for bit."""
    const = parse_integrand("constant:1.7")
    radial = parse_integrand(f"fourier:1.7,0,{mode[0]},{mode[1]}")
    gen = np.random.default_rng(23)
    x = random_units(30) * gen.uniform(0.5, 2.0, size=(30, 1))
    v, w = gen.normal(size=(2, 30, 3))
    for name, args in (("fbar", (x,)), ("fbar_grad", (x,)),
                       ("fbar_hess_vec", (x, v)),
                       ("fbar_hess_deriv_vec", (x, v, w))):
        assert np.array_equal(getattr(const, name)(*args),
                              getattr(radial, name)(*args)), name


def test_polynomial_partials_are_polynomials():
    """partial(axis) is dP/dx_axis, built once; l + 1 partials of a
    degree-l mode give the zero polynomial, which evaluates to 0; the
    products are the contracted derivatives."""
    pts = rng.normal(size=(8, 3))
    v, w = rng.normal(size=(2, 8, 3))
    for (ell, m), coeffs in HARMONIC_POLYNOMIALS.items():
        poly = HomogeneousPolynomial(coeffs)
        assert poly.partial(0) is poly.partial(0)
        zero = poly
        for i in range(ell + 1):
            zero = zero.partial(i % 3)
        assert zero.coeffs == {} and zero.degree is None
        assert np.array_equal(zero.value(pts), np.zeros(8))
        assert np.array_equal(zero.hess_vec(pts, v), np.zeros((8, 3)))
        H = poly.hess(pts)
        assert_allclose(poly.hess_vec(pts, v), np.einsum("nij,nj->ni", H, v),
                        atol=1e-13)
        third = np.stack([poly.partial(c).hess(pts) for c in range(3)], axis=1)
        assert_allclose(poly.hess_deriv_vec(pts, v, w),
                        np.einsum("ncij,nc,nj->ni", third, v, w), atol=1e-13)


@pytest.mark.parametrize("descriptor", [
    "constant:1", "constant:2.5", "quadratic:1,1,4",
    "quadratic:2,0.3,0.1,0.3,1.5,-0.2,0.1,-0.2,3", "fourier:1,0.265,3,0"])
def test_hess_vec_is_the_contracted_hessian(descriptor):
    """fbar_hess_vec(x, v) = fbar_hess(x) v at random points off the sphere,
    to 1e-13 relative; hess Fbar(x) x = 0 (Euler, Fbar is 1-homogeneous)
    and hess Fbar(s x) v = hess Fbar(x) v / s."""
    integ = parse_integrand(descriptor)
    gen = np.random.default_rng(11)
    x = random_units(60) * gen.uniform(0.3, 3.0, size=(60, 1))
    v = gen.normal(size=(60, 3))
    want = np.einsum("nij,nj->ni", integ.fbar_hess(x), v)
    got = integ.fbar_hess_vec(x, v)
    scale = np.linalg.norm(want, axis=1)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-13 * scale)
    euler = np.linalg.norm(integ.fbar_hess_vec(x, x), axis=1)
    assert np.all(euler <= 1e-13 * scale / np.linalg.norm(v, axis=1)
                  * np.linalg.norm(x, axis=1))
    for s in (0.25, 7.0):
        scaled = integ.fbar_hess_vec(s * x, v)
        assert np.all(np.linalg.norm(s * scaled - got, axis=1)
                      <= 1e-13 * scale)
    assert np.array_equal(integ.fbar_hess_vec(x[:1], v[:1]), got[:1])


@pytest.mark.parametrize("descriptor", [
    "constant:2.5", "quadratic:2,0.3,0.1,0.3,1.5,-0.2,0.1,-0.2,3",
    "fourier:1,0.265,3,0", "fourier:1,0.2,2,1"])
@pytest.mark.parametrize("n", [1, 7, 2562])
def test_stacked_hess_vec_matches_per_vector_calls(descriptor, n):
    """fbar_hess_vec(x, v) with a (2, n, 3) stack v, as `anisotropy_form`
    and the Wulff Newton call it, equals the two per-vector calls bit for
    bit."""
    integ = parse_integrand(descriptor)
    gen = np.random.default_rng(n)
    x = gen.normal(size=(n, 3))
    v = gen.normal(size=(2, n, 3))
    got = integ.fbar_hess_vec(x, v)
    assert got.shape == (2, n, 3)
    np.testing.assert_array_equal(
        got, np.stack([integ.fbar_hess_vec(x, vk) for vk in v]))


FORM_FAMILIES = ["constant:2.5", "quadratic:1,1,4", "fourier:1,0.265,3,0"]


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("descriptor", FORM_FAMILIES)
def test_frame_forms_match_the_projected_hessian(descriptor, level,
                                                  monkeypatch):
    """Every site's 2x2 form of A_F, taken by Hessian-vector products, is
    exactly symmetric and within 1e-14 of P H P restricted to the frame
    (`anisotropy_form_reference`): the Wulff mesh's A_F and shape
    operator, anisotropic_shape_operator, stability_operator,
    Integrand.anisotropy, the ellipticity margin, and the Newton matrices
    of project_to_wulff and gauge, evaluated at every visited direction."""
    integ = parse_integrand(descriptor)
    forms = []
    closed_form = Integrand.anisotropy_form

    def recording(self, nu, e1, e2):
        A = closed_form(self, nu, e1, e2)
        forms.append((nu, e1, e2, A.copy()))
        return A

    monkeypatch.setattr(Integrand, "anisotropy_form", recording)

    def checked():
        """The forms recorded since the last call, each checked."""
        assert forms
        for nu, e1, e2, A in forms:
            assert np.abs(A - anisotropy_form_reference(integ, nu, e1, e2)
                          ).max() <= 1e-14
            assert np.array_equal(A, np.swapaxes(A, 1, 2))
        out = forms[:]
        forms.clear()
        return out

    mesh = build_wulff(integ, level)
    (_, _, _, A), = checked()
    assert np.array_equal(mesh.anisotropy, A)
    # inversion magnifies a change dA of A by up to |S|^2: fourier:1,0.265,3,0
    # has |S| up to 90 near its margin and reads 1.8e-12 there
    ref = np.linalg.inv(anisotropy_form_reference(integ, mesh.normals,
                                                  *mesh.frames))
    size = np.abs(mesh.shape_operator).max(axis=(1, 2))
    assert np.all(np.abs(mesh.shape_operator - ref).max(axis=(1, 2))
                  <= 1e-14 * np.maximum(size, 1.0) ** 2)

    got = integ.anisotropy(mesh.normals)
    (_, _, _, A), = checked()
    assert np.array_equal(got, A)

    sample = direction_sphere(4).vertices
    ref = anisotropy_form_reference(integ, sample, *tangent_frames(sample))
    assert abs(integ._compute_margin()
               - np.linalg.eigvalsh(ref)[:, 0].min()) <= 1e-14
    checked()

    y20 = spectral.real_sph_harm_matrix(mesh.normals, 2)[
        :, spectral.sh_index(2, 0)]
    geom = surface.radial_graph(mesh, 1e-3 * y20)
    s_f, _ = anisotropic_shape_operator(geom, integ)
    (nu, e1, e2, _), = checked()
    assert nu is geom.normal
    ref = anisotropy_form_reference(integ, nu, e1, e2) @ geom.shape_operator
    size = np.abs(geom.shape_operator).max(axis=(1, 2))
    assert np.all(np.abs(s_f - ref).max(axis=(1, 2))
                  <= 1e-14 * np.maximum(size, 1.0))

    stability_operator(mesh, integ, y20)
    checked()

    systems = []

    def spy(real):
        def newton(nu, system, n_steps, max_step):
            def recorded(nu, e1, e2):
                eqs = system(nu, e1, e2)
                if eqs is not None:
                    systems.append((system, nu, e1, e2, eqs[0]))
                return eqs
            return real(nu, recorded, n_steps, max_step)
        return newton

    for module in (surface, integrand_module):
        monkeypatch.setattr(module, "sphere_newton", spy(module.sphere_newton))
    e1, _ = mesh.frames
    surface.project_to_wulff(mesh, mesh.vertices + 0.01 * e1
                             + 0.005 * mesh.normals, mesh.normals)
    gauge(integ, mesh.vertices[::7] * 1.1 + 0.02 * e1[::7])
    assert {s[0].__name__ for s in systems} == {"foot_point", "ascent"}
    checked()
    monkeypatch.setattr(Integrand, "anisotropy_form",
                        lambda self, nu, e1, e2:
                        anisotropy_form_reference(self, nu, e1, e2))
    for system, nu, e1, e2, matrix in systems:
        assert np.abs(matrix - system(nu, e1, e2)[0]).max() <= 1e-14
        if system.__name__ == "foot_point":
            assert np.array_equal(matrix, np.swapaxes(matrix, 1, 2))


def test_fourier_explicit_polynomial_mode():
    """The tabulated (3, 2) mode is C (x^2 z - y^2 z), C = sqrt(105/(16 pi)),
    so amplitude 0.05 / C gives F = 1 + 0.05 (x^2 z - y^2 z) on S^2."""
    I = Integrand.fourier_perturbed(1.0, 0.05 / np.sqrt(105 / (16 * np.pi)),
                                    (3, 2))
    nu = np.array([0.6, 0.0, 0.8])
    F, DF, D2F = evaluate_one(I, nu)
    assert_allclose(F, 1.0 + 0.05 * (0.36 * 0.8), rtol=1e-14)
    assert abs(DF @ nu) < 1e-13
    Hfd, (e1, e2) = geodesic_hessian(I, nu)
    Hcl = np.array([[e1 @ D2F @ e1, e1 @ D2F @ e2],
                    [e2 @ D2F @ e1, e2 @ D2F @ e2]])
    assert_allclose(Hcl, Hfd, atol=1e-6)


def test_fourier_refuses_untabulated_modes():
    """A mode is a key of HARMONIC_POLYNOMIALS; any other value, an
    exponent dict included, is refused by name."""
    for mode in [(4, 0), (2, 5), (2,), (2, 0, 1), [2, 0], "2,0",
                 {(1, 0, 0): 1.0, (2, 0, 0): 1.0}, {(2, 0, 1): 1.0}]:
        with pytest.raises(ValueError, match="fourier mode"):
            Integrand.fourier_perturbed(1.0, 0.1, mode)
    assert Integrand.fourier_perturbed(
        1.0, 0.1, (np.int64(2), np.int64(0))).is_elliptic


@pytest.mark.parametrize("make, name", [
    (lambda: Integrand.constant(np.nan), "value"),
    (lambda: Integrand.constant(np.inf), "value"),
    (lambda: Integrand.constant(-1.0), "value"),
    (lambda: Integrand.quadratic_form(np.diag([1.0, 1.0, np.inf])), "matrix"),
    (lambda: Integrand.quadratic_form(np.diag([1.0, np.nan, 4.0])), "matrix"),
    (lambda: Integrand.fourier_perturbed(1.0, np.nan, (2, 0)), "amplitude"),
    (lambda: Integrand.fourier_perturbed(1.0, np.inf, (2, 0)), "amplitude"),
    (lambda: Integrand.fourier_perturbed(np.inf, 0.1, (2, 0)), "base"),
    (lambda: Integrand.fourier_perturbed(np.nan, 0.1, (2, 0)), "base"),
])
def test_non_finite_parameters_are_refused_by_name(make, name):
    """The families refuse what the config refuses, before any ellipticity
    margin is formed from a nan or inf."""
    with pytest.raises(ValueError, match=rf"{name}\b.*\bfinite"):
        make()
