from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (real_sph_harm_exact, real_sph_harm_matrix_columns,
                     real_sph_harm_matrix_reference, real_sph_harm_matrix_trig,
                     sh_analyze_reference, sh_synthesize_trig,
                     spectral_derivatives_reference, stencil_basis_reference,
                     subdivide_reference)
from wulffstab import Integrand, build_sphere_mesh, build_wulff
from wulffstab import spectral, spheremesh
from wulffstab.operators import (DerivativeOperators, get_operators, lp_norm,
                                 w2p_norm)
from wulffstab.stability import family_coeffs, kernel_frame

rng = np.random.default_rng(7)


def test_vertex_counts_and_units():
    m = build_sphere_mesh(2)
    assert m.n_vertices == 162
    assert np.abs(np.linalg.norm(m.vertices, axis=1) - 1).max() < 1e-14
    m3 = build_sphere_mesh(3)
    assert m3.n_vertices == 10 * 4 ** 3 + 2


def test_subdivide_matches_per_face_loop():
    v, f = spheremesh._icosahedron()
    for _ in range(5):
        got_v, got_f = spheremesh._subdivide(v, f)
        v, f = subdivide_reference(v, f)
        np.testing.assert_array_equal(got_v, v)
        np.testing.assert_array_equal(got_f, f)
        assert got_f.dtype == np.int64


def test_level_bounds(ellipsoid_integrand):
    """Both builders reach the one range check of the direction sphere."""
    for level in (1, 9):
        for build in (build_sphere_mesh,
                      lambda lv: build_wulff(ellipsoid_integrand, lv)):
            with pytest.raises(ValueError, match=rf"level must be in \[2, 8\], "
                                                 rf"got {level}$"):
                build(level)


def test_area_converges(sphere5):
    area = sphere5.weights.sum()
    assert abs(area - 4 * np.pi) / (4 * np.pi) < 1e-3


def test_frames_orthonormal(sphere4):
    e1, e2 = sphere4.frames
    n = sphere4.vertices
    assert np.abs(np.einsum("ni,ni->n", e1, e2)).max() < 1e-14
    assert np.abs(np.einsum("ni,ni->n", e1, n)).max() < 1e-14
    assert_allclose(np.cross(e1, e2), n, atol=1e-14)


def _forms(gen, n):
    """Symmetric 2x2 forms: random, positive definite with condition up to
    1e12 (near singular), indefinite, negative definite, singular,
    trace-free and the zero form."""
    a, b, c = gen.normal(size=(3, n))
    rand = np.stack((np.stack((a, b), -1), np.stack((b, c), -1)), -2)
    angle = gen.uniform(0, np.pi, n)
    angle[: n // 4] = 0.0    # diagonal forms: m - r would cancel there
    rot = np.stack((np.stack((np.cos(angle), -np.sin(angle)), -1),
                    np.stack((np.sin(angle), np.cos(angle)), -1)), -2)
    scale = 10.0 ** gen.uniform(-3, 3, n)[:, None]
    out = [rand]
    for lam in (np.column_stack((np.ones(n), 10.0 ** -gen.uniform(0, 12, n))),
                np.column_stack((np.ones(n), -gen.uniform(0, 1, n))),
                -gen.uniform(0.1, 2, (n, 2)),
                np.column_stack((gen.uniform(0.1, 2, n), np.zeros(n)))):
        lam = lam * scale
        out.append(rot @ (lam[:, :, None] * np.swapaxes(rot, 1, 2)))
    out = np.concatenate(out)
    out[:, 1, 0] = out[:, 0, 1]
    # trace-free forms, -0.0 on the diagonal included
    edges = np.array([[[-0.0, 1.0], [1.0, -0.0]], [[0.0, 2.0], [2.0, 0.0]],
                      [[1.5, 0.0], [0.0, -1.5]], [[0.0, 0.0], [0.0, 0.0]]])
    return np.concatenate((out, edges))


def test_closed_form_2x2_kernels_match_numpy_linalg():
    """sym2_eigvalsh matches eigvalsh within a few ulps of |A| on random,
    near-singular, indefinite, negative definite, singular and zero forms,
    and lo > 0 exactly where the form is positive definite; sym2_inv
    matches inv to cond(A) ulps on the invertible ones, exactly
    symmetric; sym2_product matches the matrix product to the rounding of
    its two terms."""
    A = _forms(np.random.default_rng(5), 400)
    lo, hi = spheremesh.sym2_eigvalsh(A)
    want = np.linalg.eigvalsh(A)
    size = np.abs(A).max(axis=(1, 2))
    assert np.all(np.abs(lo - want[:, 0]) <= 8e-16 * size)
    assert np.all(np.abs(hi - want[:, 1]) <= 8e-16 * size)
    det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] ** 2
    pd = (A[:, 0, 0] > 0) & (det > 0)
    assert np.array_equal(lo > 0, pd)
    assert pd.sum() > 400 and (~pd).sum() > 800
    # near-singular forms keep their small eigenvalue to the rounding of
    # det = ac - b^2 (against det taken exactly), where eigvalsh and m - r
    # carry an error of the size of |A|
    near = np.flatnonzero(pd & (lo < 1e-6 * hi))
    assert len(near) > 100
    for k in near:
        a, b, c = (Fraction(float(v)) for v in (A[k, 0, 0], A[k, 0, 1],
                                                 A[k, 1, 1]))
        exact = float(a * c - b * b) / hi[k]
        bound = 4e-16 * (abs(A[k, 0, 0] * A[k, 1, 1]) + A[k, 0, 1] ** 2)
        assert abs(lo[k] - exact) <= bound / hi[k] + 1e-16 * abs(exact)
    inv = np.flatnonzero(np.abs(want).min(axis=1) > 1e-9 * size)
    got = spheremesh.sym2_inv(A[inv])
    ref = np.linalg.inv(A[inv])
    cond = np.abs(want[inv]).max(axis=1) / np.abs(want[inv]).min(axis=1)
    assert np.all(np.abs(got - ref).max(axis=(1, 2))
                  <= 4e-16 * cond * np.abs(ref).max(axis=(1, 2)))
    assert np.array_equal(got, np.swapaxes(got, 1, 2))
    B = A[::-1]
    assert np.all(np.abs(spheremesh.sym2_product(A, B) - A @ B)
                  <= 5e-16 * (np.abs(A) @ np.abs(B)))


def test_rowdot_broadcasts_like_einsum():
    gen = np.random.default_rng(6)
    a, b = gen.normal(size=(2, 50, 3))
    stack = gen.normal(size=(2, 50, 3))
    assert_allclose(spheremesh.rowdot(a, b), np.einsum("ni,ni->n", a, b),
                    rtol=1e-15, atol=1e-15)
    assert_allclose(spheremesh.rowdot(stack, b),
                    np.einsum("kni,ni->kn", stack, b), rtol=1e-15, atol=1e-15)
    assert_allclose(spheremesh.rowdot(stack[:, None], stack),
                    np.einsum("kni,lni->kln", stack, stack), rtol=1e-15,
                    atol=1e-15)


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def test_rownorm_and_rowcross_are_numpys_bits():
    """rownorm and rowcross give np.linalg.norm(axis=-1) and np.cross bit
    for bit: on rows spread over 600 orders of magnitude (overflow,
    underflow, zeros of both signs, inf and nan among them), in C and
    Fortran order, on strided views and columns of (N, 3, 2) stacks, and
    broadcast over leading axes."""
    gen = np.random.default_rng(17)
    rows = gen.normal(size=(4000, 3)) * 10.0 ** gen.integers(-300, 300,
                                                             size=(4000, 3))
    rows[:6] = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [np.inf, 1.0, 0.0],
                [np.nan, 0.0, 1.0], [1e-320, -1e-320, 0.0], [1e200, 1e200, 0]]
    other = gen.normal(size=(4000, 3))
    other[6:12] = -0.0
    stack = gen.normal(size=(500, 3, 2))
    pairs = [(rows, other), (np.asfortranarray(rows), other[::-1]),
             (rows[1::3], other[2::3]), (stack[:, :, 0], stack[:, :, 1]),
             (gen.normal(size=(2, 7, 3)), gen.normal(size=(7, 3)))]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for a, b in pairs:
            assert _same_bits(spheremesh.rownorm(a),
                              np.linalg.norm(a, axis=-1))
            assert _same_bits(spheremesh.rowcross(a, b), np.cross(a, b))


def test_sphere_newton_steps_by_cramer(sphere4):
    """One step of sphere_newton moves along the frame by the solution of
    each 2x2 system, as np.linalg.solve gives it, capped at max_step; a
    singular system raises LinAlgError, as the batched solve did."""
    nu = sphere4.vertices[::5]
    gen = np.random.default_rng(8)
    M = gen.normal(size=(len(nu), 2, 2))
    rhs = gen.normal(size=(len(nu), 2)) * 0.1
    got = spheremesh.sphere_newton(nu, lambda n, e1, e2: (M, rhs), 1, 0.2)
    step = np.linalg.solve(M, rhs[..., None])[..., 0]
    length = np.linalg.norm(step, axis=1, keepdims=True)
    step = step * np.minimum(1.0, 0.2 / length)
    e1, e2 = spheremesh.tangent_frames(nu)
    want = nu + step[:, :1] * e1 + step[:, 1:] * e2
    want /= np.linalg.norm(want, axis=1, keepdims=True)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(step).max() / 0.2 + 1e-15
    M[3] = [[1.0, 2.0], [0.5, 1.0]]
    with pytest.raises(np.linalg.LinAlgError):
        spheremesh.sphere_newton(nu, lambda n, e1, e2: (M, rhs), 1, 0.2)


# --- spectral ---------------------------------------------------------------


def test_recurrence_matches_lpmv_reference(sphere4):
    pts = sphere4.vertices[::17]
    fast = spectral.real_sph_harm_matrix(pts, 12)
    ref = real_sph_harm_matrix_reference(pts, 12)
    assert_allclose(fast, ref, atol=1e-13)


# both poles and phi = +-pi (y = +0.0 and y = -0.0 with x < 0)
EDGES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
                  [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0],
                  [-0.6, 0.0, 0.8], [-0.6, -0.0, -0.8]])


def edge_and_random_points(seed, n=200):
    rand = np.random.default_rng(seed).normal(size=(n, 3))
    rand /= np.linalg.norm(rand, axis=1, keepdims=True)
    return np.concatenate([EDGES, rand])


@pytest.mark.parametrize("L", [25, 50])
def test_angle_addition_matches_lpmv_at_edges(L):
    """(x + iy)^m stepped up to m = L, at both poles, at phi = +-pi
    (y = +0.0 and y = -0.0 with x < 0) and at random points."""
    pts = edge_and_random_points(L)
    assert_allclose(spectral.real_sph_harm_matrix(pts, L),
                    real_sph_harm_matrix_reference(pts, L), atol=1e-13)


def test_band_50_near_the_poles_matches_an_exact_evaluation():
    """Near the poles (1 - z^2 between 3.3e-4 and 1.3e-3, 20 points by each
    pole) the band-50 harmonics carry about 1e-13 of rounding from the
    Legendre recurrence, which the 200 random points of the lpmv test
    seldom reach, and the lpmv oracle carries more (it works from z alone,
    with the cancellation of sqrt(1 - z^2)). So they are compared with a
    40-digit evaluation (`oracles.real_sph_harm_exact`): every degree for
    |m| <= 2, (50, 1) among them, and every order of degree 50. The bound
    is set from the kernel's measured error: 1.13e-13 on these points (at
    (50, 0)) and 1.18e-13 at the worst of 2,000 random points (at
    1 - z^2 = 6.6e-4, (50, 1)); 1.5e-13 leaves room for another libm or
    BLAS."""
    pytest.importorskip("mpmath")
    gen = np.random.default_rng(66)
    sin_t = np.sqrt(6.6e-4 * gen.uniform(0.5, 2.0, 40))
    z = np.sqrt(1 - sin_t ** 2) * np.repeat([1.0, -1.0], 20)
    phi = gen.uniform(-np.pi, np.pi, 40)
    pts = np.column_stack((sin_t * np.cos(phi), sin_t * np.sin(phi), z))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    got = spectral.real_sph_harm_matrix(pts, 50)
    modes = [(ell, m) for ell in range(51) for m in range(-ell, ell + 1)
             if abs(m) <= 2 or ell == 50]
    assert (50, 1) in modes
    for ell, m in modes:
        want = real_sph_harm_exact(pts, ell, m)
        err = np.abs(got[:, spectral.sh_index(ell, m)] - want).max()
        assert err <= 1.5e-13, (ell, m, err)


@pytest.mark.parametrize("L", [8, 10, 25, 50])
def test_cartesian_kernel_matches_the_trigonometric_one(L, sphere4):
    """The harmonics and a synthesis match the arctan2/cos/sin kernel they
    replace, at the edge points, random points and the level-4 directions:
    the matrix to 1e-13, the field to 1e-13 of its largest value."""
    pts = np.concatenate([edge_and_random_points(L), sphere4.vertices])
    assert_allclose(spectral.real_sph_harm_matrix(pts, L),
                    real_sph_harm_matrix_trig(pts, L), rtol=0, atol=1e-13)
    coeffs = np.random.default_rng(L).normal(size=(L + 1) ** 2)
    want = sh_synthesize_trig(coeffs, pts)
    assert_allclose(spectral.sh_synthesize(coeffs, pts), want, rtol=0,
                    atol=1e-13 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("L", range(11))
def test_synthesize_matches_the_matrix_product(L):
    """sh_synthesize, which forms no matrix, agrees pointwise with the
    harmonics matrix times the coefficients, at the edge points too."""
    pts = edge_and_random_points(L)
    coeffs = np.random.default_rng(L).normal(size=(L + 1) ** 2)
    want = spectral.real_sph_harm_matrix(pts, L) @ coeffs
    got = spectral.sh_synthesize(coeffs, pts)
    assert (np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))).all()


@pytest.mark.parametrize("L", range(11))
def test_synthesis_stops_at_the_top_nonzero_band(L, monkeypatch):
    """A band-L vector padded with zero bands to band 10 evaluates only
    bands up to L and synthesizes its truncation bit for bit; both match
    the band-L harmonics matrix times the coefficients within
    1e-14 sum |c| at random unit points."""
    gen = np.random.default_rng(100 + L)
    pts = gen.standard_normal((400, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    coeffs = gen.standard_normal((L + 1) ** 2)
    padded = np.zeros(11 ** 2)
    padded[:len(coeffs)] = coeffs
    bands = []
    legendre = spectral._legendre
    monkeypatch.setattr(spectral, "_legendre",
                        lambda z, band: bands.append(band)
                        or legendre(z, band))
    got = spectral.sh_synthesize(padded, pts)
    assert bands == [L]
    np.testing.assert_array_equal(got, spectral.sh_synthesize(coeffs, pts))
    want = spectral.real_sph_harm_matrix(pts, L) @ coeffs
    assert np.abs(got - want).max() <= 1e-14 * np.abs(coeffs).sum()


def test_top_band_of_zero_padded_vectors():
    """top_band is the band of the last nonzero coefficient, 0 for none."""
    c = np.zeros(81)
    assert spectral.top_band(c) == 0
    for k, band in ((0, 0), (3, 1), (4, 2), (8, 2), (80, 8)):
        c[:] = 0.0
        c[k] = -1e-300
        assert spectral.top_band(c) == band


def test_row_fill_matches_per_column_fill(sphere4):
    for pts, L in ((sphere4.vertices, 10), (sphere4.vertices[::7], 25),
                   (np.array([[0.0, 0.0, 1.0]]), 3), (EDGES, 12),
                   (sphere4.vertices[:1], 10)):
        np.testing.assert_array_equal(spectral.real_sph_harm_matrix(pts, L),
                                      real_sph_harm_matrix_columns(pts, L))


# every band up to the limit below level 5; at level 5 the limit (50) alone
# takes about 10 s on two cores, so the bands the verifier uses (8, 10) and
# two more
@pytest.mark.parametrize("level, bands", [
    (2, range(2, 7)), (3, range(2, 13)), (4, range(2, 26)),
    (5, (2, 8, 10, 25)),
])
def test_sh_analyze_matches_lstsq_reference(level, bands):
    mesh = build_sphere_mesh(level)
    assert max(bands) <= spectral.band_limit(mesh.n_vertices)
    values = np.random.default_rng(level).normal(size=mesh.n_vertices)
    for L in bands:
        got = spectral.sh_analyze(mesh, values, L)
        ref = sh_analyze_reference(mesh, values, L)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), L


def test_y10_projects_to_single_coefficient(sphere5):
    f = spectral.real_sph_harm_matrix(sphere5.vertices, 1)[:, spectral.sh_index(1, 0)]
    c = spectral.sh_analyze(sphere5, f, 4)
    pure = np.zeros_like(c)
    pure[spectral.sh_index(1, 0)] = 1.0
    assert np.abs(c - pure).max() < 1e-10


def test_constant_field_is_ell0(sphere4):
    c = spectral.sh_analyze(sphere4, np.ones(sphere4.n_vertices), 3)
    assert abs(c[0] - np.sqrt(4 * np.pi)) < 1e-6
    assert np.abs(c[1:]).max() < 1e-10


def test_band8_round_trip(sphere5):
    coeffs = rng.normal(size=81)
    f = spectral.sh_synthesize(coeffs, sphere5.vertices)
    back = spectral.sh_analyze(sphere5, f, 8)
    assert np.abs(back - coeffs).max() < 1e-9


def test_over_band_rejected(sphere4):
    with pytest.raises(ValueError):
        spectral.sh_analyze(sphere4, np.ones(sphere4.n_vertices), 40)


@pytest.mark.parametrize("ell, m", [(2, -3), (2, 3), (0, 1), (-1, 0)])
def test_sh_index_rejects_modes_outside_the_band(ell, m):
    """(2, -3) used to wrap to the column of Y_{1,1}."""
    with pytest.raises(ValueError, match="harmonic mode"):
        spectral.sh_index(ell, m)
    with pytest.raises(ValueError, match="harmonic mode"):
        family_coeffs(("harmonic", ell, m), 4)


def test_spectral_derivatives_of_linear_mode(sphere4):
    """u = <c, x> has grad = tangential c and Hess = -u * Id on the sphere."""
    c = np.array([0.4, -0.2, 0.9])
    coeffs = np.zeros(4)
    c1 = np.sqrt(3 / (4 * np.pi))
    coeffs[spectral.sh_index(1, 1)] = c[0] / c1
    coeffs[spectral.sh_index(1, -1)] = c[1] / c1
    coeffs[spectral.sh_index(1, 0)] = c[2] / c1
    val, grad, hess = spectral.spectral_derivatives(sphere4, coeffs)
    u = sphere4.vertices @ c
    assert_allclose(val, u, atol=1e-13)
    e1, e2 = sphere4.frames
    assert_allclose(grad[:, 0], e1 @ c, atol=1e-13)
    assert_allclose(grad[:, 1], e2 @ c, atol=1e-13)
    assert_allclose(hess, -u[:, None, None] * np.eye(2)[None], atol=1e-13)


def test_spectral_derivatives_of_y20(sphere4):
    """P20 = k (2z^2 - x^2 - y^2) with k = sqrt(5 / 16 pi): grad P20 =
    k (-2x, -2y, 4z), its Hessian is k diag(-2, -2, 4), and the covariant
    Hessian is e_i^T grad^2 P20 e_j - 2 Y20 delta_ij."""
    k = np.sqrt(5 / (16 * np.pi))
    coeffs = np.zeros(9)
    coeffs[spectral.sh_index(2, 0)] = 1.0
    val, grad, hess = spectral.spectral_derivatives(sphere4, coeffs)
    x = sphere4.vertices
    y20 = k * (3 * x[:, 2] ** 2 - 1)
    frames = np.stack(sphere4.frames, axis=1)          # (N, 2, 3)
    want_grad = np.einsum("nia,na->ni", frames, k * x * [-2, -2, 4])
    want_hess = (np.einsum("nia,a,nja->nij", frames, k * np.array([-2, -2, 4]),
                           frames)
                 - 2 * y20[:, None, None] * np.eye(2))
    assert_allclose(val, y20, atol=1e-13)
    assert_allclose(grad, want_grad, atol=1e-13)
    assert_allclose(hess, want_hess, atol=1e-13)


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("band", [4, 8])
def test_derivative_rows_match_13_point_stencil(level, band):
    """Every harmonic's exact gradient and Hessian against the 13-point
    geodesic stencil at steps h and h/2: the gap shrinks 16x, so it is the
    stencil's h^4 truncation and not an error of the ladders. At h = 1e-2
    the l = 1 Hessian gap at h/2 (7e-12) sits under the stencil's rounding,
    so the steps are 4e-2 and 2e-2, where every gap is 5e-11 or more."""
    mesh = build_sphere_mesh(level)
    h = 4e-2
    stencils = [stencil_basis_reference(mesh, band, t) for t in (h, h / 2)]
    for coeffs in np.eye((band + 1) ** 2):
        val, grad, hess = spectral.spectral_derivatives(mesh, coeffs)
        gaps = []
        for stencil, t in zip(stencils, (h, h / 2)):
            f0, g, H = spectral_derivatives_reference(stencil, coeffs, t)
            assert_allclose(val, f0, rtol=0, atol=1e-14 * np.abs(f0).max())
            gaps.append([np.abs(grad - g).max(), np.abs(hess - H).max()])
        if coeffs[0]:                  # Y00: the ladders give exactly 0
            assert not grad.any() and not hess.any()
            continue
        ratio = np.divide(*gaps)
        assert np.all(np.abs(ratio / 16 - 1) <= 0.05), ratio


@pytest.mark.parametrize("band", [4, 8])
def test_ladders_commute_and_are_harmonic(band):
    """D_a D_b = D_b D_a, sum_a D_a^2 = 0 (P is harmonic), only the
    l -> l - 1 blocks are nonzero, and D_z takes Y_lm to
    sqrt((2l + 1)(l^2 - m^2) / (2l - 1)) Y_{l-1,m}."""
    d = spectral.ladders(band)
    for a in range(3):
        for b in range(3):
            assert np.abs(d[a] @ d[b] - d[b] @ d[a]).max() <= 1e-12
    assert np.abs(sum(x @ x for x in d)).max() <= 1e-12
    ell = np.repeat(np.arange(band + 1), 2 * np.arange(band + 1) + 1)
    assert not d[:, ell[:, None] != ell - 1].any()
    dz = np.zeros_like(d[2])
    for l in range(1, band + 1):
        for m in range(1 - l, l):
            dz[spectral.sh_index(l - 1, m), spectral.sh_index(l, m)] = \
                np.sqrt((2 * l + 1) * (l * l - m * m) / (2 * l - 1))
    assert np.abs(d[2] - dz).max() <= 1e-13
    assert spectral.ladders(band) is d and not d.flags.writeable


def test_spectral_derivatives_reject_bad_coefficients(fresh_spheres):
    """A length that is not a nonzero square, or a band above the mesh
    limit, is refused as by sh_synthesize and sh_analyze, and nothing is
    cached."""
    mesh = build_sphere_mesh(3)
    for n in (80, 0):
        for call in (lambda c: spectral.spectral_derivatives(mesh, c),
                     lambda c: spectral.sh_synthesize(c, mesh.vertices)):
            with pytest.raises(ValueError, match=f"perfect square, got {n}"):
                call(np.ones(n))
    over = spectral.band_limit(mesh.n_vertices) + 2
    with pytest.raises(ValueError, match=f"band {over} exceeds mesh limit"):
        spectral.spectral_derivatives(mesh, np.ones((over + 1) ** 2))
    assert not mesh._cache and mesh.directions._slot == (None, None)


@pytest.mark.parametrize("wulff", [False, True])
def test_cached_arrays_are_read_only(wulff):
    """Every array a mesh caches is shared by every later caller, so an
    in-place write to the vertex basis, its Cholesky factors or the kernel
    frame raises instead of corrupting the next analysis."""
    mesh = (build_wulff(Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0])), 3)
            if wulff else build_sphere_mesh(3))
    basis, factors = spectral.mesh_basis(mesh, 6)
    frame = kernel_frame(mesh)
    for a in (basis, *factors, frame.vectors, frame.fields):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def _sphere_arrays(sphere):
    return sphere.vertices, sphere.faces, sphere.weights, *sphere.frames


def _basis_arrays(basis):
    B, (cinv, cinv_t) = basis
    return B, cinv, cinv_t


def test_meshes_of_a_level_share_one_direction_sphere(fresh_spheres,
                                                      ellipsoid_integrand):
    """A sphere mesh and a Wulff mesh of one level share the direction
    sphere and return the same basis object, equal bit for bit to what a
    cleared cache builds again."""
    sphere = build_sphere_mesh(3)
    wulff = build_wulff(ellipsoid_integrand, 3)
    assert sphere.directions is wulff.directions
    assert sphere.normals is wulff.normals and sphere.frames is wulff.frames
    assert sphere.weights is sphere.directions.weights
    basis = spectral.mesh_basis(sphere, 6)
    assert spectral.mesh_basis(wulff, 6) is basis
    spheremesh._SPHERES.clear()
    again = build_sphere_mesh(3)
    assert again.directions is not sphere.directions
    for got, want in zip((*_sphere_arrays(again.directions),
                          *_basis_arrays(spectral.mesh_basis(again, 6))),
                         (*_sphere_arrays(sphere.directions),
                          *_basis_arrays(basis))):
        np.testing.assert_array_equal(got, want, strict=True)


def test_direction_sphere_arrays_are_read_only(fresh_spheres):
    sphere = spheremesh.direction_sphere(2)
    spectral.mesh_basis(build_sphere_mesh(2), 4)
    for a in (*_sphere_arrays(sphere), *_basis_arrays(sphere._slot[1])):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_a_new_band_replaces_the_cached_one(fresh_spheres):
    """Bands 10, 8, 10 at one level: the slot keeps the latest band, and each
    basis equals the one a separate direction sphere builds."""
    mesh = build_sphere_mesh(3)
    for band in (10, 8, 10):
        got = spectral.mesh_basis(mesh, band)
        key, value = mesh.directions._slot
        assert key == band and value is got
        fresh = spheremesh.WulffMesh(spheremesh.DirectionSphere(3))
        for a, b in zip(_basis_arrays(got),
                        _basis_arrays(spectral.mesh_basis(fresh, band))):
            np.testing.assert_array_equal(a, b, strict=True)


def test_derivative_cache_holds_only_the_vertex_basis(fresh_spheres):
    """Level 5, band 8: the direction sphere keeps the vertex basis with its
    Cholesky factor, and nothing keeps per-vertex derivative rows."""
    mesh = build_sphere_mesh(5)
    n, k = mesh.n_vertices, 81
    coeffs = spectral.sh_analyze(mesh, mesh.vertices[:, 2] ** 3, 8)
    spectral.spectral_derivatives(mesh, coeffs)
    assert not mesh._cache
    band, (basis, (factor, _)) = mesh.directions._slot
    assert band == 8
    assert basis.shape == (n, k) and factor.shape == (k, k)


# --- norms and operators ----------------------------------------------------


def test_lp_norm_constant(sphere4):
    n = lp_norm(np.full(sphere4.n_vertices, 3.0), 2.5, sphere4.weights)
    exact = 3 * (4 * np.pi) ** (1 / 2.5)
    assert abs(n - exact) / exact < 1e-3


def test_lp_norm_of_y10_is_one(sphere5):
    f = spectral.real_sph_harm_matrix(sphere5.vertices, 1)[:, spectral.sh_index(1, 0)]
    assert abs(lp_norm(f, 2, sphere5.weights) - 1.0) < 1e-3


def test_lp_rejects_small_p(sphere4):
    with pytest.raises(ValueError):
        lp_norm(np.ones(sphere4.n_vertices), 1.0, sphere4.weights)


@pytest.mark.parametrize("p", [np.inf, np.nan])
def test_lp_rejects_non_finite_p(sphere4, p):
    """Not the sup norm (1.0 here) nor a NaN norm: the sum has no meaning."""
    with pytest.raises(ValueError, match="inf"):
        lp_norm(np.ones(sphere4.n_vertices), p, sphere4.weights)


def test_w22_of_y20_against_eigenvalue_identity(sphere5):
    """Delta Y2 = -6 Y2 gives ||Y2||=1, ||grad||=sqrt(6), ||Hess||=sqrt(30)."""
    coeffs = np.zeros(9)
    coeffs[spectral.sh_index(2, 0)] = 1.0
    f = spectral.sh_synthesize(coeffs, sphere5.vertices)
    exact = 1 + np.sqrt(6) + np.sqrt(30)
    got = w2p_norm(f, 2, sphere5)
    assert abs(got - exact) / exact < 0.02


def test_gradient_exact_on_constants(sphere4):
    ops = get_operators(sphere4)
    g = ops.gradient(np.full(sphere4.n_vertices, 2.5))
    assert np.abs(g).max() < 1e-10


@pytest.mark.parametrize("which", ["sphere", "wulff"])
def test_mesh_arrays_are_read_only(which, ellipsoid_integrand):
    """Cached tables and bases would go stale if the arrays could change."""
    mesh = (build_sphere_mesh(2) if which == "sphere"
            else build_wulff(ellipsoid_integrand, 2))
    for a in (mesh.vertices, mesh.faces, mesh.normals, mesh.weights,
              *mesh.frames, mesh.anisotropy, mesh.shape_operator,
              mesh.mean_curvature):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_operator_cache_does_not_keep_mesh_alive():
    import gc
    import weakref
    mesh = build_sphere_mesh(2)
    assert get_operators(mesh) is get_operators(mesh)
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None


def test_spectral_caches_do_not_keep_mesh_alive(fresh_spheres):
    import gc
    import weakref
    mesh = build_sphere_mesh(2)
    coeffs = spectral.sh_analyze(mesh, mesh.vertices[:, 2], 4)
    spectral.spectral_derivatives(mesh, coeffs)
    assert mesh.directions._slot[0] == 4
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None


def test_wulff_mesh_caches_do_not_keep_it_alive(fresh_spheres,
                                                ellipsoid_integrand):
    """The direction sphere outlives every mesh of its level, and neither it
    nor the mesh's own caches hold a reference back to the mesh."""
    import gc
    import weakref
    mesh = build_wulff(ellipsoid_integrand, 2)
    coeffs = spectral.sh_analyze(mesh, mesh.normals[:, 2], 4)
    spectral.spectral_derivatives(mesh, coeffs)
    kernel_frame(mesh)
    get_operators(mesh)
    assert set(mesh._cache) == {"kernel_frame", "operators"}
    ref = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert ref() is None
    assert spheremesh.direction_sphere(2)._slot[0] == 4


def test_gradient_of_linear_field(sphere4):
    ops = get_operators(sphere4)
    c = np.array([0.3, -1.1, 0.7])
    g = ops.gradient_ambient(sphere4.vertices @ c)
    exact = c[None, :] - sphere4.vertices * (sphere4.vertices @ c)[:, None]
    assert np.abs(g - exact).max() < sphere4.edge_length()


def test_divergence_adjointness(sphere5):
    ops = get_operators(sphere5)
    cX = rng.normal(size=25)
    cphi = rng.normal(size=25)
    f = spectral.sh_synthesize(cX, sphere5.vertices)
    phi = spectral.sh_synthesize(cphi, sphere5.vertices)
    X = ops.gradient_ambient(f)
    lhs = np.sum(sphere5.weights * ops.divergence(X) * phi)
    rhs = -np.sum(sphere5.weights
                  * np.einsum("ni,ni->n", X, ops.gradient_ambient(phi)))
    assert abs(lhs - rhs) / abs(rhs) < 0.05


def test_laplacian_eigenvalue_refinement():
    """Delta Y31 = -12 Y31 on every level: the Laplacian is the trace of
    the exact Hessian, so the error is rounding (about 1e-15) and a fitted
    order would compare noise."""
    for level in (3, 4):
        m = build_sphere_mesh(level)
        ops = DerivativeOperators(m)
        f = spectral.real_sph_harm_matrix(m.vertices, 3)[:, spectral.sh_index(3, 1)]
        lap = ops.laplacian(f)
        err = np.sqrt(np.sum(m.weights * (lap + 12 * f) ** 2)
                      / np.sum(m.weights * (12 * f) ** 2))
        assert err <= 1e-12, level


@pytest.mark.parametrize("level", [3, 4, 5])
def test_divergence_of_gradient_is_the_laplacian_on_the_sphere(level):
    """The ambient components of the gradient of a band-3 field have band
    4, inside `graph_band`, so the component-wise divergence is exact."""
    m = build_sphere_mesh(level)
    ops = get_operators(m)
    Y = spectral.real_sph_harm_matrix(m.vertices, 3)
    for f in (Y[:, spectral.sh_index(3, 1)], Y[:, spectral.sh_index(2, 0)],
              Y @ np.random.default_rng(level).normal(size=16)):
        div_grad = ops.divergence(ops.gradient_ambient(f))
        lap = ops.laplacian(f)
        assert np.abs(div_grad - lap).max() <= 1e-13


def test_divergence_refuses_a_wulff_mesh(ellipsoid_integrand):
    """On a Wulff mesh A^-1 grad_S f is not band-limited, so the
    component-wise divergence would miss the Laplacian (by about 2e-3 for
    Y31 on quadratic:1,1,4): divergence of ambient or frame components
    and jacobian_ambient raise at level 3 and name the reason, while the
    gradient and the Laplacian still run."""
    m = build_wulff(ellipsoid_integrand, 3)
    ops = get_operators(m)
    f = spectral.real_sph_harm_matrix(m.normals, 3)[:, spectral.sh_index(3, 1)]
    X = ops.gradient_ambient(f)
    for call in (lambda: ops.divergence(X),
                 lambda: ops.divergence(ops.gradient(f)),
                 lambda: ops.jacobian_ambient(X)):
        with pytest.raises(ValueError, match="not band-limited"):
            call()
    assert np.isfinite(ops.laplacian(f)).all()


def test_tensor_norms_frame_invariant(sphere4):
    vals = rng.normal(size=(sphere4.n_vertices, 2, 2))
    theta = rng.uniform(0, 2 * np.pi, size=sphere4.n_vertices)
    R = np.zeros((sphere4.n_vertices, 2, 2))
    R[:, 0, 0] = np.cos(theta)
    R[:, 0, 1] = -np.sin(theta)
    R[:, 1, 0] = np.sin(theta)
    R[:, 1, 1] = np.cos(theta)
    rotated = np.einsum("nki,nkl,nlj->nij", R, vals, R)
    for p in (2, 4):
        a = lp_norm(vals, p, sphere4.weights)
        b = lp_norm(rotated, p, sphere4.weights)
        assert abs(a - b) < 1e-12 * max(1, a)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e3])
def test_tensor_lp_norm_is_the_frobenius_norm(scale):
    """On an (N, 2, 2) array lp_norm takes the pointwise Frobenius norm
    exactly as np.linalg.norm over the last two axes does, bit for bit."""
    gen = np.random.default_rng(31)
    vals = scale * gen.normal(size=(200_000, 2, 2))
    w = gen.uniform(size=len(vals))
    frob = np.linalg.norm(vals, axis=(1, 2))
    for p in (2, 3.3, 4):
        assert lp_norm(vals, p, w) == float(np.sum(w * frob ** p) ** (1 / p))
