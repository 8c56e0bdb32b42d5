import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (finish_from_derivatives_reference,
                     geometry_from_positions, recover_radius_spectral_reference,
                     stencils_reference, wulff_graph_stencil)
from wulffstab import Integrand, build_sphere_mesh, build_wulff, spectral
from wulffstab import surface
from wulffstab.config import parse_integrand
from wulffstab.curvature import anisotropic_shape_operator, trace_free
from wulffstab.operators import covariant_derivatives, lp_norm
from wulffstab.stability import perturbation_field, perturbed_graph
from wulffstab.surface import (GraphCertificate, exp_graph, hausdorff_distance,
                               project_to_wulff, projection_certificate,
                               radial_graph, reach_violation,
                               recover_radius_mesh, recover_radius_spectral)

rng = np.random.default_rng(31)


def translated_sphere_radius(mesh, t):
    s = mesh.vertices @ t
    return s + np.sqrt(1 - t @ t + s ** 2)


def test_zero_radius_is_identity(wulff4):
    g = radial_graph(wulff4, np.zeros(wulff4.n_vertices))
    assert np.abs(g.positions - wulff4.vertices).max() == 0.0
    assert np.abs(g.normal - wulff4.normals).max() < 1e-14
    assert_allclose(g.metric, np.tile(np.eye(2), (wulff4.n_vertices, 1, 1)),
                    atol=1e-12)


def test_concentric_sphere_mean_curvature(sphere5):
    c = 0.3
    g = radial_graph(sphere5, np.full(sphere5.n_vertices, c))
    exact = 2.0 / (1 + c)
    assert np.abs(g.mean_curvature - exact).max() / exact < 0.01


def test_translated_sphere_second_order(sphere5):
    eps = 1e-3
    c = np.array([0.6, 0.0, 0.8])
    g = radial_graph(sphere5, eps * (sphere5.vertices @ c))
    assert np.abs(g.shape_operator - np.eye(2)[None]).max() < 5 * eps ** 2 + 1e-9


def test_exp_graph_trivia(sphere4):
    g0 = exp_graph(sphere4, np.zeros(sphere4.n_vertices))
    assert_allclose(g0.shape_operator, np.tile(np.eye(2), (sphere4.n_vertices, 1, 1)),
                    atol=1e-10)
    r = 1.6
    g = exp_graph(sphere4, np.full(sphere4.n_vertices, np.log(r)))
    assert np.abs(g.shape_operator - np.eye(2)[None] / r).max() * r < 0.01


def test_exp_graph_deficit_linear_in_amplitude(sphere4):
    """|h_dev|_{L2} of exp_graph(eps Y20) scales linearly in eps."""
    col = spectral.sh_index(2, 0)
    y20 = spectral.real_sph_harm_matrix(sphere4.vertices, 2)[:, col]
    eps = np.geomspace(1e-4, 1e-2, 5)
    norms = []
    for e in eps:
        g = exp_graph(sphere4, e * y20)
        dev = g.shape_operator - 0.5 * g.mean_curvature[:, None, None] * np.eye(2)
        norms.append(lp_norm(dev, 2, g.weights))
    slope = np.polyfit(np.log(eps), np.log(norms), 1)[0]
    assert abs(slope - 1.0) < 0.05


def test_geometry_invariants(sphere4, wulff4, ellipsoid_integrand):
    col = spectral.sh_index(3, 2)
    f = 0.05 * spectral.real_sph_harm_matrix(sphere4.vertices, 3)[:, col]
    for g in (exp_graph(sphere4, f),
              radial_graph(wulff4, 0.05 * (wulff4.normals @ np.array([1.0, 0, 0])))):
        # normal orthogonal to the pushed tangent basis
        dots = np.einsum("ni,nik->nk", g.normal, g.tangent_basis)
        assert np.abs(dots).max() < 1e-10
        # trace consistency is definitional
        assert np.abs(np.einsum("nii->n", g.shape_operator)
                      - g.mean_curvature).max() == 0.0
        # g-self-adjointness of the shape operator before symmetrization
        assert g.shape_asymmetry < 0.05


def test_wulff_graph_asymmetry_measures_the_stencil(wulff4,
                                                    ellipsoid_integrand):
    """The shape operator's asymmetry measures the error of the derivatives
    it is taken from. Over a Wulff mesh they are exact in the directions
    (h_ij = e_i . T_{nu_Sigma} e_j + ...), so it is rounding on every
    level."""
    for mesh in (build_wulff(ellipsoid_integrand, 3), wulff4):
        y20 = spectral.real_sph_harm_matrix(mesh.normals, 2)[
            :, spectral.sh_index(2, 0)]
        assert radial_graph(mesh, 0.05 * y20).shape_asymmetry <= 1e-12


@pytest.fixture(scope="module")
def ellipsoid_levels():
    """quadratic:1,1,4 Wulff meshes at levels 3-6 with their edge lengths
    and the per-vertex cubic fits of `stencils_reference`."""
    integ = Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0]))
    meshes = [build_wulff(integ, level) for level in (3, 4, 5, 6)]
    return (meshes, [m.edge_length() for m in meshes],
            [stencils_reference(m) for m in meshes])


def _converges(gaps, hs):
    """Gaps fall level by level with a fitted order of at least 1.5."""
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert np.polyfit(np.log(hs), np.log(gaps), 1)[0] >= 1.5, gaps


def test_stencil_graph_converges_to_the_closed_form(ellipsoid_levels):
    """The stencil shape operator of 0.05 Y20 over the ellipsoid approaches
    the direction-chart closed form under refinement."""
    meshes, hs, stencils = ellipsoid_levels
    gaps = []
    for mesh, fits in zip(meshes, stencils):
        u = 0.05 * spectral.real_sph_harm_matrix(mesh.normals, 2)[
            :, spectral.sh_index(2, 0)]
        exact = radial_graph(mesh, u).shape_operator
        fitted = wulff_graph_stencil(mesh, fits, u).shape_operator
        gaps.append(np.abs(fitted - exact).max() / np.abs(exact).max())
    _converges(gaps, hs)


def test_stencil_hessian_converges_to_the_closed_form(ellipsoid_levels):
    """The stencil Hessian of Y31(nu) on the ellipsoid approaches
    A^-1 (Hess_S f - T_G) A^-1 under refinement."""
    meshes, hs, stencils = ellipsoid_levels
    gaps = []
    for mesh, fits in zip(meshes, stencils):
        f = spectral.real_sph_harm_matrix(mesh.normals, 3)[
            :, spectral.sh_index(3, 1)]
        _, exact = covariant_derivatives(mesh, f)
        h11, h12, h22 = (ch @ f for ch in fits[2:])
        fitted = np.stack((h11, h12, h12, h22), axis=1).reshape(-1, 2, 2)
        gaps.append(np.abs(fitted - exact).max() / np.abs(exact).max())
    _converges(gaps, hs)


@pytest.mark.parametrize("descriptor",
                         ["quadratic:1,1,4", "fourier:1,0.265,3,0"])
def test_unperturbed_wulff_deficit_is_rounding(descriptor):
    """The Wulff shape itself has S_F = Id, so its trace-free deficit
    (p = 4) is rounding at every level, on the ellipsoid and on the Fourier
    integrand near its ellipticity margin alike."""
    integ = parse_integrand(descriptor)
    for level in (3, 4, 5, 6):
        mesh = build_wulff(integ, level)
        geom = radial_graph(mesh, np.zeros(mesh.n_vertices))
        dev = trace_free(anisotropic_shape_operator(geom, integ)[0])
        assert lp_norm(dev, 4, geom.weights) <= 1e-11, level


def test_exp_graph_refuses_a_wulff_base(wulff4):
    """e^f x is a graph over the unit sphere; over a Wulff mesh the radial
    graph is the one that follows the base's normals."""
    with pytest.raises(ValueError, match="unit sphere"):
        exp_graph(wulff4, np.zeros(wulff4.n_vertices))


def test_closed_form_frames_match_qr_reference(sphere4, monkeypatch):
    """Gram-Schmidt frames and the entrywise congruence against batched QR,
    inv and einsum, on the chart derivatives each graph really produces: an
    exp graph of a translated sphere plus a harmonic, a radial graph over
    the same sphere, and a radial graph over the level-3 ellipsoid Wulff
    mesh."""
    t = np.array([0.03, -0.02, 0.028])
    y31 = spectral.real_sph_harm_matrix(sphere4.vertices, 3)[
        :, spectral.sh_index(3, 1)]
    w3 = build_wulff(Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0])), 3)
    y20 = spectral.real_sph_harm_matrix(w3.normals, 2)[
        :, spectral.sh_index(2, 0)]
    cases = [
        (exp_graph, sphere4,
         np.log(translated_sphere_radius(sphere4, t)) + 0.05 * y31),
        (radial_graph, sphere4, 0.05 * y31),
        (radial_graph, w3, 0.05 * y20),
    ]
    seen = []
    finish = surface._finish_from_derivatives

    def spy(base, positions, psi_d, nu, h_chart, radius, kind):
        seen.append((psi_d, h_chart))
        return finish(base, positions, psi_d, nu, h_chart, radius, kind)

    monkeypatch.setattr(surface, "_finish_from_derivatives", spy)
    for build, base, values in cases:
        g = build(base, values)
        psi_d, h_chart = seen.pop()
        # an antisymmetric part keeps the asymmetry away from rounding
        skewed = h_chart.copy()
        skewed[:, 0, 1] += 1e-3
        skewed[:, 1, 0] -= 1e-3
        for geom, h in ((g, h_chart),
                        (finish(base, g.positions, psi_d, g.normal, skewed,
                                None, "mesh"), skewed)):
            metric, q, s_tau, asym = finish_from_derivatives_reference(psi_d, h)
            s_sym = 0.5 * (s_tau + np.swapaxes(s_tau, 1, 2))
            area = np.sqrt(np.linalg.det(metric))
            for got, ref in ((geom.tangent_basis, q), (geom.metric, metric),
                             (geom.shape_operator, s_sym),
                             (geom.area_element, area)):
                assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
            assert (abs(geom.shape_asymmetry - asym)
                    <= 1e-13 * np.abs(s_tau).max())
        # q is orthonormal and its first column is parallel to d_1 psi
        gram = np.einsum("nki,nkj->nij", g.tangent_basis, g.tangent_basis)
        assert np.abs(gram - np.eye(2)).max() < 1e-14
        d1 = psi_d[:, :, 0] / np.linalg.norm(psi_d[:, :, 0], axis=1)[:, None]
        assert np.abs(g.tangent_basis[:, :, 0] - d1).max() < 1e-15


def test_tubular_violation_message(wulff4):
    with pytest.raises(ValueError, match="max "):
        radial_graph(wulff4, np.full(wulff4.n_vertices, 10.0))


@pytest.mark.parametrize("base_name", ["sphere4", "wulff4"])
def test_reach_guard_at_its_edge(base_name, request):
    """A radius is kept only while max |u| < reach: at max |u| = reach
    radial_graph raises and perturbed_graph returns (None, violation); one
    ulp below, both build the graph. On the sphere (reach 0.9) and the
    quadratic:1,1,4 Wulff mesh."""
    base = request.getfixturevalue(base_name)
    family = ("kernel", (0.3, -0.5, 0.8))
    shape = perturbation_field(base, family)
    shape = shape / np.abs(shape).max()
    at_reach = base.reach * shape
    assert np.abs(at_reach).max() == base.reach
    violation = reach_violation(base, at_reach)
    assert violation.startswith("max |u| = ")
    with pytest.raises(ValueError, match="tubular neighborhood"):
        radial_graph(base, at_reach)
    assert perturbed_graph(base, family, at_reach) == (None, violation)
    below = np.nextafter(base.reach, 0.0) * shape
    assert np.abs(below).max() == np.nextafter(base.reach, 0.0)
    assert reach_violation(base, below) == ""
    assert np.isfinite(radial_graph(base, below).positions).all()
    geom, violation = perturbed_graph(base, family, below)
    assert violation == "" and np.isfinite(geom.positions).all()


def test_translation_equivariance(sphere4, ellipsoid_integrand):
    """The Hausdorff distance is taken at the centroid offset, so
    translating the surface leaves it unchanged up to rounding."""
    t = np.array([0.3, 0.1, -0.2])
    for base in (sphere4, build_wulff(ellipsoid_integrand, 3)):
        u = 0.02 * (base.normals @ np.array([0.2, -0.5, 0.1]))
        u += 0.01 * spectral.real_sph_harm_matrix(base.normals, 2)[
            :, spectral.sh_index(2, 0)]
        positions = radial_graph(base, u).positions
        d = hausdorff_distance(positions, base)
        assert d > 1e-3
        assert abs(hausdorff_distance(positions + t, base) - d) <= 1e-14


# --- projection certificates ------------------------------------------------


def test_unit_sphere_certificate(sphere4):
    g = exp_graph(sphere4, np.zeros(sphere4.n_vertices))
    cert = projection_certificate(g)
    assert cert.passed
    assert abs(cert.margin - 1.0) < 1e-12
    assert np.abs(cert.radius).max() < 1e-12


def test_certificate_harmonic_graph(sphere4):
    col = spectral.sh_index(3, 2)
    f = 0.05 * spectral.real_sph_harm_matrix(sphere4.vertices, 3)[:, col]
    cert = projection_certificate(exp_graph(sphere4, f))
    assert cert.passed
    assert cert.margin >= 0.9


def test_certificate_dumbbell_fails(sphere4):
    x, y, z = sphere4.vertices.T
    theta = np.arccos(np.clip(z, -1, 1))
    phi = np.arctan2(y, x)
    rho = np.sin(theta) * (1.0 - 0.92 * np.sin(theta) ** 2)
    pos = np.column_stack([rho * np.cos(phi), rho * np.sin(phi),
                           0.85 * np.cos(theta)])
    cert = projection_certificate(geometry_from_positions(sphere4, pos))
    assert not cert.passed
    assert cert.margin <= 0.0


def test_certificate_margin_edge():
    """The certificate passes only on a smallest margin strictly above its
    threshold 0.1, and never with a diagnostic."""
    def certificate(margin, diagnostics=None):
        margins = margin + np.array([0.3, 0.0, 0.7])
        return GraphCertificate(margins, np.zeros(3), diagnostics)

    assert GraphCertificate.threshold == 0.1
    assert not certificate(0.1).passed
    assert certificate(np.nextafter(0.1, 1)).passed
    failed = certificate(1.0, {"unconverged_feet": 1})
    assert failed.margin == 1.0 and not failed.passed


def test_radius_round_trip(sphere4, wulff4):
    u = 0.03 * (sphere4.vertices @ np.array([0.1, 0.7, -0.4]))
    cert = projection_certificate(radial_graph(sphere4, u))
    assert np.abs(cert.radius - u).max() < 1e-8
    uw = 0.05 * (wulff4.normals @ np.array([0.3, -0.1, 0.2]))
    certw = projection_certificate(radial_graph(wulff4, uw))
    assert np.abs(certw.radius - uw).max() < 1e-8


def test_project_to_wulff_feet(wulff4):
    # points offset along stored normals project back to their feet, from
    # the normal of the nearest of every fourth vertex: most need three or
    # four Newton steps
    offs = 0.05 * np.sin(np.arange(wulff4.n_vertices))[::97]
    pts = wulff4.vertices[::97] + offs[:, None] * wulff4.normals[::97]
    d = np.linalg.norm(pts[:, None] - wulff4.vertices[::4], axis=2)
    seed = wulff4.normals[::4][np.argmin(d, axis=1)]
    assert not project_to_wulff(wulff4, pts, seed, n_newton=2)[3].all()
    feet, dirs, t, conv = project_to_wulff(wulff4, pts, seed)
    assert conv.all()
    assert np.abs(feet - wulff4.vertices[::97]).max() < 1e-9
    assert np.abs(t - offs).max() < 1e-9


def test_project_to_wulff_flags_convergence_at_returned_feet(wulff4):
    """Seeded at the normal of the nearest of every fourth vertex, this
    point reaches the tolerance on its fourth Newton step, so four allowed
    steps must report it converged."""
    pts = np.array([[0.3, 0.2, 0.9]])
    d = np.linalg.norm(wulff4.vertices[::4] - pts[0], axis=1)
    seed = wulff4.normals[::4][[np.argmin(d)]]
    assert not project_to_wulff(wulff4, pts, seed, n_newton=3)[3][0]
    feet, dirs, t, conv = project_to_wulff(wulff4, pts, seed, n_newton=4)
    assert conv[0]
    resid = pts - feet - t[:, None] * dirs
    assert np.linalg.norm(resid) < 1e-12


def test_projection_seeds_at_own_base_vertex(wulff4):
    """A radial graph over a Wulff base projects each node to its own base
    vertex at step 0: the feet are the vertices and t is u."""
    u = 0.05 * (wulff4.normals @ np.array([0.3, -0.1, 0.2]))
    geom = radial_graph(wulff4, u)
    feet, dirs, t, conv = project_to_wulff(wulff4, geom.positions,
                                           wulff4.normals, n_newton=0)
    assert conv.all()
    np.testing.assert_array_equal(feet, wulff4.vertices)
    assert np.abs(t - u).max() <= 1e-15


# --- radius recovery --------------------------------------------------------


def test_recover_radius_spectral_translate(sphere5):
    t = np.array([0.02, -0.03, 0.01])
    f = np.log(translated_sphere_radius(sphere5, t))
    coeffs = spectral.sh_analyze(sphere5, f, 8)
    # translating back by t must recover the unit sphere
    rad, ok = recover_radius_spectral(sphere5, coeffs, "exp", t)
    assert ok
    assert np.abs(rad).max() < 1e-7


@pytest.mark.parametrize("level", [3, 4, 5])
def test_recover_radius_spectral_at_zero_reads_the_vertex_basis(level):
    """At c = 0 the radius is the field at the vertices, and the graph
    property holds exactly where rho > 0 at every node."""
    mesh = build_sphere_mesh(level)
    gen = np.random.default_rng(level)
    lost = 0
    for band in (4, 8, 10):
        assert band <= spectral.band_limit(mesh.n_vertices)
        for kind in ("exp", "radial"):
            for amp in (1e-4, 1e-2, 0.3):
                coeffs = amp * gen.normal(size=(band + 1) ** 2)
                want, want_ok = recover_radius_spectral_reference(
                    mesh, coeffs, kind, np.zeros(3))
                got, ok = recover_radius_spectral(mesh, coeffs, kind,
                                                  np.zeros(3))
                assert ok == want_ok
                if ok:
                    bound = 1e-13 * max(1.0, np.abs(want).max())
                    assert np.abs(got - want).max() <= bound
                lost += not ok
    assert lost > 0


def test_recover_radius_spectral_fixed_point_paths(fresh_spheres):
    """A band above the mesh limit, or any nonzero c, runs the fixed point
    and builds no basis."""
    mesh = build_sphere_mesh(2)
    over = spectral.band_limit(mesh.n_vertices) + 2
    c = np.array([0.0, 1e-3, -2e-3])
    gen = np.random.default_rng(2)
    for band, t in ((over, np.zeros(3)), (over, c), (4, c)):
        coeffs = 1e-2 * gen.normal(size=(band + 1) ** 2)
        for kind in ("exp", "radial"):
            got = recover_radius_spectral(mesh, coeffs, kind, t)
            want = recover_radius_spectral_reference(mesh, coeffs, kind, t)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]
    assert not mesh._cache and mesh.directions._slot == (None, None)


def test_recover_radius_mesh_translate():
    """The Wulff shape of F = 2|nu| is the sphere of radius 2, and its
    translate by -t meets the normal line of node nu at offset s with
    |(2 + s) nu + t| = 2, in closed form."""
    base = build_wulff(Integrand.constant(2.0), 4)
    t = np.array([0.015, 0.02, -0.01])
    rad, ok = recover_radius_mesh(base, np.zeros(81), t)
    assert ok
    b = base.normals @ t
    want = -b + np.sqrt(b * b + 4.0 - t @ t) - 2.0
    assert np.abs(rad - want).max() < 1e-12


# --- hausdorff --------------------------------------------------------------


def test_hausdorff_concentric(sphere4):
    delta = 0.07
    pts = (1 + delta) * sphere4.vertices
    d = hausdorff_distance(pts, sphere4)
    assert abs(d - delta) < 1e-12


def test_hausdorff_translate_optimized(sphere4):
    """A translate of the base is at distance 0 up to rounding: the centroid
    offset is the translation."""
    t = np.array([0.04, -0.02, 0.05])
    d = hausdorff_distance(sphere4.vertices + t, sphere4)
    assert d < 1e-14


def test_hausdorff_exp_graph_matches_radial_formula(sphere4):
    col = spectral.sh_index(2, 0)
    f = 0.01 * spectral.real_sph_harm_matrix(sphere4.vertices, 2)[:, col]
    g = exp_graph(sphere4, f)
    d = hausdorff_distance(g, sphere4)
    expected = np.abs(np.exp(f) - 1).max()
    assert abs(d - expected) / expected < 0.1
