import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (finish_from_derivatives_reference,
                     geometry_from_positions, perturbation_field,
                     recover_radius_mesh_reference,
                     recover_radius_spectral_reference, stencils_reference,
                     wulff_graph_stencil)
from wulffstab import Integrand, build_sphere_mesh, build_wulff, spectral
from wulffstab import surface
from wulffstab.config import parse_integrand
from wulffstab.curvature import anisotropic_shape_operator, trace_free
from wulffstab.operators import covariant_derivatives, lp_norm
from wulffstab.spheremesh import rowdot
from wulffstab.stability import family_coeffs, perturbed_graph
from wulffstab.surface import (GraphCertificate, exp_graph, hausdorff_distance,
                               project_to_wulff, projection_certificate,
                               radial_graph, reach_violation,
                               recover_radius_mesh, recover_radius_spectral,
                               symmetric_point_distance)

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
    for g in (exp_graph(sphere4, f), radial_graph(sphere4, f),
              radial_graph(wulff4, 0.05 * (wulff4.normals @ np.array([1.0, 0, 0])))):
        # normal orthogonal to the pushed tangent basis
        dots = np.einsum("ni,nik->nk", g.normal, g.tangent_basis)
        assert np.abs(dots).max() < 1e-10
        # trace consistency is definitional
        assert np.abs(np.einsum("nii->n", g.shape_operator)
                      - g.mean_curvature).max() == 0.0
        # d nu_Sigma is self-adjoint, and the shape operator is symmetric
        # by construction, bit for bit
        S = g.shape_operator
        assert np.array_equal(S, S.swapaxes(1, 2))


def test_wulff_graph_asymmetry_measures_the_stencil(wulff4,
                                                    ellipsoid_integrand):
    """Over a Wulff mesh the chart form is exact in the directions
    (h_ij = e_i . T_{nu_Sigma} e_j + ...) and symmetric, and it is taken to
    W arclength by one entrywise congruence, as the covariant Hessian is:
    both come out exactly symmetric on every level."""
    for mesh in (build_wulff(ellipsoid_integrand, 3), wulff4):
        y = spectral.real_sph_harm_matrix(mesh.normals, 3)
        S = radial_graph(mesh, 0.05 * y[:, spectral.sh_index(2, 0)]
                         ).shape_operator
        assert np.array_equal(S, S.swapaxes(1, 2))
        _, hess = covariant_derivatives(mesh, y[:, spectral.sh_index(3, 1)])
        assert np.array_equal(hess, hess.swapaxes(1, 2))
        assert np.abs(hess[:, 0, 1]).max() > 0.1


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
    """The constructor's Gram-Schmidt frames and entrywise congruence
    against batched QR, inv and einsum, on the chart columns and forms each
    graph really produces: an exp graph of a translated sphere plus a
    harmonic, a radial graph over the same sphere, and a radial graph over
    the level-3 ellipsoid Wulff mesh."""
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

    class Spy(surface.SurfaceGeometry):
        def __init__(self, base, positions, normal, columns, form, *rest):
            seen.append((np.stack(columns, axis=2), form))
            super().__init__(base, positions, normal, columns, form, *rest)

    monkeypatch.setattr(surface, "SurfaceGeometry", Spy)
    for build, base, values in cases:
        g = build(base, values)
        psi_d, form = seen.pop()
        assert np.array_equal(form, form.swapaxes(1, 2))
        metric, q, s_tau = finish_from_derivatives_reference(psi_d, form)
        area = np.sqrt(np.linalg.det(metric))
        for got, ref in ((g.tangent_basis, q), (g.metric, metric),
                         (g.shape_operator, s_tau), (g.area_element, area)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # q is orthonormal and its first column is parallel to d_1 psi
        gram = np.einsum("nki,nkj->nij", g.tangent_basis, g.tangent_basis)
        assert np.abs(gram - np.eye(2)).max() < 1e-14
        d1 = psi_d[:, :, 0] / np.linalg.norm(psi_d[:, :, 0], axis=1)[:, None]
        assert np.abs(g.tangent_basis[:, :, 0] - d1).max() < 1e-15


@pytest.mark.parametrize("base_name", ["sphere4", "wulff4"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_graphs_refuse_a_radius_that_is_not_finite(base_name, bad, request):
    """One node of nan or inf is refused as a radius that is not finite,
    before the reach test could misread it: by radial_graph, by exp_graph
    over the sphere and by the analysis amplitude_graphs is built from."""
    base = request.getfixturevalue(base_name)
    values = np.zeros(base.n_vertices)
    values[7] = bad
    builds = [lambda: radial_graph(base, values),
              lambda: surface.amplitude_graphs(
                  base, surface._analyse_radius(base, values), "radial",
                  values)]
    if base.integrand is None:
        builds += [lambda: exp_graph(base, values),
                   lambda: surface.amplitude_graphs(
                       base, surface._analyse_radius(base, values), "exp",
                       values)]
    for build in builds:
        with pytest.raises(ValueError, match="radius field must be finite"):
            build()


def test_tubular_violation_message(wulff4):
    with pytest.raises(ValueError, match="max "):
        radial_graph(wulff4, np.full(wulff4.n_vertices, 10.0))


@pytest.mark.parametrize("base_name", ["sphere4", "wulff4"])
def test_reach_guard_at_its_edge(base_name, request):
    """A radius is kept only while max |u| < reach: at max |u| = reach
    radial_graph raises, and one ulp below it builds the graph.
    perturbed_graph takes an amplitude, so its edge is the smallest eps
    whose field reaches the reach: there it returns (None, violation), and
    one ulp of amplitude below it builds the graph. The family's field is
    its exact expansion at the nodes (`family_coeffs`), within rounding of
    the evaluated <c, nu>. On the sphere (reach 0.9) and the
    quadratic:1,1,4 Wulff mesh."""
    base = request.getfixturevalue(base_name)
    family = ("kernel", (0.3, -0.5, 0.8))
    coeffs = family_coeffs(family, spectral.graph_band(base.n_vertices))
    unit = spectral.spectral_derivatives(base, coeffs)[0]
    assert np.abs(unit - perturbation_field(base, family)).max() <= 1e-15
    top = np.abs(unit).max()
    shape = unit / top
    at_reach = base.reach * shape
    assert np.abs(at_reach).max() == base.reach
    violation = reach_violation(base, at_reach)
    assert violation.startswith("max |u| = ")
    with pytest.raises(ValueError, match="tubular neighborhood"):
        radial_graph(base, at_reach)
    below = np.nextafter(base.reach, 0.0) * shape
    assert np.abs(below).max() == np.nextafter(base.reach, 0.0)
    assert reach_violation(base, below) == ""
    assert np.isfinite(radial_graph(base, below).positions).all()
    eps = base.reach / top
    while eps * top < base.reach:
        eps = np.nextafter(eps, np.inf)
    while np.nextafter(eps, 0.0) * top >= base.reach:
        eps = np.nextafter(eps, 0.0)
    violation = reach_violation(base, eps * unit)
    assert violation.startswith("max |u| = ")
    assert perturbed_graph(base, family, eps) == (None, violation)
    eps_below = np.nextafter(eps, 0.0)
    assert reach_violation(base, eps_below * unit) == ""
    geom, violation = perturbed_graph(base, family, eps_below)
    assert violation == "" and np.isfinite(geom.positions).all()


def _translated(geom, t):
    """A copy of geom with its nodes moved by t."""
    moved = copy.copy(geom)
    moved.positions = geom.positions + t
    return moved


def test_translation_equivariance(sphere4, ellipsoid_integrand):
    """The Hausdorff distance is taken at the centroid offset, so
    translating the surface leaves it unchanged up to rounding."""
    t = np.array([0.3, 0.1, -0.2])
    for base in (sphere4, build_wulff(ellipsoid_integrand, 3)):
        u = 0.02 * (base.normals @ np.array([0.2, -0.5, 0.1]))
        u += 0.01 * spectral.real_sph_harm_matrix(base.normals, 2)[
            :, spectral.sh_index(2, 0)]
        geom = radial_graph(base, u)
        d = hausdorff_distance(geom, base)
        assert d > 1e-3
        assert abs(hausdorff_distance(_translated(geom, t), base) - d) <= 1e-14


# --- projection certificates ------------------------------------------------


def _offset(geom):
    """The signed offset of each node from its base vertex along the
    vertex's normal, as `wulffstab curvature` writes it to geometry.csv."""
    base = geom.base
    return rowdot(geom.positions - base.vertices, base.normals)


def test_unit_sphere_certificate(sphere4):
    g = exp_graph(sphere4, np.zeros(sphere4.n_vertices))
    cert = projection_certificate(g)
    assert cert.passed
    assert abs(cert.margin - 1.0) < 1e-12
    assert np.abs(_offset(g)).max() < 1e-12


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
    assert np.isnan(cert.margin)


def test_certificate_margin_edge():
    """The certificate passes only on a smallest margin strictly above its
    threshold 0.1."""
    def certificate(margin):
        return GraphCertificate(margin + np.array([0.3, 0.0, 0.7]))

    assert GraphCertificate.threshold == 0.1
    assert not certificate(0.1).passed
    assert certificate(np.nextafter(0.1, 1)).passed


def test_certificate_edge_on_library_graphs(sphere4):
    """On the level-4 sphere the exponential graph of eps Y80 passes at
    eps = 1 (margin 0.171) and fails at eps = 2 (0.0866); its margins are
    the cosines of its normals with the sphere's."""
    margins = []
    for eps in (1.0, 2.0):
        geom, _ = perturbed_graph(sphere4, ("harmonic", 8, 0), eps)
        cert = projection_certificate(geom)
        np.testing.assert_array_equal(cert.margins,
                                      rowdot(geom.normal, sphere4.normals))
        margins.append((cert.margin, cert.passed))
    assert_allclose([m for m, _ in margins], [0.17133, 0.086624], atol=1e-5)
    assert [p for _, p in margins] == [True, False]


def test_certificate_normal_line_guard_at_its_edge(wulff4):
    """A radial graph over a Wulff base has the cosines of its normals with
    the base's as margins. A node moved off its vertex's normal line, along
    the vertex's tangent, keeps its margin just inside the guard
    1e-12 (1 + |x_i|) and reads nan just outside it, failing the
    certificate."""
    geom = radial_graph(wulff4, 0.05 * (wulff4.normals @ [0.3, -0.1, 0.2]))
    np.testing.assert_array_equal(projection_certificate(geom).margins,
                                  rowdot(geom.normal, wulff4.normals))
    edge = 1e-12 * (1.0 + np.linalg.norm(wulff4.vertices[7]))
    for scale, passed in ((0.99, True), (1.01, False)):
        moved = copy.copy(geom)
        moved.positions = geom.positions.copy()
        moved.positions[7] += scale * edge * wulff4.frames[0][7]
        cert = projection_certificate(moved)
        assert cert.passed == passed
        assert np.isnan(cert.margins).sum() == (not passed)


def test_radius_round_trip(sphere4, wulff4):
    u = 0.03 * (sphere4.vertices @ np.array([0.1, 0.7, -0.4]))
    assert np.abs(_offset(radial_graph(sphere4, u)) - u).max() < 1e-8
    uw = 0.05 * (wulff4.normals @ np.array([0.3, -0.1, 0.2]))
    assert np.abs(_offset(radial_graph(wulff4, uw)) - uw).max() < 1e-8


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


@pytest.mark.parametrize("family", [("kernel", (0.36, -0.48, 0.8)),
                                    ("harmonic", 2, 0)])
def test_radius_at_zero_reads_only_the_family_bands(sphere5, family):
    """At c = 0 both recoveries read a family's radius off the vertex basis
    up to its top band only, bit for bit the full-basis product."""
    band = spectral.graph_band(sphere5.n_vertices)
    coeffs = 1e-2 * family_coeffs(family, band)
    want = spectral.mesh_basis(sphere5, band)[0] @ coeffs
    radius, ok = recover_radius_spectral(sphere5, coeffs, "radial",
                                         np.zeros(3))
    assert ok and np.array_equal(radius, want)
    wulff = build_wulff(Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0])),
                        5)
    radius, ok = recover_radius_mesh(wulff, coeffs, np.zeros(3))
    assert ok and np.array_equal(radius, want)


@pytest.mark.parametrize("c", [np.zeros(3), np.array([0.01, 0.0, 0.0])])
def test_recoveries_refuse_a_length_that_is_not_a_square(sphere4, wulff4, c):
    """A coefficient vector of 10 entries names no band: both recoveries
    refuse it with spectral's length message, at c = 0 and away from it."""
    coeffs = np.zeros(10)
    coeffs[2] = 1e-2
    match = "perfect square, got 10"
    with pytest.raises(ValueError, match=match):
        recover_radius_spectral(sphere4, coeffs, "radial", c)
    with pytest.raises(ValueError, match=match):
        recover_radius_mesh(wulff4, coeffs, c)


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


@pytest.mark.parametrize("level", [3, 4, 5])
def test_recover_radius_spectral_is_the_out_of_place_loop(level):
    """The fixed point steps in place in two coordinate-first buffers and
    takes each operation of the out-of-place loop, which makes new (N, 3)
    arrays and calls np.linalg.norm every step (`oracles`), so radii and
    ok are its bits at every |c| and for both kinds."""
    mesh = build_sphere_mesh(level)
    gen = np.random.default_rng(40 + level)
    for size in (1e-4, 1e-2, 5e-2):
        direction = gen.normal(size=3)
        c = size * direction / np.linalg.norm(direction)
        for kind in ("exp", "radial"):
            coeffs = 0.02 * gen.normal(size=81)
            got = recover_radius_spectral(mesh, coeffs, kind, c)
            want = recover_radius_spectral_reference(mesh, coeffs, kind, c)
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1] and got[1]


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


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("descriptor", ["constant:1", "quadratic:1,1,4",
                                        "fourier:1,0.2,3,1"])
def test_frame_newton_matches_the_ambient_one(descriptor, level, monkeypatch):
    """The Newton taken in the frame of nu_i gives the radii of the ambient
    one it replaced (`oracles.recover_radius_mesh_reference`), with the same
    ok and no more evaluations, for translations up to 0.15.

    Both leave a last move below 1e-13 untaken, so where a node's last move
    lies within rounding of 1e-13 one of them stops an evaluation earlier
    and the two radii differ by that move: at most 1e-13 plus its rounding
    (1.003e-13 measured), at a few nodes per solve; every other node agrees
    to rounding."""
    base = build_wulff(parse_integrand(descriptor), level)
    band = spectral.graph_band(base.n_vertices)
    Y = spectral.real_sph_harm_matrix(base.normals, band)
    coeffs = spectral.sh_analyze(
        base, 0.05 * Y[:, 6] + 0.03 * Y[:, 2] - 0.02 * Y[:, 13], band)
    spectral.ladders(band)          # built once, with harmonics of its own
    calls = []
    real = spectral.real_sph_harm_matrix
    monkeypatch.setattr(spectral, "real_sph_harm_matrix",
                        lambda pts, L: calls.append(len(pts)) or real(pts, L))
    gen = np.random.default_rng(level)
    for size in (1e-4, 0.01, 0.05, 0.15):
        c = gen.normal(size=3)
        c *= size / np.linalg.norm(c)
        calls.clear()
        got, ok = recover_radius_mesh(base, coeffs, c)
        evals = len(calls)
        calls.clear()
        want, want_ok = recover_radius_mesh_reference(base, coeffs, c)
        assert ok and want_ok
        assert 0 < evals <= len(calls)
        diff = np.abs(got - want)
        assert diff.max() <= 1.01e-13, (size, diff.max())
        assert np.count_nonzero(diff > 1e-15) <= 1e-3 * base.n_vertices


# --- hausdorff --------------------------------------------------------------


def test_hausdorff_concentric(sphere4):
    delta = 0.07
    pts = (1 + delta) * sphere4.vertices
    d = symmetric_point_distance(pts, sphere4.vertices)
    assert abs(d - delta) < 1e-12


def test_hausdorff_translate_optimized(sphere4):
    """A translate of the base is at distance 0 up to rounding: the centroid
    offset is the translation."""
    t = np.array([0.04, -0.02, 0.05])
    base = radial_graph(sphere4, np.zeros(sphere4.n_vertices))
    d = hausdorff_distance(_translated(base, t), sphere4)
    assert d < 1e-14


def test_hausdorff_exp_graph_matches_radial_formula(sphere4):
    col = spectral.sh_index(2, 0)
    f = 0.01 * spectral.real_sph_harm_matrix(sphere4.vertices, 2)[:, col]
    g = exp_graph(sphere4, f)
    d = hausdorff_distance(g, sphere4)
    expected = np.abs(np.exp(f) - 1).max()
    assert abs(d - expected) / expected < 0.1
