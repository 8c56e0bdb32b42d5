import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import sweep_row_reference
from wulffstab import Integrand, build_sphere_mesh, build_wulff
from wulffstab import spectral, stability, surface
from wulffstab.stability import (ScalingFit, SpectralGraphSurface, center,
                                 kernel_component, kernel_frame,
                                 perturbation_field, perturbed_graph,
                                 scaling_sweep, stability_operator,
                                 stability_ratio, _distance_norm)
from wulffstab.surface import exp_graph, radial_graph, recover_radius_mesh

rng = np.random.default_rng(23)


def harmonic(mesh, ell, m):
    col = spectral.sh_index(ell, m)
    return spectral.real_sph_harm_matrix(mesh.vertices, ell)[:, col]


def translated_sphere_logr(mesh, t):
    s = mesh.vertices @ t
    return np.log(s + np.sqrt(1 - t @ t + s ** 2))


# --- kernel frame -----------------------------------------------------------


def test_frame_orthonormal(sphere4, wulff4):
    for base in (sphere4, wulff4):
        fr = kernel_frame(base)
        assert fr.gram_residual < 1e-8


def test_sweep_builds_the_kernel_frame_once(monkeypatch):
    """A 6-amplitude sphere sweep asks for the frame at every centering but
    builds it once; the cached frame is the one built fresh, bit for bit,
    and read-only."""
    builds = []
    build = stability._kernel_frame
    monkeypatch.setattr(stability, "_kernel_frame",
                        lambda base: builds.append(base) or build(base))
    base = build_sphere_mesh(3)
    *_, rows = scaling_sweep(base, Integrand.constant(), ("harmonic", 2, 0),
                             np.geomspace(1e-4, 1e-2, 6), 4)
    assert len(rows) == 6 and "warning" not in rows[-1]
    assert builds == [base]
    frame, fresh = kernel_frame(base), build(base)
    for a, b in ((frame.vectors, fresh.vectors), (frame.fields, fresh.fields)):
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


@pytest.mark.parametrize("case", ["sphere-harmonic", "sphere-kernel",
                                  "wulff-kernel"])
def test_sweep_rows_match_graphs_analysed_from_the_scaled_field(case, request):
    """A sweep builds each amplitude's graph from eps times the unit
    field's analysis; deficit, distance and ratio agree within 1e-10
    relative with graphs analysed from eps times the field. The kernel
    sweep's deficit at eps = 1e-4 is 1e-8, a difference of rounding-level
    shape operators: it reads 1.4e-11 at level 5 (6.8e-11 at level 4)."""
    kernel = ("kernel", (0.36, -0.48, 0.8))
    base, family, amplitudes = {
        "sphere-harmonic": ("sphere4", ("harmonic", 2, 0),
                            np.geomspace(1e-4, 1e-2, 3)),
        "sphere-kernel": ("sphere5", kernel, np.geomspace(1e-4, 1e-2, 3)),
        "wulff-kernel": ("wulff4", kernel, (0.02, 0.04, 0.08)),
    }[case]
    base = request.getfixturevalue(base)
    integ = (Integrand.constant() if base.integrand is None
             else base.integrand)
    *_, rows = scaling_sweep(base, integ, family, amplitudes, 4)
    assert [r["epsilon"] for r in rows] == list(amplitudes)
    for row in rows:
        want = sweep_row_reference(base, integ, family, row["epsilon"], 4)
        got = (row["deficit"], row["distance"], row["ratio"])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_a_sweep_analyses_its_family_once(monkeypatch):
    """A six-amplitude sweep analyses its unit field once; a
    perturbed_graph call analyses its own, and an unknown family is
    refused before any analysis."""
    calls = []
    analyse = surface._analyse_radius
    monkeypatch.setattr(surface, "_analyse_radius",
                        lambda mesh, values: calls.append(mesh)
                        or analyse(mesh, values))
    family = ("kernel", (0.36, -0.48, 0.8))
    base = build_sphere_mesh(3)
    *_, rows = scaling_sweep(base, Integrand.constant(), family,
                             np.geomspace(1e-4, 1e-2, 6), 4)
    assert len(rows) == 6 and "warning" not in rows[-1]
    assert calls == [base]
    y20 = ("harmonic", 2, 0)
    geom, _ = perturbed_graph(base, y20, 1e-3)
    assert calls == [base, base]
    assert np.array_equal(geom.radius, 1e-3 * perturbation_field(base, y20))
    with pytest.raises(ValueError, match="unknown perturbation family"):
        perturbed_graph(base, ("foo", family[1]), 1e-3)
    assert calls == [base, base]


def test_kernel_component_recovers_vector(sphere4):
    fr = kernel_frame(sphere4)
    c = np.array([0.2, -0.4, 0.7])
    v = kernel_component(fr, sphere4.vertices @ c, sphere4.weights)
    assert np.abs(v - c).max() < 1e-6


def test_kernel_component_kills_higher_harmonics(sphere4):
    fr = kernel_frame(sphere4)
    v = kernel_component(fr, harmonic(sphere4, 2, 1), sphere4.weights)
    assert np.abs(v).max() < 1e-8


def test_kernel_component_linearity(sphere4):
    fr = kernel_frame(sphere4)
    c = np.array([-0.3, 0.5, 0.1])
    u = sphere4.vertices @ c + harmonic(sphere4, 3, 1)
    v = kernel_component(fr, u, sphere4.weights)
    assert np.abs(v - c).max() < 1e-6


# --- stability operator -----------------------------------------------------


def test_translation_modes_near_kernel(sphere4):
    const = Integrand.constant()
    u = harmonic(sphere4, 1, 0)
    L = stability_operator(sphere4, const, u)
    rel = np.sqrt(np.sum(sphere4.weights * L ** 2)
                  / np.sum(sphere4.weights * u ** 2))
    assert rel < 0.02


def test_y2_eigenvalue(sphere4):
    const = Integrand.constant()
    u = harmonic(sphere4, 2, 0)
    L = stability_operator(sphere4, const, u)
    ray = np.sum(sphere4.weights * L * u) / np.sum(sphere4.weights * u ** 2)
    assert abs(ray + 4.0) < 0.08


def test_ellipsoid_kernel_residual_at_rounding(ellipsoid_integrand):
    """L_F annihilates <c, nu> pointwise, so the residual is rounding at
    every level."""
    c = np.array([0.5, -0.3, 0.8])
    for level in (3, 4):
        W = build_wulff(ellipsoid_integrand, level)
        phi = W.normals @ c
        L = stability_operator(W, ellipsoid_integrand, phi)
        res = np.sqrt(np.sum(W.weights * L ** 2)
                      / np.sum(W.weights * phi ** 2))
        assert res <= 1e-12 * max(1.0, 0.9 / W.reach)


def test_stability_operator_rejects_a_foreign_integrand(wulff4):
    """Only an integrand with A_F proportional to the base's A_W gives the
    closed form; another one is refused rather than misread."""
    other = Integrand.quadratic_form(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="proportional"):
        stability_operator(wulff4, other, wulff4.normals[:, 0])


def test_stability_operator_scales_with_a_constant_integrand(sphere4):
    """F = 2 over the unit sphere: L = 2 Delta + 2, so Y2 reads -10."""
    u = harmonic(sphere4, 2, 0)
    L = stability_operator(sphere4, Integrand.constant(2.0), u)
    assert np.abs(L + 10 * u).max() < 1e-12


# --- centering --------------------------------------------------------------


def test_center_already_centered(sphere4):
    f = 1e-3 * harmonic(sphere4, 2, 0)
    coeffs = spectral.sh_analyze(sphere4, f, 6)
    res = center(SpectralGraphSurface(sphere4, coeffs, "exp"))
    assert res.iterations == 1
    assert np.abs(res.c).max() == 0.0
    assert res.trace[-1] <= 1e-8


@pytest.mark.parametrize("shift", [0.0, 0.02])
def test_center_returns_radius_at_final_translation(sphere4, wulff4, shift):
    """shift = 0 is already centred: one radius evaluation, c = 0."""
    c = np.array([0.6, -0.48, 0.64])
    for base in (sphere4, wulff4):
        u = (1e-2 * perturbation_field(base, ("harmonic", 2, 0))
             + shift * (base.normals @ c))
        surf = SpectralGraphSurface.from_geometry(radial_graph(base, u))
        res = center(surf)
        assert (res.iterations == 1) == (shift == 0.0)
        np.testing.assert_array_equal(res.radius, surf.radius_field(res.c))


def test_mesh_graph_radius_at_zero_is_the_graph_radius(wulff4):
    """Over a Wulff mesh, the radius at c = 0 is read off the cached vertex
    basis: the band-limited u itself, up to rounding. Any other
    translation runs the Newton solve of `recover_radius_mesh`."""
    u = (0.05 * perturbation_field(wulff4, ("harmonic", 2, 0))
         + 0.03 * (wulff4.normals @ np.array([0.6, -0.48, 0.64])))
    geom = radial_graph(wulff4, u)
    surf = SpectralGraphSurface.from_geometry(geom)
    basis = spectral.mesh_basis(wulff4, spectral.graph_band(wulff4.n_vertices))
    for c in (0, np.zeros(3), [0.0, -0.0, 0.0]):
        np.testing.assert_array_equal(surf.radius_field(c),
                                      basis[0] @ geom.radius_coeffs)
    assert np.abs(surf.radius_field(0) - u).max() <= 1e-15
    c = np.array([1e-3, 0.0, 0.0])
    radius, ok = recover_radius_mesh(wulff4, geom.radius_coeffs, c)
    assert ok and np.abs(radius - u).max() > 1e-5
    np.testing.assert_array_equal(surf.radius_field(c), radius)


def test_wulff_kernel_sweep_distance_has_no_floor(ellipsoid_integrand):
    """The post-centering W^{2,p} distance of a kernel sweep on a Wulff
    base is O(eps^2), like the deficit, and does not depend on the level:
    the centred radius is exact on the graph, with no mesh error in it."""
    c = np.array([0.003, 0.737, -0.676])
    amplitudes = [0.01, 0.02, 0.04, 0.08, 0.16]
    fits, distances = [], []
    for level in (3, 4):
        base = build_wulff(ellipsoid_integrand, level)
        _, fit, rows = scaling_sweep(base, ellipsoid_integrand,
                                     ("kernel", c / np.linalg.norm(c)),
                                     amplitudes, 4)
        fits.append(fit.slope)
        distances.append([r["distance"] for r in rows])
    np.testing.assert_allclose(distances[0], distances[1], rtol=0.02)
    assert all(abs(slope - 2.0) <= 0.1 for slope in fits), fits


def test_center_translated_sphere(sphere5):
    t = np.array([0.03, -0.02, 0.028])
    t *= 0.05 / np.linalg.norm(t)
    coeffs = spectral.sh_analyze(sphere5, translated_sphere_logr(sphere5, t), 10)
    res = center(SpectralGraphSurface(sphere5, coeffs, "exp"))
    assert np.linalg.norm(res.c - t) <= 1e-4
    assert res.iterations <= 10
    # residual trace strictly decreasing until tolerance
    assert all(b < a for a, b in zip(res.trace, res.trace[1:]))


def test_center_smallness_gate(sphere4):
    coeffs = spectral.sh_analyze(sphere4, np.full(sphere4.n_vertices, 0.8), 2)
    with pytest.raises(ValueError, match="too large"):
        center(SpectralGraphSurface(sphere4, coeffs, "radial"))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_center_smallness_gate_edge(sphere4, sign):
    """The gate admits a starting radius with max |u| = 0.45 exactly and
    rejects the next float above it, of either sign."""
    def spike(umax):
        class SpikeSurface:
            base = sphere4

            def radius_field(self, c):
                u = np.zeros(sphere4.n_vertices)
                u[7] = sign * umax
                return u
        return SpikeSurface()

    assert center(spike(0.45)).iterations >= 1
    with pytest.raises(ValueError, match="too large for centering"):
        center(spike(np.nextafter(0.45, 1)))


def test_center_sign_diagnostic(sphere4):
    class StuckSurface:
        base = sphere4

        def radius_field(self, c):
            return sphere4.vertices @ np.array([0.05, 0.0, 0.0])

    res = center(StuckSurface())
    assert "sign_warning" in res.diagnostics


# --- stability ratio --------------------------------------------------------


def test_ratio_zero_radius(sphere4):
    g = exp_graph(sphere4, np.zeros(sphere4.n_vertices))
    out = stability_ratio(g, Integrand.constant(), 4.0)
    assert out.deficit < 1e-9
    assert out.distance < 1e-7
    assert np.isnan(out.ratio)


def test_ratio_finite_for_harmonic_graph(sphere4):
    g = exp_graph(sphere4, 1e-3 * harmonic(sphere4, 2, 0))
    out = stability_ratio(g, Integrand.constant(), 4.0)
    assert out.deficit > 0
    assert np.isfinite(out.ratio)
    assert np.abs(out.v_u).max() < 1e-8


def test_kernel_direction_annihilated(sphere5):
    # post-centering distance is K eps^2 with K ~ 3; at eps = 1e-4 it sits
    # far below the 1e-6 gate while the raw norm stays O(eps)
    eps = 1e-4
    c = np.array([0.6, -0.48, 0.64])
    u = eps * (sphere5.vertices @ c)
    raw = _distance_norm(sphere5, u, np.zeros(3), 4.0)
    assert raw > 0.1 * eps
    geom = radial_graph(sphere5, u)
    surf = SpectralGraphSurface.from_geometry(geom)
    res = center(surf)
    u_c = surf.radius_field(res.c)
    fr = kernel_frame(sphere5)
    v = kernel_component(fr, u_c, sphere5.weights)
    dist = _distance_norm(sphere5, u_c, v, 4.0)
    assert dist <= 1e-6


def test_distance_is_three_parameter_argmin(sphere4):
    """||u - phi_{v_u}|| matches a direct Nelder-Mead over translations."""
    u = 2e-3 * harmonic(sphere4, 2, 0) + 1e-4 * (sphere4.vertices @ np.ones(3))
    fr = kernel_frame(sphere4)
    v = kernel_component(fr, u, sphere4.weights)
    ours = _distance_norm(sphere4, u, v, 4.0)
    res = minimize(lambda c: _distance_norm(sphere4, u, c, 4.0), v,
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-16})
    assert ours - res.fun <= 1e-6


def test_scaling_fit_validation():
    with pytest.raises(ValueError):
        ScalingFit([1e-3, 2e-3, 4e-3, 8e-3], [1, 2, 3, 4])
    with pytest.raises(ValueError):
        ScalingFit([1e-3, 2e-3, 3e-3, 4e-3, 5e-3], [1, 2, 3, 4, 5])
    fit = ScalingFit(np.geomspace(1e-3, 1e-1, 5), 2 * np.geomspace(1e-3, 1e-1, 5))
    assert abs(fit.slope - 1.0) < 1e-12
    assert fit.r_squared > 1 - 1e-12


def test_perturbation_field_validation(sphere4):
    with pytest.raises(ValueError):
        perturbation_field(sphere4, ("nope", 1))
