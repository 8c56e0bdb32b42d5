import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import write_mesh_text_reference
from wulffstab import EllipticityError, Integrand, build_wulff, gauge
from wulffstab.wulff import build_wulff, load_mesh, write_mesh_text


def test_unit_sphere_wulff():
    W = build_wulff(Integrand.constant(), 3)
    assert np.abs(np.linalg.norm(W.vertices, axis=1) - 1).max() < 1e-12
    assert_allclose(W.normals, W.vertices, atol=1e-14)
    assert_allclose(W.shape_operator, np.tile(np.eye(2), (W.n_vertices, 1, 1)),
                    atol=1e-12)
    assert_allclose(W.mean_curvature, 2.0, atol=1e-12)


def test_sphere_mesh_is_the_constant_wulff_mesh(sphere4):
    """The icosphere carries the closed-form curvature of the F = 1 Wulff
    shape, which build_wulff computes from the integrand's anisotropy."""
    W = build_wulff(Integrand.constant(), 4)
    assert sphere4.integrand is None and W.integrand is not None
    assert_allclose(sphere4.normals, sphere4.vertices, atol=0)
    for name in ("anisotropy", "shape_operator", "mean_curvature"):
        assert_allclose(getattr(sphere4, name), getattr(W, name),
                        rtol=0, atol=1e-12)
    assert abs(sphere4.reach - W.reach) <= 1e-12


def test_ellipsoid_closed_form(ellipsoid_integrand):
    W = build_wulff(ellipsoid_integrand, 4)
    Minv = np.diag([1.0, 1.0, 0.25])
    resid = np.abs(np.einsum("ni,ij,nj->n", W.vertices, Minv, W.vertices) - 1)
    assert resid.max() < 1e-10


def test_vertex_growth_and_area_order(ellipsoid_integrand):
    counts = []
    areas = []
    hs = []
    for level in (3, 4, 5):
        W = build_wulff(ellipsoid_integrand, level)
        counts.append(W.n_vertices)
        areas.append(W.area())
        hs.append(W.edge_length())
    assert counts[1] - 2 == 4 * (counts[0] - 2)
    assert counts[2] - 2 == 4 * (counts[1] - 2)
    order = np.log((areas[1] - areas[0]) / (areas[2] - areas[1])) \
        / np.log(hs[0] / hs[1])
    # second-order quadrature; the observed exponent approaches 2 from below
    assert order >= 1.9


def test_gauge_consistency_at_vertices(wulff4, ellipsoid_integrand):
    h = wulff4.edge_length()
    vals, _ = gauge(ellipsoid_integrand, wulff4.vertices[::53])
    assert np.abs(vals - 1.0).max() <= 10 * h ** 2


def test_build_rejects_nonelliptic():
    bad = Integrand.fourier_perturbed(1.0, 1.2, (2, 0))
    assert bad.ellipticity_margin <= 0
    with pytest.raises(ValueError):
        build_wulff(bad, 3)


def test_reach_positive(wulff4):
    assert 0 < wulff4.reach < 1


def test_mesh_text_roundtrip(tmp_path, wulff4):
    path = tmp_path / "w.mesh"
    write_mesh_text(path, wulff4.vertices, wulff4.normals, wulff4.faces,
                    f"wulff level={wulff4.level}")
    verts, norms, faces, header = load_mesh(path)
    assert_allclose(verts, wulff4.vertices, atol=0)
    assert_allclose(norms, wulff4.normals, atol=0)
    assert (faces == wulff4.faces).all()
    assert header == f"# wulff level={wulff4.level}"


def test_sphere_mesh_text_roundtrip(tmp_path, sphere4):
    path = tmp_path / "s.mesh"
    write_mesh_text(path, sphere4.vertices, sphere4.normals, sphere4.faces,
                    "sphere level=4")
    verts, norms, faces, header = load_mesh(path)
    np.testing.assert_array_equal(verts, sphere4.vertices)
    np.testing.assert_array_equal(norms, sphere4.normals)
    np.testing.assert_array_equal(faces, sphere4.faces)
    assert header == "# sphere level=4"


def test_mesh_text_matches_the_line_at_a_time_writer(tmp_path, wulff4):
    """Whole-table formatting writes the bytes of one line per row, nan,
    inf and signed zeros included."""
    verts = wulff4.vertices.copy()
    verts[:4, 0] = np.nan, np.inf, -np.inf, -0.0
    for name, writer in (("a", write_mesh_text),
                         ("b", write_mesh_text_reference)):
        writer(tmp_path / name, verts, wulff4.normals, wulff4.faces,
               "wulff level=4")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_build_wulff_matches_the_sphere_directions(ellipsoid_integrand):
    """The Wulff mesh is grad Fbar over the icosphere's own arrays."""
    from wulffstab import build_sphere_mesh
    sphere = build_sphere_mesh(3)
    W = build_wulff(ellipsoid_integrand, 3)
    np.testing.assert_array_equal(W.normals, sphere.vertices)
    np.testing.assert_array_equal(W.faces, sphere.faces)
    np.testing.assert_array_equal(
        W.vertices, ellipsoid_integrand.fbar_grad(sphere.vertices))


def test_mesh_refuses_a_direction_where_A_F_is_not_elliptic():
    """fourier:1,0.318,3,2 passes its sampled margin (+1.7e-4 on the level-4
    directions), but A_F has smallest eigenvalue -7.07e-4 at directions of
    levels 5 and up: the level-4 mesh builds, the level-5 one is refused,
    naming the direction and the eigenvalue."""
    integ = Integrand.fourier_perturbed(1.0, 0.318, (3, 2))
    assert 1.6e-4 < integ.ellipticity_margin < 1.8e-4
    mesh = build_wulff(integ, 4)
    assert mesh.reach == pytest.approx(0.9 * integ.ellipticity_margin,
                                       rel=1e-12)
    for level in (5, 6):
        with pytest.raises(EllipticityError,
                           match=rf"level-{level} direction nu = \[-0\.5749"
                                 r".* \(smallest eigenvalue -0\.000707\)"):
            build_wulff(integ, level)

