"""The grid nearest-site distances against scipy's cKDTree."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from wulffstab import build_sphere_mesh, build_wulff, radial_graph, spectral
from wulffstab.nearest import SiteGrid


def assert_matches_kdtree(sites, points):
    """Distances equal to cKDTree's bit for bit."""
    np.testing.assert_array_equal(SiteGrid(sites).distances(points),
                                  cKDTree(sites).query(points)[0])


@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_sphere_meshes(level):
    mesh = build_sphere_mesh(level)
    rng = np.random.default_rng(level)
    points = mesh.vertices * rng.uniform(0.95, 1.05, (mesh.n_vertices, 1))
    assert_matches_kdtree(mesh.vertices, points)
    assert_matches_kdtree(mesh.vertices[::3], mesh.vertices)


def test_wulff_graph_and_its_base(ellipsoid_integrand):
    base = build_wulff(ellipsoid_integrand, 4)
    u = 0.05 * spectral.real_sph_harm_matrix(base.normals, 2)[
        :, spectral.sh_index(2, 0)]
    graph = radial_graph(base, u).positions
    assert_matches_kdtree(base.vertices, graph)
    assert_matches_kdtree(graph[::3], base.vertices[::3])


def test_queries_off_the_sites_fall_back_to_brute_force(monkeypatch):
    """Queries outside the sites' box, near it and far from it, and one
    inside an empty stretch of the box, in small blocks."""
    import wulffstab.nearest as nearest
    sites = build_sphere_mesh(3).vertices
    rng = np.random.default_rng(7)
    points = np.concatenate((rng.normal(size=(200, 3)) * 40,
                             rng.normal(size=(200, 3)) * 1.3,
                             [[0.0, 0.0, 0.0]]))
    calls = {"search": [], "brute": 0}
    search, brute = nearest.SiteGrid._search, nearest.SiteGrid._brute

    def spy_search(self, pts):
        calls["search"].append(len(pts))
        return search(self, pts)

    def spy_brute(self, pts):
        calls["brute"] += len(pts)
        return brute(self, pts)

    monkeypatch.setattr(nearest.SiteGrid, "_search", spy_search)
    monkeypatch.setattr(nearest.SiteGrid, "_brute", spy_brute)
    monkeypatch.setattr(nearest, "_BRUTE_BLOCK", 1000)
    monkeypatch.setattr(nearest, "_QUERY_BLOCK", 64)
    assert_matches_kdtree(sites, points)
    assert max(calls["search"]) == 64 and sum(calls["search"]) == 401
    assert 201 <= calls["brute"] < 401


def test_duplicate_and_degenerate_sites():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(300, 3))
    clustered = np.repeat(rng.normal(size=(15, 3)), 20, axis=0)
    assert_matches_kdtree(clustered, points)
    assert_matches_kdtree(np.ones((1, 3)), points)
    flat = np.column_stack((rng.normal(size=(200, 2)), np.zeros(200)))
    assert_matches_kdtree(flat, points)
    line = np.outer(np.linspace(-1, 1, 50), [1.0, 2.0, 3.0])
    assert_matches_kdtree(line, points)


def test_rejects_empty_or_non_finite_input():
    with pytest.raises(ValueError, match="non-empty"):
        SiteGrid(np.empty((0, 3)))
    with pytest.raises(ValueError, match="finite"):
        SiteGrid([[0.0, np.nan, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        SiteGrid(np.zeros((2, 3))).distances([[np.inf, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\(N, 3\)"):
        SiteGrid(np.zeros((2, 3))).distances(np.zeros((6, 2)))
