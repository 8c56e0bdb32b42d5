"""Batched kernels against their per-point definitions.

The per-node Newton of `recover_radius_mesh` is checked by projecting its
points back onto the Wulff shape one node at a time (`project_to_wulff`),
and the grid Hausdorff search against brute-force point distances.
"""

import numpy as np
import pytest

from wulffstab import build_sphere_mesh, build_wulff, spectral
from wulffstab.surface import (project_to_wulff, recover_radius_mesh,
                               recover_radius_spectral,
                               symmetric_point_distance)


def directed_max_min_reference(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).max())


@pytest.fixture(scope="module")
def wulff3(ellipsoid_integrand):
    return build_wulff(ellipsoid_integrand, 3)


def random_graph(base, seed, u_max, c_norm):
    """Coefficients at `graph_band` of a band-limited u with max |u| = u_max
    over base, and a translation of norm c_norm, drawn from the seed."""
    rng = np.random.default_rng(seed)
    u = spectral.sh_synthesize(rng.uniform(-1, 1, 16), base.normals)
    u *= u_max / np.abs(u).max()
    direction = rng.standard_normal(3)
    c = direction * (c_norm / np.linalg.norm(direction))
    band = spectral.graph_band(base.n_vertices)
    return spectral.sh_analyze(base, u, band), c


@pytest.mark.parametrize("level", [3, 4, 5])
def test_newton_radius_lies_on_the_translated_graph(level,
                                                    ellipsoid_integrand):
    """Each recovered point x(nu_i) + s_i nu_i, translated back by c, is a
    point x(eta) + t eta of the graph: projected onto the Wulff shape on
    its own, its foot direction eta carries the offset t = u(eta)."""
    base = build_wulff(ellipsoid_integrand, level)
    for seed, c_norm in ((level, 0.02), (10 + level, 0.08)):
        coeffs, c = random_graph(base, seed, 0.1, c_norm)
        radius, ok = recover_radius_mesh(base, coeffs, c)
        assert ok
        points = base.vertices + radius[:, None] * base.normals + c
        _, eta, t, converged = project_to_wulff(base, points, base.normals)
        assert converged.all()
        assert np.abs(t - spectral.sh_synthesize(coeffs, eta)).max() <= 1e-12


def test_blocked_newton_matches_one_block(wulff4, monkeypatch):
    """Nodes are solved on their own, so blocks of 100 give the radii of
    one block bit for bit."""
    import wulffstab.surface as surface
    coeffs, c = random_graph(wulff4, 4, 0.1, 0.15)
    want, ok = recover_radius_mesh(wulff4, coeffs, c)
    assert ok
    monkeypatch.setattr(surface, "_NEWTON_ROWS", 100)
    assert wulff4.n_vertices > 20 * surface._NEWTON_ROWS
    radius, ok = recover_radius_mesh(wulff4, coeffs, c)
    assert ok
    np.testing.assert_array_equal(radius, want)


def line_radius_reference(base, coeffs, c, offset, lo=-0.3, hi=0.3):
    """The unpruned search: bisection in s over the whole segment
    [lo, hi] of every node's normal line, with no starting guess.

    offset(points) gives (eta, t, converged): the direction and signed
    normal offset of each point over the base. The root is that of
    g(s) = t - u(eta) at the point x(nu_i) + s nu_i + c, which lies on the
    graph {x + u nu} translated by c; g must change sign over the segment.
    """
    lo, hi = np.full((2, base.n_vertices), [[lo], [hi]])

    def g(s):
        points = base.vertices + s[:, None] * base.normals + c
        eta, t, converged = offset(points)
        assert converged.all()
        return t - spectral.sh_synthesize(coeffs, eta)

    assert (g(lo) < 0).all() and (g(hi) > 0).all()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = g(mid) > 0
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def sphere3():
    return build_sphere_mesh(3)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("which", ["sphere", "wulff"])
def test_far_translations_match_unpruned(which, seed, sphere3, wulff3):
    """|c| in [0.1, 0.15], |u| = 0.1: the radius field of the translated
    graph, from the fixed point of `recover_radius_spectral` over the sphere
    and from the Newton of `recover_radius_mesh` over the Wulff mesh, is
    the root that a search of the whole normal line finds."""
    base = sphere3 if which == "sphere" else wulff3
    coeffs, c = random_graph(base, seed, 0.1, 0.1 + 0.01 * seed)
    if which == "sphere":
        radius, ok = recover_radius_spectral(base, coeffs, "radial", c)

        def offset(points):
            r = np.linalg.norm(points, axis=1)
            return points / r[:, None], r - 1.0, np.ones(len(r), bool)
    else:
        radius, ok = recover_radius_mesh(base, coeffs, c)

        def offset(points):
            return project_to_wulff(base, points, base.normals)[1:]
    assert ok
    want = line_radius_reference(base, coeffs, c, offset)
    assert np.abs(radius - want).max() <= 1e-12


def test_true_miss_reports_not_ok(wulff3):
    """Translated past the end of its long axis, the graph misses most
    normal lines of the base, and Newton finds no point on them."""
    coeffs, _ = random_graph(wulff3, 0, 0.05, 0.0)
    radius, ok = recover_radius_mesh(wulff3, coeffs, [0.0, 0.0, 2.5])
    assert not ok
    assert len(radius) == wulff3.n_vertices


def test_tree_hausdorff_matches_brute_force():
    rng = np.random.default_rng(11)
    for n, m in ((1, 7), (50, 300), (400, 120)):
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(m, 3)) * 1.5 + 0.2
        want = max(directed_max_min_reference(a, b),
                   directed_max_min_reference(b, a))
        assert symmetric_point_distance(a, b) == want
