"""Batched mesh kernels against their per-vertex and per-ray definitions.

The reference implementations are the straightforward loops: sets for
adjacency and rings, one Moller-Trumbore call per ray and brute-force
point distances.
"""

import numpy as np
import pytest

from oracles import vertex_adjacency_reference
from wulffstab import build_sphere_mesh, build_wulff, spectral
from wulffstab.spheremesh import WulffMesh, vertex_adjacency
from wulffstab.surface import recover_radius_mesh, symmetric_point_distance


def faces_near_reference(mesh, k):
    """Faces with a corner within graph distance k of each vertex, by
    breadth-first search: one ascending list per vertex."""
    nbrs = vertex_adjacency_reference(mesh.n_vertices, mesh.faces)
    vert_faces = [[] for _ in range(mesh.n_vertices)]
    for fi, f in enumerate(mesh.faces):
        for v in f:
            vert_faces[v].append(fi)
    out = []
    for i in range(mesh.n_vertices):
        verts, frontier = {i}, {i}
        for _ in range(k):
            nxt = set()
            for v in frontier:
                nxt.update(nbrs[v].tolist())
            frontier = nxt - verts
            verts |= nxt
        out.append(sorted({fi for v in verts for fi in vert_faces[v]}))
    return out


def ray_triangles_reference(origin, direction, tri):
    e1 = tri[:, 1] - tri[:, 0]
    e2 = tri[:, 2] - tri[:, 0]
    h = np.cross(direction[None, :], e2)
    det = np.einsum("ni,ni->n", e1, h)
    mask = np.abs(det) > 1e-14
    inv = np.zeros_like(det)
    inv[mask] = 1.0 / det[mask]
    s = origin[None, :] - tri[:, 0]
    u = np.einsum("ni,ni->n", s, h) * inv
    qv = np.cross(s, e1)
    v = np.einsum("i,ni->n", direction, qv) * inv
    t = np.einsum("ni,ni->n", e2, qv) * inv
    eps = 1e-10
    hit = mask & (u >= -eps) & (v >= -eps) & (u + v <= 1 + eps)
    return t[hit]


def radius_reference(base, positions, translation):
    verts = positions - np.asarray(translation, dtype=float)
    near = faces_near_reference(base, 4)
    radius = np.full(base.n_vertices, np.nan)
    for i in range(base.n_vertices):
        t = ray_triangles_reference(base.vertices[i], base.normals[i],
                                    verts[base.faces[near[i]]])
        if t.size:
            radius[i] = t[np.argmin(np.abs(t))]
    return radius


def directed_max_min_reference(a, b):
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).max())


@pytest.fixture(scope="module")
def wulff3(ellipsoid_integrand):
    return build_wulff(ellipsoid_integrand, 3)


def test_vertex_adjacency_matches_sets():
    for level in (2, 4):
        mesh = build_sphere_mesh(level)
        got = vertex_adjacency(mesh.n_vertices, mesh.faces)
        want = vertex_adjacency_reference(mesh.n_vertices, mesh.faces)
        assert got.shape == (len(want), max(len(w) for w in want)) \
            == (len(want), 6)
        for row, w in zip(got, want):
            np.testing.assert_array_equal(row[:len(w)], w)
            assert (row[len(w):] == -1).all()
        assert mesh.adjacency is mesh.adjacency


@pytest.mark.parametrize("k", [1, 4])
def test_near_faces_match_k_ring_search(k):
    mesh = build_sphere_mesh(3)
    near = mesh.faces_near(np.arange(mesh.n_vertices), k)
    want = faces_near_reference(mesh, k)
    assert near.dtype == np.int32
    assert near.shape == (mesh.n_vertices, max(len(w) for w in want))
    for row, w in zip(near, want):
        np.testing.assert_array_equal(row[:len(w)], w)
        assert (row[len(w):] == -1).all()
    # any subset of nodes, in any order, gets the same rows
    nodes = np.random.default_rng(k).permutation(mesh.n_vertices)[:50]
    part = mesh.faces_near(nodes, k)
    np.testing.assert_array_equal(part, near[nodes][:, :part.shape[1]])
    assert (near[nodes][:, part.shape[1]:] == -1).all()


@pytest.fixture(scope="module")
def translated_wulff4(wulff4):
    rng = np.random.default_rng(3)
    u = 0.05 * spectral.sh_synthesize(rng.normal(size=9), wulff4.normals)
    return wulff4.vertices + u[:, None] * wulff4.normals


def test_batched_rays_match_per_ray_loop(wulff4, translated_wulff4,
                                        monkeypatch):
    """A small _RAY_BLOCK splits every cast and prune into many batches, and
    a small _RAY_ROWS every walk and ring search into blocks of rays. On
    the second surface (|c| = 0.15) some rays miss their one-ring and go on
    to the two-ring. The radii equal those of one block bit for bit."""
    import wulffstab.surface as surface
    cases = [(translated_wulff4, np.array([0.03, -0.02, 0.04])),
             random_graph(wulff4, 4, 0.1, 0.15, 0.15)]
    unblocked = [recover_radius_mesh(wulff4, *case)[0] for case in cases]
    rings = []
    faces_near = WulffMesh.faces_near

    def spy(mesh, nodes, k):
        rings.append(k)
        return faces_near(mesh, nodes, k)

    monkeypatch.setattr(WulffMesh, "faces_near", spy)
    monkeypatch.setattr(surface, "_RAY_BLOCK", 1 << 12)
    monkeypatch.setattr(surface, "_RAY_ROWS", 100)
    assert wulff4.n_vertices > 10 * (surface._RAY_BLOCK // 24)
    assert wulff4.n_vertices > 20 * surface._RAY_ROWS
    for case, want in zip(cases, unblocked):
        radius, ok = recover_radius_mesh(wulff4, *case)
        reference = radius_reference(wulff4, *case)
        assert ok and not np.isnan(reference).any()
        np.testing.assert_array_equal(radius, want)
        assert np.abs(radius - reference).max() <= 1e-15
    assert 2 in rings


def spy_cast_rays(monkeypatch):
    """Record the candidate table of every _cast_rays call."""
    import wulffstab.surface as surface
    calls = []
    cast_rays = surface._cast_rays

    def spy(origins, dirs, cand, *faces):
        calls.append(cand)
        return cast_rays(origins, dirs, cand, *faces)

    monkeypatch.setattr(surface, "_cast_rays", spy)
    return calls


def test_missed_rays_fall_back_to_all_faces(wulff4, translated_wulff4,
                                            monkeypatch):
    """Rays whose walk ends at a node with no faces near it in any ring are
    cast against every face, once, and read the same radius."""
    import wulffstab.surface as surface
    c = np.array([0.03, -0.02, 0.04])
    want, _ = recover_radius_mesh(wulff4, translated_wulff4, c)
    ends = surface._walk_to_lines(wulff4, translated_wulff4 - c,
                                  np.arange(wulff4.n_vertices))
    blocked = ends[:5]
    lost = np.flatnonzero(np.isin(ends, blocked))
    faces_near = WulffMesh.faces_near

    def no_faces(mesh, nodes, k):
        near = faces_near(mesh, nodes, k)
        near[np.isin(nodes, blocked)] = -1
        return near

    monkeypatch.setattr(WulffMesh, "faces_near", no_faces)
    calls = spy_cast_rays(monkeypatch)
    radius, ok = recover_radius_mesh(wulff4, translated_wulff4, c)
    assert ok
    np.testing.assert_array_equal(radius, want)
    # one cast per ring (the first for every ray), then one of every face
    assert len(calls) == surface._RINGS + 1
    assert calls[0].shape[0] == wulff4.n_vertices
    assert calls[0].dtype == np.int32
    for cand in calls[1:-1]:
        assert cand.shape[0] == len(lost) and (cand == -1).all()
    every = calls[-1]
    assert every.shape == (len(lost), len(wulff4.faces))
    assert (every == np.arange(len(wulff4.faces))).all()


def padded(rows):
    """Lists of face indices as an int32 table padded with -1."""
    out = np.full((len(rows), max(map(len, rows))), -1, dtype=np.int32)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def unpruned_radius(base, positions, translation, near):
    """The 4-ring search: every face of the 4-ring of each ray's own node
    (near, padded) is cast against, then every face for the rays that
    missed; no walk and no bounding-sphere test."""
    from wulffstab.surface import _cast_rays
    tri = (positions - translation)[base.faces]
    faces = [np.ascontiguousarray(a.T)
             for a in (tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])]
    o, d = base.vertices, base.normals
    radius = _cast_rays(o, d, near, *faces)
    miss = np.flatnonzero(np.isnan(radius))
    every = np.broadcast_to(np.arange(len(base.faces)),
                            (miss.size, len(base.faces)))
    radius[miss] = _cast_rays(o[miss], d[miss], every, *faces)
    return radius


@pytest.fixture(scope="module")
def sphere3():
    return build_sphere_mesh(3)


@pytest.fixture(scope="module")
def wulff5(ellipsoid_integrand):
    return build_wulff(ellipsoid_integrand, 5)


@pytest.fixture(scope="module")
def four_rings():
    """The reference 4-ring face table of a mesh, built once per mesh."""
    tables = {}

    def get(mesh):
        if id(mesh) not in tables:
            tables[id(mesh)] = padded(faces_near_reference(mesh, 4))
        return tables[id(mesh)]

    return get


def random_graph(base, seed, u_max, c_lo, c_hi):
    """Band-limited u with max |u| = u_max and a translation of norm in
    [c_lo, c_hi) drawn from the seed: (positions, c)."""
    rng = np.random.default_rng(seed)
    u = spectral.sh_synthesize(rng.uniform(-1, 1, 16), base.normals)
    u *= u_max / np.abs(u).max()
    direction = rng.standard_normal(3)
    c = direction * (rng.uniform(c_lo, c_hi) / np.linalg.norm(direction))
    return base.vertices + u[:, None] * base.normals, c


@pytest.mark.parametrize("seed", [None, *range(16)])
@pytest.mark.parametrize("which", ["sphere", "wulff"])
def test_pruned_rays_match_unpruned(which, seed, sphere3, wulff3, four_rings):
    """Band-limited |u| <= 0.1 and |c| <= 0.1. Even seeds and the seed-less
    case (u = 0) keep c = 0, where every ray passes through its own node, a
    corner of several faces (a tie in |t|)."""
    base = sphere3 if which == "sphere" else wulff3
    u = np.zeros(base.n_vertices)
    c = np.zeros(3)
    if seed is not None:
        rng = np.random.default_rng(seed)
        u = spectral.sh_synthesize(rng.uniform(-1, 1, 16), base.normals)
        u *= rng.uniform(0, 0.1) / np.abs(u).max()
        if seed % 2:
            direction = rng.standard_normal(3)
            c = direction * (rng.uniform(0, 0.1) / np.linalg.norm(direction))
    positions = base.vertices + u[:, None] * base.normals
    radius, _ = recover_radius_mesh(base, positions, c)
    np.testing.assert_array_equal(
        radius, unpruned_radius(base, positions, c, four_rings(base)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("which", ["sphere", "wulff"])
def test_far_translations_match_unpruned(which, seed, sphere3, wulff3,
                                         four_rings):
    """|c| in [0.1, 0.15], |u| = 0.1: the hits move a ring or more away
    from the rays' own nodes."""
    base = sphere3 if which == "sphere" else wulff3
    positions, c = random_graph(base, seed, 0.1, 0.1, 0.15)
    radius, ok = recover_radius_mesh(base, positions, c)
    assert ok
    np.testing.assert_array_equal(
        radius, unpruned_radius(base, positions, c, four_rings(base)))


def test_level5_walk_needs_no_all_faces_cast(wulff5, four_rings,
                                             monkeypatch):
    """On the level-5 Wulff mesh at |c| = 0.15 the one-ring misses hundreds
    of rays and the two-ring some; grown rings catch them all, and the
    radii match the 4-ring search with its all-faces fallback."""
    from wulffstab.surface import _RINGS
    positions, c = random_graph(wulff5, 0, 0.1, 0.15, 0.15)
    calls = spy_cast_rays(monkeypatch)
    radius, ok = recover_radius_mesh(wulff5, positions, c)
    assert ok
    assert calls[0].shape[0] == wulff5.n_vertices
    assert len(calls[1]) > 100 and len(calls[2]) > 0
    assert 2 < len(calls) <= _RINGS
    assert max(cand.shape[1] for cand in calls) < 30
    np.testing.assert_array_equal(
        radius, unpruned_radius(wulff5, positions, c, four_rings(wulff5)))


def test_cast_rays_padding_and_ties():
    """Padding never hits; a tie in |t| keeps the first candidate."""
    from wulffstab.surface import _cast_rays
    tri = np.array([[[-1, -1, 1], [2, -1, 1], [-1, 2, 1]],
                    [[-1, -1, -1], [2, -1, -1], [-1, 2, -1]]], dtype=float)
    p0 = tri[:, 0].T.copy()
    e1 = (tri[:, 1] - tri[:, 0]).T.copy()
    e2 = (tri[:, 2] - tri[:, 0]).T.copy()
    origins = np.zeros((3, 3))
    dirs = np.tile([0.0, 0.0, 1.0], (3, 1))
    cand = np.array([[0, 1], [1, 0], [0, -1]])
    np.testing.assert_array_equal(
        _cast_rays(origins, dirs, cand, p0, e1, e2), [1.0, -1.0, 1.0])
    # the padding index -1 must not stand for the last face
    t = _cast_rays(origins[:1], dirs[:1], np.array([[-1, -1]]), p0, e1, e2)
    assert np.isnan(t).all()


def test_true_miss_reports_not_ok(sphere4):
    """A surface that does not enclose the origins leaves rays without hits."""
    shifted = sphere4.vertices * 0.1
    radius, ok = recover_radius_mesh(sphere4, shifted, [5.0, 0.0, 0.0])
    assert not ok
    assert np.isnan(radius).any()


def test_tree_hausdorff_matches_brute_force():
    rng = np.random.default_rng(11)
    for n, m in ((1, 7), (50, 300), (400, 120)):
        a = rng.normal(size=(n, 3))
        b = rng.normal(size=(m, 3)) * 1.5 + 0.2
        want = max(directed_max_min_reference(a, b),
                   directed_max_min_reference(b, a))
        assert symmetric_point_distance(a, b) == want
