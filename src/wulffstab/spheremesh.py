"""The mesh type, icospheres, and tangent-plane tools on S^2.

WulffMesh is the one mesh type. The icosphere built here is the unit
sphere, the Wulff shape of F = 1, with integrand=None, which selects the
spectral round-sphere paths; its vertex directions also parametrize
every other Wulff shape (see wulff.py).
"""

import numpy as np

MIN_LEVEL = 2
MAX_LEVEL = 8


def _icosahedron():
    """Vertices and faces of a regular icosahedron inscribed in the unit sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    v /= np.linalg.norm(v[0])
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return v, f


def _subdivide(vertices, faces):
    """One 4-to-1 triangle subdivision with midpoints projected to the sphere.

    Midpoints are numbered in the order their edges first appear in the
    per-face edge list (ab, bc, ca).
    """
    n = len(vertices)
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = edges.min(axis=1) * n + edges.max(axis=1)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    ends = edges[first[order]]
    m = vertices[ends[:, 0]] + vertices[ends[:, 1]]
    # rounds like np.linalg.norm of one row, so meshes stay bit-reproducible
    m = m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
    a, b, c = faces.T
    new_faces = np.stack((a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca),
                         axis=1).reshape(-1, 3)
    return np.concatenate((vertices, m)), new_faces


def triangle_areas(vertices, faces):
    """Flat areas of all triangles."""
    p = vertices[faces]
    return 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)


def vertex_area_weights(vertices, faces):
    """Barycentric vertex area weights (one third of each incident triangle)."""
    areas = triangle_areas(vertices, faces)
    w = np.zeros(len(vertices))
    np.add.at(w, faces.ravel(), np.repeat(areas / 3.0, 3))
    return w


def tangent_frames(normals):
    """Deterministic orthonormal tangent frame (e1, e2) per unit normal.

    The frame satisfies e1 x e2 = normal, so cross products of pushed-forward
    frames orient outward.
    """
    n = normals
    # pick the ambient axis least aligned with each normal as the seed
    seed = np.zeros_like(n)
    idx = np.argmin(np.abs(n), axis=1)
    seed[np.arange(len(n)), idx] = 1.0
    e1 = seed - n * np.sum(seed * n, axis=1, keepdims=True)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(n, e1)
    return e1, e2


def sphere_newton(nu, system, n_steps, max_step):
    """Damped Newton iteration for unit vectors nu (N, 3) on S^2.

    system(nu, e1, e2) returns the (N, 2, 2) Newton matrices and (N, 2)
    right-hand sides in the tangent frames of nu, or None to stop early.
    Each step solves the 2x2 systems, caps the step length at max_step,
    moves along the frame and renormalizes. Returns the final directions.
    """
    for _ in range(n_steps):
        e1, e2 = tangent_frames(nu)
        eqs = system(nu, e1, e2)
        if eqs is None:
            break
        step = np.linalg.solve(eqs[0], eqs[1][..., None])[..., 0]
        slen = np.linalg.norm(step, axis=1, keepdims=True)
        step = step * np.where(slen > max_step,
                               max_step / np.maximum(slen, 1e-300), 1.0)
        nu = nu + np.einsum("nik,nk->ni", np.stack((e1, e2), axis=2), step)
        nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    return nu


class WulffMesh:
    """Triangulated Wulff shape with per-vertex normals, frames and curvature.

    The unit sphere is the Wulff shape of F = 1 and is stored with
    integrand=None: its normals are its vertices and its curvature is in
    closed form (A = S = Id, H = 2). Any other Wulff shape carries its
    integrand, and its shape operator at x(nu) is A_F(nu)^{-1}.

    Attributes
    ----------
    vertices : (N, 3) array
    faces : (T, 3) int array, counter-clockwise seen from outside
    normals : (N, 3) outward unit normals (the construction directions)
    level : subdivision level
    integrand : the Integrand whose Wulff shape this is, or None for the
        unit sphere
    weights : (N,) barycentric vertex area weights, summing to the mesh area
    direction_weights : (N,) the same weights of the icosphere of the
        normals, the quadrature of harmonic analysis over the directions
        (`spectral.mesh_basis`); the array weights itself on the sphere
    frames : (e1, e2) pair of (N, 3) orthonormal tangent frames of the normals
    anisotropy, shape_operator : (N, 2, 2) A_F and its inverse in the frames
    mean_curvature : (N,) trace of the shape operator
    reach : tubular reach estimate, 0.9 / max principal curvature

    The arrays are read-only, so values derived from them and kept by
    `cached` (harmonic bases, derivative operators) cannot go stale.
    """

    def __init__(self, vertices, faces, normals, level, integrand=None):
        self.vertices = vertices
        self.faces = faces
        self.normals = normals
        self.level = level
        self.integrand = integrand
        self.weights = vertex_area_weights(vertices, faces)
        self.frames = tangent_frames(normals)
        self._cache = {}
        n = len(vertices)
        if integrand is None:
            self.direction_weights = self.weights
            self.anisotropy = self.shape_operator = np.broadcast_to(
                np.eye(2), (n, 2, 2))
            self.mean_curvature = np.full(n, 2.0)
            self.reach = 0.9
        else:
            self.direction_weights = vertex_area_weights(normals, faces)
            self.anisotropy = integrand.anisotropy_form(normals, *self.frames)
            self.shape_operator = np.linalg.inv(self.anisotropy)
            self.mean_curvature = np.einsum("nii->n", self.shape_operator)
            kappa_max = np.linalg.eigvalsh(self.shape_operator)[:, 1].max()
            self.reach = 0.9 / kappa_max
        for a in (vertices, faces, normals, self.weights,
                  self.direction_weights, *self.frames,
                  self.anisotropy, self.shape_operator, self.mean_curvature):
            a.flags.writeable = False

    def cached(self, key, build):
        """build(self), computed on the first call for key and kept.

        The arrays it returns, directly, inside a tuple or as attributes of
        the returned object, are made read-only, since every later caller
        shares them.
        """
        if key not in self._cache:
            value = build(self)
            _freeze(value)
            self._cache[key] = value
        return self._cache[key]

    @property
    def n_vertices(self):
        return len(self.vertices)

    def edge_length(self):
        """Mean edge length, the resolution parameter h."""
        e = np.concatenate([self.faces[:, [0, 1]], self.faces[:, [1, 2]],
                            self.faces[:, [2, 0]]])
        d = np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)
        return float(d.mean())

    def area(self):
        return float(self.weights.sum())


def _freeze(value):
    """Make the arrays of a cached value read-only (see WulffMesh.cached)."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            if isinstance(item, np.ndarray):
                item.flags.writeable = False


def _icosphere(level):
    """Unit vertices and faces of the icosphere at the given level."""
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
    v, f = _icosahedron()
    for _ in range(level):
        v, f = _subdivide(v, f)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, f


def build_sphere_mesh(level):
    """Icosphere at the given subdivision level; 10*4^level + 2 vertices."""
    v, f = _icosphere(level)
    return WulffMesh(v, f, v, level)
