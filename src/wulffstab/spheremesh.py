"""Icosphere meshes on the unit sphere.

The icosphere is the common discretization backbone: unit-sphere meshes are
used directly for round-sphere experiments, and their vertex directions drive
the normal parametrization of Wulff shapes.
"""

import numpy as np
from scipy import sparse

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
    """One 4-to-1 triangle subdivision with midpoints projected to the sphere."""
    edge_mid = {}
    verts = list(vertices)

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in edge_mid:
            m = vertices[i] + vertices[j]
            m /= np.linalg.norm(m)
            edge_mid[key] = len(verts)
            verts.append(m)
        return edge_mid[key]

    new_faces = np.empty((4 * len(faces), 3), dtype=np.int64)
    for k, (a, b, c) in enumerate(faces):
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces[4 * k:4 * k + 4] = [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
    return np.array(verts), new_faces


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


def vertex_adjacency(n_vertices, faces):
    """One-ring neighbor lists, sorted by index for reproducibility."""
    n = n_vertices
    pairs = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    key = np.sort(pairs[:, 0] * n + pairs[:, 1])
    i, j = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
    rows, cols = np.divmod(np.sort(np.concatenate((i * n + j, j * n + i))), n)
    bounds = np.searchsorted(rows, np.arange(n + 1)).tolist()
    return [cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def adjacency_matrix(mesh):
    """Sparse 0/1 vertex adjacency (CSR) of a mesh, cached on the mesh."""
    adj = getattr(mesh, "_adjacency", None)
    if adj is None:
        counts = np.array([len(nb) for nb in mesh.neighbors])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        cols = np.concatenate(mesh.neighbors)
        n = mesh.n_vertices
        adj = sparse.csr_matrix((np.ones(len(cols)), cols, indptr),
                                shape=(n, n))
        mesh._adjacency = adj
    return adj


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


class SphereMesh:
    """Icosphere discretization of the unit sphere.

    Attributes
    ----------
    vertices : (N, 3) array of unit vectors
    faces : (T, 3) int array, counter-clockwise seen from outside
    weights : (N,) barycentric vertex area weights, summing to the mesh area
    neighbors : list of one-ring index arrays
    frames : (e1, e2) pair of (N, 3) arrays, orthonormal tangent frames
    level : subdivision level
    """

    def __init__(self, vertices, faces, level):
        self.vertices = vertices
        self.faces = faces
        self.level = level
        self.weights = vertex_area_weights(vertices, faces)
        self.neighbors = vertex_adjacency(len(vertices), faces)
        self.frames = tangent_frames(vertices)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def normals(self):
        """Outward unit normals; for the unit sphere these are the vertices."""
        return self.vertices

    def edge_length(self):
        """Mean edge length, the resolution parameter h."""
        e = np.concatenate([self.faces[:, [0, 1]], self.faces[:, [1, 2]],
                            self.faces[:, [2, 0]]])
        d = np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)
        return float(d.mean())


def build_sphere_mesh(level):
    """Icosphere at the given subdivision level; 10*4^level + 2 vertices."""
    if not MIN_LEVEL <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
    v, f = _icosahedron()
    for _ in range(level):
        v, f = _subdivide(v, f)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return SphereMesh(v, f, level)
