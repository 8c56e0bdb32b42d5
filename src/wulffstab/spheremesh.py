"""The mesh type, direction spheres, icospheres, tangent-plane tools on
S^2, and the per-vertex kernels every layer shares: row dot products,
norms and cross products of 3-vectors (`rowdot`, `rownorm`, `rowcross`)
and closed forms of 2x2 forms (`sym2_eigvalsh`, `sym2_inv`,
`sym2_product`, `sym2_congruence`), in place of einsum, np.linalg.norm,
np.cross, batched LAPACK calls and batched matrix products.

WulffMesh is the one mesh type. Every mesh of a level is built over that
level's DirectionSphere, the icosphere of unit directions with its area
weights, tangent frames and the harmonic basis of one band, built once per
process (`direction_sphere`). The unit sphere is the Wulff shape of F = 1,
with integrand=None, which selects the spectral round-sphere paths; its
vertices are the directions, which also parametrize every other Wulff
shape (see wulff.py).
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
    return 0.5 * rownorm(rowcross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))


def vertex_area_weights(vertices, faces):
    """Barycentric vertex area weights (one third of each incident triangle)."""
    areas = triangle_areas(vertices, faces)
    w = np.zeros(len(vertices))
    np.add.at(w, faces.ravel(), np.repeat(areas / 3.0, 3))
    return w


class EllipticityError(ValueError):
    """The anisotropy matrix failed to be positive definite."""


def rowdot(a, b):
    """a . b along the last axis of (..., 3) arrays, broadcast over the
    leading axes: the per-vertex dot product of every layer."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def rownorm(a):
    """|a| along the last axis of (..., 3) arrays, sqrt(rowdot(a, a)): the
    sum np.linalg.norm(a, axis=-1) takes in the same order, so the same
    bits, without its (..., 3) temporary."""
    return np.sqrt(rowdot(a, a))


def rowcross(a, b):
    """a x b along the last axis of (..., 3) arrays, broadcast over the
    leading axes, each component the one product difference np.cross
    takes, so the same bits."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def sym2_eigvalsh(A):
    """Eigenvalues (lo, hi) of symmetric (N, 2, 2) forms [[a, b], [b, c]],
    in closed form. The one of larger magnitude is m + sign(m) r, with
    m = (a + c)/2 and r = hypot((a - c)/2, b); the other is the
    determinant divided by it, so a nearly singular form keeps its small
    eigenvalue to the rounding of ac - b^2, with no cancellation in m - r.
    lo > 0 exactly where a > 0 and ac - b^2 > 0."""
    a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    m = 0.5 * (a + c)
    r = np.hypot(0.5 * (a - c), b)
    up = m >= 0
    big = np.where(up, m + r, m - r)
    # det / big; a zero form (big = 0) has both eigenvalues 0
    other = np.divide(a * c - b * b, big, out=np.zeros_like(big),
                      where=big != 0)
    return np.where(up, other, big), np.where(up, big, other)


def sym2_inv(A):
    """Inverses of symmetric (N, 2, 2) forms of nonzero determinant,
    [[c, -b], [-b, a]] / (ac - b^2), exactly symmetric."""
    a, b, c = A[:, 0, 0], A[:, 0, 1], A[:, 1, 1]
    det = a * c - b * b
    out = np.empty_like(A)
    out[:, 0, 0] = c / det
    out[:, 0, 1] = out[:, 1, 0] = -b / det
    out[:, 1, 1] = a / det
    return out


def _sym2_rows(S, H):
    """Entries m11, m12, m21, m22 of the products S H of symmetric
    (N, 2, 2) forms, from their (0, 1) entries."""
    a, b, c = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
    p, q, r = H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]
    return a * p + b * q, a * q + b * r, b * p + c * q, b * q + c * r


def sym2_product(S, H):
    """The products S H of symmetric (N, 2, 2) forms, written out
    entrywise from the (0, 1) entries."""
    return np.stack(_sym2_rows(S, H), axis=1).reshape(-1, 2, 2)


def sym2_congruence(S, H):
    """The congruences S H S of symmetric (N, 2, 2) forms H by symmetric
    S, written out entrywise from the (0, 1) entries, exactly symmetric."""
    a, b, c = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
    m11, m12, m21, m22 = _sym2_rows(S, H)       # the rows of S H
    off = b * m11 + c * m12
    return np.stack((a * m11 + b * m12, off, off, b * m21 + c * m22),
                    axis=1).reshape(-1, 2, 2)


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
    e1 = seed - n * rowdot(seed, n)[:, None]
    e1 /= rownorm(e1)[:, None]
    e2 = rowcross(n, e1)
    return e1, e2


def sphere_newton(nu, system, n_steps, max_step):
    """Damped Newton iteration for unit vectors nu (N, 3) on S^2.

    system(nu, e1, e2) returns the (N, 2, 2) Newton matrices and (N, 2)
    right-hand sides in the tangent frames of nu, or None to stop early.
    Each step solves the 2x2 systems by Cramer's rule (a singular one raises
    LinAlgError, as a batched solve does), caps the step length at
    max_step, moves along the frame and renormalizes. Returns the final
    directions.
    """
    for _ in range(n_steps):
        e1, e2 = tangent_frames(nu)
        eqs = system(nu, e1, e2)
        if eqs is None:
            break
        (a, b), (c, d) = eqs[0][:, 0].T, eqs[0][:, 1].T
        r1, r2 = eqs[1].T
        det = a * d - b * c
        if not det.all():
            raise np.linalg.LinAlgError("Singular matrix")
        s1, s2 = (d * r1 - b * r2) / det, (a * r2 - c * r1) / det
        slen = np.hypot(s1, s2)
        cap = np.where(slen > max_step, max_step / np.maximum(slen, 1e-300),
                       1.0)
        nu = nu + (cap * s1)[:, None] * e1 + (cap * s2)[:, None] * e2
        nu /= rownorm(nu)[:, None]
    return nu


class DirectionSphere:
    """The icosphere of one level: the unit directions every sphere and Wulff
    mesh of that level is built over, shared through `direction_sphere`.

    Attributes
    ----------
    level : subdivision level
    vertices : (N, 3) unit directions
    faces : (T, 3) int array, counter-clockwise seen from outside
    weights : (N,) barycentric vertex area weights, the quadrature of
        harmonic analysis over the directions (`spectral.mesh_basis`)
    frames : (e1, e2) pair of (N, 3) orthonormal tangent frames

    The arrays are read-only. One slot, `cached`, keeps the harmonic basis
    of the most recent band.
    """

    def __init__(self, level):
        if not MIN_LEVEL <= level <= MAX_LEVEL:
            raise ValueError(
                f"level must be in [{MIN_LEVEL}, {MAX_LEVEL}], got {level}")
        v, f = _icosahedron()
        for _ in range(level):
            v, f = _subdivide(v, f)
        v /= rownorm(v)[:, None]
        self.level, self.vertices, self.faces = level, v, f
        self.weights = vertex_area_weights(self.vertices, self.faces)
        self.frames = tangent_frames(self.vertices)
        self._slot = (None, None)
        _freeze((self.vertices, self.faces, self.weights, *self.frames))

    def cached(self, key, build):
        """build(self), kept until a call with another key replaces it.

        The arrays it returns are made read-only (see WulffMesh.cached).
        """
        if self._slot[0] != key:
            self._slot = (None, None)   # free the old value before the build
            value = build(self)
            _freeze(value)
            self._slot = (key, value)
        return self._slot[1]


_SPHERES = {}  # level -> DirectionSphere, built on first use and kept


def direction_sphere(level):
    """The DirectionSphere of the given level, built on first use."""
    if level not in _SPHERES:
        _SPHERES[level] = DirectionSphere(level)
    return _SPHERES[level]


class WulffMesh:
    """Triangulated Wulff shape with per-vertex normals, frames and curvature.

    WulffMesh(directions, integrand) places a vertex at x(nu) = grad Fbar(nu)
    over each direction nu of the DirectionSphere `directions`, whose
    arrays the mesh shares. The unit sphere is the Wulff shape of F = 1 and
    is stored with integrand=None: its vertices are its directions and its
    curvature is in closed form (A = S = Id, H = 2). Any other Wulff shape
    carries its integrand, and its shape operator at x(nu) is A_F(nu)^{-1}.

    Attributes
    ----------
    vertices : (N, 3) array
    directions : the DirectionSphere of the construction directions
    faces : (T, 3) int array, the faces of the directions
    normals : (N, 3) outward unit normals, the directions' vertices
    level : subdivision level
    integrand : the Integrand whose Wulff shape this is, or None for the
        unit sphere
    weights : (N,) barycentric vertex area weights, summing to the mesh area
        (the directions' own weights on the sphere)
    frames : (e1, e2) the directions' tangent frames
    anisotropy, shape_operator : (N, 2, 2) A_F and its inverse in the frames
    mean_curvature : (N,) trace of the shape operator
    reach : tubular reach estimate, 0.9 / max principal curvature, which is
        0.9 times the smallest eigenvalue of A_F

    A Wulff mesh whose A_F is not positive definite at one of its own
    directions is refused with EllipticityError naming the worst one: the
    integrand's ellipticity margin is sampled on the level-4 directions,
    and finer levels have directions between them.

    The arrays are read-only, so values derived from them and kept by
    `cached` (derivative operators, the kernel frame) or by the directions
    (harmonic bases) cannot go stale.
    """

    def __init__(self, directions, integrand=None):
        self.directions = directions
        self.faces = directions.faces
        self.normals = normals = directions.vertices
        self.level = directions.level
        self.integrand = integrand
        self.frames = directions.frames
        self._cache = {}
        n = len(normals)
        if integrand is None:
            self.vertices = normals
            self.weights = directions.weights
            self.anisotropy = self.shape_operator = np.broadcast_to(
                np.eye(2), (n, 2, 2))
            self.mean_curvature = np.full(n, 2.0)
            self.reach = 0.9
        else:
            self.vertices = integrand.fbar_grad(normals)
            self.weights = vertex_area_weights(self.vertices, self.faces)
            self.anisotropy = A = integrand.anisotropy_form(normals,
                                                            *self.frames)
            # lo has the sign of det A where a > 0, so lo > 0 everywhere
            # also keeps the inverse off a zero determinant
            lo = sym2_eigvalsh(A)[0]
            worst = int(np.argmin(lo))
            if not lo[worst] > 0:
                raise EllipticityError(
                    f"A_F not positive definite at the level-{self.level} "
                    f"direction nu = {normals[worst]} (smallest eigenvalue "
                    f"{lo[worst]:.3g})")
            self.shape_operator = S = sym2_inv(A)
            self.mean_curvature = S[:, 0, 0] + S[:, 1, 1]
            # the largest principal curvature is 1 / lo
            self.reach = 0.9 * float(lo[worst])
        _freeze((self.vertices, self.weights, self.anisotropy,
                 self.shape_operator, self.mean_curvature))

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
        d = rownorm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]])
        return float(d.mean())

    def area(self):
        return float(self.weights.sum())


def _freeze(value):
    """Make an array, the arrays in a tuple or an object's array attributes
    read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            if isinstance(item, np.ndarray):
                item.flags.writeable = False


def build_sphere_mesh(level):
    """Icosphere at the given subdivision level; 10*4^level + 2 vertices."""
    return WulffMesh(direction_sphere(level))
