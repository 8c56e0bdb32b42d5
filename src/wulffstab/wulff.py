"""Wulff shape meshes via the normal (Cahn-Hoffman) parametrization.

Vertices are x(nu) = grad Fbar(nu) over icosphere directions nu, so the
stored normal at x(nu) is nu itself and the gauge identity F*(x(nu)) = 1
holds by construction. The shape operator of the Wulff shape is the
inverse anisotropy matrix, which is available in closed form.
"""

import hashlib

import numpy as np

from . import spheremesh
from .spheremesh import tangent_frames, vertex_area_weights, vertex_adjacency


class WulffMesh:
    """Discretized Wulff shape with per-vertex normals and frames.

    Attributes mirror SphereMesh (vertices, faces, weights, neighbors,
    frames, level) plus the construction normals, the analytic shape
    operator in the frame, the mean curvature and a tubular reach estimate.
    """

    def __init__(self, vertices, faces, normals, level, integrand):
        self.vertices = vertices
        self.faces = faces
        self.normals = normals
        self.level = level
        self.integrand = integrand
        self.weights = vertex_area_weights(vertices, faces)
        self.neighbors = vertex_adjacency(len(vertices), faces)
        self.frames = tangent_frames(normals)
        # shape operator of W at x(nu) is A_F(nu)^{-1} in the tangent plane
        e1, e2 = self.frames
        A3 = integrand.anisotropy_ambient(normals)
        A = np.empty((len(vertices), 2, 2))
        A[:, 0, 0] = np.einsum("ni,nij,nj->n", e1, A3, e1)
        A[:, 0, 1] = A[:, 1, 0] = np.einsum("ni,nij,nj->n", e1, A3, e2)
        A[:, 1, 1] = np.einsum("ni,nij,nj->n", e2, A3, e2)
        self.anisotropy = A
        self.shape_operator = np.linalg.inv(A)
        self.mean_curvature = np.einsum("nii->n", self.shape_operator)
        kappa_max = np.linalg.eigvalsh(self.shape_operator)[:, 1].max()
        self.reach = 0.9 / kappa_max

    @property
    def n_vertices(self):
        return len(self.vertices)

    def edge_length(self):
        e = np.concatenate([self.faces[:, [0, 1]], self.faces[:, [1, 2]],
                            self.faces[:, [2, 0]]])
        d = np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)
        return float(d.mean())

    def area(self):
        return float(self.weights.sum())


def build_wulff(integrand, level):
    """Wulff shape mesh from icosphere directions at the given level."""
    if level < 2:
        raise ValueError("level must be at least 2")
    if not integrand.is_elliptic:
        raise ValueError(
            f"integrand is not elliptic (margin {integrand.ellipticity_margin:g})")
    base = spheremesh.build_sphere_mesh(level)
    vertices = integrand.fbar_grad(base.vertices)
    return WulffMesh(vertices, base.faces, base.vertices.copy(), level, integrand)


def integrand_hash(integrand):
    return hashlib.sha256(integrand.descriptor.encode()).hexdigest()[:16]


def write_mesh_text(path, vertices, normals, faces, header):
    """Plain-text mesh format: header, `v x y z nx ny nz`, `f i j k`."""
    lines = [f"# {header}"]
    for v, n in zip(vertices, normals):
        lines.append("v " + " ".join(f"{c:.17g}" for c in (*v, *n)))
    for f in faces:
        lines.append(f"f {f[0]} {f[1]} {f[2]}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_mesh(path, mesh):
    write_mesh_text(path, mesh.vertices, mesh.normals, mesh.faces,
                    f"wulffstab mesh level={mesh.level} "
                    f"integrand={integrand_hash(mesh.integrand)}")


def load_mesh(path):
    """Read the text format back as (vertices, normals, faces, header)."""
    verts, norms, faces = [], [], []
    header = ""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                header = line
            elif line.startswith("v "):
                vals = [float(t) for t in line.split()[1:]]
                verts.append(vals[:3])
                norms.append(vals[3:6])
            elif line.startswith("f "):
                faces.append([int(t) for t in line.split()[1:]])
    return (np.array(verts), np.array(norms),
            np.array(faces, dtype=np.int64), header)
