"""Wulff shape meshes via the normal (Cahn-Hoffman) parametrization.

Vertices are x(nu) = grad Fbar(nu) over icosphere directions nu, so the
stored normal at x(nu) is nu itself and the gauge identity F*(x(nu)) = 1
holds by construction. The shape operator of the Wulff shape is the
inverse anisotropy matrix, which is available in closed form. The mesh
type, WulffMesh, lives in spheremesh so that build_sphere_mesh can return
one without an import cycle; this module also has a plain-text format.
"""

import hashlib

import numpy as np

from . import spheremesh
from .spheremesh import WulffMesh


def build_wulff(integrand, level):
    """Wulff shape mesh from icosphere directions at the given level.

    The vertices are grad Fbar over the unit icosphere directions, which
    are also the stored normals; no sphere mesh is built on the way.
    """
    if level < 2:
        raise ValueError("level must be at least 2")
    if not integrand.is_elliptic:
        raise ValueError(
            f"integrand is not elliptic (margin {integrand.ellipticity_margin:g})")
    directions, faces = spheremesh._icosphere(level)
    return WulffMesh(integrand.fbar_grad(directions), faces, directions, level,
                     integrand)


def integrand_hash(integrand):
    """Short header token for an integrand; 'none' for the unit sphere."""
    if integrand is None:
        return "none"
    return hashlib.sha256(integrand.descriptor.encode()).hexdigest()[:16]


def write_mesh_text(path, vertices, normals, faces, header):
    """Plain-text mesh format: header, `v x y z nx ny nz`, `f i j k`."""
    lines = [f"# {header}"]
    lines += ["v" + " %.17g" * 6 % tuple(row)
              for row in np.hstack((vertices, normals)).tolist()]
    lines += ["f %d %d %d" % tuple(f) for f in np.asarray(faces).tolist()]
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
