"""Wulff shape meshes via the normal (Cahn-Hoffman) parametrization.

Vertices are x(nu) = grad Fbar(nu) over icosphere directions nu, so the
stored normal at x(nu) is nu itself and the gauge identity F*(x(nu)) = 1
holds by construction. The shape operator of the Wulff shape is the
inverse anisotropy matrix, which is available in closed form. The mesh
type, WulffMesh, lives in spheremesh so that build_sphere_mesh can return
one without an import cycle; every mesh of a level shares that level's
direction sphere (`spheremesh.direction_sphere`). This module also writes
and reads the plain-text mesh format of the `curvature` command's geometry
dump.
"""

import numpy as np

from . import spheremesh
from .spheremesh import WulffMesh


def build_wulff(integrand, level):
    """Wulff shape mesh over the level's direction sphere.

    The vertices are grad Fbar over the unit icosphere directions, which
    are also the stored normals; no sphere mesh is built on the way.
    """
    if not integrand.is_elliptic:
        raise ValueError(
            f"integrand is not elliptic (margin {integrand.ellipticity_margin:g})")
    return WulffMesh(spheremesh.direction_sphere(level), integrand)


def write_mesh_text(path, vertices, normals, faces, header):
    """Plain-text mesh format: header, `v x y z nx ny nz`, `f i j k`."""
    lines = [f"# {header}"]
    lines += ["v" + " %.17g" * 6 % tuple(row)
              for row in np.hstack((vertices, normals)).tolist()]
    lines += ["f %d %d %d" % tuple(f) for f in np.asarray(faces).tolist()]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
