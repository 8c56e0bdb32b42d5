"""Experiment runner: subcommand dispatch, CSV/dat emission, SVG plots.

Each run_* returns (header, rows, checks); main alone writes the table and
sets the exit code from the checks. Runs are deterministic for a fixed
config and seed: Generators seeded per task, fixed-order reductions, and
atomic writes (write then rename), so failures leave no partial CSVs.
"""

import argparse
import csv
import ctypes
import io
import operator
import os
import sys
import tempfile

import numpy as np

from . import einstein as es
from . import spectral
from .config import ConfigError, ExperimentConfig
from .curvature import anisotropic_shape_operator, oscillation_deficit, trace_free
from .integrand import Integrand, gauge
from .spheremesh import build_sphere_mesh
from .stability import (SpectralGraphSurface, center, kernel_frame,
                        perturbation_field, perturbed_graph, scaling_sweep,
                        stability_operator)
from .surface import projection_certificate
from .wulff import build_wulff, write_mesh_text

FLOAT_FMT = "%.17g"
# |c - t| of the translate_recovery case in `center`
RECOVERY_TOL = 1e-4
_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq}


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % v
    return str(v)


def _atomic_write(path, text):
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """CSV with minimal quoting: fields with a comma, quote or newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(_fmt(row.get(k, "")) for k in header)
    _atomic_write(path, buf.getvalue())


def write_dat(path, header, rows):
    lines = ["# " + " ".join(header)]
    for row in rows:
        lines.append(" ".join(_fmt(row.get(k, "")) for k in header))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_svg(path, series, xlabel, ylabel):
    """Log-log polyline plot of the positive points of (name, xs, ys)."""
    W, H, pad = 640, 480, 60
    pts_all = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
               if x > 0 and y > 0]
    if not pts_all:
        return
    xs = [np.log10(p[0]) for p in pts_all]
    ys = [np.log10(p[1]) for p in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    x1 += (x1 - x0 or 1) * 0.05
    x0 -= (x1 - x0 or 1) * 0.05
    y1 += (y1 - y0 or 1) * 0.05
    y0 -= (y1 - y0 or 1) * 0.05

    def sx(v):
        return pad + (np.log10(v) - x0) / (x1 - x0) * (W - 2 * pad)

    def sy(v):
        return H - pad - (np.log10(v) - y0) / (y1 - y0) * (H - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<rect x="{pad}" y="{pad}" width="{W - 2 * pad}" '
             f'height="{H - 2 * pad}" fill="none" stroke="black"/>']
    for i, (name, xs_, ys_) in enumerate(series):
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs_, ys_)
                       if x > 0 and y > 0)
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 8}" y="{pad + 18 + 16 * i}" '
                     f'fill="{color}" font-size="13">{name}</text>')
    parts.append(f'<text x="{W // 2}" y="{H - 16}" font-size="13" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{H // 2}" font-size="13" '
                 f'transform="rotate(-90 16 {H // 2})" '
                 f'text-anchor="middle">{ylabel}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


def check(name, value, relation, bound):
    """A named check record: (name, value, relation, bound, passed)."""
    return name, value, relation, bound, bool(_RELATIONS[relation](value, bound))


def _sphere_or_wulff(cfg):
    """The unit sphere for the integrand constant:1, else its Wulff mesh."""
    if cfg.unit_sphere:
        return build_sphere_mesh(cfg.level)
    return build_wulff(cfg.integrand, cfg.level)


# --- subcommands ------------------------------------------------------------


def run_wulff(cfg, outdir, svg):
    integ = cfg.integrand
    rows = []
    W = build_wulff(integ, cfg.level)
    sample = slice(None, None, max(1, W.n_vertices // 500))
    vals, grads = gauge(integ, W.vertices[sample])
    gauge_resid = float(np.abs(vals - 1.0).max())
    rows.append({"metric": "max_gauge_residual", "value": gauge_resid})
    nu = W.normals[sample]
    normal_resid = float(np.abs(grads / np.linalg.norm(grads, axis=1, keepdims=True)
                                - nu).max())
    rows.append({"metric": "max_normal_direction_residual", "value": normal_resid})
    # gauge-differential identity F(nu) dF*|_z[c] = <nu, c>, linear in c:
    # its sup over unit c is the largest |F(nu) grad F*(z) - nu|
    robin = float(np.linalg.norm(integ.value(nu)[:, None] * grads - nu,
                                 axis=1).max())
    rows.append({"metric": "robin_identity_residual", "value": robin})
    rows.append({"metric": "ellipticity_margin", "value": integ.ellipticity_margin})
    if integ.family == "quadratic":
        Minv = np.linalg.inv(integ.params["M"])
        resid = float(np.abs(np.einsum("ni,ij,nj->n", W.vertices, Minv,
                                       W.vertices) - 1.0).max())
        rows.append({"metric": "ellipsoid_closed_form_residual", "value": resid})
    top = max(cfg.level, 4)
    meshes = [W if lv == cfg.level else build_wulff(integ, lv)
              for lv in (top - 2, top - 1, top)]
    areas = [m.area() for m in meshes]
    h = [m.edge_length() for m in meshes]
    # Richardson: area(h) = A - C h^order
    order = float(np.log((areas[1] - areas[0]) / (areas[2] - areas[1]))
                  / np.log(h[0] / h[1]))
    rows.append({"metric": "area_convergence_order", "value": order})
    rows.append({"metric": "vertex_count", "value": W.n_vertices})
    return ["metric", "value"], rows, [
        check("max_gauge_residual", gauge_resid, "<", 1e-8),
        check("area_convergence_order", order, ">", 1.5)]


def run_curvature(cfg, outdir, svg):
    eps = cfg.curvature.epsilon
    family = cfg.curvature.family
    base = _sphere_or_wulff(cfg)
    geom, violation = perturbed_graph(
        base, family, eps * perturbation_field(base, family))
    if violation:
        raise ConfigError(f"curvature.epsilon = {eps:g} leaves the "
                          f"tubular neighborhood: {violation}")
    cert = projection_certificate(geom)
    s_field, hf = anisotropic_shape_operator(geom, cfg.integrand)
    dev = trace_free(s_field)
    report = oscillation_deficit(s_field, hf, geom.weights, cfg.p)
    rows = [
        {"metric": "epsilon", "value": eps},
        {"metric": "p", "value": cfg.p},
        {"metric": "deficit", "value": report.deficit},
        {"metric": "lambda_star", "value": report.lambda_star},
        {"metric": "oscillation", "value": report.oscillation},
        {"metric": "h_mean_over_n", "value": report.h_mean_over_n},
        {"metric": "c_osc", "value": report.c_osc},
        {"metric": "max_trace_residual", "value": float(np.abs(np.einsum("nii->n", dev)).max())},
        {"metric": "eta_margin", "value": cert.margin},
    ]
    # per-node geometry dump in the shared mesh text format plus CSV
    write_mesh_text(os.path.join(outdir, "geometry.mesh"), geom.positions,
                    geom.normal, base.faces,
                    f"wulffstab surface level={cfg.level} family={family!r}")
    node_rows = [{"node": i, "H": geom.mean_curvature[i],
                  "eta": cert.margins[i], "radius": cert.radius[i]}
                 for i in range(geom.n_nodes)]
    write_csv(os.path.join(outdir, "geometry.csv"),
              ["node", "H", "eta", "radius"], node_rows)
    checks = [check("eta_margin", cert.margin, ">", cert.threshold)]
    checks += [check(key, value, "==", 0)
               for key, value in cert.diagnostics.items()]
    return ["metric", "value"], rows, checks


def run_kernel(cfg, outdir, svg):
    levels = cfg.kernel.levels
    rows, checks = [], []
    bases = [("sphere", build_sphere_mesh, Integrand.constant())]
    if not cfg.unit_sphere:
        bases.append(("wulff", lambda lv: build_wulff(cfg.integrand, lv),
                      cfg.integrand))
    for name, builder, integ in bases:
        for lv in levels:
            base = builder(lv)
            # L is linear, so sup_c ||L phi_c|| / ||phi_c|| over every
            # translation mode is the largest singular value of sqrt(w) L
            # on an L2-orthonormal frame of them
            Lphi = np.column_stack([stability_operator(base, integ, phi)
                                    for phi in kernel_frame(base).fields.T])
            worst = float(np.linalg.norm(
                np.sqrt(base.weights)[:, None] * Lphi, 2))
            rows.append({"surface": name, "level": lv,
                         "max_kernel_residual": worst})
            # L is exact on the translation modes, so the residual is
            # rounding, which grows with the largest principal curvature
            checks.append(check(f"exact[{name},level={lv}]", worst, "<=",
                                1e-12 * max(1.0, 0.9 / base.reach)))
        # on the top sphere L = Delta + 2 is -6 + 2 on the band-2 modes
        if name == "sphere":
            y2 = spectral.real_sph_harm_matrix(base.vertices, 2)[:, spectral.sh_index(2, 0)]
            L = stability_operator(base, integ, y2)
            ray = float(np.sum(base.weights * L * y2) / np.sum(base.weights * y2 ** 2))
            rows.append({"surface": "sphere", "level": levels[-1],
                         "max_kernel_residual": ray, "note": "y2_rayleigh"})
            checks.append(check("y2_eigenvalue", abs(ray + 4.0), "<=", 1e-12))
    return ["surface", "level", "max_kernel_residual", "note"], rows, checks


def run_center(cfg, outdir, svg):
    t = cfg.center.translation
    t = t * (cfg.center.translation_norm / np.linalg.norm(t))
    epsilons = cfg.center.epsilons
    mesh = build_sphere_mesh(cfg.level)
    rows = []
    # exact translated sphere re-read as an exponential graph
    s = mesh.vertices @ t
    f = np.log(s + np.sqrt(1 - t @ t + s ** 2))
    band = min(10, spectral.band_limit(mesh.n_vertices))
    coeffs = spectral.sh_analyze(mesh, f, band)
    res = center(SpectralGraphSurface(mesh, coeffs, "exp"), tolerance=cfg.tolerance)
    err = float(np.linalg.norm(res.c - t))
    rows.append({"case": "translate_recovery", "epsilon": float(np.linalg.norm(t)),
                 "residual": err, "iterations": res.iterations})
    # one-step contraction on a mixed translation + quadrupole family
    rng = np.random.default_rng((cfg.seed, 3))
    that = rng.normal(size=3)
    that /= np.linalg.norm(that)
    col = spectral.sh_index(2, 0)
    y20 = spectral.real_sph_harm_matrix(mesh.vertices, 2)[:, col]
    one_step = []
    for eps in epsilons:
        fe = eps * (mesh.vertices @ that) + eps * y20
        ce = spectral.sh_analyze(mesh, fe, band)
        r1 = center(SpectralGraphSurface(mesh, ce, "exp"),
                    tolerance=1e-15, max_iter=1)
        one_step.append(r1.trace[-1])
        rows.append({"case": "one_step", "epsilon": eps,
                     "residual": r1.trace[-1], "iterations": 1})
    slope = float(np.polyfit(np.log(epsilons), np.log(one_step), 1)[0])
    rows.append({"case": "one_step_exponent", "epsilon": 0.0,
                 "residual": slope, "iterations": len(epsilons)})
    if svg:
        write_svg(os.path.join(outdir, "center.svg"),
                  [("one-step residual", epsilons, one_step)],
                  xlabel="epsilon", ylabel="residual")
    return ["case", "epsilon", "residual", "iterations"], rows, [
        check("recovery_error", err, "<=", RECOVERY_TOL),
        check("recovery_iterations", res.iterations, "<=", 10),
        check("one_step_exponent_minus_2", abs(slope - 2.0), "<=", 0.2)]


def run_sweep(cfg, outdir, svg):
    family = cfg.sweep.family
    deficit_fit, distance_fit, rows = scaling_sweep(
        _sphere_or_wulff(cfg), cfg.integrand, family, cfg.sweep.amplitudes,
        cfg.p, tolerance=cfg.tolerance)
    fam_txt = (f"harmonic:{family[1]},{family[2]}" if family[0] == "harmonic"
               else "kernel:" + ",".join(FLOAT_FMT % v for v in family[1]))
    if deficit_fit is not None:
        flags = (f"deficit_slope={deficit_fit.slope:.4f};"
                 f"distance_slope={distance_fit.slope:.4f}")
    else:
        flags = "fit_unavailable"
    out_rows, checks = [], []
    for row in rows:
        if "warning" in row:
            reason = row["warning"]
            if row.get("detail"):
                reason = f"{reason}: {row['detail']}"
            checks.append(check(f"gates[epsilon={float(row['epsilon'])}]",
                                reason, "==", "passed"))
            out_rows.append({"family": fam_txt, "epsilon": row["epsilon"],
                             "p": cfg.p, "slope_flags": row["warning"],
                             "eta_margin": row.get("eta", "")})
            continue
        out_rows.append({"family": fam_txt, "epsilon": row["epsilon"],
                         "p": cfg.p, "deficit": row["deficit"],
                         "distance": row["distance"], "ratio": row["ratio"],
                         "slope_flags": flags, "eta_margin": row["eta"],
                         "iterations": row["iterations"]})
    if svg:
        good = [r for r in rows if "deficit" in r]
        eps = [r["epsilon"] for r in good]
        write_svg(os.path.join(outdir, "sweep.svg"),
                  [(key, eps, [r[key] for r in good])
                   for key in ("deficit", "distance")],
                  xlabel="epsilon", ylabel="measure")
    return ["family", "epsilon", "p", "deficit", "distance", "ratio",
            "slope_flags", "eta_margin", "iterations"], out_rows, checks


def run_einstein(cfg, outdir, svg):
    budget = cfg.einstein.budget
    rows, checks = [], []
    for n in cfg.einstein.dimensions:
        for kap in cfg.einstein.kappas:
            zs = es.zero_set_check(n, kap)
            rb = es.ratio_bounds(n, kap, budget=budget, seed=cfg.seed)
            zero_set = "PASS" if zs["passed"] else "FAIL"
            rows.append({
                "n": n, "kappa": kap, "c1_est": rb.c1, "c2_est": rb.c2,
                "extremizer": "|".join(FLOAT_FMT % v for v in rb.argmax),
                "samples": rb.samples, "zero_set": zero_set,
            })
            # a zero of q where p > 0 makes sup p/q infinite
            c2 = np.inf if zs["stray_zeros"] else rb.c2
            cell = f"n={n},kappa={kap:g}"
            # q <= (n - 1) p for every spectrum (Cauchy-Schwarz), with
            # equality on the diagonal: inf p/q = 1/(n - 1)
            checks += [check(f"zero_set[{cell}]", zero_set, "==", "PASS"),
                       check(f"c1_est[{cell}]", rb.c1, ">=",
                             (1 - 1e-12) / (n - 1)),
                       check(f"c2_est[{cell}]", c2, "<", np.inf)]
    return ["n", "kappa", "c1_est", "c2_est", "samples", "extremizer",
            "zero_set"], rows, checks


COMMANDS = {
    "wulff": run_wulff,
    "curvature": run_curvature,
    "kernel": run_kernel,
    "center": run_center,
    "sweep": run_sweep,
    "einstein": run_einstein,
}


def _release_freed_memory():
    """Hand the heap memory a command freed back to the system (glibc's
    malloc_trim; elsewhere nothing), so commands run one after another in
    one process do not carry each other's freed heap into their peaks."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim(0)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wulffstab",
        description="Wulff-shape stability experiments at desk scale")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--svg", action="store_true",
                        help="also render SVG line plots")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        if args.seed < 0:
            parser.error("--seed must be 0 or more")
        cfg.seed = args.seed
    if args.out == "":
        parser.error("--out must name a directory")
    outdir = args.out if args.out is not None else cfg.out
    if not outdir:
        print("config error: common.out must name a directory",
              file=sys.stderr)
        return 2
    os.makedirs(outdir, exist_ok=True)
    try:
        header, rows, checks = COMMANDS[args.command](cfg, outdir, args.svg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _release_freed_memory()
    write_csv(os.path.join(outdir, args.command + ".csv"), header, rows)
    write_dat(os.path.join(outdir, args.command + ".dat"), header, rows)
    failed = [c for c in checks if not c[4]]
    for name, value, relation, bound, _ in failed:
        print(f"{args.command}: check {name} failed: measured {value}, "
              f"needs {relation} {bound}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
