"""The benchmark's workloads: configs, steps in order, and their checks.

``prepare(name, seed, out)`` draws the seeded inputs, writes the INI configs
under ``out`` and returns the steps. A step calls wulffstab only from
outside, through ``wulffstab.cli.main`` or a public library function looked
up on the package at call time, and writes its results as CSV under
``out/<step>``. Checks run after every step has finished and read those
CSVs back.
"""

import csv
import math
import os
import traceback

import numpy as np

import wulffstab
import wulffstab.cli
import wulffstab.spectral

FLOAT_FMT = "%.17g"


class Check:
    """One named acceptance check; ``measure(step_dir, code)`` -> (value, ok)."""

    def __init__(self, name, bound, measure):
        self.name = name
        self.bound = bound
        self.measure = measure


class Step:
    """One call into wulffstab; ``run(step_dir)`` returns an exit code or None."""

    def __init__(self, name, run, checks):
        self.name = name
        self.run = run
        self.checks = checks


# --- inputs and outputs -------------------------------------------------


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _vec(v):
    return ",".join(FLOAT_FMT % x for x in v)


def write_config(path, seed, level, integrand, **sections):
    lines = ["[common]", f"seed = {seed}", f"level = {level}", "p = 4",
             f"integrand = {integrand}", "tolerance = 1e-8"]
    for section, keys in sections.items():
        lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in keys.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_rows(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FMT % row[k] if isinstance(row[k], float)
                              else str(row[k]) for k in header) + "\n")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cli_step(name, command, config, seed, checks):
    def run(step_dir):
        return wulffstab.cli.main([command, "--config", config,
                                   "--seed", str(seed), "--out", step_dir])
    return Step(name, run, checks)


# --- checks -------------------------------------------------------------


def exit_code(expected):
    return Check("exit", f"== {expected}",
                 lambda d, code: (code, code == expected))


def read_sweep(step_dir):
    """Rows of sweep.csv. The CLI writes a kernel family's components into
    the first field unquoted, so fields are counted from the right."""
    with open(os.path.join(step_dir, "sweep.csv")) as fh:
        header, *lines = fh.read().splitlines()
    header = header.split(",")
    rows = []
    for line in lines:
        parts = line.split(",")
        cut = len(parts) - len(header) + 1
        rows.append(dict(zip(header, [",".join(parts[:cut])] + parts[cut:])))
    return rows


def _sweep_rows(step_dir):
    rows = [r for r in read_sweep(step_dir) if r["deficit"]]
    eps = np.array([float(r["epsilon"]) for r in rows])
    return rows, eps


def sweep_slope(column, target, tol):
    def measure(step_dir, code):
        rows, eps = _sweep_rows(step_dir)
        vals = np.array([float(r[column]) for r in rows])
        slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
        return slope, abs(slope - target) <= tol
    return Check(f"{column}_slope", f"{target} +- {tol}", measure)


def ratio_drift(limit):
    def measure(step_dir, code):
        rows, _ = _sweep_rows(step_dir)
        ratios = [float(r["ratio"]) for r in rows]
        drift = max(ratios) / min(ratios)
        return drift, drift < limit
    return Check("ratio_drift", f"< {limit}", measure)


def base_distance(limit):
    def measure(step_dir, code):
        rows, _ = _sweep_rows(step_dir)
        d = float(rows[0]["distance"])
        return d, d <= limit
    return Check("base_distance", f"<= {limit:g}", measure)


def sweep_certified():
    """No sweep row was cut short; unconverged projection feet fail the
    graph certificate, which truncates the sweep with a flagged row."""
    def measure(step_dir, code):
        rows = read_sweep(step_dir)
        flagged = [r["slope_flags"] for r in rows if not r["deficit"]]
        return len(flagged), not flagged
    return Check("certified_rows", "0 flagged", measure)


def einstein_pattern():
    """zero_set FAILs exactly in the cells n >= 4, kappa = -1."""
    def measure(step_dir, code):
        rows = read_rows(os.path.join(step_dir, "einstein.csv"))
        wrong = [f"n={r['n']},kappa={r['kappa']}" for r in rows
                 if (r["zero_set"] == "FAIL")
                 != (int(r["n"]) >= 4 and float(r["kappa"]) == -1.0)]
        return ";".join(wrong) or "as designed", len(rows) == 9 and not wrong
    return Check("zero_set_pattern", "FAIL iff n>=4 and kappa=-1", measure)


def einstein_bounds():
    def measure(step_dir, code):
        rows = read_rows(os.path.join(step_dir, "einstein.csv"))
        c1 = min(float(r["c1_est"]) for r in rows)
        c2 = [float(r["c2_est"]) for r in rows]
        return (f"min c1={c1:g}, c2 finite={all(map(math.isfinite, c2))}",
                c1 > 0 and all(map(math.isfinite, c2)))
    return Check("ratio_bounds", "c1 > 0 and c2 finite", measure)


def column_max(filename, column, limit, name):
    def measure(step_dir, code):
        rows = read_rows(os.path.join(step_dir, filename))
        worst = max(float(r[column]) for r in rows)
        return worst, worst <= limit
    return Check(name, f"<= {limit:g}", measure)


# --- library steps ------------------------------------------------------


def _hausdorff(step_dir):
    """hausdorff_distance(radial_graph(W4, 0.05 Y20), W4) with the search."""
    integ = wulffstab.Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0]))
    base = wulffstab.build_wulff(integ, 4)
    y20 = wulffstab.spectral.real_sph_harm_matrix(base.normals, 2)[
        :, wulffstab.spectral.sh_index(2, 0)]
    u = 0.05 * y20
    dist = wulffstab.hausdorff_distance(wulffstab.radial_graph(base, u), base)
    write_rows(os.path.join(step_dir, "hausdorff.csv"),
               ["hausdorff", "max_abs_u"],
               [{"hausdorff": float(dist), "max_abs_u": float(np.abs(u).max())}])


def hausdorff_bounded():
    """The perturbed nodes are at most max|u| from the base nodes."""
    def measure(step_dir, code):
        row = read_rows(os.path.join(step_dir, "hausdorff.csv"))[0]
        d, umax = float(row["hausdorff"]), float(row["max_abs_u"])
        return d, 0 < d <= umax * (1 + 1e-9)
    return Check("hausdorff", "in (0, max|u|]", measure)


def _flat_graphs(lams):
    """flat_graph_shape of the curvature-lambda cap and cap_fit_residual of
    the literal cap 1 - sqrt(1 - lambda^2 |z|^2), both on 401^2 grids."""
    def run(step_dir):
        rows = []
        for lam in lams:
            grid = wulffstab.GridField.from_function(
                lambda x, y: (1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2))) / lam,
                0.9, 401)
            h, mask, warning = wulffstab.flat_graph_shape(grid)
            literal = wulffstab.GridField.from_function(
                lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)),
                0.9, 401)
            resid, lstar = wulffstab.cap_fit_residual(literal)
            rows.append({"lambda": float(lam),
                         "h_error": float(np.abs(h[mask] - lam * np.eye(2)).max()),
                         "rim_trimmed": int(warning),
                         "cap_fit_residual": float(resid),
                         "lambda_error": float(abs(lstar - lam))})
        write_rows(os.path.join(step_dir, "flatgraph.csv"),
                   ["lambda", "h_error", "rim_trimmed", "cap_fit_residual",
                    "lambda_error"], rows)
    return run


# --- workloads ----------------------------------------------------------

# The Wulff sweep casts rays once per centering iteration. At these three
# amplitudes centering takes four iterations each for every seed tried, so a
# pass does the same work whatever the seed and stays short enough for
# several passes in one run. (The CLI's "lo,hi,count" form needs a count of
# four or more, hence the explicit list.)
WULFF_AMPLITUDES = "0.02,0.04,0.08"


def sphere_spectral(seed, out):
    rng = np.random.default_rng(seed)
    c, t = _unit(rng), _unit(rng)
    harmonic = write_config(
        os.path.join(out, "harmonic.ini"), seed, 5, "constant",
        sweep={"family": "harmonic:2,0", "amplitudes": "1e-4,1e-2,6"})
    kernel = write_config(
        os.path.join(out, "kernel.ini"), seed, 5, "constant",
        sweep={"family": "kernel:" + _vec(c), "amplitudes": "1e-4,1e-2,6"})
    centering = write_config(
        os.path.join(out, "center.ini"), seed, 5, "constant",
        center={"translation": _vec(t), "translation_norm": "0.05"})
    return [
        cli_step("sweep-harmonic", "sweep", harmonic, seed,
                 [exit_code(0), sweep_slope("distance", 1.0, 0.10),
                  ratio_drift(2.0)]),
        cli_step("sweep-kernel", "sweep", kernel, seed,
                 [exit_code(0), sweep_slope("deficit", 2.0, 0.15),
                  base_distance(1e-6)]),
        cli_step("center", "center", centering, seed, [exit_code(0)]),
    ]


def wulff_mesh(seed, out):
    rng = np.random.default_rng(seed)
    c = _unit(rng)
    level4 = write_config(
        os.path.join(out, "wulff4.ini"), seed, 4, "quadratic:1,1,4",
        sweep={"family": "kernel:" + _vec(c), "amplitudes": WULFF_AMPLITUDES},
        kernel={"levels": "3,4"},
        curvature={"family": "harmonic:2,0", "epsilon": "1e-2"})
    return [
        cli_step("wulff", "wulff", level4, seed, [exit_code(0)]),
        cli_step("sweep-kernel", "sweep", level4, seed,
                 [exit_code(0), sweep_slope("deficit", 2.0, 0.15),
                  sweep_certified()]),
        cli_step("kernel", "kernel", level4, seed, [exit_code(0)]),
        cli_step("curvature", "curvature", level4, seed, [exit_code(0)]),
        Step("hausdorff", _hausdorff, [hausdorff_bounded()]),
    ]


def algebra(seed, out):
    rng = np.random.default_rng(seed)
    lams = rng.uniform(0.2, 0.75, size=3)
    config = write_config(
        os.path.join(out, "einstein.ini"), seed, 5, "constant",
        einstein={"dimensions": "3,4,5", "kappas": "-1,0,1",
                  "budget": "200000"})
    return [
        cli_step("einstein", "einstein", config, seed,
                 [exit_code(1), einstein_pattern(), einstein_bounds()]),
        Step("flatgraph", _flat_graphs(lams), [
            column_max("flatgraph.csv", "h_error", 1e-4, "h_error"),
            column_max("flatgraph.csv", "cap_fit_residual", 1e-8,
                       "cap_fit_residual"),
            column_max("flatgraph.csv", "lambda_error", 1e-6, "lambda_error"),
        ]),
    ]


BUILDERS = {"sphere-spectral": sphere_spectral, "wulff-mesh": wulff_mesh,
            "algebra": algebra}


def prepare(name, seed, out):
    os.makedirs(out, exist_ok=True)
    return BUILDERS[name](seed, out)


def run_steps(steps, out):
    """Run every step in order; returns one exit code or exception per step."""
    outcomes = []
    for step in steps:
        step_dir = os.path.join(out, step.name)
        os.makedirs(step_dir, exist_ok=True)
        try:
            outcomes.append(step.run(step_dir))
        except Exception as exc:  # a failed step is a failed check, not a crash
            traceback.print_exc()
            outcomes.append(exc)
    return outcomes


def check_steps(steps, outcomes, out):
    """Evaluate every check; returns dicts with name, value, bound and ok."""
    results = []
    for step, outcome in zip(steps, outcomes):
        step_dir = os.path.join(out, step.name)
        for check in step.checks:
            name = f"{step.name}.{check.name}"
            if isinstance(outcome, Exception):
                value, ok = f"step raised {outcome!r}", False
            else:
                try:
                    value, ok = check.measure(step_dir, outcome)
                except (OSError, KeyError, ValueError, IndexError,
                        ArithmeticError) as exc:
                    value, ok = f"unreadable output: {exc!r}", False
            results.append({"name": name, "value": value,
                            "bound": check.bound, "ok": bool(ok)})
    return results
