import contextlib
import csv
import io
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wulffstab import build_sphere_mesh, build_wulff, cli, load_mesh, spheremesh
from wulffstab.cli import main, write_csv, write_svg
from wulffstab.config import (SCHEMA, ConfigError, ExperimentConfig,
                              parse_family, parse_integrand)
from wulffstab.stability import perturbation_field, perturbed_graph


def write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


BASE = """
[common]
seed = 11
level = 3
p = 4
integrand = {integrand}
"""


def test_parse_integrand_families():
    assert parse_integrand("constant").family == "constant"
    assert parse_integrand("quadratic:1,1,4").family == "quadratic"
    assert parse_integrand("fourier:1.0,0.05,2,0").family == "fourier"
    with pytest.raises(ConfigError):
        parse_integrand("pentagonal")
    with pytest.raises(ConfigError):
        parse_integrand("quadratic:1,2")


def test_parse_family():
    assert parse_family("harmonic:2,0") == ("harmonic", 2, 0)
    kind, c = parse_family("kernel:1,0,0")
    assert kind == "kernel" and np.allclose(c, [1, 0, 0])
    with pytest.raises(ConfigError):
        parse_family("spline:1")


def test_config_validation(tmp_path):
    path = write_config(tmp_path, BASE.format(integrand="constant")
                        + "\n[sweep]\namplitudes = 3e-3,1e-3,2e-3\n")
    with pytest.raises(ConfigError, match="sorted"):
        ExperimentConfig(path)
    bad = write_config(tmp_path, "[common]\nlevel = 77\n", "bad.ini")
    with pytest.raises(ConfigError, match="level"):
        ExperimentConfig(bad)


def test_invalid_config_exit_code(tmp_path):
    bad = write_config(tmp_path, "[common]\np = 0.5\n")
    assert main(["wulff", "--config", bad, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_exit_code(tmp_path):
    assert main(["wulff", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_wulff_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="quadratic:1,1,4"))
    out = tmp_path / "out"
    assert main(["wulff", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "wulff.csv").read_text()
    assert "max_gauge_residual" in text
    assert "ellipsoid_closed_form_residual" in text
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("integrand, level", [
    ("quadratic:3.00732,0.2,0.2", 2), ("quadratic:4.48199,0.402701,0.2", 3)])
def test_wulff_area_order_is_nan_when_the_areas_turn(tmp_path, capsys,
                                                     integrand, level):
    """The mesh areas of these ellipsoids are not monotone in the level,
    so the Richardson order has no logarithm: it reads nan, without a numpy
    warning, and its check fails."""
    cfg = write_config(tmp_path, f"[common]\nlevel = {level}\n"
                       f"integrand = {integrand}\n")
    out = tmp_path / "out"
    assert main(["wulff", "--config", cfg, "--out", str(out)]) == 1
    rows = dict(csv.reader((out / "wulff.csv").read_text().splitlines()))
    assert rows["area_convergence_order"] == "nan"
    assert "check area_convergence_order failed" in capsys.readouterr().err


def _fuzz_integrand(family, a, b, c, mode):
    """An elliptic integrand token of each family from draws a, b, c in
    [0.1, 10]; a Fourier amplitude of at most 0.2 of the base keeps every
    tabulated mode elliptic."""
    if family == "constant":
        return f"constant:{a}"
    if family == "quadratic":
        return f"quadratic:{a},{b},{c}"
    return f"fourier:{a},{a * np.log10(b) / 5:.6g},{mode[0]},{mode[1]}"


MODES = [(ell, m) for ell in range(4) for m in range(-ell, ell + 1)]
SIDES = st.floats(-1, 1).map(lambda t: float(f"{10 ** t:.6g}"))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(["wulff", "kernel", "curvature", "sweep"]),
       level=st.sampled_from([2, 3]),
       integrand=st.builds(_fuzz_integrand,
                           st.sampled_from(["constant", "quadratic",
                                            "fourier"]),
                           SIDES, SIDES, SIDES, st.sampled_from(MODES)),
       family=st.one_of(
           st.builds(lambda ell, m: f"harmonic:{ell},{m % (2 * ell + 1) - ell}",
                     st.integers(0, 9), st.integers(0, 18)),
           st.lists(st.integers(-3, 3), min_size=3, max_size=3)
           .filter(any).map(lambda c: "kernel:" + ",".join(map(str, c)))),
       epsilon=st.floats(0, 0.45, exclude_min=True))
def test_accepted_configs_run_or_exit_2_by_name(tmp_path_factory, command,
                                                level, integrand, family,
                                                epsilon):
    """An accepted config either runs (exit 0 or 1, CSV and .dat written)
    or is refused with exit 2 by a message naming section.key and no CSV;
    no exception, numpy warnings included, escapes."""
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_config(tmp, f"[common]\nlevel = {level}\n"
                       f"integrand = {integrand}\n"
                       f"[sweep]\nfamily = {family}\n"
                       f"[curvature]\nfamily = {family}\n"
                       f"epsilon = {epsilon!r}\n")
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out", str(out)])
    written = [(out / f"{command}{ext}").exists() for ext in (".csv", ".dat")]
    if code == 2:
        named = re.match(r"config error: (\w+)\.(\w+)\b", err.getvalue())
        assert named and named[2] in SCHEMA.get(named[1], ()), err.getvalue()
        assert not any(written)
    else:
        assert code in (0, 1) and all(written), (code, err.getvalue())


def test_commands_hand_freed_heap_back(tmp_path, monkeypatch):
    """A command ends by trimming the heap through the C library's
    malloc_trim, and skips that where the library has none."""
    calls = []

    class Libc:
        def malloc_trim(self, pad):
            calls.append(pad)

    cfg = write_config(tmp_path, BASE.format(integrand="quadratic:1,1,4"))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
    assert main(["wulff", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert calls == [0]
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert main(["wulff", "--config", cfg, "--out", str(tmp_path / "b")]) == 0


def test_sweep_deterministic_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[sweep]
family = harmonic:2,0
amplitudes = 1e-3,1e-2,5
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert capsys.readouterr().err == ""


def test_sweep_bytes_do_not_depend_on_the_cached_band(tmp_path, capsys,
                                                     fresh_spheres):
    """sweep, then center at the same level (whose band 10 replaces the
    sweep's band 8 in the level's basis slot), then sweep again: both
    sweep.csv files match byte for byte, and match a run on a cleared
    direction-sphere cache."""
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[sweep]
family = harmonic:2,0
amplitudes = 1e-3,1e-2,5
""")

    def run(command, name):
        assert main([command, "--config", cfg, "--out",
                     str(tmp_path / name)]) == 0
        return tmp_path / name / f"{command}.csv"

    first = run("sweep", "a").read_bytes()
    run("center", "c")
    assert spheremesh.direction_sphere(3)._slot[0] == 10
    second = run("sweep", "b").read_bytes()
    spheremesh._SPHERES.clear()
    cleared = run("sweep", "d").read_bytes()
    assert first == second == cleared
    assert capsys.readouterr().err == ""


def test_sweep_csv_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[sweep]
family = kernel:0.6,-0.48,0.64
amplitudes = 1e-3,1e-2,5
""")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--svg"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("family,epsilon,p,deficit,distance,ratio,"
                        "slope_flags,eta_margin,iterations")
    assert len(lines) == 6
    assert (out / "sweep.svg").exists()
    assert capsys.readouterr().err == ""


def test_sweep_csv_quotes_kernel_family(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[sweep]
family = kernel:0.6,-0.48,0.64
amplitudes = 1e-3,1e-2,4
""")
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == 4
    for row in rows:
        assert None not in row and len(row) == len(reader.fieldnames)
        kind, _, comps = row["family"].partition(":")
        assert kind == "kernel"
        assert np.allclose([float(c) for c in comps.split(",")],
                           [0.6, -0.48, 0.64])
        assert float(row["eta_margin"]) > 0 and row["iterations"].isdigit()
    assert capsys.readouterr().err == ""


def test_kernel_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[kernel]
levels = 2,3
""")
    out = tmp_path / "k"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "kernel.csv").read_text().splitlines()))
    assert [(r["surface"], r["level"], r["note"]) for r in rows] == [
        ("sphere", "2", ""), ("sphere", "3", ""), ("sphere", "3", "y2_rayleigh")]
    # L = Delta + 2 is -4 on the band-2 modes of the sphere
    assert abs(float(rows[2]["max_kernel_residual"]) + 4.0) <= 1e-12
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["2", "0.5"])
def test_kernel_checks_the_wulff_shape_of_a_constant_integrand(
        tmp_path, capsys, value):
    """constant:V with V != 1 has the sphere of radius V as its Wulff shape,
    the base that sweep and curvature run on, so kernel checks it too."""
    cfg = write_config(tmp_path, BASE.format(integrand=f"constant:{value}")
                       + "\n[kernel]\nlevels = 2,3\n")
    out = tmp_path / "k"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "kernel.csv").read_text().splitlines()))
    wulff = [float(r["max_kernel_residual"]) for r in rows
             if r["surface"] == "wulff"]
    assert len(wulff) == 2 and max(wulff) < 1e-12
    assert capsys.readouterr().err == ""


def test_kernel_residual_is_the_sup_over_translation_modes(tmp_path,
                                                           monkeypatch):
    """The reported residual is the sup of ||L phi_c|| / ||phi_c|| over
    every c, so it bounds the ratio at each of 20 random c and the best of
    them comes close. On the true L both are rounding, which is not linear
    in c (level 3 reads 1.04e-14 at one c against a 9.8e-15 sup), so the
    operator gets a linear term n_x u well above rounding."""
    import wulffstab.cli as cli
    from wulffstab import Integrand, build_sphere_mesh, build_wulff
    from wulffstab.stability import stability_operator

    def operator(base, integ, values):
        return (stability_operator(base, integ, values)
                + base.normals[:, 0] * values)

    monkeypatch.setattr(cli, "stability_operator", operator)
    integ = parse_integrand("quadratic:1,1,4")
    cfg = write_config(tmp_path, BASE.format(integrand="quadratic:1,1,4")
                       + "\n[kernel]\nlevels = 2,3\n")
    out = tmp_path / "k"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 1
    rows = [r for r in csv.DictReader(
        (out / "kernel.csv").read_text().splitlines()) if not r["note"]]
    assert len(rows) == 4
    cs = np.random.default_rng(5).normal(size=(20, 3))
    for row in rows:
        lv = int(row["level"])
        base, base_integ = ((build_sphere_mesh(lv), Integrand.constant())
                            if row["surface"] == "sphere"
                            else (build_wulff(integ, lv), integ))
        sup = float(row["max_kernel_residual"])
        ratios = []
        for c in cs:
            phi = base.normals @ c
            L = operator(base, base_integ, phi)
            ratios.append(np.sqrt(np.sum(base.weights * L ** 2)
                                  / np.sum(base.weights * phi ** 2)))
        assert max(ratios) <= sup * (1 + 1e-12), row
        assert max(ratios) >= 0.99 * sup, row


def test_kernel_and_wulff_csvs_do_not_depend_on_the_seed(tmp_path):
    """Both report exact sups over the probe vector, so no seed enters."""
    cfg = write_config(tmp_path, BASE.format(integrand="quadratic:1,1,4")
                       + "\n[kernel]\nlevels = 2,3\n")
    for command in ("kernel", "wulff"):
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"{command}{seed}"
            assert main([command, "--config", cfg, "--seed", seed,
                         "--out", str(out)]) == 0
            texts.append((out / f"{command}.csv").read_bytes())
        assert texts[0] == texts[1], command


def test_curvature_and_sweep_build_the_same_surface(tmp_path):
    """A kernel family over the sphere is a radial graph in both commands,
    so curvature at epsilon reads the sweep's deficit at that amplitude; an
    exponential graph of a translation mode agrees with a translate to third
    order and would read 4.0e-10 instead of 1.06e-6."""
    cfg = write_config(tmp_path, BASE.format(integrand="constant").replace(
        "level = 3", "level = 4") + """
[sweep]
family = kernel:0.36,-0.48,0.8
amplitudes = 1e-3,1e-2,5

[curvature]
family = kernel:0.36,-0.48,0.8
epsilon = 1e-3
""")
    out = tmp_path / "same"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        first = next(csv.DictReader(fh))
    with open(out / "curvature.csv", newline="") as fh:
        metrics = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
    assert first["epsilon"] == metrics["epsilon"] == "0.001"
    assert metrics["deficit"] == first["deficit"]
    assert 1e-6 < float(first["deficit"]) < 1.1e-6


def test_kernel_on_the_fourier_integrand_passes(tmp_path, capsys):
    """Near its ellipticity margin (reach 0.00997) the Fourier integrand's
    translation modes are still annihilated to rounding at every level."""
    cfg = write_config(tmp_path, BASE.format(integrand="fourier:1,0.265,3,0")
                       + "\n[kernel]\nlevels = 3,4,5\n")
    out = tmp_path / "kf"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "kernel.csv").read_text().splitlines()))
    wulff = [float(r["max_kernel_residual"]) for r in rows
             if r["surface"] == "wulff"]
    assert len(wulff) == 3 and max(wulff) < 1e-12
    assert capsys.readouterr().err == ""


def test_center_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="constant").replace(
        "level = 3", "level = 4"))
    out = tmp_path / "c"
    assert main(["center", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "center.csv").read_text()
    assert "translate_recovery" in text
    assert "one_step_exponent" in text
    assert capsys.readouterr().err == ""


def test_curvature_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[curvature]
family = harmonic:2,0
epsilon = 1e-3
""")
    out = tmp_path / "cv"
    assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
    assert "c_osc" in (out / "curvature.csv").read_text()
    assert capsys.readouterr().err == ""


def test_curvature_geometry_mesh_reads_back(tmp_path):
    """The geometry.mesh dump of `curvature` holds the perturbed surface's
    positions and normals bit for bit over the icosphere's faces, and its
    header names the level."""
    cfg = write_config(tmp_path, BASE.format(integrand="quadratic:1,1,4") + """
[curvature]
family = harmonic:2,0
epsilon = 1e-2
""")
    out = tmp_path / "mesh"
    assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
    verts, norms, faces, header = load_mesh(out / "geometry.mesh")
    base = build_wulff(parse_integrand("quadratic:1,1,4"), 3)
    family = ("harmonic", 2, 0)
    geom, violation = perturbed_graph(
        base, family, 1e-2 * perturbation_field(base, family))
    assert not violation
    np.testing.assert_array_equal(verts, geom.positions)
    np.testing.assert_array_equal(norms, geom.normal)
    np.testing.assert_array_equal(faces, build_sphere_mesh(3).faces)
    assert "level=3" in header.split()


def test_einstein_subcommand_passes_on_sound_cells(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[einstein]
dimensions = 3
kappas = -1,0,1
budget = 20000
""")
    out = tmp_path / "e"
    assert main(["einstein", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "einstein.csv").read_text()
    assert text.count("PASS") == 3
    assert capsys.readouterr().err == ""


def test_einstein_subcommand_flags_defective_cell(tmp_path, capsys):
    """kappa = -1, n = 4 has a genuine stray zero of q; the run reports it,
    and stderr names the failed zero-set check and the unbounded c2 (a
    zero of q where p > 0), whatever c2_est the Monte Carlo wrote."""
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[einstein]
dimensions = 4
kappas = -1
budget = 20000
""")
    out = tmp_path / "e2"
    assert main(["einstein", "--config", cfg, "--out", str(out)]) == 1
    assert "FAIL" in (out / "einstein.csv").read_text()
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "einstein: check zero_set[n=4,kappa=-1] failed: measured FAIL, "
        "needs == PASS",
        "einstein: check c2_est[n=4,kappa=-1] failed: measured inf, "
        "needs < inf"]


def test_einstein_flags_stray_zero_at_small_kappa(tmp_path, capsys):
    """p and q are homogeneous of degree 4 under lambda -> s lambda,
    kappa -> s^2 kappa, so the stray zero of q at n = 4 is there at every
    kappa < 0; at kappa = -1e-4, where p is only 9.6e-7 at the stray
    point, the run still fails the zero-set and c2 checks."""
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[einstein]
dimensions = 4
kappas = -0.0001
budget = 20000
""")
    out = tmp_path / "e3"
    assert main(["einstein", "--config", cfg, "--out", str(out)]) == 1
    assert "FAIL" in (out / "einstein.csv").read_text()
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "einstein: check zero_set[n=4,kappa=-0.0001] failed: measured FAIL, "
        "needs == PASS",
        "einstein: check c2_est[n=4,kappa=-0.0001] failed: measured inf, "
        "needs < inf"]


def test_atomic_csv_write(tmp_path):
    path = tmp_path / "nested" / "x.csv"
    write_csv(str(path), ["a", "b"], [{"a": 1.5, "b": "x"}])
    assert path.read_text() == "a,b\n1.5,x\n"
    assert not any(p.suffix == ".tmp" for p in path.parent.iterdir())


def test_svg_writer(tmp_path):
    path = tmp_path / "p.svg"
    write_svg(str(path), [("s", [1e-3, 1e-2, 1e-1], [2e-3, 2e-2, 2e-1])],
              "x", "y")
    body = path.read_text()
    assert body.startswith("<svg") and "polyline" in body


def test_sweep_truncates_on_gate_failure(tmp_path, capsys):
    """Amplitudes beyond the smallness gates truncate the sweep with exit 1,
    and stderr names the amplitude where it stopped and why; sweep.csv
    keeps the bare flag."""
    cfg = write_config(tmp_path, BASE.format(integrand="constant") + """
[sweep]
family = harmonic:3,3
amplitudes = 0.4,8.0,6
""")
    out = tmp_path / "tr"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    body = (out / "sweep.csv").read_text()
    assert "_failed" in body and "fit_unavailable" in body
    last = list(csv.DictReader(body.splitlines()))[-1]
    assert last["slope_flags"] == "centering_failed"
    err = capsys.readouterr().err.splitlines()
    assert err == [f"sweep: check gates[epsilon={float(last['epsilon'])}] "
                   f"failed: measured centering_failed: radius too large for "
                   f"centering: max |u| = 0.782269, needs == passed"]


REACH_CONFIG = BASE.format(integrand="fourier:1,0.265,3,0").replace(
    "level = 3", "level = 2") + """
[sweep]
family = harmonic:2,0
amplitudes = 2e-2,2e-1,6

[curvature]
family = harmonic:2,0
epsilon = 2e-2
"""


def test_sweep_truncates_outside_the_reach(tmp_path, capsys):
    """On fourier:1,0.265,3,0 the Wulff mesh's reach is 0.00997, below
    max |2e-2 Y20| = 0.0126: the sweep ends at its first amplitude with an
    outside_reach row and exit 1, and writes a complete sweep.csv. The
    failed gate carries the row's reason; the CSV keeps the bare flag."""
    cfg = write_config(tmp_path, REACH_CONFIG)
    out = tmp_path / "reach"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["epsilon"], r["slope_flags"]) for r in rows] == [
        ("0.02", "outside_reach")]
    assert capsys.readouterr().err.splitlines() == [
        "sweep: check gates[epsilon=0.02] failed: measured outside_reach: "
        "max |u| = 0.0126157 >= reach 0.00997445, needs == passed"]


def test_sweep_exits_1_when_centering_passes_the_graph_property(
        tmp_path, capsys, monkeypatch):
    """A centering step past the graph property (forced by scaling the
    kernel component, so the first step moves the surface 2.5 along the
    long axis of the quadratic:1,1,4 Wulff shape, past its pole at z = 2)
    makes `recover_radius_mesh` report not ok: `scaling_sweep` ends at its
    first amplitude with a centering_failed row, and the command exits 1
    with a complete sweep.csv."""
    import wulffstab.stability as stability
    kernel_component = stability.kernel_component
    monkeypatch.setattr(stability, "kernel_component",
                        lambda *a: 250.0 * kernel_component(*a))
    cfg = write_config(tmp_path, BASE.format(integrand="quadratic:1,1,4") + """
[sweep]
family = kernel:0,0,1
amplitudes = 1e-2,1e-1,5
""")
    out = tmp_path / "lost"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["epsilon"], r["slope_flags"]) for r in rows] == [
        ("0.01", "centering_failed")]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "sweep: check gates[epsilon=0.01] failed: measured centering_failed: "
        "graph property lost at translation")


def test_curvature_outside_the_reach_exits_2(tmp_path, capsys):
    """The same amplitude as a curvature.epsilon is a config error that
    names the key, max |u| and the reach; no output is written."""
    cfg = write_config(tmp_path, REACH_CONFIG)
    out = tmp_path / "reach"
    assert main(["curvature", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "curvature.epsilon" in err and "max |u| = 0.0126157" in err
    assert "reach 0.00997445" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("integrand, family, where", [
    ("constant", "harmonic:2,-3", "sweep.family"),
    ("constant", "harmonic:2,5", "sweep.family"),
    ("fourier:1,0.1,4,0", "harmonic:2,0", "common.integrand"),
    ("fourier:1,0.9,2,0", "harmonic:2,0", "common.integrand"),
    ("constant:nan", "harmonic:2,0", "common.integrand"),
    ("quadratic:1,1,inf", "harmonic:2,0", "common.integrand"),
    ("constant", "kernel:0,0,0", "sweep.family"),
    ("constant", "kernel:0,0,0", "curvature.family"),
    ("constant", "harmonic:9,0", "sweep.family"),
    ("constant", "harmonic:12,0", "curvature.family"),
    ("quadratic:1,1,4", "harmonic:9,0", "curvature.family"),
])
def test_bad_mode_tokens_exit_2(tmp_path, capsys, integrand, family, where):
    """|m| > l would wrap into a lower band or index past it; l = 4 has no
    tabulated harmonic polynomial; a zero kernel vector has no direction;
    l above band 8 of the level-3 directions would be measured aliased,
    over the sphere and a Wulff mesh alike; an
    integrand with a negative or undefined ellipticity margin has no Wulff
    shape."""
    command = "curvature" if where.startswith("curvature") else "sweep"
    body = BASE.format(integrand=integrand) + f"\n[{command}]\nfamily = {family}\n"
    if command == "sweep":
        body += "amplitudes = 1e-3,1e-2,4\n"
    cfg = write_config(tmp_path, body)
    out = tmp_path / "bad"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    assert not (out / f"{command}.csv").exists()


@pytest.mark.parametrize("integrand, family", [
    ("constant", "harmonic:8,0"),
    ("quadratic:1,1,4", "harmonic:8,0"),
])
def test_harmonic_band_edges_run(tmp_path, capsys, integrand, family):
    """l = 8 is the graph band of the level-3 directions, on both bases."""
    cfg = write_config(tmp_path, BASE.format(integrand=integrand)
                       + f"\n[curvature]\nfamily = {family}\n")
    out = tmp_path / "c"
    assert main(["curvature", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "curvature.csv").exists()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, section, key, value", [
    ("einstein", "einstein", "budget", "abc"),
    ("einstein", "einstein", "budget", "0"),
    ("einstein", "einstein", "budget", "-5"),
    ("curvature", "curvature", "epsilon", "oops"),
    ("center", "center", "translation_norm", "abc"),
    ("center", "center", "translation_norm", "2"),
    ("center", "center", "translation_norm", "1"),
    ("center", "center", "translation_norm", "0"),
    ("center", "center", "translation_norm", "-0.1"),
    ("wulff", "common", "seed", "-1"),
    ("curvature", "curvature", "epsilon", "nan"),
    ("curvature", "curvature", "epsilon", "inf"),
    ("curvature", "curvature", "epsilon", "0"),
    ("curvature", "curvature", "epsilon", "-1e-3"),
    ("curvature", "curvature", "epsilon", "10"),
    # keys the schema no longer takes fail as unknown names, whatever value
    ("kernel", "kernel", "n_vectors", "abc"),
    ("kernel", "kernel", "n_vectors", "0"),
    ("kernel", "kernel", "n_vectors", "-2"),
    ("kernel", "kernel", "threshold", "abc"),
    ("kernel", "kernel", "threshold", "nan"),
    ("kernel", "kernel", "threshold", "-1"),
    ("kernel", "kernel", "threshold", "0"),
    ("center", "center", "recovery_tol", "abc"),
    ("center", "center", "recovery_tol", "nan"),
    ("center", "center", "recovery_tol", "-1"),
    ("center", "center", "recovery_tol", "0"),
])
def test_bad_numeric_values_exit_2(tmp_path, capsys, command, section, key,
                                   value):
    body = BASE.format(integrand="constant")
    if section == "common":  # BASE already opens [common] and sets its seed
        body = body.replace("seed = 11", f"{key} = {value}")
    else:
        body += f"\n[{section}]\n{key} = {value}\n"
    cfg = write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["wulff", "einstein"])
def test_bad_einstein_key_rejected_by_every_command(tmp_path, capsys,
                                                    command):
    """Every section is range-checked when the config is read, so a command
    that never reads a section still rejects a bad value in it."""
    for section, key, value in [("common", "tolerance", "0"),
                                ("einstein", "budget", "0"),
                                ("kernel", "levels", "3,9"),
                                ("center", "translation_norm", "2"),
                                ("sweep", "amplitudes", "3,2,1"),
                                ("curvature", "family", "harmonic:12,0")]:
        body = BASE.format(integrand="constant")
        if section == "common":
            body += f"{key} = {value}\n"
        else:
            body += f"\n[{section}]\n{key} = {value}\n"
        cfg = write_config(tmp_path, body)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()


def test_einstein_csv_matches_golden_bytes(tmp_path):
    """einstein.csv of a small run matches a stored fixture byte for byte,
    so an edit of polys_batch that moves any value of p or q, and with it
    the Monte Carlo extremizers or the polish, shows here."""
    cfg = write_config(tmp_path, """
[common]
seed = 1

[einstein]
dimensions = 3,4,5
kappas = -1,0,1
budget = 20000
""")
    out = tmp_path / "e"
    assert main(["einstein", "--config", cfg, "--out", str(out)]) == 1
    golden = os.path.join(os.path.dirname(__file__), "fixtures",
                          "einstein_small_seed1.csv")
    with open(golden, "rb") as fh:
        assert (out / "einstein.csv").read_bytes() == fh.read()


def test_einstein_example_csv_matches_golden_bytes(tmp_path):
    """einstein.csv of the example grid (seed 42, budget 200000) matches a
    stored fixture byte for byte. Each cell draws two Monte Carlo batches
    into one reused buffer, so a row of the first batch that reached the
    second batch's extremizer would show here."""
    cfg = write_config(tmp_path, """
[common]
seed = 42

[einstein]
dimensions = 3,4,5
kappas = -1,0,1
budget = 200000
""")
    out = tmp_path / "e"
    assert main(["einstein", "--config", cfg, "--out", str(out)]) == 1
    golden = os.path.join(os.path.dirname(__file__), "fixtures",
                          "einstein_example_seed42.csv")
    with open(golden, "rb") as fh:
        assert (out / "einstein.csv").read_bytes() == fh.read()


def test_negative_seed_flag_exits_2(tmp_path):
    cfg = write_config(tmp_path, "[common]\nlevel = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["wulff", "--config", cfg, "--seed", "-1",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, section, key, value", [
    ("einstein", "einstein", "dimensions", "abc"),
    ("einstein", "einstein", "dimensions", "3.5"),
    ("einstein", "einstein", "dimensions", "1,3"),
    ("einstein", "einstein", "dimensions", "3,71"),
    ("einstein", "einstein", "kappas", "-1,x"),
    ("einstein", "einstein", "kappas", "nan"),
    ("einstein", "einstein", "kappas", "20"),
    ("einstein", "einstein", "kappas", "0,-10.5"),
    ("kernel", "kernel", "levels", "3,four"),
    ("kernel", "kernel", "levels", ""),
    ("kernel", "kernel", "levels", "1,2"),
    ("kernel", "kernel", "levels", "3,9"),
    ("center", "center", "translation", "0.1,abc,0"),
    ("center", "center", "translation", "0.1,0.2"),
    ("center", "center", "translation", "0,0,0"),
    ("center", "center", "epsilons", "0.01;abc"),
    ("center", "center", "epsilons", "-0.01,0.02"),
    ("center", "center", "epsilons", "0.01"),
    ("center", "center", "epsilons", "0.01,0.01"),
    ("center", "center", "epsilons", "0.01,0.02,0.01"),
    ("sweep", "sweep", "amplitudes", "1e-3,abc,4"),
    ("sweep", "sweep", "amplitudes", "inf"),
    ("sweep", "sweep", "amplitudes", "0,1e-2,6"),
    ("sweep", "sweep", "amplitudes", "1e-4,1e-2,1000000"),
])
def test_bad_list_values_exit_2(tmp_path, capsys, command, section, key,
                                value):
    cfg = write_config(tmp_path, BASE.format(integrand="constant")
                       + f"\n[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()  # rejected with the config, before out is made


def test_kernel_default_levels_stay_in_range(tmp_path, capsys):
    """At level 3 the default levels are 2, 3 (level 1 is not buildable)."""
    cfg = write_config(tmp_path, "[common]\nlevel = 3\n")
    out = tmp_path / "k"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    rows = csv.DictReader((out / "kernel.csv").read_text().splitlines())
    assert [row["level"] for row in rows if not row["note"]] == ["2", "3"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_nonpositive_tolerance_exit_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path, f"[common]\nlevel = 3\ntolerance = {value}\n")
    assert main(["center", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "common.tolerance" in capsys.readouterr().err


def test_center_at_level_2_runs(tmp_path):
    """Level 2 admits band 6 at most; both the recovery and the one-step
    cases analyse at min(10, band limit)."""
    cfg = write_config(tmp_path, "[common]\nlevel = 2\n")
    out = tmp_path / "c2"
    assert main(["center", "--config", cfg, "--out", str(out)]) in (0, 1)
    rows = list(csv.DictReader((out / "center.csv").read_text().splitlines()))
    assert [row["case"] for row in rows] == (
        ["translate_recovery"] + ["one_step"] * 3 + ["one_step_exponent"])
    assert all(np.isfinite(float(row["residual"])) for row in rows)
    assert (out / "center.dat").exists()


def test_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    """An empty common.out names no directory; --out can still supply one."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "[common]\nlevel = 2\nout =\n")
    assert main(["wulff", "--config", cfg]) == 2
    assert "common.out" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]
    assert main(["wulff", "--config", cfg, "--out", "o"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["wulff", "--config", cfg, "--out", ""])
    assert exc.value.code == 2


@pytest.mark.parametrize("body, where", [
    ("[common]\nlevl = 3\n", "common.levl"),
    ("[common]\nlevel = 3\n[sweeep]\nfamily = harmonic:2,0\n",
     "sweeep.family"),
    ("[common]\nlevel = 3\n[sweeep]\n", "sweeep"),
    ("[Common]\nlevel = 3\n", "Common.level"),
    ("[DEFAULT]\nlevel = 3\n", "DEFAULT.level"),
    ("[common]\nlevel = 3\n[curvature]\namplitudes = 1e-3,1e-2,4\n",
     "curvature.amplitudes"),
    ("[common]\nlevel = 3\n[center]\ntranslation_nrom = 0.05\n",
     "center.translation_nrom"),
    ("[common]\nlevel = 3\n[kernel]\nn_vectors = 5\n", "kernel.n_vectors"),
    ("[common]\nlevel = 3\n[kernel]\nthreshold = 0.02\n",
     "kernel.threshold"),
    ("[common]\nlevel = 3\n[center]\nrecovery_tol = 1e-4\n",
     "center.recovery_tol"),
], ids=["key", "section-key", "empty-section", "section-case", "default",
        "other-command-key", "misspelled-key", "removed-n_vectors",
        "removed-threshold", "removed-recovery_tol"])
def test_unknown_names_exit_2(tmp_path, capsys, body, where):
    """A misspelled section or key is rejected before any command runs, and
    so is a removed key (a probe count or a verdict bound), even at its
    former default."""
    cfg = write_config(tmp_path, body)
    with pytest.raises(ConfigError, match=where):
        ExperimentConfig(cfg)
    out = tmp_path / "o"
    assert main(["wulff", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {where}" in capsys.readouterr().err
    assert not out.exists()


def test_example_config_names_are_known():
    path = os.path.join(os.path.dirname(__file__), "..", "configs",
                        "example.ini")
    cfg = ExperimentConfig(path)
    assert cfg.level == 5 and cfg.integrand.family == "quadratic"
