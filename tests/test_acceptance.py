"""Acceptance suite: one test per criterion, at pinned tolerances.

Each test prints a PASS line with its measured numbers (run with -s to see
them). Three classical-looking sub-claims are analytically false and are
kept as strict xfails whose bodies exhibit the counterexample, next to
passing tests of the corrected statements:

* the flat-graph cap formula 1 - sqrt(1 - lambda^2 |z|^2) has center
  curvature lambda^2, not lambda (the curvature-lambda cap divides by
  lambda and passes);
* the pinching factor (n-1) Lambda^2 fails at n = 3 (lambda = (1,1,2));
  the provable factor (n-2)^2 Lambda^2 passes everywhere;
* the zero-set characterization of q fails for kappa < 0, n >= 4.
"""

import time

import numpy as np
import pytest

from oracles import ricci_matrix_oracle
from wulffstab import Integrand, build_sphere_mesh, build_wulff
from wulffstab import einstein as es
from wulffstab import spectral
from wulffstab.cli import main
from wulffstab.curvature import anisotropic_shape_operator, oscillation_deficit
from wulffstab.flatgraph import GridField, cap_fit_residual, flat_graph_shape
from wulffstab.stability import (SpectralGraphSurface, center,
                                 scaling_sweep, stability_operator)
from wulffstab.surface import radial_graph

M_ELLIPSOID = np.diag([1.0, 1.0, 4.0])


@pytest.fixture(scope="module")
def ellipsoid():
    return Integrand.quadratic_form(M_ELLIPSOID)


@pytest.fixture(scope="module")
def sphere5():
    return build_sphere_mesh(5)


@pytest.fixture(scope="module")
def y20_sweep(sphere5):
    """Criterion 4/6 shared sweep: exp_graph(eps Y20), eps in [1e-4, 1e-2]."""
    amps = np.geomspace(1e-4, 1e-2, 6)
    t0 = time.perf_counter()
    fits = scaling_sweep(sphere5, Integrand.constant(), ("harmonic", 2, 0),
                         amps, 4.0)
    return fits, time.perf_counter() - t0, amps


def test_criterion_1_wulff_correctness(ellipsoid):
    t0 = time.perf_counter()
    W = build_wulff(ellipsoid, 5)
    resid = np.abs(np.einsum("ni,ij,nj->n", W.vertices,
                             np.linalg.inv(M_ELLIPSOID), W.vertices) - 1).max()
    S = build_wulff(Integrand.constant(), 5)
    sphere_resid = np.abs(np.linalg.norm(S.vertices, axis=1) - 1).max()
    elapsed = time.perf_counter() - t0
    assert resid <= 1e-10
    assert sphere_resid <= 1e-12
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 wulff-correctness: PASS "
          f"(ellipsoid {resid:.2e} <= 1e-10, sphere {sphere_resid:.2e} "
          f"<= 1e-12, {elapsed:.1f}s < 5s)")


def rounding_bound(base):
    """Rounding-level bound on a quantity that is exactly 0: 1e-12, scaled
    by the base's largest principal curvature 0.9 / reach where it is > 1."""
    return 1e-12 * max(1.0, 0.9 / base.reach)


def test_criterion_2_anisotropic_rigidity(ellipsoid):
    """S_F = Id on the unperturbed Wulff shape: the graph geometry is exact
    in the directions, so the error sits at rounding on every level."""
    errs, bounds = [], []
    for level in (3, 4, 5, 6):
        W = build_wulff(ellipsoid, level)
        geom = radial_graph(W, np.zeros(W.n_vertices))
        S, _ = anisotropic_shape_operator(geom, ellipsoid)
        errs.append(np.abs(S.values - np.eye(2)[None]).max())
        bounds.append(rounding_bound(W))
    assert all(e <= b for e, b in zip(errs, bounds)), (errs, bounds)
    print(f"\nACCEPTANCE 2 anisotropic-rigidity: PASS (errors "
          + ", ".join(f"{e:.1e}" for e in errs)
          + f" <= {max(bounds):.0e} at levels 3-6)")


def test_criterion_3_kernel_characterization(ellipsoid):
    rng = np.random.default_rng(2024)
    cs = rng.normal(size=(5, 3))
    cs /= np.linalg.norm(cs, axis=1, keepdims=True)
    results = {}
    for name, builder, integ in (
            ("sphere", build_sphere_mesh, Integrand.constant()),
            ("ellipsoid", lambda lv: build_wulff(ellipsoid, lv), ellipsoid)):
        worst = []
        for level in (3, 4, 5):
            base = builder(level)
            res = []
            for c in cs:
                phi = base.normals @ c
                L = stability_operator(base, integ, phi)
                res.append(float(np.sqrt(np.sum(base.weights * L ** 2)
                                         / np.sum(base.weights * phi ** 2))))
            worst.append(max(res))
            assert worst[-1] <= rounding_bound(base), f"{name}: {worst}"
        assert worst[-1] <= 0.02, f"{name}: {worst[-1]}"
        results[name] = worst
    mesh = build_sphere_mesh(5)
    col = spectral.sh_index(2, 0)
    y2 = spectral.real_sph_harm_matrix(mesh.vertices, 2)[:, col]
    L = stability_operator(mesh, Integrand.constant(), y2)
    ray = np.sum(mesh.weights * L * y2) / np.sum(mesh.weights * y2 ** 2)
    assert abs(ray + 4.0) / 4.0 <= 0.02
    print("\nACCEPTANCE 3 kernel-characterization: PASS "
          f"(level-5 residuals sphere {results['sphere'][-1]:.1e}, "
          f"ellipsoid {results['ellipsoid'][-1]:.1e} <= 0.02, at rounding "
          f"on levels 3-5; Y2 eigenvalue {ray:.3f} within 2% of -4)")


def test_criterion_4_stability_scaling(sphere5, y20_sweep):
    (deficit_fit, distance_fit, rows), elapsed, amps = y20_sweep
    assert elapsed < 60.0
    assert abs(distance_fit.slope - 1.0) <= 0.10
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) / min(ratios) < 2.0
    c = np.array([0.36, -0.48, 0.8])
    t0 = time.perf_counter()
    kd_fit, _, krows = scaling_sweep(sphere5, Integrand.constant(),
                                     ("kernel", c), amps, 4.0)
    k_elapsed = time.perf_counter() - t0
    assert k_elapsed < 60.0
    assert abs(kd_fit.slope - 2.0) <= 0.15
    # distance is K eps^2; the 1e-6 bound is read at the base amplitude
    base_distance = krows[0]["distance"]
    assert base_distance <= 1e-6
    print(f"\nACCEPTANCE 4 stability-scaling: PASS (distance slope "
          f"{distance_fit.slope:.3f} = 1.00+-0.10, ratio drift "
          f"{max(ratios) / min(ratios):.3f} < 2, kernel deficit slope "
          f"{kd_fit.slope:.3f} = 2.00+-0.15, post-centering distance "
          f"{base_distance:.1e} <= 1e-6 at eps={amps[0]:g}; "
          f"{elapsed:.0f}s/{k_elapsed:.0f}s < 60s per sweep)")


def test_criterion_5_centering(sphere5):
    t = np.array([0.03, -0.02, 0.028])
    t *= 0.05 / np.linalg.norm(t)
    s = sphere5.vertices @ t
    f = np.log(s + np.sqrt(1 - t @ t + s ** 2))
    coeffs = spectral.sh_analyze(sphere5, f, 10)
    res = center(SpectralGraphSurface(sphere5, coeffs, "exp"))
    err = np.linalg.norm(res.c - t)
    assert err <= 1e-4
    assert res.iterations <= 10
    that = np.array([0.6, -0.48, 0.64])
    col = spectral.sh_index(2, 0)
    y20 = spectral.real_sph_harm_matrix(sphere5.vertices, 2)[:, col]
    eps_list = (0.01, 0.02, 0.04)
    one_step = []
    for eps in eps_list:
        fe = eps * (sphere5.vertices @ that) + eps * y20
        ce = spectral.sh_analyze(sphere5, fe, 10)
        r1 = center(SpectralGraphSurface(sphere5, ce, "exp"),
                    tolerance=1e-15, max_iter=1)
        one_step.append(r1.trace[-1])
    expo = np.polyfit(np.log(eps_list), np.log(one_step), 1)[0]
    assert abs(expo - 2.0) <= 0.2
    print(f"\nACCEPTANCE 5 centering: PASS (|c - t| = {err:.1e} <= 1e-4 in "
          f"{res.iterations} <= 10 iterations; one-step exponent "
          f"{expo:.2f} = 2.0+-0.2)")


def test_criterion_6_oscillation(sphere5, y20_sweep):
    _, _, amps = y20_sweep
    const = Integrand.constant()
    from wulffstab.surface import exp_graph
    col = spectral.sh_index(2, 0)
    y20 = spectral.real_sph_harm_matrix(sphere5.vertices, 2)[:, col]
    coscs, lam_err = [], []
    for eps in amps:
        geom = exp_graph(sphere5, eps * y20)
        S, HF = anisotropic_shape_operator(geom, const)
        rep = oscillation_deficit(S, HF, geom.weights, 4.0)
        coscs.append(rep.c_osc)
        lam_err.append(abs(rep.lambda_star - rep.h_mean_over_n)
                       / rep.h_mean_over_n)
    assert max(lam_err) <= 0.05
    drift = max(coscs) / min(coscs)
    assert drift < 2.0
    print(f"\nACCEPTANCE 6 oscillation: PASS (lambda* within "
          f"{max(lam_err):.2%} of Hbar_F/n <= 5%, C_osc drift "
          f"{drift:.3f} < 2)")


def test_criterion_7_einstein_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for n in (3, 4, 5):
        for _ in range(100):
            lam = rng.normal(size=n) * 2
            direct = np.sort(es.ricci_spectrum(es.EigenSpectrum(lam)))
            worst = max(worst, np.abs(direct - ricci_matrix_oracle(lam)).max())
    assert worst <= 1e-12
    # zero sets where the characterization is mathematically true
    sound = [(3, -1.0), (3, 0.0), (3, 1.0), (4, 0.0), (4, 1.0),
             (5, 0.0), (5, 1.0)]
    for n, kap in sound:
        out = es.zero_set_check(n, kap)
        assert out["passed"], (n, kap, out)
    # pinching with the (n-1) factor: sound for n in {4, 5}
    violations = {}
    for n in (3, 4, 5):
        count = 0
        for b in range(10):
            g = np.random.default_rng((4321, n, b))
            lam = 0.5 + np.abs(g.normal(size=(100_000, n))) * 2
            Lam = lam * (lam.sum(axis=1, keepdims=True) - lam)
            ric2 = (Lam ** 2).sum(axis=1) - Lam.sum(axis=1) ** 2 / n
            h2 = (lam ** 2).sum(axis=1) - lam.sum(axis=1) ** 2 / n
            count += int(np.sum(ric2 < (n - 1) * 0.25 * h2 - 1e-12))
            # provable (n-2)^2 form must never fail
            assert not np.any(ric2 < (n - 2) ** 2 * 0.25 * h2 - 1e-12)
        violations[n] = count
    assert violations[4] == 0 and violations[5] == 0
    assert es.alpha_exponent(10, 4) == 1.0
    assert es.alpha_exponent(10, 8) == 0.25
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 7 einstein-algebra: PASS (Lambda vs matrix "
          f"{worst:.1e} <= 1e-12; zero sets verified on all sound cells; "
          f"pinching (n-1) zero violations for n=4,5 on 1e6 samples and "
          f"(n-2)^2 zero violations for n=3,4,5; alpha(10,4)=1, "
          f"alpha(10,8)=0.25; {elapsed:.0f}s < 30s) "
          f"[n=3 (n-1)-violations: {violations[3]} -> see xfail]")


@pytest.mark.xfail(strict=True, reason="(n-1) pinching factor is false for "
                   "n=3: lambda=(1,1,2), Lambda=1 gives |Ric_dev|^2 = 2/3 < "
                   "4/3 = 2 Lambda^2 |h_dev|^2; provable factor is (n-2)^2")
def test_criterion_7_pinching_literal_n3():
    g = np.random.default_rng((4321, 3, 0))
    lam = 0.5 + np.abs(g.normal(size=(1_000_000, 3))) * 2
    Lam = lam * (lam.sum(axis=1, keepdims=True) - lam)
    ric2 = (Lam ** 2).sum(axis=1) - Lam.sum(axis=1) ** 2 / 3
    h2 = (lam ** 2).sum(axis=1) - lam.sum(axis=1) ** 2 / 3
    assert not np.any(ric2 < 2 * 0.25 * h2 - 1e-12)


@pytest.mark.xfail(strict=True, reason="Z(q) is nonempty for kappa < 0 when "
                   "n >= 4: q vanishes at sqrt(-3 kappa)(-1,-1,1,1) and "
                   "sqrt(-2 kappa)(-1,-1,-1,2,2) while p does not")
def test_criterion_7_zero_sets_literal_negative_kappa():
    for n in (4, 5):
        out = es.zero_set_check(n, -1.0)
        assert out["passed"], (n, out)


def test_criterion_8_flat_graph_model_case():
    lam = 0.5
    grid = GridField.from_function(
        lambda x, y: (1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2))) / lam,
        0.9, 201)
    h, mask, warn = flat_graph_shape(grid)
    herr = np.abs(h[mask] - lam * np.eye(2)).max()
    assert not warn
    assert herr <= 1e-4
    literal = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)), 0.9, 201)
    resid, lstar = cap_fit_residual(literal)
    assert resid <= 1e-8
    assert abs(lstar - lam) < 1e-6
    print(f"\nACCEPTANCE 8 flat-graph-model-case: PASS (curvature-lambda cap "
          f"max|h - 0.5 Id| = {herr:.1e} <= 1e-4; cap-fit residual "
          f"{resid:.1e} <= 1e-8 at lambda* = {lstar:.6f}) "
          f"[literal formula clause -> see xfail]")


@pytest.mark.xfail(strict=True, reason="u = 1 - sqrt(1 - lambda^2 |z|^2) is "
                   "an ellipsoid graph with center curvature lambda^2 = "
                   "0.25; the curvature-lambda cap divides by lambda")
def test_criterion_8_flat_graph_literal_formula():
    lam = 0.5
    grid = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)), 0.9, 201)
    h, mask, _ = flat_graph_shape(grid)
    assert np.abs(h[mask] - lam * np.eye(2)).max() <= 1e-4


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("""
[common]
seed = 5
level = 3
p = 4
integrand = constant

[sweep]
family = harmonic:2,0
amplitudes = 1e-3,1e-2,5

[einstein]
dimensions = 3
kappas = 1
budget = 20000
""")
    pairs = []
    for sub in ("sweep", "einstein", "center"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}_{tag}"
            assert main([sub, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / f"{sub}.csv").read_bytes())
        assert outs[0] == outs[1], f"{sub} CSVs differ between runs"
        pairs.append(sub)
    print(f"\nACCEPTANCE 9 determinism: PASS (byte-identical CSVs for "
          f"{', '.join(pairs)} with fixed seed)")
