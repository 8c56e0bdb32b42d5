import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import ricci_from_riemann, riemann_brute
from wulffstab import Integrand
from wulffstab import spectral
from wulffstab.curvature import (anisotropic_shape_operator, gauss_ricci,
                                 oscillation_deficit, trace_free)
from wulffstab.surface import exp_graph, radial_graph

rng = np.random.default_rng(17)


def test_isotropic_sphere_shape_operator(sphere4):
    r = 1.4
    g = radial_graph(sphere4, np.full(sphere4.n_vertices, r - 1))
    S, HF = anisotropic_shape_operator(g, Integrand.constant())
    assert np.abs(S - np.eye(2)[None] / r).max() * r < 0.01
    assert np.abs(HF - 2 / r).max() * r / 2 < 0.01


def test_wulff_shape_operator_is_identity(wulff4, ellipsoid_integrand):
    g = radial_graph(wulff4, np.zeros(wulff4.n_vertices))
    S, HF = anisotropic_shape_operator(g, ellipsoid_integrand)
    assert np.abs(S - np.eye(2)[None]).max() < 5e-3
    assert np.abs(HF - 2.0).max() < 1e-2


def test_composition_matches_componentwise_product(sphere4):
    """S_F at a node is the 2x2 product of A_F in the surface basis and dnu."""
    integ = Integrand.fourier_perturbed(1.0, 0.07, (3, 1))
    col = spectral.sh_index(2, 1)
    f = 0.04 * spectral.real_sph_harm_matrix(sphere4.vertices, 2)[:, col]
    g = exp_graph(sphere4, f)
    S, _ = anisotropic_shape_operator(g, integ)
    for i in rng.integers(0, sphere4.n_vertices, size=12):
        tau = g.tangent_basis[i]
        A3 = integ.anisotropy_ambient(g.normal[i:i + 1])[0]
        A2 = tau.T @ A3 @ tau
        assert_allclose(S[i], A2 @ g.shape_operator[i], atol=1e-8)


def test_shape_operator_requires_elliptic(sphere4):
    bad = Integrand.fourier_perturbed(1.0, 1.2, (2, 0))
    g = exp_graph(sphere4, np.zeros(sphere4.n_vertices))
    with pytest.raises(ValueError):
        anisotropic_shape_operator(g, bad)


def test_trace_free_basics():
    dev = trace_free(np.tile(np.eye(2), (5, 1, 1)))
    assert dev.shape == (5, 2, 2)
    assert np.abs(dev).max() == 0.0
    dev = trace_free(np.array([[[3.0, 0.0], [0.0, 1.0]]]))
    assert_allclose(dev[0], np.diag([1.0, -1.0]))


def test_trace_free_pythagoras():
    vals = rng.normal(size=(100, 2, 2))
    vals = 0.5 * (vals + np.swapaxes(vals, 1, 2))
    dev = trace_free(vals)
    tr = np.einsum("nii->n", vals)
    lhs = np.linalg.norm(dev, axis=(1, 2)) ** 2 + tr ** 2 / 2
    rhs = np.linalg.norm(vals, axis=(1, 2)) ** 2
    assert np.abs(lhs - rhs).max() < 1e-12


def test_oscillation_identity_field(sphere4):
    S = np.tile(np.eye(2), (sphere4.n_vertices, 1, 1))
    rep = oscillation_deficit(S, np.full(sphere4.n_vertices, 2.0),
                              sphere4.weights, 3.0)
    assert rep.deficit < 1e-12
    assert abs(rep.lambda_star - 1.0) < 1e-6
    assert rep.oscillation < 1e-10
    assert abs(rep.h_mean_over_n - 1.0) < 1e-12
    assert np.isnan(rep.c_osc)


def test_oscillation_optimality(sphere4):
    """min over lambda never exceeds the value at H_mean / n."""
    col = spectral.sh_index(2, 0)
    f = 0.01 * spectral.real_sph_harm_matrix(sphere4.vertices, 2)[:, col]
    g = exp_graph(sphere4, f)
    S, HF = anisotropic_shape_operator(g, Integrand.constant())
    rep = oscillation_deficit(S, HF, g.weights, 4.0)
    from wulffstab.operators import lp_norm
    at_mean = lp_norm(S - rep.h_mean_over_n * np.eye(2)[None], 4.0,
                      g.weights)
    assert rep.oscillation <= at_mean + 1e-12
    assert abs(rep.lambda_star - rep.h_mean_over_n) / rep.h_mean_over_n < 0.05


def test_oscillation_lambda_star_at_p2(sphere4, wulff4, ellipsoid_integrand):
    """At p = 2, ||S_F - lambda Id||^2 = sum w (|S_F|^2 - 2 lambda tr S_F
    + 2 lambda^2) is least at lambda* = sum w tr S_F / (2 sum w)."""
    for base, integ in ((sphere4, Integrand.constant()),
                        (wulff4, ellipsoid_integrand)):
        Y = spectral.real_sph_harm_matrix(base.normals, 2)
        u = (0.04 * Y[:, spectral.sh_index(2, 0)]
             + 0.02 * Y[:, spectral.sh_index(2, 1)])
        g = radial_graph(base, u)
        S, HF = anisotropic_shape_operator(g, integ)
        rep = oscillation_deficit(S, HF, g.weights, 2.0)
        exact = np.sum(g.weights * HF) / (2 * g.weights.sum())
        assert abs(rep.lambda_star - exact) <= 2e-8 * abs(exact)


def test_oscillation_rejects_bad_p(sphere4):
    S = np.tile(np.eye(2), (sphere4.n_vertices, 1, 1))
    with pytest.raises(ValueError):
        oscillation_deficit(S, np.ones(sphere4.n_vertices), sphere4.weights, 1.0)


# --- Gauss equation algebra -------------------------------------------------


def test_unit_three_sphere():
    ric, r = gauss_ricci(np.eye(3))
    assert_allclose(ric, 2 * np.eye(3), atol=1e-15)
    assert r == 6.0


def test_diagonal_ricci_eigenvalues():
    lam = np.array([0.3, -1.2, 2.0, 0.7])
    ric, _ = gauss_ricci(np.diag(lam))
    expected = lam * (lam.sum() - lam)
    assert_allclose(np.diag(ric), expected, atol=1e-14)


def test_brute_force_contraction_oracle():
    for n in (3, 4, 5):
        for _ in range(100):
            h = rng.normal(size=(n, n))
            h = 0.5 * (h + h.T)
            ric, r = gauss_ricci(h)
            ric2 = ricci_from_riemann(riemann_brute(h))
            assert np.abs(ric - ric2).max() < 1e-12
            assert abs(r - (np.trace(h) ** 2 - np.sum(h * h))) < 1e-10
