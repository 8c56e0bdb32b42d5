import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import cap_fit_reference
from wulffstab.flatgraph import (GridField, cap_fit_residual, flat_graph_shape,
                                 grid_w2p_norm)

rng = np.random.default_rng(53)


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 5)), 1.0)


def test_quadratic_graph_shape_at_origin():
    """u = z^T Q z / 2 has Du(0) = 0, so h(0) = Q to stencil accuracy."""
    Q = np.array([[0.7, 0.2], [0.2, -0.4]])
    g = GridField.from_function(
        lambda x, y: 0.5 * (Q[0, 0] * x * x + 2 * Q[0, 1] * x * y
                            + Q[1, 1] * y * y), 0.5, 101)
    h, mask, warn = flat_graph_shape(g)
    i0 = g.n // 2
    assert mask[i0, i0] and not warn
    assert_allclose(h[i0, i0], Q, atol=1e-8)


def test_matches_expanded_formula_oracle():
    """Nested differences agree with the product-rule expansion of h(u)
    evaluated with near-exact derivatives of an analytic test function."""
    a = rng.normal(size=6) * 0.3

    def f(x, y):
        return (a[0] * np.sin(1.3 * x + 0.4) + a[1] * np.cos(0.9 * y)
                + a[2] * x * y + a[3] * np.sin(x * y) + a[4] * x ** 2
                + a[5] * np.cos(1.7 * x - 0.6 * y))

    g = GridField.from_function(f, 0.5, 401)
    h, mask, _ = flat_graph_shape(g)

    def d(fn, x, y, ax, step=1e-5):
        if ax == 0:
            return (fn(x + step, y) - fn(x - step, y)) / (2 * step)
        return (fn(x, y + step) - fn(x, y - step)) / (2 * step)

    xs, ys, hs = g.x[mask][::677], g.y[mask][::677], h[mask][::677]
    for x0, y0, hval in zip(xs, ys, hs):
        ux, uy = d(f, x0, y0, 0), d(f, x0, y0, 1)
        uxx = d(lambda p, q: d(f, p, q, 0), x0, y0, 0)
        uxy = d(lambda p, q: d(f, p, q, 0), x0, y0, 1)
        uyy = d(lambda p, q: d(f, p, q, 1), x0, y0, 1)
        Du = np.array([ux, uy])
        Hu = np.array([[uxx, uxy], [uxy, uyy]])
        gam = np.sqrt(1 + Du @ Du)
        oracle = Hu / gam - np.outer(Du, Du @ Hu) / gam ** 3
        assert np.abs(hval - oracle).max() <= 1e-6


def test_steep_rim_trimmed_with_warning():
    lam = 1.05  # cap steeper than the grid square half-diagonal allows
    g = GridField.from_function(
        lambda x, y: 1 - np.sqrt(np.maximum(1 - lam ** 2 * (x ** 2 + y ** 2),
                                            1e-6)), 0.92, 201)
    h, mask, warn = flat_graph_shape(g, slope_limit=2.0)
    assert warn
    assert mask.sum() > 0


def test_cap_fit_finds_lambda():
    lam = 0.37
    g = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)), 0.8, 151)
    resid, lstar = cap_fit_residual(g)
    assert abs(lstar - lam) < 1e-8
    assert resid < 1e-8


def test_cap_fit_evaluates_each_lambda_once(monkeypatch):
    """No W^{2,p} norm is computed twice for one lambda, and the result is
    bit-identical to a polish that recomputes them (the oracle)."""
    from wulffstab import flatgraph
    lam = 0.52
    g = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)), 0.9, 121)
    expected = cap_fit_reference(g)
    fields = []

    def counted(field, p, mask=None):
        fields.append(field.values.tobytes())
        return grid_w2p_norm(field, p, mask)

    monkeypatch.setattr(flatgraph, "grid_w2p_norm", counted)
    assert cap_fit_residual(g) == expected
    assert len(set(fields)) == len(fields)


def test_w2p_norm_of_plane():
    g = GridField.from_function(lambda x, y: 0 * x + 2.0, 1.0, 81)
    n = grid_w2p_norm(g, 2)
    # only the value term contributes: 2 * sqrt(disk area)
    assert abs(n - 2 * np.sqrt(np.pi)) / (2 * np.sqrt(np.pi)) < 0.05
