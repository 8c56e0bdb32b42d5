import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from oracles import (cap_fit_reference, diff4_roll, flat_graph_shape_reference,
                     grid_w2p_norm_reference)
from wulffstab.flatgraph import (GridField, _diff4, _differences, _disk_mask,
                                 cap_fit_residual, flat_graph_shape,
                                 grid_w2p_norm)

rng = np.random.default_rng(53)


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField(np.zeros((4, 5)), 1.0)


@pytest.mark.parametrize("extent, n, named", [
    (0.8, 1, "n = 1"), (0.8, 0, "n = 0"), (0.0, 41, "0.0"),
    (-0.9, 41, "-0.9"), (np.nan, 41, "nan"), (np.inf, 41, "inf")])
def test_grid_field_rejects_degenerate_grids(extent, n, named):
    """A grid of fewer than 2 points a side, or whose extent is not finite
    and positive, is refused by name rather than differenced into inf,
    NaN or a mirrored disk."""
    with pytest.raises(ValueError, match=named):
        GridField(np.zeros((n, n)), extent)


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
    h, mask, warn = flat_graph_shape(g)
    assert warn
    assert mask.sum() > 0


def test_cap_fit_finds_lambda():
    lam = 0.37
    g = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)), 0.8, 151)
    resid, lstar = cap_fit_residual(g)
    assert abs(lstar - lam) < 1e-8
    assert resid < 1e-8


def assert_fit_close(fit, expected, lam_tol=1e-11, floor=0):
    """(residual, lambda*) within the drift of summing on the grid in
    another order than the gathering oracle. A literal cap's residual is
    rounding noise that moves with the last bit of lambda*; once the two
    searches take different paths it is held to the floor instead."""
    assert_allclose(fit[0], expected[0], rtol=1e-12, atol=floor)
    assert abs(fit[1] - expected[1]) <= lam_tol


def spy_norms(monkeypatch):
    """The fields of every W^{2,p} norm a cap fit computes, in call order."""
    from wulffstab import flatgraph
    fields = []

    def counted(field, p, mask=None):
        fields.append(field.values.copy())
        return grid_w2p_norm(field, p, mask)

    monkeypatch.setattr(flatgraph, "grid_w2p_norm", counted)
    return fields


def literal_cap(lam, extent, n):
    return GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)), extent, n)


def assert_each_lambda_once(monkeypatch, n, lam_tol=1e-11, floor=0):
    """No W^{2,p} norm is computed twice for one lambda on one grid, and
    the result matches a polish that recomputes them (the oracle)."""
    g = literal_cap(0.52, 0.9, n)
    expected = cap_fit_reference(g)
    fields = spy_norms(monkeypatch)
    assert_fit_close(cap_fit_residual(g), expected, lam_tol, floor)
    keys = [f.tobytes() for f in fields]
    assert len(set(keys)) == len(keys)
    return fields


def test_cap_fit_evaluates_each_lambda_once(monkeypatch):
    assert_each_lambda_once(monkeypatch, 121)


def test_cap_fit_on_subgrid_evaluates_each_lambda_once(monkeypatch):
    """The same on 161^2, where Brent runs on the 41^2 subgrid."""
    fields = assert_each_lambda_once(monkeypatch, 161, 1e-8, floor=1e-11)
    shapes = {f.shape for f in fields}
    assert shapes == {(41, 41), (161, 161)}


def test_cap_fit_on_401_polishes_with_few_full_norms(monkeypatch):
    """A literal cap needs one delta = 1e-5 and one delta = 1e-8 polish
    step on the full grid: 7 norms there (at most 8 pinned), the rest of
    the search on the 101^2 subgrid."""
    lam = 0.48
    fields = spy_norms(monkeypatch)
    resid, lstar = cap_fit_residual(literal_cap(lam, 0.9, 401))
    full = sum(f.shape == (401, 401) for f in fields)
    assert full <= 8
    assert {f.shape for f in fields} == {(101, 101), (401, 401)}
    assert resid <= 1e-11 and abs(lstar - lam) <= 1e-14


def test_w2p_norm_of_plane():
    g = GridField.from_function(lambda x, y: 0 * x + 2.0, 1.0, 81)
    n = grid_w2p_norm(g, 2)
    # only the value term contributes: 2 * sqrt(disk area)
    assert abs(n - 2 * np.sqrt(np.pi)) / (2 * np.sqrt(np.pi)) < 0.05


def _wavy(n, nan=False):
    """A smooth field on an n x n grid, optionally with NaN entries inside
    the disk and at the rim."""
    a = rng.normal(size=3)
    g = GridField.from_function(
        lambda x, y: (a[0] * np.sin(2.1 * x + 0.3) + a[1] * x * y
                      + a[2] * np.cos(1.4 * y)), 0.8, n)
    if nan:
        g.values[n // 3, n // 2] = np.nan
        g.values[n // 2:n // 2 + 2, 4] = np.nan
        g.values[0, n - 1] = np.nan
    return g


@pytest.mark.parametrize("n", [5, 6, 40, 41, 200])
@pytest.mark.parametrize("nan", [False, True])
def test_diff4_matches_roll_oracle(n, nan):
    g = _wavy(n, nan)
    for axis in (0, 1):
        expected = diff4_roll(g.values, axis, g.spacing)
        assert_array_equal(_diff4(g.values, axis, g.spacing), expected)
        # a strided view (as flat_graph_shape passes) gives the same values
        stacked = np.stack([g.values, -g.values], axis=-1)
        assert_array_equal(_diff4(stacked[..., 0], axis, g.spacing), expected)


@pytest.mark.parametrize("n", [40, 41])
@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("p", [2, 4.0])
def test_w2p_norm_matches_roll_oracle(n, nan, p):
    """Without a mask the norm scans the disk for NaN as before; the
    mask it would build, or any subset of it, integrates over exactly
    those points. The oracle gathers first and sums in another order."""
    g = _wavy(n, nan)
    ref = grid_w2p_norm_reference(g, p)
    assert_allclose(grid_w2p_norm(g, p), ref, rtol=1e-14, atol=0)
    mask = _disk_mask(g.x ** 2 + g.y ** 2, g.extent,
                      _differences(g.values, g.spacing))
    assert_allclose(grid_w2p_norm(g, p, mask), ref, rtol=1e-14, atol=0)
    half = mask & (g.x < 0.1)
    assert_allclose(grid_w2p_norm(g, p, half),
                    grid_w2p_norm_reference(g, p, half), rtol=1e-14, atol=0)


LAM_PAST = 0.999 / (0.85 * np.sqrt(2.0)) - 3e-6  # a polish step past lam_max


@pytest.mark.parametrize("n, nan, lam, p, lam_tol", [
    pytest.param(60, False, 0.41, 2, 1e-11, id="60-False-0.41"),
    pytest.param(61, True, 0.41, 2, 1e-11, id="61-True-0.41"),
    pytest.param(60, False, LAM_PAST, 2, 1e-11, id=f"60-False-{LAM_PAST}"),
    # lambda* moves 2.3e-10 and 2.9e-10 against the oracle here
    pytest.param(60, False, 0.41, 4, 1e-9, id="60-False-0.41-p4"),
    pytest.param(61, True, 0.41, 4, 1e-9, id="61-True-0.41-p4"),
])
def test_cap_fit_matches_roll_oracle(n, nan, lam, p, lam_tol):
    """The once-per-fit mask, r^2 and grids leave (residual, lambda*)
    where the per-call scan puts them, also when u has NaN entries and
    when a polish step leaves the search bracket. The residual is flat at
    its minimizer, so rounding moves lambda* by more than the residual."""
    g = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2))
        + 0.01 * np.sin(3 * x), 0.85, n)
    if nan:
        g.values[n // 4, n // 3] = np.nan
    assert_fit_close(cap_fit_residual(g, p), cap_fit_reference(g, p), lam_tol)


def _cap_wave(lam, n, nan_at=None):
    """The cap of curvature lam plus 0.01 sin 3x on [-0.85, 0.85]^2, with
    NaN at the points nan_at picks out."""
    g = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2))
        + 0.01 * np.sin(3 * x), 0.85, n)
    if nan_at is not None:
        g.values[nan_at] = np.nan
    return g


@pytest.mark.parametrize("field, p, floor", [
    pytest.param(_cap_wave(0.41, 161), 2, 0, id="wave-p2"),
    pytest.param(_cap_wave(0.41, 161), 4.0, 0, id="wave-p4"),
    pytest.param(_cap_wave(0.41, 161, (40, 53)), 2, 0, id="wave-nan-p2"),
    pytest.param(_cap_wave(0.41, 161, (40, 53)), 4.0, 0, id="wave-nan-p4"),
    pytest.param(literal_cap(0.6, 0.85, 161), 2, 1e-11, id="cap-p2"),
])
def test_cap_fit_on_subgrid_matches_roll_oracle(monkeypatch, field, p, floor):
    """On 161^2 Brent searches the 41^2 subgrid and the polish finishes on
    the full grid; (residual, lambda*) land where the full-grid search of
    the oracle puts them. The minimum is flat, so lambda* agrees to 1e-8
    (2.9e-10 read here) while the residual agrees to rounding."""
    expected = cap_fit_reference(field, p)
    fields = spy_norms(monkeypatch)
    assert_fit_close(cap_fit_residual(field, p), expected, 1e-8, floor)
    assert (41, 41) in {f.shape for f in fields}


def test_cap_fit_falls_back_when_the_subgrid_mask_is_empty(monkeypatch):
    """NaN on every 4th row of the subgrid (every 16th of the grid) leaves
    the subgrid no point whose differences are all finite, but the full
    grid keeps rows between them: Brent then runs on the full grid."""
    field = _cap_wave(0.41, 161, (slice(None, None, 16), slice(None)))
    expected = cap_fit_reference(field)
    fields = spy_norms(monkeypatch)
    assert_fit_close(cap_fit_residual(field), expected, 1e-8)
    assert {f.shape for f in fields} == {(161, 161)}


def _steep_rim(n):
    """A cap steeper than the slope limit 4.5 near the rim, with a NaN
    inside."""
    g = GridField.from_function(
        lambda x, y: 1 - np.sqrt(np.maximum(1 - 1.05 ** 2 * (x ** 2 + y ** 2),
                                            1e-6)), 0.92, n)
    g.values[n // 2, n // 3] = np.nan
    return g


@pytest.mark.parametrize("n", [40, 41, 200])
@pytest.mark.parametrize("case", ["smooth", "nan", "steep"])
def test_shape_matches_stack_oracle(n, case):
    """The (2, n, n) and (2, 2, n, n) grids give h, its NaN, the mask and
    the warning bit for bit as the stacked (n, n, 2) version does."""
    g = _steep_rim(n) if case == "steep" else _wavy(n, case == "nan")
    got = flat_graph_shape(g)
    expected = flat_graph_shape_reference(g)
    assert got[0].shape == (n, n, 2, 2)
    assert_array_equal(got[0], expected[0])
    assert_array_equal(got[1], expected[1])
    assert got[2] == expected[2] == (case == "steep")


@pytest.mark.parametrize("fill, n", [(np.nan, 41), (1.0, 8)])
def test_empty_mask_raises(fill, n):
    """No point to integrate over is an error, not a perfect fit: an
    all-NaN u, an empty mask, or 8 points a side, where the nested
    differences leave no interior."""
    g = GridField(np.full((n, n), fill), 0.8)
    with pytest.raises(ValueError, match="empty"):
        grid_w2p_norm(g, 2)
    with pytest.raises(ValueError, match="empty"):
        grid_w2p_norm(g, 2, np.zeros((n, n), bool))
    with pytest.raises(ValueError, match="empty"):
        cap_fit_residual(g)


def test_nine_points_leave_the_center():
    """u = 1 on 9 x 9 points: only the center cell (side 0.2) is left."""
    g = GridField(np.ones((9, 9)), 0.8)
    assert grid_w2p_norm(g, 2) == pytest.approx(0.2, rel=1e-12)
    assert cap_fit_residual(g)[0] == pytest.approx(0.2, rel=1e-6)


@pytest.mark.parametrize("p", [np.inf, -np.inf])
def test_infinite_p_raises(p):
    """p = inf is no W^{2,p} norm these sums compute; it is rejected, not
    summed as if finite."""
    g = GridField.from_function(lambda x, y: 0 * x + 1.0, 1.0, 41)
    with pytest.raises(ValueError, match="finite p >= 1"):
        grid_w2p_norm(g, p)
    with pytest.raises(ValueError, match="finite p >= 1"):
        cap_fit_residual(g, p)


@pytest.mark.parametrize("p", [np.nextafter(1.0, 0.0), 0, -1, np.nan])
def test_p_below_one_raises(p):
    """W^{2,p} is a norm for p >= 1 only; p = 1 itself is accepted."""
    g = GridField.from_function(lambda x, y: 0 * x + 1.0, 1.0, 41)
    with pytest.raises(ValueError, match="p >= 1"):
        grid_w2p_norm(g, p)
    with pytest.raises(ValueError, match="p >= 1"):
        cap_fit_residual(g, p)
    assert grid_w2p_norm(g, 1) > 0
    assert cap_fit_residual(g, 1)[0] > 0
