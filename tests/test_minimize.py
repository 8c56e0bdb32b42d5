"""The numpy minimizers against scipy's, step for step."""

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from wulffstab import GridField, build_wulff, radial_graph, spectral
from wulffstab.minimize import bounded_brent, nelder_mead
from wulffstab.nearest import SiteGrid


def assert_brent_matches_scipy(fun, lo, hi, xatol):
    calls = []

    def counted(x):
        calls.append(type(x))
        return fun(x)

    x, fx, nfev = bounded_brent(counted, lo, hi, xatol=xatol)
    ref = minimize_scalar(fun, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    assert x == ref.x and fx == ref.fun and nfev == ref.nfev == len(calls)
    # scipy passes numpy scalars; so does the port
    assert set(calls) == {np.float64}


def cap_objective(lam):
    """The squared W^{2,p} objective that cap_fit_residual's Brent search
    minimizes on the bench's 401^2 literal cap of curvature lam: the one on
    its 101^2 stride-4 subgrid, as a function of the cap's lambda."""
    from wulffstab.flatgraph import _cap_objective, _lam_max
    field = GridField.from_function(
        lambda x, y: 1 - np.sqrt(1 - lam ** 2 * (x ** 2 + y ** 2)), 0.9, 401)
    objective, mask = _cap_objective(field.values[::4, ::4], field.extent, 2)
    assert mask.shape == (101, 101) and mask.any()
    return lambda t: objective(t) ** 2, _lam_max(field.extent)


@pytest.mark.parametrize("lam", np.random.default_rng(1).uniform(0.2, 0.75, 3))
def test_brent_matches_scipy_on_cap_objectives(lam):
    """The three caps of the bench's algebra workload at seed 1."""
    objective, lam_max = cap_objective(lam)
    assert_brent_matches_scipy(objective, 0.0, lam_max, 1e-14)


@pytest.mark.parametrize("fun, lo, hi, xatol", [
    (lambda x: (x - 0.3) ** 2 + np.cos(5 * x), -1.0, 2.0, 1e-5),
    (lambda x: np.exp(x) - 2.5 * x, 0.0, 4.0, 1e-12),
    (lambda x: abs(x - 1.0), 1.0, 1.0, 1e-5),          # empty bracket
    (lambda x: -x, 0.0, 1.0, 1e-10),                    # minimum at a bound
])
def test_brent_matches_scipy_on_smooth_functions(fun, lo, hi, xatol):
    assert_brent_matches_scipy(fun, lo, hi, xatol)


def test_brent_stops_at_its_evaluation_cap(monkeypatch):
    import wulffstab.minimize
    monkeypatch.setattr(wulffstab.minimize, "_BRENT_MAXFUN", 5)
    x, fx, nfev = bounded_brent(lambda x: (x - 0.3) ** 2, -1.0, 2.0,
                                xatol=1e-14)
    ref = minimize_scalar(lambda x: (x - 0.3) ** 2, bounds=(-1.0, 2.0),
                          method="bounded",
                          options={"xatol": 1e-14, "maxiter": 5})
    assert (x, fx, nfev) == (ref.x, ref.fun, ref.nfev) and nfev == 5


def test_brent_rejects_bad_bounds():
    with pytest.raises(ValueError, match="lower bound"):
        bounded_brent(abs, 1.0, 0.0, 1e-5)
    with pytest.raises(ValueError, match="finite"):
        bounded_brent(abs, 0.0, np.inf, 1e-5)


@pytest.mark.parametrize("offset", [(0.0, 0.0, 0.0), (0.04, -0.02, 0.05)])
def test_nelder_mead_matches_scipy_on_the_hausdorff_objective(offset):
    """A translation search of the Hausdorff distance on the bench's W3
    graph, centred and translated: the same end point, value and steps,
    and every point scipy evaluates is among the port's."""
    from wulffstab import Integrand
    base = build_wulff(Integrand.quadratic_form(np.diag([1.0, 1.0, 4.0])), 3)
    u = 0.05 * spectral.real_sph_harm_matrix(base.normals, 2)[
        :, spectral.sh_index(2, 0)]
    a = radial_graph(base, u).positions + offset
    b = base.vertices
    grid_a, grid_b = SiteGrid(a), SiteGrid(b)

    def objective(t):
        return max(float(grid_b.distances(a - t).max()),
                   float(grid_a.distances(b + t).max()))

    t0 = a.mean(axis=0) - b.mean(axis=0)
    options = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 300}
    evaluated = []

    def batch(ts):
        evaluated.extend(map(tuple, ts))
        return np.array([objective(t) for t in ts])

    x, fx, nit = nelder_mead(batch, t0, **options)
    seen = []
    ref = minimize(lambda t: seen.append(tuple(t)) or objective(t), t0,
                   method="Nelder-Mead", options=options)
    np.testing.assert_array_equal(x, ref.x)
    assert fx == ref.fun and nit == ref.nit
    assert set(seen) <= set(evaluated)
    if any(offset):
        assert ref.nit > 20


def test_nelder_mead_runs_on_an_all_infinite_simplex():
    """Where every vertex value is inf, scipy's stopping test takes
    inf - inf = nan and fails: the run is not converged and goes on to
    maxiter, here with no invalid-value warning (warnings are errors in
    this suite). A floor on p + q that ignored the spectrum's scale would
    put ratio_bounds' polish here at kappa = 1.1e-308."""
    x, fx, nit = nelder_mead(lambda pts: np.full(len(pts), np.inf),
                             np.array([1.0, 2.0]), maxiter=6, xatol=1e-10,
                             fatol=1e-12)
    assert nit == 6 and fx == np.inf and np.isfinite(x).all()
