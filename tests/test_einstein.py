import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from oracles import (pinching_check_provable, polys_batch_reference,
                     ricci_matrix_oracle, riemann_brute, zero_distance_sorted)
from wulffstab import einstein as es

rng = np.random.default_rng(41)


def test_unit_three_sphere_spectrum():
    assert_allclose(es.ricci_spectrum(es.EigenSpectrum([1, 1, 1])), [2, 2, 2])


def test_degenerate_spectrum_matches_matrix_oracle():
    lam = [0.0, 1.0, 1.0]
    direct = np.sort(es.ricci_spectrum(es.EigenSpectrum(lam)))
    assert_allclose(direct, [0.0, 1.0, 1.0], atol=1e-15)
    assert_allclose(direct, ricci_matrix_oracle(lam), atol=1e-12)


def test_random_spectra_match_matrix_route():
    for n in (3, 4, 5):
        for _ in range(100):
            lam = rng.normal(size=n) * 2
            direct = np.sort(es.ricci_spectrum(es.EigenSpectrum(lam)))
            assert np.abs(direct - ricci_matrix_oracle(lam)).max() < 1e-12


def test_dimension_guard():
    with pytest.raises(ValueError):
        es.EigenSpectrum([1.0, 2.0])


def test_trace_consistency():
    for n in (3, 4, 5):
        lam = rng.normal(size=n)
        Lam = es.ricci_spectrum(es.EigenSpectrum(lam))
        r1 = Lam.sum()
        r2 = lam.sum() ** 2 - np.sum(lam ** 2)
        assert abs(r1 - r2) < 1e-12


# --- pinching ---------------------------------------------------------------


def test_pinching_umbilic_trivial():
    lhs, rhs, ok = es.pinching_check(es.EigenSpectrum([1, 1, 1]), 0.5)
    assert lhs == rhs == 0.0
    assert ok


def test_pinching_not_applicable():
    lhs, rhs, ok = es.pinching_check(es.EigenSpectrum([-1, 1, 1]), 0.5)
    assert lhs is None and rhs is None and ok is None


def test_pinching_112_counterexample():
    """lambda = (1,1,2), Lambda = 1: the (n-1) factor fails, (n-2)^2 is tight.

    |Ric_dev|^2 = 2/3 while (n-1) Lambda^2 |h_dev|^2 = 4/3; the provable
    (n-2)^2 bound holds with equality.
    """
    lhs, rhs, ok = es.pinching_check(es.EigenSpectrum([1, 1, 2]), 1.0)
    assert_allclose(lhs, 2 / 3, rtol=1e-12)
    assert_allclose(rhs, 4 / 3, rtol=1e-12)
    assert not ok
    lhs2, rhs2, ok2 = pinching_check_provable(es.EigenSpectrum([1, 1, 2]), 1.0)
    assert_allclose(lhs2, rhs2, rtol=1e-12)
    assert ok2


def test_pinching_provable_monte_carlo():
    for n in (3, 4, 5):
        g = np.random.default_rng((7, n))
        lam = 0.4 + np.abs(g.normal(size=(20000, n))) * 2
        for row in lam[:200]:
            _, _, ok = pinching_check_provable(es.EigenSpectrum(row), 0.4)
            assert ok


# --- polynomials ------------------------------------------------------------


def test_polys_vanish_at_characterized_zeros():
    p, q = es.polys(es.EigenSpectrum([1, 1, 1], kappa=1.0))
    assert p == q == 0.0
    p, q = es.polys(es.EigenSpectrum([1, 0, 0], kappa=0.0))
    assert p == q == 0.0


def test_p_matches_tensor_norm_oracle():
    """p equals |Riem - kappa/2 g^g|^2 / 2 via explicit 4-index loops.

    Each unordered index pair contributes the curvature components (ijij),
    (ijji), (jiij), (jiji), so the full Frobenius norm double-counts the
    ordered-pair sum exactly twice, for every n.
    """
    for n in (3, 4, 5):
        for _ in range(10):
            lam = rng.normal(size=n)
            kap = rng.normal()
            R4 = riemann_brute(np.diag(lam))
            KN = np.zeros_like(R4)
            for i in range(n):
                for j in range(n):
                    KN[i, j, i, j] += kap
                    KN[i, j, j, i] -= kap
            oracle = float(np.sum((R4 - KN) ** 2)) / 2.0
            p, q = es.polys(es.EigenSpectrum(lam, kappa=kap))
            assert abs(p - oracle) < 1e-10 * max(1.0, oracle)
            # q against the dense Ricci deviation norm
            ric = ricci_matrix_oracle(lam)
            q_oracle = float(np.sum((ric - (n - 1) * kap) ** 2))
            assert abs(q - q_oracle) < 1e-10 * max(1.0, q_oracle)


def test_homogeneity_at_kappa_zero():
    lam = rng.normal(size=4)
    p1, q1 = es.polys(es.EigenSpectrum(lam, 0.0))
    p2, q2 = es.polys(es.EigenSpectrum(3.0 * lam, 0.0))
    assert_allclose(p2, 81 * p1, rtol=1e-12)
    assert_allclose(q2, 81 * q1, rtol=1e-12)


def test_expansion_near_axis_zero():
    """At e1 + t e2 with kappa = 0: p = 2t^2 + O(t^3), q = 2t^2 + O(t^3)."""
    for t in (1e-3, 1e-4):
        lam = np.array([1.0, t, 0.0])
        p, q = es.polys_batch(lam[None, :], 0.0)
        assert abs(p[0] - 2 * t * t) < 5 * t ** 3
        assert abs(q[0] - 2 * t * t) < 5 * t ** 3
        assert abs(p[0] / q[0] - 1.0) < 10 * t


def test_ratio_bounds_n3():
    rb = es.ratio_bounds(3, 0.0, budget=10 ** 5, seed=3)
    assert 0 < rb.c1 <= rb.c2 < np.inf
    assert abs(rb.c1 - 0.5) < 0.05
    assert abs(rb.c2 - 2.0) < 0.05
    assert rb.samples > 0


def test_ratio_bounds_kappa_guard():
    with pytest.raises(ValueError):
        es.ratio_bounds(3, 25.0, budget=1000)


def test_zero_set_check_true_cells():
    for kap in (-1.0, 0.0, 1.0):
        assert es.zero_set_check(3, kap, budget=20000, seed=1)["passed"]
    assert es.zero_set_check(4, 1.0, budget=20000, seed=1)["passed"]


def test_zero_set_q_defect_for_negative_kappa_n4():
    """q vanishes at sqrt(3)(-1,-1,1,1) while p does not (kappa = -1)."""
    lam = np.sqrt(3.0) * np.array([-1.0, -1.0, 1.0, 1.0])
    p, q = es.polys(es.EigenSpectrum(lam, kappa=-1.0))
    assert q < 1e-24
    assert p > 1.0
    out = es.zero_set_check(4, -1.0, budget=20000, seed=1)
    assert not out["passed"]
    assert out["stray_zeros"] > 0


def test_polys_batch_rows_are_independent():
    """A row's p and q are bit-identical alone and inside a larger batch,
    so a batched optimizer sees the values a one-point objective sees, on
    both sides of numpy's 8- and 128-term pairwise thresholds."""
    for n in (3, 4, 5, 6, 8, 11, 12, 20, 70):
        lams = rng.normal(size=(200 if n < 70 else 40, n)) * 3
        p, q = es.polys_batch(lams, -1.0)
        single = np.array([es.polys_batch(lam[None, :], -1.0) for lam in lams])
        np.testing.assert_array_equal(p, single[:, 0, 0])
        np.testing.assert_array_equal(q, single[:, 1, 0])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 11, 12, 20, 70])
@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0, 2.5])
def test_polys_batch_matches_reference_bit_for_bit(n, kappa):
    """The transposed kernel adds in numpy's pairwise order, so it matches
    the row-wise np.sum bit for bit, on either side of a block boundary:
    below 8 terms (n = 3: 6 pairs; the Ricci sums up to n = 7), with 8
    partial sums up to 128 terms (n = 8 on for the Ricci sums; n = 11: 110
    pairs) and in halves above (n = 12: 132 pairs, n = 70: 4830)."""
    if n < 70:
        lams = rng.normal(size=(20000, n)) * 2
        sizes = (1, 8191, 8192, 8193, 20000)
    else:
        lams = rng.normal(size=(200, n)) * 2
        sizes = (1, 7, 200)
    for m in sizes:
        p, q = es.polys_batch(lams[:m], kappa)
        p_ref, q_ref = polys_batch_reference(lams[:m], kappa)
        np.testing.assert_array_equal(p, p_ref)
        np.testing.assert_array_equal(q, q_ref)


def test_polys_batch_counts_one_call_per_batch(monkeypatch):
    """Blocks go through a helper, so a spy on the module-level name sees
    one call however many blocks a batch spans."""
    calls = []
    original = es.polys_batch

    def spy(lams, kappa):
        calls.append(len(lams))
        return original(lams, kappa)

    monkeypatch.setattr(es, "polys_batch", spy)
    es.polys_batch(np.ones((3 * es._BLOCK_ROWS + 5, 4)), 1.0)
    assert calls == [3 * es._BLOCK_ROWS + 5]


def _lockstep_runs(monkeypatch, call):
    """Run call() and record every lockstep Nelder-Mead it makes as
    (fun, x0, options, x, fun values, nit, rows per objective call)."""
    runs = []
    lockstep = es._nelder_mead

    def spy(fun, x0, **options):
        rows = []

        def counted(points, start):
            rows.append(len(points))
            return fun(points, start)

        runs.append((fun, x0, options, *lockstep(counted, x0, **options), rows))
        return runs[-1][3:6]

    monkeypatch.setattr(es, "_nelder_mead", spy)
    call()
    return runs


def _assert_matches_scipy(fun, x0, options, x, fx, nit):
    for k, start in enumerate(x0):
        ref = minimize(lambda lam: fun(lam[None, :], np.array([k]))[0], start,
                       method="Nelder-Mead", options=options)
        np.testing.assert_array_equal(x[k], ref.x)
        assert nit[k] == ref.nit
        assert abs(fx[k] - ref.fun) <= 4 * np.spacing(abs(ref.fun))


def _permutation_distance(points, target):
    """Distance of each point to the nearest permutation of +-target."""
    ordered = np.sort(points, axis=1)
    t = np.sort(target)
    return np.minimum(np.linalg.norm(ordered - t, axis=1),
                      np.linalg.norm(ordered + t[::-1], axis=1))


@pytest.mark.parametrize("n, target", [
    (4, np.sqrt(3.0) * np.array([-1.0, -1.0, 1.0, 1.0])),
    (5, np.sqrt(2.0) * np.array([-1.0, -1.0, -1.0, 2.0, 2.0])),
])
def test_zero_set_q_hunts_end_at_stray_zeros(n, target):
    """At kappa = -1 every q-hunt ends at a permutation of the stray zero
    of q (the p-hunts come first, 8 of each)."""
    out = es.zero_set_check(n, -1.0, budget=10 ** 5, seed=1)
    ends = out["hunt_points"][8:]
    assert len(ends) == 8
    assert _permutation_distance(ends, target).max() <= 1e-6
    assert out["stray_zeros"] == out["stray_q_zeros"] == 8


@pytest.mark.parametrize("n", [8, 12])
def test_zero_set_q_hunts_find_stray_zeros_in_higher_dimensions(n):
    """At kappa = -1 and larger n every q-hunt still ends on a zero of q,
    Lambda_i = lambda_i (P1 - lambda_i) = -(n - 1) for every i, so the cell
    fails; the p-hunts run off towards the infimum of p at infinity."""
    out = es.zero_set_check(n, -1.0, budget=10 ** 5, seed=1)
    ends = out["hunt_points"][8:]
    ricci = ends * (ends.sum(axis=1, keepdims=True) - ends)
    assert np.abs(ricci + (n - 1)).max() <= 1e-9
    assert out["stray_zeros"] == 8 and not out["passed"]
    assert out["hunts_capped"] == 8
    assert (out["hunt_iterations"][8:] < 100).all()


def test_hunt_ending_on_its_last_iteration_is_not_capped():
    """A run that reaches a zero or stalls on iteration maxiter stopped by
    its own rule, not by the cap."""
    starts = np.random.default_rng(5).normal(size=(6, 4)) + 1.0

    def residuals(x):
        return es._q_residuals(x, 1.0)

    x, nit, capped = es._levenberg_marquardt(residuals, starts, 100)
    assert not capped.any()
    last = int(nit.max())
    x_last, nit_last, capped_last = es._levenberg_marquardt(residuals,
                                                            starts, last)
    np.testing.assert_array_equal(nit_last, nit)
    np.testing.assert_array_equal(x_last, x)
    assert not capped_last.any()
    _, _, capped_short = es._levenberg_marquardt(residuals, starts, last - 1)
    assert capped_short.sum() == (nit == last).sum()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_zero_set_hunts_end_at_umbilics(n):
    """At kappa = 1 every hunt of p and of q ends within 1e-6 of
    +-(1, ..., 1) before the iteration cap."""
    out = es.zero_set_check(n, 1.0, budget=10 ** 5, seed=1)
    assert _permutation_distance(out["hunt_points"], np.ones(n)).max() <= 1e-6
    assert out["hunts_capped"] == 0
    assert (out["hunt_iterations"] < 100).all()


def test_zero_set_hunts_do_not_mistake_infima_at_infinity():
    """At n = 3, kappa = -1 neither polynomial vanishes: inf p = 2 and
    inf q = 4/3 are reached only as |lambda| -> infinity. Hunts that run
    off towards them stay above those values and find no stray zero."""
    out = es.zero_set_check(3, -1.0, budget=10 ** 5, seed=1)
    p, q = es.polys_batch(out["hunt_points"], -1.0)
    assert p[:8].min() >= 2.0 - 1e-6
    assert q[8:].min() >= 4.0 / 3.0 - 1e-6
    assert (np.linalg.norm(out["hunt_points"], axis=1) > 10).all()
    assert out["stray_zeros"] == out["stray_q_zeros"] == 0 and out["passed"]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kappa", [0.0, 1.0, 2.5])
def test_closed_form_zero_distance_matches_sorted_norms(n, kappa):
    """The closed-form squared distance to the nearest analytic zero keeps
    the same samples off the 1e-3 balls as the sorted-row norms, also for
    samples drawn close to the zeros."""
    zeros = es.analytic_zeros(n, kappa)
    for seed in range(20):
        g = np.random.default_rng((seed, n))
        near = zeros[g.integers(0, len(zeros), 2000)]
        radius = 10.0 ** g.uniform(-4, -2, size=(2000, 1))
        near = near + g.normal(size=near.shape) * radius
        lams = np.concatenate([g.normal(size=(2000, n)) * 2.0, near])
        closed = es._zero_distance2(lams, kappa)
        sorted_norm = zero_distance_sorted(lams, zeros)
        np.testing.assert_array_equal(closed > 1e-3 ** 2, sorted_norm > 1e-3)
        assert_allclose(np.sqrt(np.maximum(closed, 0.0)), sorted_norm,
                        atol=1e-7)


@pytest.mark.parametrize("n, kappa", [(3, 1.0), (4, 1.0)])
def test_ratio_polish_matches_scipy(monkeypatch, n, kappa):
    """The min and max polish of log(p/q) as one two-start run. At n = 3
    the simplex shrinks (the only calls whose row count is not a multiple
    of 4); at n = 4, kappa = 1 the max drifts along a ray where log(p/q)
    ties vertex values exactly, so the simplex order must be scipy's."""
    runs = _lockstep_runs(
        monkeypatch, lambda: es.ratio_bounds(n, kappa, budget=2 * 10 ** 5,
                                             seed=42))
    (fun, x0, options, x, fx, nit, rows), = runs
    assert x0.shape == (2, n)
    if n == 3:
        assert any(m % 4 for m in rows)
    _assert_matches_scipy(fun, x0, options, x, fx, nit)


def test_ratio_bound_extremizers_own_their_data(monkeypatch):
    """The extremizers are copies: neither keeps a Monte Carlo batch or the
    polish's simplex alive as long as the RatioBound lives. A polish that
    finds nothing better leaves the Monte Carlo rows in place."""
    for n, kappa in ((3, 1.0), (4, -1.0)):
        rb = es.ratio_bounds(n, kappa, budget=20000, seed=1)
        assert rb.argmin.base is None and rb.argmax.base is None
        assert rb.argmin.shape == rb.argmax.shape == (n,)
    monkeypatch.setattr(es, "_nelder_mead", lambda fun, x0, **options: (
        x0, np.full(len(x0), np.inf), np.zeros(len(x0), dtype=int)))
    rb = es.ratio_bounds(4, -1.0, budget=20000, seed=1)
    assert rb.argmin.base is None and rb.argmax.base is None


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_hunt_starts_match_a_full_argsort(monkeypatch, seed):
    """The 8 hunt starts picked by argpartition, ordered by value, are the
    head of the full argsort: the hunts end where they did."""
    cells = [(n, kappa) for n in (3, 4, 5) for kappa in (-1.0, 0.0, 1.0)]
    fast = [es.zero_set_check(n, kappa, budget=10 ** 5, seed=seed)
            for n, kappa in cells]
    monkeypatch.setattr(es, "_lowest", lambda v, count: np.argsort(v)[:count])
    for (n, kappa), out in zip(cells, fast):
        ref = es.zero_set_check(n, kappa, budget=10 ** 5, seed=seed)
        np.testing.assert_array_equal(out["hunt_points"], ref["hunt_points"])
        np.testing.assert_array_equal(out["hunt_iterations"],
                                      ref["hunt_iterations"])
        assert out["hunts_capped"] == ref["hunts_capped"]
        assert out["stray_zeros"] == ref["stray_zeros"]


def test_lowest_handles_short_inputs():
    """Fewer values than starts: all of them, smallest first."""
    v = np.array([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(es._lowest(v, 8), [1, 2, 0])
    np.testing.assert_array_equal(es._lowest(v, 3), [1, 2, 0])
    np.testing.assert_array_equal(es._lowest(v, 2), [1, 2])


def test_stray_zero_counts():
    """Stray zeros of q exist only for kappa = -1, n >= 4 (seed 1)."""
    counts = {(n, kappa): es.zero_set_check(n, kappa, budget=10 ** 5,
                                            seed=1)["stray_zeros"]
              for n in (3, 4, 5) for kappa in (-1.0, 0.0, 1.0)}
    expected = {key: 0 for key in counts}
    expected[4, -1.0] = expected[5, -1.0] = 8
    assert counts == expected


def test_alpha_exponent():
    assert es.alpha_exponent(10, 4) == 1.0
    assert es.alpha_exponent(10, 8) == 0.25
    assert es.alpha_exponent(10, 5) == 1.0  # boundary q = p/2: both branches
    with pytest.raises(ValueError):
        es.alpha_exponent(10, 11)
    with pytest.raises(ValueError):
        es.alpha_exponent(10, 2)
