import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import least_squares, minimize

from oracles import (pinching_check_provable, polys_batch_reference,
                     ricci_matrix_oracle, riemann_brute)
from wulffstab import einstein as es

rng = np.random.default_rng(41)


def test_unit_three_sphere_spectrum():
    assert_allclose(es.ricci_spectrum([1, 1, 1]), [2, 2, 2])


def test_degenerate_spectrum_matches_matrix_oracle():
    lam = [0.0, 1.0, 1.0]
    direct = np.sort(es.ricci_spectrum(lam))
    assert_allclose(direct, [0.0, 1.0, 1.0], atol=1e-15)
    assert_allclose(direct, ricci_matrix_oracle(lam), atol=1e-12)


def test_random_spectra_match_matrix_route():
    for n in (3, 4, 5):
        for _ in range(100):
            lam = rng.normal(size=n) * 2
            direct = np.sort(es.ricci_spectrum(lam))
            assert np.abs(direct - ricci_matrix_oracle(lam)).max() < 1e-12


def test_ricci_spectrum_of_a_batch_is_row_by_row():
    """Each row of a batch gets the Ricci spectrum it has alone, bit for
    bit; the sum runs along the last axis only."""
    assert_array_equal(es.ricci_spectrum([[1, 2, 3], [1, 1, 1]]),
                       [[5, 8, 9], [2, 2, 2]])
    g = np.random.default_rng(5)
    for n in (3, 4, 5, 6):
        lams = g.normal(size=(50, n))
        rows = np.array([es.ricci_spectrum(lam) for lam in lams])
        assert_array_equal(es.ricci_spectrum(lams), rows)


def test_dimension_guard():
    """pinching_check takes one spectrum of dimension n >= 3, and
    ratio_bounds a dimension n >= 3."""
    for spectrum in ([1.0, 2.0], [1.0], [[1.0, 2.0, 3.0]]):
        with pytest.raises(ValueError, match="need dimension n >= 3"):
            es.pinching_check(spectrum, 0.5)
    for n in (1, 2):
        with pytest.raises(ValueError, match="need dimension n >= 3"):
            es.ratio_bounds(n, 0.0, budget=300)


def test_trace_consistency():
    for n in (3, 4, 5):
        lam = rng.normal(size=n)
        Lam = es.ricci_spectrum(lam)
        r1 = Lam.sum()
        r2 = lam.sum() ** 2 - np.sum(lam ** 2)
        assert abs(r1 - r2) < 1e-12


# --- pinching ---------------------------------------------------------------


def test_pinching_umbilic_trivial():
    lhs, rhs, ok = es.pinching_check([1, 1, 1], 0.5)
    assert lhs == rhs == 0.0
    assert ok


def test_pinching_not_applicable():
    lhs, rhs, ok = es.pinching_check([-1, 1, 1], 0.5)
    assert lhs is None and rhs is None and ok is None


def test_pinching_112_counterexample():
    """lambda = (1,1,2), Lambda = 1: the (n-1) factor fails, (n-2)^2 is tight.

    |Ric_dev|^2 = 2/3 while (n-1) Lambda^2 |h_dev|^2 = 4/3; the provable
    (n-2)^2 bound holds with equality.
    """
    lhs, rhs, ok = es.pinching_check([1, 1, 2], 1.0)
    assert_allclose(lhs, 2 / 3, rtol=1e-12)
    assert_allclose(rhs, 4 / 3, rtol=1e-12)
    assert not ok
    lhs2, rhs2, ok2 = pinching_check_provable([1, 1, 2], 1.0)
    assert_allclose(lhs2, rhs2, rtol=1e-12)
    assert ok2


def test_pinching_provable_monte_carlo():
    for n in (3, 4, 5):
        g = np.random.default_rng((7, n))
        lam = 0.4 + np.abs(g.normal(size=(20000, n))) * 2
        for row in lam[:200]:
            _, _, ok = pinching_check_provable(row, 0.4)
            assert ok


# --- polynomials ------------------------------------------------------------


def test_polys_vanish_at_characterized_zeros():
    p, q = es.polys_batch([[1.0, 1.0, 1.0]], 1.0)
    assert p[0] == q[0] == 0.0
    p, q = es.polys_batch([[1.0, 0.0, 0.0]], 0.0)
    assert p[0] == q[0] == 0.0


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
            (p,), (q,) = es.polys_batch(lam[None], kap)
            assert abs(p - oracle) < 1e-10 * max(1.0, oracle)
            # q against the dense Ricci deviation norm
            ric = ricci_matrix_oracle(lam)
            q_oracle = float(np.sum((ric - (n - 1) * kap) ** 2))
            assert abs(q - q_oracle) < 1e-10 * max(1.0, q_oracle)


def test_homogeneity_at_kappa_zero():
    lam = rng.normal(size=4)
    p1, q1 = es.polys_batch(lam[None], 0.0)
    p2, q2 = es.polys_batch(3.0 * lam[None], 0.0)
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


def test_polys_batch_rows_are_independent():
    """A row's p and q are bit-identical alone and inside a larger batch,
    so a batched optimizer sees the values a one-point objective sees, on
    both sides of numpy's 8- and 128-term pairwise thresholds. The batch
    takes the transposed layout and each single row the row layout."""
    for n in (3, 4, 5, 6, 8, 11, 12, 20, 70):
        lams = rng.normal(size=(200 if n < 70 else es._ROW_LAYOUT_MAX, n)) * 3
        p, q = es.polys_batch(lams, -1.0)
        single = np.array([es.polys_batch(lam[None, :], -1.0) for lam in lams])
        np.testing.assert_array_equal(p, single[:, 0, 0])
        np.testing.assert_array_equal(q, single[:, 1, 0])


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 11, 12, 20, 70])
@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0, 2.5])
def test_polys_batch_matches_reference_bit_for_bit(n, kappa):
    """Both layouts match the row-wise np.sum bit for bit: the row layout
    below 128 rows, whatever the memory order of the batch, and the
    transposed kernel, which adds in numpy's pairwise order, from 128 rows
    on and on either side of a block boundary: below 8 terms (n = 3: 6
    pairs; the Ricci sums up to n = 7), with 8 partial sums up to 128
    terms (n = 8 on for the Ricci sums; n = 11: 110 pairs) and in halves
    above (n = 12: 132 pairs, n = 70: 4830)."""
    if n < 70:
        lams = rng.normal(size=(20000, n)) * 2
        sizes = (1, 127, 128, 129, 8191, 8192, 8193, 20000)
    else:
        lams = rng.normal(size=(200, n)) * 2
        sizes = (1, 7, 127, 128, 129, 200)
    for m in sizes:
        p_ref, q_ref = polys_batch_reference(lams[:m], kappa)
        for batch in (lams[:m], np.asfortranarray(lams[:m])):
            p, q = es.polys_batch(batch, kappa)
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


def _polish_runs(monkeypatch, call):
    """Run call() and record every Nelder-Mead it makes as
    (fun, x0, options, x, fun value, nit, rows per objective call)."""
    runs = []
    polish = es.nelder_mead

    def spy(fun, x0, **options):
        rows = []

        def counted(points):
            rows.append(len(points))
            return fun(points)

        runs.append((fun, x0, options, *polish(counted, x0, **options), rows))
        return runs[-1][3:6]

    monkeypatch.setattr(es, "nelder_mead", spy)
    call()
    return runs


@pytest.mark.parametrize("n, kappa", [(3, 1.0), (4, 1.0)])
def test_ratio_polish_matches_scipy(monkeypatch, n, kappa):
    """The sup polish of log(p/q), started at the Monte Carlo's largest
    sample. At n = 3 the simplex shrinks (the only calls whose row count is
    not a multiple of 4); at n = 4, kappa = 1 it drifts along a ray where
    log(p/q) ties vertex values exactly, so the simplex order must be
    scipy's."""
    runs = _polish_runs(
        monkeypatch, lambda: es.ratio_bounds(n, kappa, budget=2 * 10 ** 5,
                                             seed=42))
    (fun, x0, options, x, fx, nit, rows), = runs
    assert x0.shape == (n,)
    if n == 3:
        assert any(m % 4 for m in rows)
    ref = minimize(lambda lam: fun(lam[None, :])[0], x0,
                   method="Nelder-Mead", options=options)
    np.testing.assert_array_equal(x, ref.x)
    assert nit == ref.nit
    assert abs(fx - ref.fun) <= 4 * np.spacing(abs(ref.fun))


@pytest.mark.parametrize("n", [3, 8, 20, 70])
@pytest.mark.parametrize("kappa", [-1.0, 0.0, 1.0, 10.0])
def test_ratio_bounds_c1_is_exact(n, kappa):
    """c1 = 1/(n - 1), attained at argmin: a diagonal spectrum off Z(p)
    where p/q is 1/(n - 1) to rounding."""
    rb = es.ratio_bounds(n, kappa, budget=300, seed=1)
    assert rb.c1 == 1.0 / (n - 1)
    p, q = es.polys_batch(rb.argmin[None, :], kappa)
    assert p[0] > 0
    assert abs(p[0] / q[0] - rb.c1) <= 1e-14 * rb.c1


def test_ratio_bound_extremizers_own_their_data(monkeypatch):
    """The extremizers are copies: neither keeps a Monte Carlo batch or the
    polish's simplex alive as long as the RatioBound lives. A polish that
    finds nothing better leaves the Monte Carlo row in place."""
    for n, kappa in ((3, 1.0), (4, -1.0)):
        rb = es.ratio_bounds(n, kappa, budget=20000, seed=1)
        assert rb.argmin.base is None and rb.argmax.base is None
        assert rb.argmin.shape == rb.argmax.shape == (n,)
    monkeypatch.setattr(es, "nelder_mead",
                        lambda fun, x0, **options: (x0, np.inf, 0))
    rb = es.ratio_bounds(4, -1.0, budget=20000, seed=1)
    assert rb.argmin.base is None and rb.argmax.base is None


def _pins():
    path = os.path.join(os.path.dirname(__file__), "fixtures",
                        "ratio_bounds_pins.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("pin", _pins(),
                         ids=lambda pin: f"n{pin['n']}-k{pin['kappa']}")
def test_ratio_bounds_matches_pinned_cells(pin):
    """c2, its extremizer and the sample count, bit for bit, on cells whose
    batches do not split into three equal regimes, at scale sqrt(kappa) > 1;
    the n = 8 cells draw two and three batches into one reused buffer, so a
    row of one batch that reached the next batch's extremizer shows here."""
    rb = es.ratio_bounds(pin["n"], pin["kappa"], budget=pin["budget"],
                         seed=pin["seed"])
    assert rb.c2.hex() == pin["c2"]
    assert [v.hex() for v in rb.argmax.tolist()] == pin["argmax"]
    assert rb.samples == pin["samples"]


# --- zero sets --------------------------------------------------------------


def _permutation_distance(points, target):
    """Distance of each point to the nearest permutation of +-target."""
    ordered = np.sort(points, axis=1)
    t = np.sort(target)
    return np.minimum(np.linalg.norm(ordered - t, axis=1),
                      np.linalg.norm(ordered + t[::-1], axis=1))


def _q_hunt_ends(n, kappa, starts=16):
    """End points of scipy's Levenberg-Marquardt on the residuals
    Lambda_i - (n - 1) kappa, whose squares sum to q, from seeded Gaussian
    starts: an independent reference for the closed-form zero sets. At
    kappa = 0, where q is homogeneous and the origin would attract every
    run, a residual |lambda|^2 - 1 holds the runs to the unit sphere.
    Returns the ends and p, q there."""
    def residuals(lam):
        r = lam * (lam.sum() - lam) - (n - 1) * kappa
        return np.append(r, lam @ lam - 1.0) if kappa == 0 else r

    def jacobian(lam):
        jac = np.tile(lam[:, None], (1, n))
        jac[np.diag_indices(n)] += lam.sum() - 2.0 * lam
        return np.vstack([jac, 2.0 * lam]) if kappa == 0 else jac

    x0 = np.random.default_rng((3, n)).normal(size=(starts, n)) * 2.0
    ends = np.array([least_squares(residuals, x, jac=jacobian, method="lm",
                                   xtol=1e-12, ftol=1e-12, max_nfev=100).x
                     for x in x0])
    return (ends, *es.polys_batch(ends, kappa))


def _assert_q_hunts_end_at(n, stray):
    """At kappa = -1 at least half the q-hunts reach q = 0, and each of
    those ends at a permutation of one of the stray spectra, up to a
    global sign."""
    ends, p, q = _q_hunt_ends(n, -1.0)
    zero = q <= 1e-20
    assert zero.sum() >= len(ends) // 2
    assert (p[zero] > 1.0).all()
    dist = np.min([_permutation_distance(ends[zero], s) for s in stray],
                  axis=0)
    assert dist.max() <= 1e-6


def test_zero_set_check_true_cells():
    for kap in (-1.0, 0.0, 1.0):
        assert es.zero_set_check(3, kap)["passed"]
    assert es.zero_set_check(4, 1.0)["passed"]


def test_zero_set_q_defect_for_negative_kappa_n4():
    """q vanishes at sqrt(3)(-1,-1,1,1) while p does not (kappa = -1)."""
    lam = np.sqrt(3.0) * np.array([-1.0, -1.0, 1.0, 1.0])
    (p,), (q,) = es.polys_batch(lam[None], -1.0)
    assert q < 1e-24
    assert p > 1.0
    out = es.zero_set_check(4, -1.0)
    assert not out["passed"]
    assert out["stray_zeros"] == 1
    assert _permutation_distance(np.array(out["stray_points"]),
                                 lam).max() <= 1e-12


@pytest.mark.parametrize("kappa", [-10.0, -1e-4, -1e-6, -1e-300])
@pytest.mark.parametrize("n", [4, 70])
def test_stray_zeros_are_found_at_every_scale(n, kappa):
    """p and q are homogeneous of degree 4 under lambda -> s lambda,
    kappa -> s^2 kappa, so the n - 3 stray spectra of kappa = -1 are found
    at every negative kappa, scaled by sqrt|kappa|: at unit scale each has
    q = 0 to rounding and p far from 0."""
    out = es.zero_set_check(n, kappa)
    assert not out["passed"] and out["stray_zeros"] == n - 3
    unit = np.array(out["stray_points"]) / np.sqrt(-kappa)
    p, q = es.polys_batch(unit, -1.0)
    assert q.max() <= 1e-20 and p.min() >= 95.0
    assert_allclose(unit, es.zero_set_check(n, -1.0)["stray_points"],
                    rtol=1e-14)


@pytest.mark.parametrize("n, kappa", [(3, -10.0), (3, -1e-300), (3, 1.0),
                                      (4, 0.0), (4, 1e-300), (70, 0.0),
                                      (70, 10.0)])
def test_no_stray_zeros_at_n3_or_nonnegative_kappa(n, kappa):
    """For n = 3 or kappa >= 0 every zero of q is a zero of p: the check
    passes, and p and q vanish exactly at the 2n axis points (kappa = 0)
    or the two umbilics (kappa > 0)."""
    out = es.zero_set_check(n, kappa)
    assert out["passed"] and out["stray_zeros"] == 0
    assert out["stray_points"] == [] and out["max_at_zeros"] == 0.0
    assert out["n_zeros"] == (0 if kappa < 0 else 2 * n if kappa == 0 else 2)


@pytest.mark.parametrize("n, target", [
    (4, np.sqrt(3.0) * np.array([-1.0, -1.0, 1.0, 1.0])),
    (5, np.sqrt(2.0) * np.array([-1.0, -1.0, -1.0, 2.0, 2.0])),
])
def test_zero_set_q_hunts_end_at_stray_zeros(n, target):
    """At kappa = -1 target is one of the n - 3 stray spectra, and every
    scipy q-hunt that reaches q = 0 ends at one of them."""
    out = es.zero_set_check(n, -1.0)
    stray = np.array(out["stray_points"])
    assert out["stray_zeros"] == n - 3
    assert _permutation_distance(stray, target).min() <= 1e-12
    _assert_q_hunts_end_at(n, stray)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_zero_set_q_hunts_find_stray_zeros_in_higher_dimensions(n):
    """At kappa = -1 and larger n each stray spectrum has
    Lambda_i = lambda_i (P1 - lambda_i) = -(n - 1) for every i, so the cell
    fails, and every scipy q-hunt that reaches q = 0 ends at one of them."""
    out = es.zero_set_check(n, -1.0)
    stray = np.array(out["stray_points"])
    ricci = stray * (stray.sum(axis=1, keepdims=True) - stray)
    assert np.abs(ricci + (n - 1)).max() <= 1e-9
    assert out["stray_zeros"] == n - 3 and not out["passed"]
    _assert_q_hunts_end_at(n, stray)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_zero_set_hunts_end_at_umbilics(n):
    """At kappa = 1 every scipy q-hunt reaches q = 0 within 1e-6 of the
    umbilics +-(1, ..., 1), where p vanishes too: q has no zero of its
    own, as the closed form says."""
    ends, p, q = _q_hunt_ends(n, 1.0)
    assert q.max() <= 1e-20 and p.max() <= 1e-20
    assert _permutation_distance(ends, np.ones(n)).max() <= 1e-6
    out = es.zero_set_check(n, 1.0)
    assert out["passed"] and out["stray_zeros"] == 0


def test_zero_set_hunts_end_on_axes_at_kappa_zero():
    """At kappa = 0 (n = 5) the q-hunts held to the unit sphere that reach
    q = 0 end within 1e-6 of an axis point +-e_i, where p vanishes too."""
    ends, p, q = _q_hunt_ends(5, 0.0)
    zero = q <= 1e-20
    assert zero.sum() >= 8 and p[zero].max() <= 1e-20
    assert _permutation_distance(ends[zero], np.eye(5)[0]).max() <= 1e-6
    assert es.zero_set_check(5, 0.0)["passed"]


def test_zero_set_hunts_do_not_mistake_infima_at_infinity():
    """At n = 3, kappa = -1 q does not vanish: inf q = 4/3 is reached only
    as |lambda| -> infinity. The scipy q-hunts run off towards it, stay
    above it and find no zero of q; the closed form finds none either."""
    ends, p, q = _q_hunt_ends(3, -1.0)
    assert q.min() >= 4.0 / 3.0 - 1e-6
    assert (np.linalg.norm(ends, axis=1) > 10).all()
    out = es.zero_set_check(3, -1.0)
    assert out["stray_zeros"] == 0 and out["passed"]


def test_stray_zero_counts():
    """Stray zeros of q exist only for kappa < 0 and n >= 4: n - 3 spectra."""
    counts = {(n, kappa): es.zero_set_check(n, kappa)["stray_zeros"]
              for n in (3, 4, 5) for kappa in (-1.0, 0.0, 1.0)}
    expected = {key: 0 for key in counts}
    expected[4, -1.0] = 1
    expected[5, -1.0] = 2
    assert counts == expected


@pytest.mark.parametrize("n", [3, 4, 5, 12, 70])
def test_q_at_most_n_minus_1_times_p(n):
    """Lambda_i - (n - 1) kappa = sum_{j != i} (lambda_i lambda_j - kappa),
    so Cauchy-Schwarz gives q <= (n - 1) p at every spectrum, with equality
    on the diagonal: inf p/q = 1/(n - 1), the bound the CLI checks c1_est
    against."""
    lams = np.random.default_rng((11, n)).normal(size=(2000, n)) * 2.0
    for kappa in (-1.0, 0.0, 1.0, 2.5):
        p, q = es.polys_batch(lams, kappa)
        assert (q <= (n - 1) * p * (1 + 1e-12)).all()
        p, q = es.polys_batch(np.full((1, n), 0.7), kappa)
        assert_allclose(q, (n - 1) * p, rtol=1e-12)


def test_alpha_exponent():
    assert es.alpha_exponent(10, 4) == 1.0
    assert es.alpha_exponent(10, 8) == 0.25
    assert es.alpha_exponent(10, 5) == 1.0  # boundary q = p/2: both branches
    with pytest.raises(ValueError):
        es.alpha_exponent(10, 11)
    with pytest.raises(ValueError):
        es.alpha_exponent(10, 2)
