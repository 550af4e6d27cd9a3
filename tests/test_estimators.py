import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from covband.errors import BandwidthTooLarge, DataFormatError, SingularDesign
from covband.estimators import (
    ESTIMATORS,
    BandedCholeskyFactors,
    _band_regressions,
    _tril_inverse,
    banded_covariance,
    cholesky_banded_covariance,
    cholesky_covariance_path,
    factors_to_matrices,
    fit_banded_cholesky,
    fit_covariance,
    load_data_csv,
    sample_covariance,
    save_data_csv,
    tapered_covariance,
)
from covband.matcore import TaperSpec, band, cholesky_factor, schur_product, taper_weights
from covband.selection import estimate_risk
from covband.simgen import CovarianceModel, build_covariance, sample_gaussian


def brute_force_covariance(X):
    """Direct double-loop evaluation of the centered covariance, divisor n."""
    n, p = X.shape
    mean = X.mean(axis=0)
    S = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            acc = 0.0
            for i in range(n):
                acc += (X[i, a] - mean[a]) * (X[i, b] - mean[b])
            S[a, b] = acc / n
    return S


# ---------------------------------------------------------------------------
# sample covariance
# ---------------------------------------------------------------------------


def test_single_observation_gives_zero_matrix():
    X = np.array([[1.0, -2.0, 3.0]])
    assert_array_equal(sample_covariance(X), np.zeros((3, 3)))


def test_univariate_two_point_variance():
    X = np.array([[0.0], [2.0]])
    assert_array_equal(sample_covariance(X), np.array([[1.0]]))


def test_matches_brute_force_double_loop():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 5)) * 2.0 + 1.0
    assert_allclose(sample_covariance(X), brute_force_covariance(X), atol=1e-12)


def test_row_permutation_invariance_and_quadratic_scaling():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 4))
    S = sample_covariance(X)
    perm = rng.permutation(20)
    assert_allclose(sample_covariance(X[perm]), S, atol=1e-14)
    assert_allclose(sample_covariance(3.0 * X), 9.0 * S, rtol=1e-13)


def _layouts(X, rng):
    """X as C-order, Fortran-order, column-strided, row-reversed and
    fancy-indexed-row arrays (the last is what the split loop passes)."""
    n, p = X.shape
    wide = np.zeros((n, 2 * p))
    wide[:, ::2] = X
    return {
        "C": X,
        "F": np.asfortranarray(X),
        "column-strided": wide[:, ::2],
        "row-reversed": X[::-1],
        "fancy-rows": X[rng.permutation(n)],
    }


@pytest.mark.parametrize("layout", ["C", "F", "column-strided", "row-reversed", "fancy-rows"])
def test_sample_covariance_is_exactly_symmetric(layout):
    # no symmetrize pass: the exact symmetry every consumer relies on comes
    # from the product itself, for every shape and memory layout
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5, 17, 33, 67, 100, 205):
        for p in (1, 2, 3, 7, 64, 102, 257, 1000):
            for scale in (1e-3, 1.0, 1e3):
                X = (rng.standard_normal((n, p)) + rng.uniform(-5, 5, p)) * scale
                S = sample_covariance(_layouts(X, rng)[layout])
                assert np.array_equal(S, S.T), (n, p, scale)


def test_sample_covariance_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_covariance(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        sample_covariance(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        sample_covariance(np.zeros(5))


# ---------------------------------------------------------------------------
# banded and tapered estimators
# ---------------------------------------------------------------------------


def test_banded_covariance_is_band_of_sample_covariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 8))
    S = sample_covariance(X)
    for k in (0, 2, 7, 11):
        assert_array_equal(banded_covariance(X, k), band(S, k))


def test_banded_k0_is_diagonal_of_variances():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((25, 6))
    B = banded_covariance(X, 0)
    assert_allclose(np.diag(B), X.var(axis=0), rtol=1e-13)
    assert np.all(B[~np.eye(6, dtype=bool)] == 0.0)


def test_tapered_equals_schur_of_sample_covariance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 7))
    t = TaperSpec("exponential", 2.0)
    expected = schur_product(sample_covariance(X), taper_weights(t, 7))
    assert_array_equal(tapered_covariance(X, t), expected)


def test_banding_indicator_taper_reproduces_banding_exactly():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 9))
    for k in range(9):
        t = TaperSpec("banding-indicator", k)
        assert_array_equal(tapered_covariance(X, t), banded_covariance(X, k))


def test_triangular_taper_keeps_well_conditioned_estimate_pd():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((60, 10))
    T = tapered_covariance(X, TaperSpec("triangular", 3.0))
    cholesky_factor(T)


# ---------------------------------------------------------------------------
# banded Cholesky factors
# ---------------------------------------------------------------------------


def test_k0_factors_are_marginal_variances():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 5))
    f = fit_banded_cholesky(X, 0)
    assert_array_equal(f.A, np.zeros((5, 5)))
    assert_allclose(f.D, np.diag(sample_covariance(X)), rtol=1e-13)


def test_bivariate_closed_form_regression():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((30, 2)) @ np.array([[1.0, 0.6], [0.0, 0.8]])
    S = sample_covariance(X)
    f = fit_banded_cholesky(X, 1)
    assert f.A[1, 0] == pytest.approx(S[0, 1] / S[0, 0], rel=1e-12)
    assert f.D[0] == pytest.approx(S[0, 0], rel=1e-12)
    assert f.D[1] == pytest.approx(S[1, 1] - S[0, 1] ** 2 / S[0, 0], rel=1e-12)


def test_full_band_reconstruction_equals_sample_covariance():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((50, 5))
        S = sample_covariance(X)
        C = cholesky_banded_covariance(X, 4)
        assert np.max(np.abs(C - S)) <= 1e-8 * np.max(np.abs(S))


def _mixed_gaussian(n, p):
    rng = np.random.default_rng(9)
    return rng.standard_normal((n, p)) @ rng.standard_normal((p, p))


def _long_memory(n, p):
    # fractional Gaussian noise with H = 0.9: strongly correlated
    # predecessors, so the Gram blocks are ill-conditioned
    Sigma = build_covariance(CovarianceModel("fgn", 0.9), p)
    return sample_gaussian(Sigma, n, np.random.default_rng(19))


def test_matches_per_column_least_squares():
    # independent oracle: regress each centered column on its k nearest
    # predecessors with lstsq and compare coefficients and residual
    # variances (divisor n)
    for X, ks in ((_mixed_gaussian(40, 7), (3,)), (_long_memory(200, 100), (5, 50, 99))):
        p = X.shape[1]
        Xc = X - X.mean(axis=0)
        for k in ks:
            f = fit_banded_cholesky(X, k)
            for j in range(p):
                m = min(k, j)
                if m == 0:
                    assert f.D[j] == pytest.approx(np.mean(Xc[:, j] ** 2), rel=1e-10)
                    continue
                Z = Xc[:, j - m : j]
                coef, _, _, _ = np.linalg.lstsq(Z, Xc[:, j], rcond=None)
                assert_allclose(f.A[j, j - m : j], coef, rtol=1e-8, atol=1e-10)
                resid = Xc[:, j] - Z @ coef
                assert f.D[j] == pytest.approx(np.mean(resid**2), rel=1e-8)


def test_long_memory_regressions_match_least_squares_to_rounding():
    # fgn H = 0.9 at n = 68, p = 102, the forecast benchmark's split: every
    # bandwidth 0..66 against per-column lstsq on the centred rows (normal
    # equations on the sample covariance are off by 3e-10..2e-8 here)
    n, p = 68, 102
    Sigma = build_covariance(CovarianceModel("fgn", 0.9), p)
    for seed in range(4):
        X = sample_gaussian(Sigma, n, seed)
        Xc = X - X.mean(axis=0)
        reference = {}  # (j, m) -> coefficients on columns j - m .. j - 1, residual variance
        for k in range(n - 1):
            f = fit_banded_cholesky(X, k)
            for j in range(p):
                m = min(k, j)
                if (j, m) not in reference:
                    Z = Xc[:, j - m : j]
                    coef = np.linalg.lstsq(Z, Xc[:, j], rcond=None)[0]
                    reference[j, m] = coef, np.mean((Xc[:, j] - Z @ coef) ** 2)
                coef, resid = reference[j, m]
                assert abs(f.D[j] - resid) <= 1e-11 * resid, (seed, k, j)
                assert np.all(np.abs(f.A[j, j - m : j] - coef)
                              <= 1e-11 * np.maximum(1.0, np.abs(coef))), (seed, k, j)


def test_near_collinear_regression_is_fitted_not_refused():
    # the last column is its 10 predecessors' combination plus 1e-6 noise:
    # a residual variance 1e-12 of the column's, which the sweep keeps as a
    # sum of squares (a Schur complement of the sample covariance refused 2
    # of these 20 and missed the rest by up to 175x)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((12, 14))
        X[:, 13] = X[:, 3:13] @ rng.standard_normal(10) + 1e-6 * rng.standard_normal(12)
        Xc = X - X.mean(axis=0)
        D = fit_banded_cholesky(X, 10).D
        for j in range(14):
            Z = Xc[:, max(0, j - 10) : j]
            resid = Xc[:, j] - Z @ np.linalg.lstsq(Z, Xc[:, j], rcond=None)[0]
            assert D[j] == pytest.approx(np.mean(resid**2), rel=1e-6), (seed, j)


def test_band_regressions_work_memory_is_under_half_their_output():
    # p = 1000, n = 33, k = 0..31: besides the (K + 1) p K output the sweep
    # holds a few p x n and p x K arrays, no p x K x K stack
    X = _walk_data("walk", 0, 1000)
    ks = np.arange(32)
    tracemalloc.start()
    try:
        _band_regressions(X, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ks.size * 1000 * 31 * 8


def test_covariance_matches_sample_covariance_inside_the_band():
    # the bandwidth-k Cholesky estimate is the completion of the band of S
    # whose inverse is k-banded, so it reproduces S on |i - j| <= k
    X = _long_memory(120, 30)
    S = sample_covariance(X)
    dist = np.abs(np.subtract.outer(np.arange(30), np.arange(30)))
    for k in (0, 1, 4, 17, 29):
        C = cholesky_banded_covariance(X, k)
        inside = dist <= k
        assert np.max(np.abs(C - S)[inside]) <= 1e-10 * np.max(np.abs(S))
        if k < 29:
            assert np.max(np.abs(C - S)[~inside]) > 1e-6


def test_covariance_path_matches_single_fits():
    X = _long_memory(60, 25)
    ks = [0, 1, 2, 5, 13, 40]  # bandwidths past p - 1 act like p - 1
    path = np.stack(list(cholesky_covariance_path(X, ks)))
    assert path.shape == (len(ks), 25, 25)
    for k, C in zip(ks, path):
        assert_allclose(C, cholesky_banded_covariance(X, min(k, 24)), rtol=1e-12, atol=1e-14)


def test_covariance_is_exactly_that_of_the_factors():
    # the covariance-only path skips A and the precision, not a single bit
    for X in (_long_memory(60, 25), _mixed_gaussian(40, 7)):
        for k in range(X.shape[1] + 3):
            C = factors_to_matrices(fit_banded_cholesky(X, k))[1]
            assert np.array_equal(cholesky_banded_covariance(X, k), C), k


@pytest.mark.parametrize("p", [1, 2, 31, 32, 33, 65, 102])
def test_covariance_matches_the_solve_reference_across_block_boundaries(p):
    # the blocked recursion against plain numpy, for bandwidths on both
    # sides of the 32-row blocks and past p - 1
    X = _long_memory(max(p, 33) + 6, p)
    S = sample_covariance(X)
    dist = np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    for k in sorted({0, 1, 31, 32, 33, p - 1, p + 2}):
        f = fit_banded_cholesky(X, k)
        W = np.eye(p) - f.A
        reference = np.linalg.solve(W, np.diag(f.D)) @ np.linalg.inv(W).T
        C = cholesky_banded_covariance(X, k)
        assert np.array_equal(C, C.T), k
        assert np.max(np.abs(C - reference)) <= 1e-10 * np.max(np.abs(reference)), k
        inside = dist <= k
        assert np.max(np.abs(C - S)[inside]) <= 1e-10 * np.max(np.abs(S)), k


def _walk_data(kind, seed, p, n=33):
    """n rows of white noise, AR(1) rho = 0.9, a random walk along the
    coordinates, or an integrated random walk."""
    if kind == "ar1":
        return sample_gaussian(build_covariance(CovarianceModel("ar1", 0.9), p), n, seed)
    Z = np.random.default_rng(seed).standard_normal((n, p))
    for _ in range(("white", "walk", "integrated-walk").index(kind)):
        Z = np.cumsum(Z, axis=1)
    return Z


@pytest.mark.parametrize(
    "kind, p",
    [(kind, p) for kind in ("white", "ar1", "walk", "integrated-walk") for p in (102, 400)]
    + [("walk", 1000)],
)
def test_covariance_error_scales_with_the_squared_condition_number(kind, p):
    # Sigma = W^-1 D W^-T with W = I - A, against numpy's inverse: relative
    # max-abs error at most eps kappa_2(W)^2 (a bound linear in kappa fails).
    # The integrated walk at k = 31 is left out: at p = 400 its fit can be
    # refused with SingularDesign, the designed outcome, not an accuracy failure.
    eps = np.finfo(float).eps
    for seed in (0,) if p == 1000 else (0, 1, 2):
        X = _walk_data(kind, seed, p)
        for k in (1, 5) if kind == "integrated-walk" else (1, 5, 31):
            f = fit_banded_cholesky(X, k)
            W = np.eye(p) - f.A
            W_inv = np.linalg.inv(W)
            reference = (W_inv * f.D) @ W_inv.T
            error = np.max(np.abs(factors_to_matrices(f)[1] - reference))
            assert error <= eps * np.linalg.cond(W) ** 2 * np.max(np.abs(reference)), (seed, k)


def test_covariance_path_chunks_match_single_fits():
    # at p = 200 three estimates fill a chunk, so ks spans three chunks
    X = _mixed_gaussian(40, 200)
    ks = list(range(8))
    for k, C in zip(ks, cholesky_covariance_path(X, ks), strict=True):
        assert np.array_equal(C, C.T)
        assert_allclose(C, cholesky_banded_covariance(X, k), rtol=1e-12, atol=1e-14)


def test_cholesky_split_memory_is_one_estimate_not_the_stack():
    # p = 600, K = 31: the (K + 1) p^2 stack of every bandwidth is 92 MB
    p, K = 600, 31
    X = _mixed_gaussian(3 * (K + 2), p)
    tracemalloc.start()
    try:
        estimate_risk(X, k_grid=range(K + 1), estimator_kind="cholesky", N=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (K + 1) * p * p * 8 / 3


def test_covariance_path_frees_each_estimate_before_the_next():
    # from p = 257 on every chunk is one estimate; a consumer that drops each
    # one must never hold two
    p = 300
    path = cholesky_covariance_path(_mixed_gaussian(40, p), range(8))
    tracemalloc.start()
    try:
        sums = list(map(np.sum, path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sums) == 8
    assert peak < 1.5 * p * p * 8


@st.composite
def lower_triangular_stacks(draw):
    """Well-conditioned lower-triangular stacks: diagonal in [1, 2] and
    off-diagonal entries below 1 / n in magnitude."""
    n = draw(st.integers(1, 70))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = np.tril(rng.uniform(-1.0, 1.0, (*batch, n, n)) / n, -1)
    return L + np.eye(n) * rng.uniform(1.0, 2.0, (*batch, 1, n))


@given(lower_triangular_stacks())
@example(np.eye(31) * 1.5 + np.tri(31, k=-1) / 31)
@example(np.eye(32)[None] * 1.5 + np.tri(32, k=-1) / 32)
@example(np.stack([np.eye(33) + np.tri(33, k=-1) / 33] * 3))
@example(np.eye(64) * 2.0 - np.tri(64, k=-1) / 64)
@example(np.eye(65) + np.tri(65, k=-1) / 65)
@example(np.eye(70) + np.tri(70, k=-1) / 70)
def test_tril_inverse_matches_numpy_inverse_property(L):
    inverse = _tril_inverse(L)
    reference = np.linalg.inv(L)
    assert_allclose(inverse, reference, rtol=1e-12, atol=1e-12 * np.max(np.abs(reference)))
    n = L.shape[-1]
    assert np.all(inverse[..., ~np.tri(n, dtype=bool)] == 0.0)


def test_residual_variance_nonincreasing_in_k():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((60, 8)) @ rng.standard_normal((8, 8))
    previous = None
    for k in range(8):
        D = fit_banded_cholesky(X, k).D
        if previous is not None:
            assert np.all(D <= previous + 1e-10)
        previous = D


def test_centering_happens_internally():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 4))
    shifted = X + np.array([10.0, -5.0, 3.0, 100.0])
    f0 = fit_banded_cholesky(X, 2)
    f1 = fit_banded_cholesky(shifted, 2)
    assert_allclose(f0.A, f1.A, atol=1e-9)
    assert_allclose(f0.D, f1.D, rtol=1e-9)


def test_bandwidth_exceeding_sample_size_rejected():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((6, 10))
    fit_banded_cholesky(X, 4)  # k = n - 2 is the largest legal value
    with pytest.raises(BandwidthTooLarge):
        fit_banded_cholesky(X, 5)


def test_exactly_collinear_columns_rejected():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((20, 4))
    X[:, 2] = X[:, 1]
    with pytest.raises(SingularDesign):
        fit_banded_cholesky(X, 2)
    with pytest.raises(SingularDesign):  # raised before any estimate is built
        cholesky_covariance_path(X, [0, 2])


def test_constant_column_rejected():
    rng = np.random.default_rng(14)
    X = rng.standard_normal((20, 3))
    X[:, 0] = 5.0
    with pytest.raises(SingularDesign):
        fit_banded_cholesky(X, 1)


# ---------------------------------------------------------------------------
# factors -> matrices
# ---------------------------------------------------------------------------


def test_diagonal_factors_invert_trivially():
    f = BandedCholeskyFactors(k=0, A=np.zeros((3, 3)), D=np.array([1.0, 4.0, 0.25]))
    precision, covariance = factors_to_matrices(f)
    assert_allclose(precision, np.diag([1.0, 0.25, 4.0]), atol=1e-15)
    assert_allclose(covariance, np.diag([1.0, 4.0, 0.25]), atol=1e-15)


def test_precision_is_banded_pd_and_inverts_covariance():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(20, 60))
        p = int(rng.integers(2, 9))
        k = int(rng.integers(0, p))
        X = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
        f = fit_banded_cholesky(X, k)
        precision, covariance = factors_to_matrices(f)
        idx = np.arange(p)
        outside = np.abs(idx[:, None] - idx[None, :]) > k
        assert np.all(precision[outside] == 0.0)
        cholesky_factor(precision)
        product = precision @ covariance
        assert np.max(np.abs(product - np.eye(p))) <= 1e-8


def test_factor_validation():
    with pytest.raises(ValueError):
        BandedCholeskyFactors(k=0, A=np.zeros((2, 2)), D=np.array([1.0, 0.0]))
    A = np.zeros((3, 3))
    A[2, 0] = 0.5  # outside the k=1 band
    with pytest.raises(ValueError):
        BandedCholeskyFactors(k=1, A=A, D=np.ones(3))
    U = np.zeros((2, 2))
    U[0, 1] = 0.3  # above the diagonal
    with pytest.raises(ValueError):
        BandedCholeskyFactors(k=1, A=U, D=np.ones(2))


# ---------------------------------------------------------------------------
# data CSV I/O
# ---------------------------------------------------------------------------


def test_data_csv_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    X = rng.standard_normal((12, 5))
    path = tmp_path / "x.csv"
    save_data_csv(path, X)
    assert_array_equal(load_data_csv(path), X)


def test_data_csv_rejects_nonfinite(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0,2.0\ninf,0.0\n")
    with pytest.raises(DataFormatError):
        load_data_csv(path)


def test_data_csv_strips_a_byte_order_mark(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2,3\n4,5,6\n7,8,9\n")
    assert_array_equal(load_data_csv(path), [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


# ---------------------------------------------------------------------------
# dispatch by estimator name
# ---------------------------------------------------------------------------


def test_fit_covariance_is_each_named_estimator():
    X = _mixed_gaussian(40, 7)
    t = TaperSpec("triangular", 3.0)
    expected = {
        "sample": sample_covariance(X),
        "banded": banded_covariance(X, 2),
        "tapered": tapered_covariance(X, t),
        "cholesky": cholesky_banded_covariance(X, 2),
    }
    assert tuple(expected) == ESTIMATORS
    for kind, S in expected.items():
        assert np.array_equal(fit_covariance(X, kind, k=2, taper=t), S), kind


def test_fit_covariance_rejects_unknown_kinds_and_missing_arguments():
    X = _mixed_gaussian(40, 7)
    with pytest.raises(ValueError) as info:
        fit_covariance(X, "shrunk", k=2)
    assert str(ESTIMATORS) in str(info.value)
    with pytest.raises(ValueError, match="--taper"):
        fit_covariance(X, "tapered", k=2)
    for kind in ("banded", "cholesky"):
        with pytest.raises(ValueError, match="--k"):
            fit_covariance(X, kind, taper=TaperSpec("triangular", 3.0))
