import contextlib
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from covband.errors import BandwidthTooLarge, DataFormatError, InsufficientData
from covband.estimators import (
    cholesky_banded_covariance,
    cholesky_covariance_path,
    sample_covariance,
)
from covband.matcore import band, matrix_norm, symmetrize
from covband.selection import (
    ESTIMATOR_KINDS,
    RiskCurve,
    SelectionResult,
    _LANCZOS_MIN_P,
    _Dense,
    _Gram,
    _dense_curve,
    _dense_products,
    _lanczos_norms,
    _one_one_band_curve,
    _split_loss_curve,
    default_k_grid,
    estimate_risk,
    log_split_size,
    oracle_k0,
    oracle_k1,
    read_risk_curve,
    select_k,
    theoretical_bandwidth,
    write_risk_curve,
)
from covband.simgen import CovarianceModel, build_covariance, sample_gaussian


def make_curve(ks, risks, **overrides):
    fields = dict(
        k_grid=np.asarray(ks, dtype=int),
        risk=np.asarray(risks, dtype=float),
        estimator_kind="banded",
        N=10,
        n1=5,
        n2=5,
        norm="one_one",
        seed=0,
    )
    fields.update(overrides)
    return RiskCurve(**fields)


# ---------------------------------------------------------------------------
# RiskCurve / SelectionResult validation
# ---------------------------------------------------------------------------


def test_curve_validation():
    make_curve([0, 1, 2], [3.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        make_curve([0, 2, 1], [1.0, 1.0, 1.0])  # not ascending
    with pytest.raises(ValueError):
        make_curve([0, 1], [1.0, -0.5])  # negative risk
    with pytest.raises(ValueError):
        make_curve([0, 1], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        make_curve([0, 1], [1.0, 2.0], estimator_kind="ridge")
    with pytest.raises(ValueError):
        make_curve([0, 1], [1.0, 2.0], norm="nuclear")
    with pytest.raises(ValueError):
        make_curve([-1, 0], [1.0, 2.0])


def test_oracle_curves_may_omit_split_metadata():
    curve = make_curve([0, 1], [1.0, 2.0], N=None, n1=None, n2=None, seed=None)
    assert curve.N is None


def test_selection_result_must_attain_the_minimum():
    curve = make_curve([0, 1, 2], [3.0, 1.0, 2.0])
    SelectionResult(k_hat=1, curve=curve)
    with pytest.raises(ValueError):
        SelectionResult(k_hat=2, curve=curve)
    with pytest.raises(ValueError):
        SelectionResult(k_hat=7, curve=curve)


# ---------------------------------------------------------------------------
# select_k
# ---------------------------------------------------------------------------


def test_select_k_argmin():
    curve = make_curve([0, 1, 2], [5.0, 1.0, 2.0])
    assert select_k(curve).k_hat == 1


def test_select_k_tie_breaks_to_smallest():
    curve = make_curve([0, 1], [1.0, 1.0])
    assert select_k(curve).k_hat == 0


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------


def test_default_grids():
    assert_array_equal(default_k_grid(5, "banded", 33), np.arange(5))
    assert_array_equal(default_k_grid(100, "cholesky", 33), np.arange(32))
    assert_array_equal(default_k_grid(5, "cholesky", 33), np.arange(5))


def test_log_split_size():
    assert log_split_size(100) == 78
    assert log_split_size(239) == 195


# ---------------------------------------------------------------------------
# estimate_risk
# ---------------------------------------------------------------------------


def test_risk_curve_deterministic_for_fixed_seed():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 6))
    a = estimate_risk(X, N=8, seed=123)
    b = estimate_risk(X, N=8, seed=123)
    c = estimate_risk(X, N=8, seed=124)
    assert_array_equal(a.risk, b.risk)
    assert not np.array_equal(a.risk, c.risk)
    assert a.n1 == 10 and a.n2 == 20 and a.N == 8


def test_scale_invariance_of_the_argmin():
    # scaling the data by a power of two scales every risk by its square,
    # bit-exactly, so the selected bandwidth cannot move
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(8, 20))
        p = int(rng.integers(2, 8))
        X = rng.standard_normal((n, p))
        c = float(2.0 ** rng.integers(-3, 4))
        a = estimate_risk(X, N=4, seed=trial)
        b = estimate_risk(c * X, N=4, seed=trial)
        assert_array_equal(b.risk, c * c * a.risk)
        assert select_k(a).k_hat == select_k(b).k_hat


@st.composite
def data_seed_and_power_of_two(draw):
    """Data whose nonzero entries lie in 1e-3..1e3 in magnitude, so no
    product or sum on the (1,1) risk path leaves the normal range and a
    power-of-two scaling stays exact."""
    n, p = draw(st.integers(8, 15)), draw(st.integers(2, 5))
    magnitude = st.floats(1e-3, 1e3)
    entries = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))
    X = draw(arrays(float, (n, p), elements=entries))
    return X, draw(st.integers(0, 2**32 - 1)), 2.0 ** draw(st.integers(-3, 3))


@given(data_seed_and_power_of_two())
def test_selection_deterministic_and_scales_by_c_squared_property(case):
    # acceptance criterion 8's fifth suite with drawn data
    X, seed, c = case
    a = estimate_risk(X, N=3, seed=seed)
    assert_array_equal(estimate_risk(X, N=3, seed=seed).risk, a.risk)
    scaled = estimate_risk(c * X, N=3, seed=seed)
    assert_array_equal(scaled.risk, c * c * a.risk)
    assert select_k(scaled).k_hat == select_k(a).k_hat


def test_identical_rows_give_zero_risk_everywhere():
    # every split sees two zero covariances, so the curve is all ties at 0
    # and selection falls back to the smallest bandwidth
    X = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (12, 1))
    curve = estimate_risk(X, N=6, n1=6, seed=5)
    assert curve.risk[-1] == 0.0
    assert np.all(curve.risk == 0.0)
    assert select_k(curve).k_hat == 0


def test_insufficient_data_rejected():
    with pytest.raises(InsufficientData):
        estimate_risk(np.ones((3, 4)), seed=0)


def test_bad_split_sizes_rejected():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 3))
    with pytest.raises(InsufficientData):
        estimate_risk(X, n1=1, seed=0)
    with pytest.raises(InsufficientData):
        estimate_risk(X, n1=9, seed=0)


def test_cholesky_grid_capped_by_split_size():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 10))
    # n1 = 4 -> max legal k is 2
    with pytest.raises(BandwidthTooLarge):
        estimate_risk(X, k_grid=np.arange(4), estimator_kind="cholesky", n1=4, seed=0)
    curve = estimate_risk(X, estimator_kind="cholesky", n1=4, N=3, seed=0)
    assert curve.k_grid[-1] == 2


def test_operator_norm_risk_runs():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((16, 5))
    curve = estimate_risk(X, N=3, norm="operator", seed=1)
    assert curve.norm == "operator"
    assert np.all(curve.risk >= 0)


def test_banded_risk_matches_definitional_evaluation():
    # re-derive the averaged split losses with band() + matrix_norm on the
    # same splits, reconstructed from the documented seed scheme
    from covband.simgen import substream

    rng = np.random.default_rng(5)
    X = rng.standard_normal((15, 6))
    n1, N, seed = 5, 4, 77
    curve = estimate_risk(X, N=N, n1=n1, seed=seed)
    expected = np.zeros(6)
    for nu in range(N):
        perm = substream(seed, nu).permutation(15)
        S1 = sample_covariance(X[perm[:n1]])
        S2 = sample_covariance(X[perm[n1:]])
        for i, k in enumerate(curve.k_grid):
            expected[i] += matrix_norm(band(S1, int(k)) - S2, "one_one")
    expected /= N
    assert np.max(np.abs(curve.risk - expected)) <= 1e-12


def test_banded_risk_matches_definitional_evaluation_at_large_p():
    # a gapped grid that runs past p - 1, at a p where every diagonal of
    # the (1,1) fast path is long enough to expose an indexing slip
    from covband.simgen import substream

    n, p, n1, N, seed = 40, 300, 13, 3, 78
    X = sample_gaussian(build_covariance(CovarianceModel("ar1", 0.7), p), n, 12)
    ks = [0, 1, 2, 7, 40, 151, 298, 299, 300, 450]
    curve = estimate_risk(X, k_grid=ks, N=N, n1=n1, seed=seed)
    expected = np.zeros(len(ks))
    for nu in range(N):
        perm = substream(seed, nu).permutation(n)
        S1 = sample_covariance(X[perm[:n1]])
        S2 = sample_covariance(X[perm[n1:]])
        expected += [matrix_norm(band(S1, k) - S2, "one_one") for k in ks]
    assert_allclose(curve.risk, expected / N, rtol=1e-12, atol=0)
    assert curve.risk[-1] == curve.risk[-2] == curve.risk[-3]


def test_cholesky_risk_matches_definitional_evaluation():
    from covband.simgen import substream

    rng = np.random.default_rng(6)
    X = rng.standard_normal((20, 5))
    n1, N, seed = 8, 3, 11
    curve = estimate_risk(X, estimator_kind="cholesky", N=N, n1=n1, seed=seed)
    expected = np.zeros(curve.k_grid.size)
    for nu in range(N):
        perm = substream(seed, nu).permutation(20)
        X1, X2 = X[perm[:n1]], X[perm[n1:]]
        S2 = sample_covariance(X2)
        for i, k in enumerate(curve.k_grid):
            est = cholesky_banded_covariance(X1, int(k))
            expected[i] += matrix_norm(est - S2, "one_one")
    expected /= N
    assert np.max(np.abs(curve.risk - expected)) <= 1e-10


def _estimates(X, kind, ks):
    """Each bandwidth's estimate from the data X, one k at a time."""
    if kind == "banded":
        return [band(sample_covariance(X), k) for k in ks]
    return [next(cholesky_covariance_path(X, [k])) for k in ks]


# for p = 240, above the Lanczos threshold; the cholesky grid stays within k <= n1 - 2
OPERATOR_GRIDS = {"banded": [0, 1, 3, 10, 40, 239, 250], "cholesky": [0, 1, 2, 5, 11]}


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_operator_risk_matches_eigvalsh_per_bandwidth(kind):
    from covband.simgen import substream

    n, p, n1, N, seed = 40, 240, 13, 3, 79
    X = sample_gaussian(build_covariance(CovarianceModel("ar1", 0.7), p), n, 13)
    ks = OPERATOR_GRIDS[kind]
    curve = estimate_risk(X, k_grid=ks, estimator_kind=kind, N=N, n1=n1,
                          norm="operator", seed=seed)
    expected = np.zeros(len(ks))
    for nu in range(N):
        perm = substream(seed, nu).permutation(n)
        S2 = sample_covariance(X[perm[n1:]])
        expected += [matrix_norm(E - S2, "operator")
                     for E in _estimates(X[perm[:n1]], kind, ks)]
    assert_allclose(curve.risk, expected / N, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_operator_oracle_k1_matches_eigvalsh_per_bandwidth(kind):
    p = 240
    truth = build_covariance(CovarianceModel("fgn", 0.8), p)
    X = sample_gaussian(truth, 14, 14)
    ks = OPERATOR_GRIDS[kind]
    result = oracle_k1(X, truth, ks, kind, "operator")
    expected = [matrix_norm(E - truth, "operator")
                for E in _estimates(X, kind, ks)]
    assert_allclose(result.curve.risk, expected, rtol=1e-12, atol=0)
    assert result.k_hat == ks[int(np.argmin(expected))]


def _record_blas_threads(get, seen):
    """A patch that appends the BLAS thread count to ``seen`` at every Gram
    product of a split part or a sample: rows (all at once, or one block of
    a banded curve) and the products S v of the operator-norm curves."""
    from covband import selection

    class Recorded(_Gram):
        def __call__(self, J, out):
            seen.append(get())
            return super().__call__(J, out)

        def apply(self, V):
            seen.append(get())
            return super().apply(V)

    return mock.patch.object(selection, "_Gram", Recorded)


def test_operator_curves_take_sample_covariances_on_one_blas_thread():
    # a threaded product before each Lanczos run leaves an OpenBLAS thread
    # spinning beside it, so the whole curve runs capped, its Gram product
    # of all rows included, and so do the block products of the (1,1) curve
    from covband.matcore import _openblas_threads

    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = threads
    seen = []
    X = np.random.default_rng(15).standard_normal((12, 6))
    before = get()
    set_(2)
    try:
        with _record_blas_threads(get, seen):
            estimate_risk(X, N=2, norm="operator", seed=0)
            oracle_k1(X, np.eye(6), norm="operator")
            estimate_risk(X, N=1, seed=0)  # one block: one product per part
            assert seen == [1] * 7
        assert get() == 2
    finally:
        set_(before)


def test_banded_one_one_curve_runs_on_one_blas_thread():
    # every block product, of both split parts and of the oracle's sample
    from covband import selection
    from covband.matcore import _openblas_threads

    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = threads
    seen = []
    X = np.random.default_rng(16).standard_normal((12, 6))
    before = get()
    set_(2)
    try:
        # p = 6, K = 5: blocks of 2 rows, so three products per split part
        with (_record_blas_threads(get, seen),
              mock.patch.object(selection, "_ONE_ONE_BLOCK_BYTES", 2 * 8 * 11)):
            estimate_risk(X, N=3, seed=0)
            oracle_k1(X, np.eye(6))
        assert seen == [1] * (3 * 2 * 3 + 3)
    finally:
        set_(before)


def test_lanczos_curves_run_every_product_on_one_blas_thread():
    # p = 200 reaches Lanczos: band storage read in row blocks and the
    # products S2 v of the narrow bands, the dense truth's products of the
    # oracle, the dense differences of the wide bands and of the cholesky
    # curve: every one on one thread
    from covband import selection
    from covband.matcore import _openblas_threads

    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = threads
    seen = {"rows": [], "S v": [], "D v": [], "dense differences": []}

    class Gram(_Gram):
        def __call__(self, J, out):
            seen["rows"].append(get())
            return super().__call__(J, out)

        def apply(self, V):
            seen["S v"].append(get())
            return super().apply(V)

    class Dense(_Dense):
        def apply(self, V):
            seen["D v"].append(get())
            return super().apply(V)

    def dense_products(V, D):
        seen["dense differences"].append(get())
        return _dense_products(V, D)

    X = np.random.default_rng(24).standard_normal((40, 200))
    before = get()
    set_(2)
    try:
        with (mock.patch.object(selection, "_Gram", Gram),
              mock.patch.object(selection, "_Dense", Dense),
              mock.patch.object(selection, "_dense_products", dense_products)):
            estimate_risk(X, k_grid=[0, 3, 60, 61, 199], N=2, norm="operator", seed=0)
            estimate_risk(X, k_grid=[0, 5], estimator_kind="cholesky", N=1, n1=20,
                          norm="operator", seed=0)
            oracle_k1(X, np.eye(200), k_grid=[0, 3, 60], norm="operator")
        assert get() == 2
    finally:
        set_(before)
    assert {kind: set(counts) for kind, counts in seen.items()} == {kind: {1} for kind in seen}
    assert min(map(len, seen.values())) > 20


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_oracle_k1_matches_brute_force_loss_curve():
    rng = np.random.default_rng(7)
    truth = build_covariance(CovarianceModel("ar1", 0.6), 7)
    X = sample_gaussian(truth, 40, 8)
    result = oracle_k1(X, truth)
    S = sample_covariance(X)
    losses = [matrix_norm(band(S, k) - truth, "one_one") for k in range(7)]
    assert np.max(np.abs(result.curve.risk - losses)) <= 1e-12
    assert result.k_hat == int(np.argmin(losses))
    assert result.curve.N is None


@st.composite
def symmetric_pair_and_grid(draw):
    """p in 1..40, an independent random symmetric pair (S, T) of random
    scales, and a strictly ascending grid that may run past p - 1."""
    p = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S, T = (symmetrize(rng.standard_normal((p, p)) * 10.0 ** draw(st.integers(-3, 3)))
            for _ in range(2))
    ks = sorted(draw(st.sets(st.integers(0, p + 3), min_size=1, max_size=p + 4)))
    return S, T, ks, rng


def matrix_rows(M):
    """The rows of a p x p matrix, in the form ``_one_one_band_curve`` reads."""
    return lambda J, out: M[J]


@given(symmetric_pair_and_grid())
def test_one_one_band_curve_matches_its_definition(case):
    S, T, ks, rng = case
    ks = np.asarray(ks)
    expected = [matrix_norm(band(S, k) - T, "one_one") for k in ks]
    curve = _one_one_band_curve(S.shape[0], ks)
    assert_allclose(curve(matrix_rows(S), matrix_rows(T)), expected, rtol=1e-12, atol=0)
    # the same curve through the public oracle, with S a sample covariance
    X = rng.standard_normal((int(rng.integers(2, 50)), S.shape[0]))
    S = sample_covariance(X)
    expected = [matrix_norm(band(S, k) - T, "one_one") for k in ks]
    assert_allclose(oracle_k1(X, T, ks).curve.risk, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("p, k_max", [(1, 0), (1, 3), (2, 0), (2, 1), (50, 10), (50, 49),
                                      (50, 60)])
def test_one_one_band_curve_reuses_its_workspace(p, k_max):
    # a workspace left over from another (S, T) gives the fresh-workspace bytes
    rng = np.random.default_rng(p + k_max)
    S1, T1, S2, T2 = (symmetrize(rng.standard_normal((p, p)) * scale)
                      for scale in (1e3, 1e-3, 1.0, 2.0))
    ks = np.arange(k_max + 1)
    curve = _one_one_band_curve(p, ks)
    for S, T in ((S1, T1), (S2, T2)):
        assert_array_equal(curve(matrix_rows(S), matrix_rows(T)),
                           _one_one_band_curve(p, ks)(matrix_rows(S), matrix_rows(T)))


def test_gram_rows_of_all_rows_are_the_sample_covariance():
    # one block is one syrk on the centred data, so a curve of one block
    # starts from the bytes of sample_covariance
    X = np.random.default_rng(20).standard_normal((33, 50))
    assert_array_equal(_Gram(X)(slice(0, 50), np.empty((50, 50))), sample_covariance(X))


BLOCK = 4


@pytest.mark.parametrize("p", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("grid", ["full", "sparse", "past_p"])
@pytest.mark.parametrize("truth", [False, True])
def test_one_one_band_curve_across_block_boundaries(p, grid, truth):
    # a budget of BLOCK rows cuts small p into several blocks, the last one
    # short; the curve is scored on a workspace another pair has left behind
    from covband import selection

    ks = {"full": np.arange(p), "sparse": np.arange(0, max(p - 2, 1), 2),
          "past_p": np.array([0, 1, p + 2]) if p > 2 else np.array([0, p + 2])}[grid]
    K = min(int(ks[-1]), p - 1)
    assert grid != "sparse" or p < 3 or K < p - 1
    rng = np.random.default_rng(100 * p + 10 * len(ks) + truth)
    X1, X2 = rng.standard_normal((7, p)), 3.0 * rng.standard_normal((11, p))
    S1 = sample_covariance(X1)
    T = symmetrize(rng.standard_normal((p, p))) if truth else sample_covariance(X2)
    expected = [matrix_norm(band(S1, int(k)) - T, "one_one") for k in ks]
    products = []

    def gram_rows(X):
        i = len(products)
        products.append(0)
        rows = _Gram(X)

        def counted(J, out):
            products[i] += 1
            return rows(J, out)
        return counted

    with mock.patch.object(selection, "_ONE_ONE_BLOCK_BYTES", BLOCK * 8 * (p + K)):
        curve = _split_loss_curve(p, ks, "banded", "one_one")
        curve(gram_rows(1e3 * X2[:, ::-1]), matrix_rows(1e-3 * T) if truth else gram_rows(X1))
        products.clear()
        got = curve(gram_rows(X1), matrix_rows(T) if truth else gram_rows(X2))
    assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert products == [-(-p // BLOCK)] * (1 if truth else 2)


def test_banded_one_one_peak_memory_stays_under_one_matrix():
    # the curve is built from row blocks of the split data, so its peak
    # stays below one p x p float64 array (8 MB at p = 1000)
    p = 1000
    X = sample_gaussian(build_covariance(CovarianceModel("ar1", 0.5), p), 100, 19)
    tracemalloc.start()
    try:
        estimate_risk(X, N=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * p * 8


def test_banded_one_one_peak_memory_does_not_grow_with_splits():
    # the workspace is held for the whole curve; a split's S1 and S2 (2.9 MB
    # each at p = 600) must not outlive it beside the next pair
    X = np.random.default_rng(17).standard_normal((30, 600))
    peaks = []
    for N in (1, 3):
        tracemalloc.start()
        try:
            estimate_risk(X, N=N, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 600 * 600 * 8 / 4


def test_banded_operator_curve_below_the_lanczos_threshold_is_eigvalsh_bit_for_bit():
    # below _LANCZOS_MIN_P every bandwidth is eigvalsh of band(S1, k) - S2,
    # the split covariances the bytes of sample_covariance
    from covband.simgen import substream

    n, p, n1, seed = 30, 40, 10, 5
    X = np.random.default_rng(21).standard_normal((n, p))
    ks = np.array([0, 1, 4, 20, 39, 45])
    curve = estimate_risk(X, k_grid=ks, N=2, n1=n1, norm="operator", seed=seed)
    expected = np.zeros(ks.size)
    for nu in range(2):
        perm = substream(seed, nu).permutation(n)
        S1, S2 = sample_covariance(X[perm[:n1]]), sample_covariance(X[perm[n1:]])
        expected += [matrix_norm(band(S1, k) - S2, "operator") for k in ks]
    assert_array_equal(curve.risk, expected / 2)


def operator_band_case(p=200, n=40, seed=22):
    """AR(1) data, a grid with narrow and wide bands and bandwidths past p - 1,
    and the eigvalsh loss of each bandwidth on one split (n1 = n // 3)."""
    from covband.simgen import substream

    X = sample_gaussian(build_covariance(CovarianceModel("ar1", 0.6), p), n, seed)
    ks = np.array([0, 1, 2, 5, 9, 17, 33, 49, 50, 120, p - 1, p + 5])
    perm = substream(seed, 0).permutation(n)
    S1, S2 = sample_covariance(X[perm[: n // 3]]), sample_covariance(X[perm[n // 3:]])
    expected = [matrix_norm(band(S1, k) - S2, "operator") for k in ks]
    return X, ks, expected


@pytest.mark.parametrize("group_bytes", [1, 2 * 8 * 200 * 260, None],
                         ids=["one_per_group", "two_per_group", "default"])
@pytest.mark.parametrize("block_bytes", [8 * 7 * 298, None], ids=["blocks_of_7_rows", "default"])
def test_banded_operator_curve_across_groups_and_row_blocks(group_bytes, block_bytes):
    # p = 200: bandwidths with 2k + 1 <= p / 2 take band storage, read in
    # row blocks (the last one short), in lockstep groups of consecutive k;
    # the rest take dense differences.  A bandwidth's value moves with its
    # group only in the last bits: the band and low-rank products run batched.
    from covband import selection

    X, ks, expected = operator_band_case()
    patches = {"_LANCZOS_GROUP_BYTES": group_bytes, "_BAND_READ_BYTES": block_bytes}
    with contextlib.ExitStack() as stack:
        for name, value in patches.items():
            if value is not None:
                stack.enter_context(mock.patch.object(selection, name, value))
        risk = estimate_risk(X, k_grid=ks, N=1, norm="operator", seed=22).risk
    assert_allclose(risk, expected, rtol=1e-12, atol=0)
    assert risk[-1] == risk[-2]
    default = estimate_risk(X, k_grid=ks, N=1, norm="operator", seed=22).risk
    assert_allclose(risk, default, rtol=1e-14, atol=0)


def test_banded_operator_curve_falls_back_to_eigvalsh_one_bandwidth_at_a_time():
    # with a cap of 32 steps some bandwidths stop unconverged; each gets
    # eigvalsh of its own dense B_k(S1) - S2 (built from the band storage
    # for a narrow band) while the rest of its group goes on
    from covband import selection

    X, ks, expected = operator_band_case()
    fallbacks = []

    def counted(M, which):
        fallbacks.append(M.shape)
        return matrix_norm(M, which)

    with (mock.patch.object(selection, "_LANCZOS_MAX_STEPS", 32),
          mock.patch.object(selection, "matrix_norm", counted)):
        risk = estimate_risk(X, k_grid=ks, N=1, norm="operator", seed=22).risk
    assert_allclose(risk, expected, rtol=1e-12, atol=0)
    assert 0 < len(fallbacks) < ks.size and set(fallbacks) == {(200, 200)}


def test_banded_operator_oracle_applies_the_dense_truth():
    # oracle_k1's narrow bands: the sample's band storage read in row blocks,
    # less the dense truth applied as one product per step (_Dense.apply)
    from covband import selection

    p = 200
    truth = build_covariance(CovarianceModel("ma1", 0.5), p)
    X = sample_gaussian(truth, 30, 23)
    ks = np.array([0, 1, 3, 8, 30, 70])
    S = sample_covariance(X)
    expected = [matrix_norm(band(S, k) - truth, "operator") for k in ks]
    with mock.patch.object(selection, "_BAND_READ_BYTES", 8 * 9 * (p + 60)):
        result = oracle_k1(X, truth, ks, norm="operator")
    assert_allclose(result.curve.risk, expected, rtol=1e-12, atol=0)


def test_banded_operator_peak_memory_does_not_grow_with_the_band():
    # the narrow bands of p = 1000 run matrix free: S1 in band storage, S2 as
    # a low-rank product, so widening the grid from k <= 9 to k <= 99 adds
    # less than one p x p float64 array (8 MB) to the traced peak
    p = 1000
    X = sample_gaussian(build_covariance(CovarianceModel("ar1", 0.5), p), 100, 19)
    peaks = []
    for k_max in (9, 99):
        tracemalloc.start()
        try:
            estimate_risk(X, k_grid=np.arange(k_max + 1), N=1, norm="operator", seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < p * p * 8


@pytest.mark.parametrize("kind, ks", [
    ("cholesky", np.arange(16)),
    ("banded", np.arange(100, 110)),  # 2k + 1 > p / 2: dense differences
], ids=["cholesky", "wide_bands"])
def test_dense_operator_losses_peak_no_higher_than_their_one_one_losses(kind, ks):
    # each estimate holds its own difference and its loss is taken alone, so
    # the operator norm adds only a Lanczos basis (under half a p x p array)
    # to the traced peak of the (1,1) loss of the same estimates
    p = 400
    X = sample_gaussian(build_covariance(CovarianceModel("ar1", 0.5), p), 100, 19)
    fit, target = _Gram(X[:33]), _Gram(X[33:])
    peaks = []
    for curve in (_dense_curve(p, ks, kind, "one_one"),
                  _split_loss_curve(p, ks, kind, "operator")):
        tracemalloc.start()
        try:
            curve(fit, target)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + p * p * 8 / 2


def test_banded_operator_curve_does_not_recheck_each_split():
    # split covariances are symmetric by construction and band_path trusts
    # its caller, so a curve's symmetry checks must not grow with its splits
    # (p = 200 takes the Lanczos norm, which checks nothing)
    from covband import matcore

    X = np.random.default_rng(18).standard_normal((30, 200))
    calls = []
    for N in (1, 3):
        with mock.patch.object(matcore, "require_symmetric",
                               wraps=matcore.require_symmetric) as spy:
            estimate_risk(X, k_grid=[0, 2, 5], N=N, norm="operator", seed=0)
        calls.append(spy.call_count)
    assert calls[0] == calls[1]


def test_oracle_k1_rejects_an_asymmetric_truth():
    X = np.random.default_rng(11).standard_normal((10, 3))
    truth = np.eye(3)
    truth[0, 2] = 0.5
    with pytest.raises(ValueError, match="truth is not symmetric"):
        oracle_k1(X, truth)


def test_oracle_k1_large_sample_prefers_full_band():
    truth = build_covariance(CovarianceModel("ar1", 0.5), 5)
    X = sample_gaussian(truth, 10_000, 9)
    result = oracle_k1(X, truth)
    assert result.curve.risk[-1] < result.curve.risk[0]


def test_oracle_k0_finds_short_band_for_tridiagonal_truth():
    model = CovarianceModel("ma1", 0.5)
    k0, mean_loss = oracle_k0(model, n=100, p=20, reps=30, seed=0)
    assert k0 == 1
    assert mean_loss.shape == (20,)
    assert np.all(mean_loss >= 0)


def test_oracle_k0_deterministic():
    model = CovarianceModel("ar1", 0.5)
    a = oracle_k0(model, n=50, p=10, reps=5, seed=3)
    b = oracle_k0(model, n=50, p=10, reps=5, seed=3)
    assert a[0] == b[0]
    assert_array_equal(a[1], b[1])


def test_oracle_k1_loss_never_beats_per_sample_minimum():
    # the realized loss at k1 is the grid minimum by construction, so it is
    # <= the loss at any other grid point, including a Monte Carlo k0
    rng = np.random.default_rng(10)
    truth = build_covariance(CovarianceModel("ar1", 0.7), 8)
    for seed in range(20):
        X = sample_gaussian(truth, 30, seed)
        result = oracle_k1(X, truth)
        assert result.curve.risk[result.k_hat] == result.curve.risk.min()


# ---------------------------------------------------------------------------
# theoretical bandwidth
# ---------------------------------------------------------------------------


def test_theoretical_bandwidth_reference_value():
    assert theoretical_bandwidth(100, 100, 1.0) == 2


def test_theoretical_bandwidth_flat_for_large_alpha():
    assert theoretical_bandwidth(100, 100, 100.0) == 1


def test_theoretical_bandwidth_nondecreasing_in_n():
    values = [theoretical_bandwidth(n, 100, 1.0) for n in (100, 400, 1600)]
    assert values == sorted(values)
    assert values[-1] > values[0]


def test_theoretical_bandwidth_validation():
    with pytest.raises(ValueError):
        theoretical_bandwidth(1, 100, 1.0)
    with pytest.raises(ValueError):
        theoretical_bandwidth(100, 100, 0.0)


# ---------------------------------------------------------------------------
# risk curve CSV
# ---------------------------------------------------------------------------


def test_risk_curve_csv_round_trip(tmp_path):
    curve = make_curve([0, 1, 2], [2.5, 0.125, 1.0 / 3.0])
    path = tmp_path / "curve.csv"
    write_risk_curve(path, curve, k_hat=1)
    ks, risks, k_hat = read_risk_curve(path)
    assert_array_equal(ks, curve.k_grid)
    assert_array_equal(risks, curve.risk)
    assert k_hat == 1


def test_risk_curve_csv_strips_a_byte_order_mark(tmp_path):
    # a curve re-saved by a spreadsheet starts with a BOM
    curve = make_curve([0, 1, 2], [2.5, 0.125, 1.0 / 3.0])
    path = tmp_path / "curve.csv"
    write_risk_curve(path, curve, k_hat=1)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    ks, risks, k_hat = read_risk_curve(path)
    assert_array_equal(ks, curve.k_grid)
    assert_array_equal(risks, curve.risk)
    assert k_hat == 1


def test_risk_curve_csv_without_selection(tmp_path):
    curve = make_curve([0, 1], [1.0, 2.0])
    path = tmp_path / "curve.csv"
    write_risk_curve(path, curve)
    _, _, k_hat = read_risk_curve(path)
    assert k_hat is None


def test_risk_curve_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("bandwidth,loss\n0,1.0\n")
    with pytest.raises(DataFormatError):
        read_risk_curve(path)


@pytest.mark.parametrize(
    "body", ["0,1.0\n1,1.0,7\n", "0,1.0\nx,2.0\n", "0,1.0\n1,\n", "0,1.0\n# k_hat=one\n"]
)
def test_risk_curve_csv_malformed_line_names_file_and_line(tmp_path, body):
    path = tmp_path / "curve.csv"
    path.write_text("k,risk\n" + body)
    with pytest.raises(DataFormatError, match="curve.csv:3: malformed line"):
        read_risk_curve(path)


def test_risk_curve_csv_k_beyond_int64_is_a_format_error(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("k,risk\n99999999999999999999,1.0\n")
    with pytest.raises(DataFormatError, match="curve.csv:2: '99999999999999999999,1.0'"):
        read_risk_curve(path)


@pytest.mark.parametrize("body", ["0,1.0\n1,inf\n", "0,1.0\n1,nan\n", "0,1.0\n1,-0.5\n",
                                  "1,1.0\n0,2.0\n", "0,1.0\n0,2.0\n",
                                  "0,1.0\n9223372036854775808,2.0\n", "# k_hat=0\n-1,1.0\n"],
                         ids=["inf", "nan", "negative_risk", "unsorted", "repeated", "int64_max+1",
                              "negative_k"])
def test_risk_curve_csv_rows_a_curve_refuses_name_file_and_line(tmp_path, body):
    # every row RiskCurve would refuse is reported where it stands
    path = tmp_path / "curve.csv"
    path.write_text("k,risk\n" + body)
    with pytest.raises(DataFormatError, match="curve.csv:3: .* needs a 64-bit k"):
        read_risk_curve(path)


def test_risk_curve_csv_accepts_the_largest_int64_k(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("k,risk\n0,0.0\n9223372036854775807,2.5\n")
    ks, risks, k_hat = read_risk_curve(path)
    assert ks.tolist() == [0, 2**63 - 1] and risks.tolist() == [0.0, 2.5] and k_hat is None


# ---------------------------------------------------------------------------
# operator norm by Lanczos
# ---------------------------------------------------------------------------

# p just below and just above the eigvalsh fallback threshold, and one more
LANCZOS_DIMS = [_LANCZOS_MIN_P - 1, _LANCZOS_MIN_P, _LANCZOS_MIN_P + 33]


def lanczos_norms(*matrices):
    """_lanczos_norms of the symmetric p x p matrices, as one group."""
    return _lanczos_norms(np.stack(matrices), _dense_products, lambda D: D, matrices[0].shape[0])


@functools.cache
def companions(p):
    """Matrices that share a group with the one under test and finish at
    other steps: the zero matrix at the first, a rank-one shift of -I at the
    second, and one with two isolated extremes at the first test."""
    rng = np.random.default_rng(p)
    u = rng.standard_normal(p)
    return (np.zeros((p, p)), np.outer(u, u) - np.eye(p),
            with_spectrum(np.concatenate([[4.0, -3.0], rng.uniform(-1, 1, p - 2)]), rng))


def assert_spectral_norm_is_eigvalsh(A, converges=False):
    """The Lanczos norm of A is max |eigvalsh(A)| to 1e-12, alone and as the
    third of a mixed group, bit for bit the same in both; with
    ``converges``, a matrix of Lanczos size must get there without the
    eigvalsh fallback."""
    expected = np.max(np.abs(np.linalg.eigvalsh(A)))
    zero, shifted, isolated = companions(A.shape[0])
    if converges and A.shape[0] >= _LANCZOS_MIN_P:
        with mock.patch("covband.selection.matrix_norm",
                        side_effect=AssertionError("fell back to eigvalsh")):
            (alone,), grouped = lanczos_norms(A), lanczos_norms(zero, shifted, A, isolated)
    else:
        (alone,), grouped = lanczos_norms(A), lanczos_norms(zero, shifted, A, isolated)
    assert_allclose(alone, expected, rtol=1e-12, atol=0)
    assert grouped[2] == alone
    assert_allclose(grouped[[0, 1, 3]], [np.max(np.abs(np.linalg.eigvalsh(M)))
                                         for M in (zero, shifted, isolated)], rtol=1e-12, atol=0)


def with_spectrum(eigenvalues, rng, persymmetric=False):
    """V diag(eigenvalues) V' for a random orthogonal V.  ``persymmetric``
    makes V's first column skew-symmetric (so orthogonal to ones) and
    every column symmetric or skew-symmetric, as a Toeplitz matrix's are."""
    p = len(eigenvalues)
    M = rng.standard_normal((p, p))
    if persymmetric:
        half = p // 2
        M[:, :half] -= M[::-1, :half]
        M[:, half:] += M[::-1, half:]
    V, _ = np.linalg.qr(M)  # Gram-Schmidt keeps each column's parity
    return symmetrize((V * eigenvalues) @ V.T)


@given(st.sampled_from(LANCZOS_DIMS), st.sampled_from(["ma1", "ar1", "fgn"]),
       st.floats(0.05, 0.95), st.integers(0, 60))
def test_spectral_norm_of_banded_model_truth_errors(p, kind, value, k):
    # band(Sigma, k) - Sigma is symmetric Toeplitz, hence persymmetric
    value = 0.5 + value / 2 if kind == "fgn" else value
    Sigma = build_covariance(CovarianceModel(kind, value), p)
    assert_spectral_norm_is_eigvalsh(band(Sigma, k) - Sigma)


@given(st.sampled_from(LANCZOS_DIMS), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
def test_spectral_norm_of_random_toeplitz_matrices(p, seed, decay):
    column = np.random.default_rng(seed).standard_normal(p) * np.exp(-decay * np.arange(p))
    assert_spectral_norm_is_eigvalsh(column[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))])


@given(st.sampled_from(LANCZOS_DIMS), st.integers(0, 2**32 - 1), st.booleans())
def test_spectral_norm_when_the_extreme_eigenvector_is_orthogonal_to_ones(p, seed, negative):
    rng = np.random.default_rng(seed)
    eigenvalues = np.concatenate([[-5.0 if negative else 5.0], rng.uniform(-1, 1, p - 1)])
    A = with_spectrum(eigenvalues, rng, persymmetric=True)
    assert_allclose(A, A[::-1, ::-1], rtol=0, atol=1e-12)
    assert abs(np.linalg.eigh(A)[1][:, 0 if negative else -1].sum()) < 1e-8
    assert_spectral_norm_is_eigvalsh(A, converges=True)


@given(st.sampled_from(LANCZOS_DIMS), st.integers(0, 2**32 - 1), st.floats(1e-9, 5e-2))
def test_spectral_norm_with_opposite_extremes_of_near_equal_size(p, seed, excess):
    # lambda_max = 10 is isolated and converges first; lambda_min, just
    # beyond -10, sits at the edge of the bulk and converges later.  A rule
    # that stops once the largest |theta| settles can return 10.
    rng = np.random.default_rng(seed)
    eigenvalues = np.concatenate([[10.0, -10.0 * (1 + excess)], rng.uniform(-10, 5, p - 2)])
    A = with_spectrum(eigenvalues, rng)
    assert_spectral_norm_is_eigvalsh(A, converges=True)
    assert_spectral_norm_is_eigvalsh(-A, converges=True)


@pytest.mark.parametrize("p", LANCZOS_DIMS)
def test_spectral_norm_of_matrices_that_end_the_iteration_early(p):
    # the zero matrix, c I and rank-one matrices span an invariant Krylov
    # space after one or two steps
    u = np.random.default_rng(p).standard_normal(p)
    for A in (np.zeros((p, p)), 3.5 * np.eye(p), -0.25 * np.eye(p),
              np.outer(u, u), -np.outer(u, u), np.outer(u, u) - np.eye(p)):
        assert_spectral_norm_is_eigvalsh(A, converges=True)


def test_spectral_norm_is_eigvalsh_below_the_threshold():
    A = symmetrize(np.random.default_rng(0).standard_normal((_LANCZOS_MIN_P - 1,) * 2))
    assert lanczos_norms(A)[0] == matrix_norm(A, "operator")
