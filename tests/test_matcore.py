import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

from covband.errors import DataFormatError, NotPositiveDefinite
from covband.matcore import (
    TaperSpec,
    band,
    cholesky_factor,
    effective_bandwidth,
    is_positive_definite,
    load_matrix_csv,
    matrix_norm,
    require_symmetric,
    _openblas_threads,
    save_matrix_csv,
    schur_product,
    single_blas_thread,
    sym_eigen,
    symmetrize,
    taper_weights,
)


def random_symmetric(rng, p, scale=1.0):
    M = rng.standard_normal((p, p)) * scale
    return symmetrize(M)


def random_pd(rng, p, extra=3):
    G = rng.standard_normal((p + extra, p))
    return symmetrize(G.T @ G / (p + extra))


# ---------------------------------------------------------------------------
# require_symmetric / symmetrize
# ---------------------------------------------------------------------------


def test_require_symmetric_accepts_exact_symmetry():
    M = np.array([[1.0, 2.0], [2.0, 3.0]])
    out = require_symmetric(M, "M")
    assert out.shape == (2, 2)


def test_require_symmetric_rejects_asymmetry():
    M = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    with pytest.raises(ValueError):
        require_symmetric(M, "M")


def test_require_symmetric_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        require_symmetric(np.zeros((2, 3)), "M")
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError):
        require_symmetric(bad, "M")


def test_symmetrize_is_exactly_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        M = rng.standard_normal((7, 7))
        S = symmetrize(M)
        assert np.array_equal(S, S.T)


# ---------------------------------------------------------------------------
# band
# ---------------------------------------------------------------------------


def test_band_keeps_only_the_diagonal_at_k0():
    M = random_symmetric(np.random.default_rng(1), 5)
    B = band(M, 0)
    assert_array_equal(np.diag(B), np.diag(M))
    assert np.all(B[~np.eye(5, dtype=bool)] == 0.0)


def test_band_full_width_is_identity_operation():
    M = random_symmetric(np.random.default_rng(2), 6)
    assert_array_equal(band(M, 5), M)
    assert_array_equal(band(M, 17), M)


def test_band_tridiagonal_example():
    M = np.array([[1.0, 2, 3], [2, 1, 2], [3, 2, 1]])
    expected = np.array([[1.0, 2, 0], [2, 1, 2], [0, 2, 1]])
    assert_array_equal(band(M, 1), expected)


def test_band_rejects_negative_k():
    with pytest.raises(ValueError):
        band(np.eye(3), -1)


def test_band_idempotent_and_composes_by_minimum():
    # exact equalities, checked over many random instances
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = int(rng.integers(1, 12))
        M = random_symmetric(rng, p)
        k1 = int(rng.integers(0, p + 2))
        k2 = int(rng.integers(0, p + 2))
        Bk1 = band(M, k1)
        assert np.array_equal(band(Bk1, k1), Bk1)
        assert np.array_equal(band(Bk1, k2), band(M, min(k1, k2)))


# ---------------------------------------------------------------------------
# schur_product
# ---------------------------------------------------------------------------


def test_schur_with_ones_is_identity_and_with_eye_is_diagonal():
    M = random_symmetric(np.random.default_rng(4), 5)
    assert_array_equal(schur_product(M, np.ones((5, 5))), M)
    D = schur_product(M, np.eye(5))
    assert_array_equal(np.diag(D), np.diag(M))
    assert np.all(D[~np.eye(5, dtype=bool)] == 0.0)


def test_schur_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        schur_product(np.eye(3), np.eye(4))


def test_schur_product_of_positive_definite_stays_positive_definite():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = int(rng.integers(2, 21))
        A = random_pd(rng, p)
        B = random_pd(rng, p)
        assert is_positive_definite(schur_product(A, B))


# ---------------------------------------------------------------------------
# tapers
# ---------------------------------------------------------------------------


def test_taper_weight_examples():
    assert TaperSpec("triangular", 2.0).weight_at(1.0) == 0.5
    assert TaperSpec("exponential", 1.0).weight_at(0.0) == 1.0
    t = TaperSpec("banding-indicator", 1)
    expected = np.array([[1.0, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert_array_equal(taper_weights(t, 3), expected)


def test_taper_weights_unit_diagonal_bounded_and_nonincreasing():
    for spec in (
        TaperSpec("banding-indicator", 3),
        TaperSpec("triangular", 2.5),
        TaperSpec("exponential", 1.7),
    ):
        W = taper_weights(spec, 12)
        assert np.array_equal(W, W.T)
        assert_array_equal(np.diag(W), np.ones(12))
        assert np.all((W >= 0.0) & (W <= 1.0))
        first_row = W[0]
        assert np.all(np.diff(first_row) <= 0)


def test_taper_spec_validation():
    with pytest.raises(ValueError):
        TaperSpec("gaussian", 1.0)
    with pytest.raises(ValueError):
        TaperSpec("triangular", 0.0)
    with pytest.raises(ValueError):
        TaperSpec("exponential", -2.0)
    with pytest.raises(ValueError):
        TaperSpec("banding-indicator", 2.5)
    with pytest.raises(ValueError):
        TaperSpec("banding-indicator", -1)
    for scale in (np.inf, np.nan):  # no OverflowError / conversion error from int()
        with pytest.raises(ValueError, match="nonnegative integer"):
            TaperSpec("banding-indicator", scale)
    # integer-valued floats are accepted as bandwidths
    TaperSpec("banding-indicator", 0)
    TaperSpec("banding-indicator", 4)


def test_effective_bandwidth_examples():
    assert effective_bandwidth(TaperSpec("banding-indicator", 5), 100) == 5.0
    assert effective_bandwidth(TaperSpec("triangular", 4.0), 50) == pytest.approx(1.5)
    # p=1: no off-diagonal distances at all
    assert effective_bandwidth(TaperSpec("exponential", 1.0), 1) == 0.0


def test_effective_bandwidth_matches_direct_sum():
    t = TaperSpec("exponential", 2.0)
    p = 30
    expected = sum(np.exp(-l / 2.0) for l in range(1, p))
    assert effective_bandwidth(t, p) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_matrix_norm_examples():
    assert matrix_norm(np.diag([2.0, -3.0]), "operator") == pytest.approx(3.0)
    M = np.array([[1.0, -2.0], [-2.0, 4.0]])
    assert matrix_norm(M, "one_one") == pytest.approx(6.0)
    assert matrix_norm(M, "max_abs") == pytest.approx(4.0)
    Z = np.zeros((4, 4))
    for which in ("operator", "one_one", "max_abs", "frobenius"):
        assert matrix_norm(Z, which) == 0.0
    F = np.array([[3.0, 4.0], [4.0, 3.0]])
    assert matrix_norm(F, "frobenius") == pytest.approx(np.sqrt(50.0))


def test_matrix_norm_rejects_unknown_kind():
    with pytest.raises(ValueError):
        matrix_norm(np.eye(2), "two")


def test_operator_norm_bounded_by_one_one_norm():
    # for symmetric matrices the spectral radius never exceeds the max
    # absolute column sum.  Random symmetric inputs are indefinite (p > 1), so
    # either end of the spectrum can carry the norm; it must match eigh's.
    rng = np.random.default_rng(6)
    for _ in range(100):
        p = int(rng.integers(1, 25))
        M = random_symmetric(rng, p, scale=float(rng.uniform(0.1, 5.0)))
        op = matrix_norm(M, "operator")
        assert op <= matrix_norm(M, "one_one") + 1e-10
        assert_allclose(op, np.max(np.abs(sym_eigen(M).eigenvalues)), rtol=1e-12)


# ---------------------------------------------------------------------------
# sym_eigen
# ---------------------------------------------------------------------------


def test_sym_eigen_trivial_spectra():
    dec = sym_eigen(np.eye(4))
    assert_array_equal(dec.eigenvalues, np.ones(4))
    dec = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(dec.eigenvalues, [3.0, 2.0, 1.0])
    dec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(dec.eigenvalues, [3.0, 1.0], rtol=1e-12)


def test_sym_eigen_sorted_orthonormal_and_reconstructs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = int(rng.integers(1, 51))
        M = random_symmetric(rng, p)
        dec = sym_eigen(M)
        lam, V = dec.eigenvalues, dec.eigenvectors
        assert np.all(np.diff(lam) <= 0)
        assert np.max(np.abs(V.T @ V - np.eye(p))) <= 1e-10
        R = V @ np.diag(lam) @ V.T
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(R - M)) <= 1e-8 * scale


def test_sym_eigen_output_is_read_only():
    dec = sym_eigen(np.eye(3))
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 7.0


# ---------------------------------------------------------------------------
# cholesky_factor / is_positive_definite
# ---------------------------------------------------------------------------


def test_cholesky_identity_and_hand_example():
    assert_array_equal(cholesky_factor(np.eye(3)), np.eye(3))
    M = np.array([[4.0, 2.0], [2.0, 2.0]])
    assert_allclose(cholesky_factor(M), np.array([[2.0, 0.0], [1.0, 1.0]]))


def test_cholesky_rejects_rank_deficient_and_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.ones((3, 3)))
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.zeros((2, 2)))
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(-np.eye(2))


def test_cholesky_reconstructs_random_pd_matrices():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = int(rng.integers(1, 20))
        M = random_pd(rng, p)
        L = cholesky_factor(M)
        assert np.all(np.diag(L) > 0)
        assert np.array_equal(L, np.tril(L))
        scale = float(np.max(np.abs(M)))
        assert np.max(np.abs(L @ L.T - M)) <= 1e-8 * scale


def test_cholesky_factors_stacks_with_a_pivot_test_per_matrix():
    rng = np.random.default_rng(9)
    M = np.stack([random_pd(rng, 4) for _ in range(3)])
    L = cholesky_factor(M)
    for i in range(3):
        assert_array_equal(L[i], cholesky_factor(M[i]))
    # the tolerance is relative to each matrix's own diagonal
    assert_allclose(cholesky_factor(np.stack([1e-20 * M[0], M[1]]))[0], 1e-10 * L[0])
    singular = M.copy()
    singular[1] = np.ones((4, 4))
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(singular)
    nearly = M.copy()
    nearly[2, 3, 3] = nearly[2, 3, :3] @ np.linalg.solve(nearly[2, :3, :3], nearly[2, :3, 3])
    nearly[2, 3, 3] += 1e-14 * nearly[2].diagonal().max()
    with pytest.raises(NotPositiveDefinite, match="matrix \\(2,\\), column 3"):
        cholesky_factor(nearly)
    with pytest.raises(ValueError):
        cholesky_factor(np.stack([np.eye(2), np.array([[1.0, 0.5], [0.4, 1.0]])]))


def test_single_blas_thread_caps_and_restores_the_thread_count():
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, set_ = threads
    before = get()
    set_(2)
    outer = get()
    try:
        with single_blas_thread():
            assert get() == 1
            with single_blas_thread():
                assert get() == 1
            assert get() == 1
        assert get() == outer
        with single_blas_thread(False):
            assert get() == outer
        with pytest.raises(RuntimeError), single_blas_thread():
            raise RuntimeError
        assert get() == outer
    finally:
        set_(before)


def test_is_positive_definite():
    assert is_positive_definite(np.eye(4))
    assert not is_positive_definite(np.ones((3, 3)))


# ---------------------------------------------------------------------------
# eigenvalue perturbation (Weyl)
# ---------------------------------------------------------------------------


def test_eigenvalue_shift_bounded_by_operator_norm_of_difference():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = int(rng.integers(2, 20))
        A = random_symmetric(rng, p)
        B = random_symmetric(rng, p)
        la = sym_eigen(A).eigenvalues
        lb = sym_eigen(B).eigenvalues
        bound = matrix_norm(A - B, "operator") + 1e-10
        assert np.max(np.abs(la - lb)) <= bound


# ---------------------------------------------------------------------------
# matrix CSV I/O
# ---------------------------------------------------------------------------


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    M = random_pd(rng, 7)
    path = tmp_path / "m.csv"
    save_matrix_csv(path, M)
    back = load_matrix_csv(path)
    assert_array_equal(back, M)


def test_matrix_csv_small_asymmetry_is_averaged(tmp_path):
    M = np.array([[1.0, 2.0], [2.0 + 5e-10, 3.0]])
    path = tmp_path / "m.csv"
    np.savetxt(path, M, delimiter=",", fmt="%.17g")
    back = load_matrix_csv(path)
    assert np.array_equal(back, back.T)
    assert back[0, 1] == pytest.approx(2.0 + 2.5e-10, abs=1e-16)


def test_matrix_csv_large_asymmetry_rejected(tmp_path):
    M = np.array([[1.0, 2.0], [2.1, 3.0]])
    path = tmp_path / "m.csv"
    np.savetxt(path, M, delimiter=",", fmt="%.17g")
    with pytest.raises(DataFormatError):
        load_matrix_csv(path)


def test_matrix_csv_rejects_nonsquare_and_nonfinite(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(DataFormatError):
        load_matrix_csv(path)
    path.write_text("1.0,nan\nnan,1.0\n")
    with pytest.raises(DataFormatError):
        load_matrix_csv(path)


def test_matrix_csv_empty_file_rejected_without_warning(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_matrix_csv(path)


# ---------------------------------------------------------------------------
# acceptance criterion 8's invariant suites, as hypothesis properties.  The
# fixed criterion keeps its own instances; these draw entries directly, over
# wider magnitudes, with tolerances relative to the matrices' size.
# ---------------------------------------------------------------------------

ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def square(p, elements=ENTRIES):
    return arrays(float, (p, p), elements=elements)


@st.composite
def symmetric_pair(draw, max_p=14):
    p = draw(st.integers(1, max_p))
    return symmetrize(draw(square(p))), symmetrize(draw(square(p)))


@given(symmetric_pair())
def test_weyl_eigenvalue_shift_property(pair):
    A, E = pair
    shift = np.max(np.abs(sym_eigen(A + E).eigenvalues - sym_eigen(A).eigenvalues))
    slack = 1e-12 * A.shape[0] * (matrix_norm(A, "frobenius") + matrix_norm(E, "frobenius"))
    assert shift <= matrix_norm(E, "operator") + slack


@st.composite
def positive_definite_pair(draw):
    """Two p x p Gram matrices G'G / m plus a ridge that keeps them positive
    definite whatever the drawn entries (zero rows included)."""
    p = draw(st.integers(1, 12))
    m = p + draw(st.integers(0, 4))
    ridge = st.floats(0.01, 1.0)
    out = []
    for _ in range(2):
        G = draw(arrays(float, (m, p), elements=st.floats(-10, 10)))
        out.append(G.T @ G / m + draw(ridge) * np.eye(p))
    return out


@given(positive_definite_pair())
def test_schur_product_of_positive_definite_is_positive_definite_property(pair):
    A, B = pair
    assert is_positive_definite(A) and is_positive_definite(B)
    assert is_positive_definite(schur_product(A, B))


@given(st.integers(1, 24).flatmap(lambda p: square(p)).map(symmetrize))
def test_operator_norm_bounded_by_one_one_norm_property(M):
    assert matrix_norm(M, "operator") <= matrix_norm(M, "one_one") * (1 + 1e-12)


@st.composite
def symmetric_and_two_bandwidths(draw):
    p = draw(st.integers(1, 11))
    k = st.integers(0, p + 1)
    return symmetrize(draw(square(p))), draw(k), draw(k)


@given(symmetric_and_two_bandwidths())
def test_band_idempotent_and_composes_by_minimum_property(case):
    M, k1, k2 = case
    B = band(M, k1)
    assert np.array_equal(band(B, k1), B)
    assert np.array_equal(band(B, k2), band(M, min(k1, k2)))
