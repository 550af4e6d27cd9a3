import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from covband.errors import SpectralDegeneracy, ZeroTrace
from covband.matcore import matrix_norm, symmetrize, sym_eigen
from covband.selection import oracle_k1
from covband.simgen import CovarianceModel, build_covariance, sample_gaussian
from covband.spectral import eigen_compare, variance_captured, write_comparison_csv
from covband.estimators import banded_covariance


def random_orthogonal(rng, p):
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return Q


def separated_spectrum_matrix(rng, p):
    """Symmetric matrix with eigenvalues p, p-1, ..., 1 (all gaps exactly 1)."""
    Q = random_orthogonal(rng, p)
    return symmetrize(Q @ np.diag(np.arange(p, 0, -1, dtype=float)) @ Q.T)


# ---------------------------------------------------------------------------
# eigen_compare
# ---------------------------------------------------------------------------


def test_identical_inputs_give_zero_errors():
    rng = np.random.default_rng(0)
    M = separated_spectrum_matrix(rng, 6)
    cmp = eigen_compare(M, M, 3)
    assert np.all(cmp.eigenvalue_errors == 0.0)
    assert np.max(cmp.projection_errors) <= 1e-10


def test_diagonal_shift_moves_eigenvalue_not_projection():
    truth = np.diag([3.0, 2.0, 1.0])
    estimate = np.diag([3.1, 2.0, 1.0])
    cmp = eigen_compare(estimate, truth, 1)
    assert cmp.eigenvalue_errors[0] == pytest.approx(0.1, abs=1e-12)
    assert cmp.projection_errors[0] <= 1e-12
    assert cmp.gap == pytest.approx(1.0)


def test_projection_error_of_a_plane_rotation_is_the_sine():
    # rank-1 projectors onto unit vectors u, v satisfy
    # ||uu' - vv'||_op = sin(angle(u, v))
    theta = 0.3
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    truth = np.diag([2.0, 1.0])
    estimate = symmetrize(R @ truth @ R.T)
    cmp = eigen_compare(estimate, truth, 2)
    assert_allclose(cmp.eigenvalue_errors, [0.0, 0.0], atol=1e-12)
    assert_allclose(cmp.projection_errors, [abs(s), abs(s)], rtol=1e-10)


def test_projection_errors_ignore_eigenvector_sign():
    rng = np.random.default_rng(1)
    truth = separated_spectrum_matrix(rng, 5)
    dec = sym_eigen(truth)
    flipped = dec.eigenvectors * np.array([1.0, -1.0, 1.0, -1.0, -1.0])
    estimate = symmetrize(flipped @ np.diag(dec.eigenvalues) @ flipped.T)
    cmp = eigen_compare(estimate, truth, 4)
    assert np.max(cmp.projection_errors) <= 1e-8


def _unit(x):
    return x / np.linalg.norm(x)


@st.composite
def unit_vector_pairs(draw):
    """Unit vectors (v, w) in R^p: independent, or w = +-v plus a perturbation
    of size 1e-12 .. 1e-1 (near-parallel and near-antiparallel pairs)."""
    p = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = _unit(rng.standard_normal(p))
    sign = draw(st.sampled_from([None, 1.0, -1.0]))
    if sign is None:
        return v, _unit(rng.standard_normal(p))
    size = 10.0 ** draw(st.floats(-12.0, -1.0))
    return v, _unit(sign * v + size * rng.standard_normal(p))


NEAR = _unit(np.array([1.0, 2.0, 3.0, 4.0]))
TILT = 1e-9 * np.array([1.0, -1.0, 1.0, -1.0])


@given(unit_vector_pairs())
@example((NEAR, _unit(NEAR + TILT)))
@example((NEAR, _unit(-NEAR + TILT)))
@example((NEAR, -NEAR))
@example((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
def test_projection_error_is_the_projector_distance_property(pair):
    # the top eigenvectors of I + vv' and I + ww' are +-v and +-w
    v, w = pair
    p = v.size
    cmp = eigen_compare(np.eye(p) + np.outer(w, w), np.eye(p) + np.outer(v, v), 1)
    definition = matrix_norm(np.outer(w, w) - np.outer(v, v), "operator")
    assert abs(cmp.projection_errors[0] - definition) <= 1e-14


def test_degenerate_spectrum_is_rejected():
    with pytest.raises(SpectralDegeneracy):
        eigen_compare(np.eye(4), np.eye(4), 1)
    truth = np.diag([2.0, 2.0 - 5e-9, 1.0])
    with pytest.raises(SpectralDegeneracy):
        eigen_compare(truth, truth, 1)
    ok = np.diag([2.0, 2.0 - 2e-8, 1.0])
    eigen_compare(ok, ok, 1)


def test_m_out_of_range_rejected():
    M = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        eigen_compare(M, M, 0)
    with pytest.raises(ValueError):
        eigen_compare(M, M, 4)
    with pytest.raises(ValueError):
        eigen_compare(np.diag([3.0, 2.0]), M, 1)


def test_small_perturbation_bounds():
    # gap-1 spectrum, perturbation of operator norm 0.01: eigenvalues move
    # at most 0.01; projections move at most 16 * gap^-2 * 0.01 = 0.16
    rng = np.random.default_rng(2)
    for _ in range(30):
        p = int(rng.integers(3, 10))
        truth = separated_spectrum_matrix(rng, p)
        E = symmetrize(rng.standard_normal((p, p)))
        E *= 0.01 / matrix_norm(E, "operator")
        estimate = truth + E
        m = min(3, p)
        cmp = eigen_compare(estimate, truth, m)
        assert np.max(cmp.eigenvalue_errors) <= 0.01 + 1e-12
        assert np.max(cmp.projection_errors) <= 0.16


def test_errors_within_declared_ranges():
    rng = np.random.default_rng(3)
    truth = separated_spectrum_matrix(rng, 6)
    estimate = symmetrize(truth + 0.5 * rng.standard_normal((6, 6)))
    cmp = eigen_compare(estimate, truth, 4)
    assert np.all(np.isfinite(cmp.eigenvalue_errors))
    assert np.all(cmp.eigenvalue_errors >= 0)
    assert np.all((cmp.projection_errors >= 0) & (cmp.projection_errors <= 2.0))


def test_banded_estimate_eigenvalue_errors_shrink_with_n():
    truth = build_covariance(CovarianceModel("ma1", 0.5), 30)
    medians = []
    for n in (100, 400):
        errs = []
        for seed in range(20):
            X = sample_gaussian(truth, n, seed)
            cmp = eigen_compare(banded_covariance(X, 1), truth, 3)
            errs.append(np.max(cmp.eigenvalue_errors))
        medians.append(np.median(errs))
    assert medians[1] < medians[0]


# ---------------------------------------------------------------------------
# variance_captured
# ---------------------------------------------------------------------------


def test_variance_captured_examples():
    assert variance_captured(np.eye(4), 2) == pytest.approx(0.5)
    assert variance_captured(np.eye(4), 4) == pytest.approx(1.0)
    assert variance_captured(np.diag([3.0, 1.0]), 1) == pytest.approx(0.75)


def test_variance_captured_scale_invariant():
    rng = np.random.default_rng(4)
    G = rng.standard_normal((12, 6))
    M = symmetrize(G.T @ G)
    for c in (0.25, 1.0, 8.0):
        assert variance_captured(c * M, 2) == pytest.approx(
            variance_captured(M, 2), rel=1e-12
        )


def test_variance_captured_rejects_zero_trace_and_bad_m():
    with pytest.raises(ZeroTrace):
        variance_captured(np.zeros((3, 3)), 1)
    with pytest.raises(ValueError):
        variance_captured(np.eye(3), 0)
    with pytest.raises(ValueError):
        variance_captured(np.eye(3), 4)


# ---------------------------------------------------------------------------
# comparison CSV
# ---------------------------------------------------------------------------


def test_comparison_csv_layout(tmp_path):
    rng = np.random.default_rng(5)
    truth = separated_spectrum_matrix(rng, 5)
    estimate = symmetrize(truth + 0.01 * rng.standard_normal((5, 5)))
    cmp = eigen_compare(estimate, truth, 3)
    path = tmp_path / "cmp.csv"
    write_comparison_csv(path, cmp)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,lambda_true,lambda_est,abs_err,proj_err"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(cmp.lambda_true[0])
    assert float(first[3]) == pytest.approx(cmp.eigenvalue_errors[0])


def test_oracle_banded_estimate_tracks_top_eigenvalues():
    # end-to-end: estimate at the per-sample oracle bandwidth and confirm
    # the top eigenvalues are within the operator-norm error bound
    truth = build_covariance(CovarianceModel("ar1", 0.7), 40)
    X = sample_gaussian(truth, 200, 6)
    result = oracle_k1(X, truth)
    estimate = banded_covariance(X, result.k_hat)
    cmp = eigen_compare(estimate, truth, 5)
    bound = matrix_norm(estimate - truth, "operator") + 1e-10
    assert np.max(cmp.eigenvalue_errors) <= bound
